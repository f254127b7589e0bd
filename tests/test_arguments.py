"""Scalar argument rules, one table per rule: every public entry point
refuses a bad count, positive real, interval level or window with a
ConfigurationError that names the argument and reports the value it got.
No rule takes a bool as a number.

Each rule has one owner: counts ``errors._integer``, positive reals
``errors._positive``, finite reals ``errors._finite``, interval levels
``errors._level`` and windows ``estimators._windows``. Probability rows
(transitions, policies, kernels) have ``core._probability_rows``, whose
cases are in tests/test_core.py and tests/test_cli.py.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pomdp_ope import (
    BandwidthRule,
    ConfigurationError,
    EstimatorConfig,
    Gaussian,
    PointMass,
    Policy,
    PomdpModel,
    SweepSpec,
    corollary_window,
    derive_seed,
    estimate_with_ci,
    fit_rate,
    hac_variance,
    lepski_select,
    phiw_estimate,
    run_lepski_study,
    run_sweep,
    simulate,
    stationary_distribution,
)
from pomdp_ope import harness
from pomdp_ope.cli import main
from pomdp_ope.harness import hard_params
from pomdp_ope.instances import toy_model
from pomdp_ope.instances.glucose import glucose_simulate, target_value_oracle
from pomdp_ope.instances.hard import (
    HardInstanceParams,
    check_conditions,
    kl_bound,
    params_from_mixing_time,
    theorem2_design,
)

NAN, INF = float("nan"), float("inf")
MODEL, BEHAVIOR, _ = toy_model()
RHO, Y = [np.full(50, 2.0)], [np.arange(50.0)]
KERNEL = np.array([[0.9, 0.1], [0.2, 0.8]])
HARD = "t0=1,zeta=0.69,M1=1,M2=2"
GLUCOSE = harness.make_environment("glucose")
TOY = harness.make_environment("toy")


def _params(**overrides) -> HardInstanceParams:
    base = dict(Q=2, delta=0.5, Delta=0.1, M1=1.0, M2=2.0, zeta=0.5)
    return HardInstanceParams(**{**base, **overrides})


def _spec(**overrides) -> SweepSpec:
    base = dict(environment="toy", k_values=(0,), T_values=(20,), replications=2, burn_in=5)
    return SweepSpec(**{**base, **overrides})


def _cached_oracle(cached, seed):
    target_value_oracle(runs=2, hours=3, seed=cached)
    return target_value_oracle(runs=2, hours=3, seed=seed)


def _table(rows):
    """pytest params (call, name, value) from (entry, name, call, values) rows."""
    return [
        pytest.param(call, name, value, id=f"{entry}-{value!r}")
        for entry, name, call, values in rows
        for value in values
    ]


def _assert_refused(call, name, value):
    pattern = rf"^{re.escape(name)}\b.*, got {re.escape(repr(value))}$"
    with pytest.raises(ConfigurationError, match=pattern):
        call(value)


ALL = (1.5, NAN, INF, -1, "3", True)
# For counts whose negative values their own tests already cover.
NOT_NEGATIVE = (1.5, NAN, INF, "3", True)

# Counts: integers, at least a minimum.
COUNTS = [
    ("simulate", "T", lambda v: simulate(MODEL, BEHAVIOR, v), ALL),
    ("simulate", "burn_in", lambda v: simulate(MODEL, BEHAVIOR, 5, v), ALL),
    ("glucose_simulate", "T", lambda v: glucose_simulate(v), ALL),
    ("glucose_simulate", "burn_in", lambda v: glucose_simulate(5, v), ALL),
    ("glucose rewards_and_ratios", "T", lambda v: GLUCOSE.rewards_and_ratios(v, 5, [0]), ALL),
    ("glucose rewards_and_ratios", "burn_in", lambda v: GLUCOSE.rewards_and_ratios(5, v, [0]), ALL),
    ("target_value_oracle", "runs", lambda v: target_value_oracle(runs=v, hours=5), NOT_NEGATIVE),
    ("target_value_oracle", "hours", lambda v: target_value_oracle(runs=5, hours=v), NOT_NEGATIVE),
    ("target_value_oracle", "burn_in", lambda v: target_value_oracle(runs=5, hours=5, burn_in=v), ALL),
    ("stationary_distribution", "max_iter", lambda v: stationary_distribution(KERNEL, max_iter=v), ALL),
    ("HardInstanceParams", "Q", lambda v: _params(Q=v), ALL),
    ("hard_params", "Q", lambda v: hard_params(f"Q={v},{HARD}"), ALL[:4]),
    ("theorem2_design", "T", lambda v: theorem2_design(v, 4.0, 1.0, 1.0, 2.0), ALL),
    ("kl_bound", "T", lambda v: kl_bound(_params(), v, 1.0), ALL),
    ("corollary_window", "n", lambda v: corollary_window(v, 10, 1.0, 0.5), ALL),
    ("corollary_window", "T", lambda v: corollary_window(1, v, 1.0, 0.5), ALL + (1,)),
    ("SweepSpec replications", "replications", lambda v: _spec(replications=v), ALL),
    ("run_sweep", "chunk size", lambda v: run_sweep(_spec(), chunk_size=v), NOT_NEGATIVE),
    ("run_sweep workers", "workers", lambda v: run_sweep(_spec(), workers=v), ("abc", -3, 1.5)),
    ("run_lepski_study workers", "workers", lambda v: run_lepski_study(_spec(), [0, 1], workers=v), (0,)),
    ("SweepSpec", "T_values entry", lambda v: _spec(k_values=(-1,), T_values=(v,)), (-1,)),
    # Each horizon draws its own streams, so a repeated one gave two cells
    # with different values.
    ("SweepSpec repeated", "T_values entry", lambda v: _spec(T_values=(v, 40, v)), (30,)),
    # Seeds: operator.index takes True as 1, so a bool seed once ran as seed 1.
    ("simulate seed", "seeds", lambda v: simulate(MODEL, BEHAVIOR, 5, seed=v), (True,)),
    ("glucose_simulate seed", "seeds", lambda v: glucose_simulate(5, seed=v), (True,)),
    ("derive_seed master", "seeds", lambda v: derive_seed(v, 1), (True, False)),
    ("derive_seed path", "seeds", lambda v: derive_seed(1, v), (True, False)),
    ("seed array", "seeds", lambda v: TOY.rewards_and_ratios(5, 0, np.array([v, v])), (True,)),
    # Seed 1 cached first: an equal bool must not be served from the cache.
    ("target_value_oracle seed", "seeds", lambda v: _cached_oracle(1, v), (True,)),
]


@pytest.mark.parametrize("call, name, value", _table(COUNTS))
def test_bad_count_is_named(call, name, value):
    _assert_refused(call, name, value)


# Positive reals: finite and > 0.
POSITIVE = [
    ("EstimatorConfig", "bandwidth", lambda v: EstimatorConfig(k=1, bandwidth=v), ALL[1:]),
    ("BandwidthRule-fixed", "fixed bandwidth", lambda v: BandwidthRule("fixed", v), ALL[1:]),
    ("BandwidthRule-power", "bandwidth", lambda v: BandwidthRule("power", v).bandwidth(100), (NAN, INF)),
    ("hac_variance", "bandwidth", lambda v: hac_variance(RHO, Y, 1, v), ALL[1:]),
    (
        "lepski_select",
        "bandwidth",
        lambda v: lepski_select(RHO, Y, [0, 1], bandwidth_rule=BandwidthRule("power", v)),
        (NAN, INF),
    ),
    ("SweepSpec", "bandwidth", lambda v: _spec(bandwidth=BandwidthRule("power", v)), (NAN, INF)),
    ("stationary_distribution", "tol", lambda v: stationary_distribution(KERNEL, tol=v), ALL[1:]),
    ("corollary_window", "t0", lambda v: corollary_window(1, 10, v, 0.5), ALL[1:]),
    ("corollary_window", "C0", lambda v: corollary_window(1, 10, 1.0, 0.5, v), ALL[1:]),
    ("params_from_mixing_time", "t0", lambda v: params_from_mixing_time(2, v, 0.5, 1.0, 2.0, 0.1), ALL[1:]),
    ("HardInstanceParams", "zeta", lambda v: _params(zeta=v), ALL[1:]),
    ("theorem2_design", "t0", lambda v: theorem2_design(100, v, 1.0, 1.0, 2.0), ALL[1:]),
    ("theorem2_design", "zeta", lambda v: theorem2_design(100, 4.0, v, 1.0, 2.0), ALL[1:]),
    ("theorem2_design", "M1", lambda v: theorem2_design(100, 4.0, 1.0, v, 2.0), ALL[1:]),
    ("kl_bound", "t0", lambda v: kl_bound(_params(), 5, v), ALL[1:]),
    ("check_conditions", "tol", lambda v: check_conditions(_params(), tol=v), ALL[1:]),
]


@pytest.mark.parametrize("call, name, value", _table(POSITIVE))
def test_bad_positive_real_is_named(call, name, value):
    _assert_refused(call, name, value)


# Finite reals: a power bandwidth's exponent, a reward law's numbers, a hard
# instance's moments and an overlap constant, checked when the rule, law or
# instance is built; an sd and a zeta are also >= 0 (a negative sd, -inf
# among them, is test_core's case).
NOT_FINITE = (NAN, INF, "3", True)
FINITE = [
    ("BandwidthRule-power", "bandwidth exponent", lambda v: BandwidthRule("power", v), NOT_FINITE),
    ("Gaussian mean", "reward mean", lambda v: Gaussian(v, 1.0), NOT_FINITE + (-INF,)),
    ("Gaussian sd", "reward sd", lambda v: Gaussian(0.0, v), NOT_FINITE),
    ("PointMass", "reward value", lambda v: PointMass(v), NOT_FINITE + (-INF,)),
    ("HardInstanceParams M1", "M1", lambda v: _params(M1=v), NOT_FINITE),
    ("HardInstanceParams M2", "M2", lambda v: _params(M2=v), NOT_FINITE),
    ("HardInstanceParams Delta", "Delta", lambda v: _params(Delta=v), NOT_FINITE),
    ("theorem2_design M2", "M2", lambda v: theorem2_design(100, 4.0, 1.0, 1.0, v), NOT_FINITE),
    # An infinite overlap constant calibrates no window.
    ("corollary_window zeta", "zeta", lambda v: corollary_window(1, 10, 1.0, v), NOT_FINITE + (-1.0,)),
]


@pytest.mark.parametrize("call, name, value", _table(FINITE))
def test_bad_finite_real_is_named(call, name, value):
    _assert_refused(call, name, value)


@pytest.mark.parametrize("exponent", [1000, 1000.0, -1000.0])
def test_power_bandwidth_out_of_the_float_range_is_named(exponent):
    # 1e5**1000 overflows; 1e5**-1000 underflows to 0.
    power = re.escape(f"100000**{exponent}")
    pattern = rf"^bandwidth {power} must be finite and > 0, got (inf|0.0)$"
    with pytest.raises(ConfigurationError, match=pattern):
        BandwidthRule("power", exponent).bandwidth(100_000)


# Interval levels: alpha and a hard instance's reset probability delta, a
# real strictly between 0 and 1. lepski_select hands its alpha to the
# estimator core, whose check is the one it meets.
LEVEL = ALL + (0.0, 1.0)
LEVELS = [
    ("EstimatorConfig", "alpha", lambda v: EstimatorConfig(k=1, alpha=v), LEVEL),
    ("SweepSpec", "alpha", lambda v: _spec(alpha=v), LEVEL),
    ("lepski_select", "alpha", lambda v: lepski_select(RHO, Y, [0, 1], alpha=v), LEVEL),
    ("HardInstanceParams delta", "delta", lambda v: _params(delta=v), LEVEL),
]


@pytest.mark.parametrize("call, name, value", _table(LEVELS))
def test_bad_level_is_named(call, name, value):
    _assert_refused(call, name, value)


# Windows: integers >= -1, at least one, none repeated, sorted where a scan
# runs over them.
WINDOW = (1.5, NAN, INF, "3", -2, True)
WINDOWS = [
    ("phiw_estimate", "k", lambda v: phiw_estimate(RHO, Y, v), WINDOW),
    ("hac_variance", "k", lambda v: hac_variance(RHO, Y, v, 3.0), WINDOW),
    ("EstimatorConfig", "k", lambda v: EstimatorConfig(k=v), WINDOW),
    ("lepski_select", "candidates entry", lambda v: lepski_select(RHO, Y, [v, 2]), WINDOW),
    ("run_lepski_study", "candidates entry", lambda v: run_lepski_study(_spec(), [v, 0]), (-2,)),
    ("SweepSpec", "k_values entry", lambda v: _spec(k_values=(v, 0)), (-2,)),
    ("SweepSpec repeated", "k_values entry", lambda v: _spec(k_values=(v, -1, v)), (0,)),
    ("lepski_select repeated", "candidates entry", lambda v: lepski_select(RHO, Y, [0, v, v]), (1,)),
    ("run_lepski_study repeated", "candidates entry", lambda v: run_lepski_study(_spec(), [v, v]), (0,)),
]


@pytest.mark.parametrize("call, name, value", _table(WINDOWS))
def test_bad_window_is_named(call, name, value):
    _assert_refused(call, name, value)


@pytest.mark.parametrize(
    "call",
    [
        lambda: phiw_estimate(RHO, Y, 1.5),
        lambda: hac_variance(RHO, Y, 1.5, 3.0),
        lambda: estimate_with_ci(RHO, Y, EstimatorConfig(k=1.5)),
        lambda: lepski_select(RHO, Y, [0, 0.5, 1]),
    ],
    ids=["phiw_estimate", "hac_variance", "estimate_with_ci", "lepski_select"],
)
def test_fractional_window_raises(call):
    # No window column matches 1.5, so its estimate once came from unset
    # memory (value 0.0, variance 5e-324) instead of an error.
    with pytest.raises(ConfigurationError, match="must be an integer, got (1|0).5"):
        call()


def test_spec_refuses_a_window_the_shortest_horizon_cannot_take():
    with pytest.raises(ConfigurationError, match="length 10 too short for window k=9"):
        SweepSpec(environment="toy", k_values=(9,), T_values=(10,), replications=1)
    assert SweepSpec(environment="toy", k_values=(8,), T_values=(10,), replications=1)


def test_study_refuses_bad_candidates_before_it_runs(monkeypatch):
    spec = _spec()

    def unreachable(*args):
        raise AssertionError("the study started")

    # Every study runs its jobs through the runner.
    monkeypatch.setattr(harness, "_run_jobs", unreachable)
    with pytest.raises(ConfigurationError, match="sorted ascending"):
        run_lepski_study(spec, [1, 0])
    with pytest.raises(ConfigurationError, match="length 20 too short for window k=19"):
        run_lepski_study(spec, [0, 19])


# Environments: an id or an environment object, and nothing else.
@pytest.mark.parametrize("value", [5, None, MODEL], ids=["int", "None", "PomdpModel"])
@pytest.mark.parametrize(
    "call",
    [harness.make_environment, lambda v: _spec(environment=v)],
    ids=["make_environment", "SweepSpec"],
)
def test_non_environment_is_named(call, value):
    pattern = rf"^environment must be an id or an environment object, got {re.escape(repr(value)[:40])}"
    with pytest.raises(ConfigurationError, match=pattern):
        call(value)


def _model(transition) -> PomdpModel:
    return PomdpModel(num_x=2, num_h=2, num_actions=2, transition=transition, reward=MODEL.reward)


TRUE_IN_ROW = MODEL.transition.tolist()
TRUE_IN_ROW[1][2][3] = True


# Arrays of numbers: a bool is no number, among numbers or alone, in a list,
# a tuple or an array.
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: Policy(probs=[[True, 0.0], [0.5, 0.5]]), "policy probs"),
        (lambda: Policy(probs=((0.5, 0.5), (np.False_, 1.0))), "policy probs"),
        (lambda: Policy(probs=[[True, False], [False, True]]), "policy probs"),
        (lambda: Policy(probs=np.eye(2, dtype=bool)), "policy probs"),
        (lambda: _model(TRUE_IN_ROW), "transition"),
    ],
    ids=["policy-list", "policy-tuple", "policy-all-bool", "policy-bool-array", "transition-list"],
)
def test_bools_in_an_array_of_numbers_are_refused(call, name):
    with pytest.raises(ConfigurationError, match=rf"^{name} must be a rectangular array of numbers$"):
        call()


@given(
    st.integers(1, 50),
    st.integers(2, 10**6),
    st.floats(0.01, 100.0),
    st.floats(0.0, 5.0),
    st.floats(0.01, 1e9),
)
def test_corollary_window_is_a_window_the_horizon_takes(n, T, t0, zeta, C0):
    k = corollary_window(n=n, T=T, t0=t0, zeta=zeta, C0=C0)
    assert 0 <= k <= T - 2


@pytest.mark.parametrize("index, point", [(0, (1.0, NAN)), (2, (INF, 1.0))])
def test_rate_fit_refuses_a_non_finite_point(index, point):
    points = [(1.0, 1.0), (2.0, 0.5), (3.0, 0.3)]
    points[index] = point
    with pytest.raises(ConfigurationError, match=rf"finite, got (nan|inf) at index \({index}, "):
        fit_rate(points)


def _cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ("estimate", "--env", "toy", "--T", "100", "--k", "1", "--bandwidth-exp", "nan"),
        ("estimate", "--env", "toy", "--T", "100000", "--k", "1", "--bandwidth-exp", "1000"),
        ("sweep", "--env", "toy", "--k-set=0", "--T-set=50", "--replications", "2", "--bandwidth-exp", "inf"),
        ("instance", "--env", f"hard:Q=2.5,{HARD}", "--check"),
        ("instance", "--env", f"hard:Q=nan,{HARD}", "--check"),
        # A repeated key once ran its last value, while the env label showed both.
        ("sweep", "--env", f"hard:Q=3,{HARD},Q=4", "--k-set=0", "--T-set=50", "--replications", "2"),
    ],
    ids=[
        "estimate-nan-bandwidth",
        "estimate-overflowing-bandwidth",
        "sweep-inf-bandwidth",
        "hard-fractional-Q",
        "hard-nan-Q",
        "hard-repeated-Q",
    ],
)
def test_cli_names_a_bad_argument_with_exit_2(capsys, argv):
    code, captured = _cli(capsys, *argv)
    assert code == 2
    assert re.match(r"error: (bandwidth|Q) ", captured.err)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("sweep", "--env", "toy", "--k-set=0", "--T-set=30,30", "--replications", "3"), "T_values entry must not repeat, got 30"),
        (("sweep", "--env", "toy", "--k-set=0,0", "--T-set=30", "--replications", "3"), "k_values entry must not repeat, got 0"),
        (("lepski", "--env", "toy", "--T", "60", "--k-set=1,1,2"), "candidates entry must not repeat, got 1"),
    ],
    ids=["sweep-repeated-T", "sweep-repeated-k", "lepski-repeated-k"],
)
def test_cli_names_a_repeated_window_or_horizon_with_exit_2(capsys, argv, message):
    code, captured = _cli(capsys, *argv)
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


def test_cli_calibrated_window_is_one_estimate_takes(capsys):
    code, captured = _cli(capsys, "oracle", "--env", "toy", "--T", "3", "--C0", "1000000")
    assert code == 0
    k = json.loads(captured.out)["calibrated_k"]
    assert k == 1
    code, _ = _cli(capsys, "estimate", "--env", "toy", "--T", "3", "--k", str(k))
    assert code == 0
