from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import interior_policy, random_model, random_policy, streams
from oracles import (
    iter_paths_with_probability,
    naive_estimate,
    naive_hac,
    naive_phiw,
    pushforward_value,
    window_weights_reference,
)

from pomdp_ope import (
    BandwidthRule,
    ConfigurationError,
    EstimatorConfig,
    OverlapViolationError,
    PointMass,
    Policy,
    PomdpModel,
    Trajectory,
    corollary_window,
    estimate_with_ci,
    hac_variance,
    importance_ratios,
    lepski_select,
    mixing_overlap_report,
    parzen_kernel,
    phiw_estimate,
    select_window_from_intervals,
    simulate,
    simulate_batch,
    window_weights,
)
from pomdp_ope import estimators as est_mod


# ---------------------------------------------------------------------------
# Lag window


def test_parzen_at_zero():
    assert parzen_kernel(0.0) == 1.0


def test_parzen_continuous_at_knot():
    inner = 1.0 - 6.0 * 0.5**2 + 6.0 * 0.5**3
    outer = 2.0 * (1.0 - 0.5) ** 3
    assert inner == outer == 0.25
    assert parzen_kernel(0.5) == 0.25


def test_parzen_support_and_symmetry():
    assert parzen_kernel(1.0) == 0.0
    assert parzen_kernel(1.7) == 0.0
    assert parzen_kernel(-0.3) == parzen_kernel(0.3)


def test_parzen_vectorized():
    x = np.array([-1.5, -0.5, 0.0, 0.25, 0.75, 1.0])
    out = parzen_kernel(x)
    np.testing.assert_allclose(out, [parzen_kernel(float(v)) for v in x])


# ---------------------------------------------------------------------------
# Window weights and point estimate


def test_identity_policies_collapse_to_reward_mean(toy):
    model, behavior, _ = toy
    traj = simulate(model, behavior, T=80, burn_in=20, seed=3)
    for k in (0, 1, 2, 5):
        assert phiw_estimate(*streams([traj], behavior, behavior), k) == traj.y[k:].mean()


def test_k_minus_one_is_plain_mean(toy):
    model, behavior, target = toy
    traj = simulate(model, behavior, T=97, burn_in=10, seed=4)
    assert phiw_estimate(*streams([traj], target, behavior), -1) == traj.y.mean()


def test_matches_naive_loop_implementation(toy):
    model, behavior, target = toy
    traj = simulate(model, behavior, T=60, burn_in=10, seed=5)
    for k in (-1, 0, 1, 3):
        expected = naive_phiw(traj.x, traj.w, traj.y, target.probs, behavior.probs, k)
        assert phiw_estimate(*streams([traj], target, behavior), k) == pytest.approx(
            expected, rel=1e-12
        )


def test_multi_trajectory_average(toy):
    model, behavior, target = toy
    trajs = simulate_batch(model, behavior, T=40, burn_in=10, seeds=[1, 2, 3])
    singles = [phiw_estimate(*streams([t], target, behavior), 2) for t in trajs]
    assert phiw_estimate(*streams(trajs, target, behavior), 2) == pytest.approx(
        np.mean(singles), rel=1e-14
    )


def test_window_weights_log_space_agrees_with_direct():
    rng = np.random.default_rng(6)
    rho = np.exp(rng.normal(0.0, 1.5, size=200))
    rho[rng.random(200) < 0.1] = 0.0
    k = 4
    direct = window_weights(rho, k)
    forced = est_mod._LOG_SPACE_THRESHOLD
    try:
        est_mod._LOG_SPACE_THRESHOLD = -1.0  # force the log-space path
        logged = window_weights(rho, k)
    finally:
        est_mod._LOG_SPACE_THRESHOLD = forced
    np.testing.assert_allclose(logged, direct, rtol=1e-10, atol=1e-300)
    assert ((direct == 0) == (logged == 0)).all()


def _window_weights_with_threshold(rho, k, threshold):
    saved = est_mod._LOG_SPACE_THRESHOLD
    try:
        est_mod._LOG_SPACE_THRESHOLD = threshold
        return window_weights(rho, k)
    finally:
        est_mod._LOG_SPACE_THRESHOLD = saved


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_window_products_agree_near_log_space_threshold(data):
    k = data.draw(st.integers(0, 8), label="k")
    T = data.draw(st.integers(k + 1, k + 40), label="T")
    logs = data.draw(arrays(np.float64, T, elements=st.floats(-1.0, 1.0)), label="logs")
    logs[data.draw(st.integers(0, T - 1), label="peak")] = data.draw(
        st.sampled_from([-1.0, 1.0]), label="sign"
    )
    zeros = data.draw(arrays(np.bool_, T, elements=st.booleans()), label="zeros")
    # Scale so the worst-case window log magnitude (k+1) * max|log rho| lands
    # within one unit of the switch to log space, on either side.
    reach = data.draw(st.floats(-1.0, 1.0), label="reach")
    logs *= (est_mod._LOG_SPACE_THRESHOLD + reach) / (k + 1)
    rho = np.where(zeros, 0.0, np.exp(logs))
    direct = _window_weights_with_threshold(rho, k, np.inf)
    logged = _window_weights_with_threshold(rho, k, -1.0)
    np.testing.assert_allclose(logged, direct, rtol=1e-12, atol=0.0)
    assert ((direct == 0.0) == (logged == 0.0)).all()
    positive = rho > 0.0
    max_log = float(np.abs(np.log(rho[positive])).max()) if positive.any() else 0.0
    chosen = direct if (k + 1) * max_log <= est_mod._LOG_SPACE_THRESHOLD else logged
    np.testing.assert_array_equal(window_weights(rho, k), chosen)


def test_window_weights_survive_transient_overflow():
    # Window products here are all exp(+-350) or 1, representable in a double,
    # but left-to-right partial products pass through exp(700); the log-space
    # path (triggered by the large per-step log magnitude) stays exact.
    big = np.exp(350.0)
    rho = np.tile([big, big, 1.0 / big, 1.0 / big], 20)
    w = window_weights(rho, 2)
    assert np.isfinite(w).all()
    assert w.max() == pytest.approx(np.exp(350.0), rel=1e-9)
    assert w.min() == pytest.approx(np.exp(-350.0), rel=1e-9)


@st.composite
def _ratio_batches(draw):
    """(ks, ratios, rewards): a few requested windows and a batch whose rows
    multiply directly, in log space, or cross into log space between two
    requested windows, with zero ratios, products past the float range, and
    partial products that overflow although the window products do not."""
    threshold = est_mod._LOG_SPACE_THRESHOLD
    k_max = draw(st.integers(0, 8), label="k_max")
    ks = sorted(set(draw(st.lists(st.integers(-1, k_max), max_size=3), label="ks")) | {k_max})
    T = draw(st.integers(k_max + 2, k_max + 30), label="T")
    rows = []
    for i in range(draw(st.integers(1, 6), label="m")):
        kind = draw(st.sampled_from(["scaled", "overflow", "transient"]), label=f"kind {i}")
        if kind == "scaled":
            logs = draw(arrays(np.float64, T, elements=st.floats(-1.0, 1.0)), label=f"logs {i}")
            logs[draw(st.integers(0, T - 1), label=f"peak {i}")] = 1.0
            # max|log rho| = reach * threshold / (k_max + 1): the row is
            # direct at every window for reach <= 1, in log space at every
            # window for reach > k_max + 1, and crosses over in between.
            reach = draw(st.floats(0.05, k_max + 3.0), label=f"reach {i}")
            rho = np.exp(logs * reach * threshold / (k_max + 1))
        elif kind == "overflow":
            rho = np.full(T, 1e200)
        else:
            big = np.exp(350.0)
            rho = np.roll(np.resize([big, big, 1.0 / big, 1.0 / big], T), i)
        zeros = draw(arrays(np.bool_, T, elements=st.booleans()), label=f"zeros {i}")
        rows.append(np.where(zeros, 0.0, rho))
    rewards = draw(
        arrays(np.float64, (len(rows), T), elements=st.floats(-10.0, 10.0)), label="rewards"
    )
    return ks, np.stack(rows), rewards


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


@settings(max_examples=150, deadline=None)
@given(_ratio_batches())
def test_window_pass_matches_per_series_reference(batch):
    ks, RHO, Y = batch
    threshold = est_mod._LOG_SPACE_THRESHOLD
    got = dict(est_mod._window_terms(Y, RHO, ks))
    assert sorted(got) == ks
    for k in ks:
        for i in range(len(RHO)):
            if k == -1:
                np.testing.assert_array_equal(_bits(got[k][i]), _bits(Y[i]))
                continue
            want = window_weights_reference(RHO[i], k, threshold)
            with np.errstate(over="ignore", invalid="ignore"):
                want_terms = want * Y[i, k:]
            np.testing.assert_array_equal(_bits(got[k][i]), _bits(want_terms))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                weights = window_weights(RHO[i], k)
            np.testing.assert_array_equal(_bits(weights), _bits(want))
            # One RuntimeWarning exactly when a product is inf, and no other.
            assert len(caught) == int(np.isinf(want).any())
            assert all(
                w.category is RuntimeWarning and "overflow" in str(w.message) for w in caught
            )


def test_too_short_trajectory_raises(toy):
    model, behavior, target = toy
    traj = simulate(model, behavior, T=4, burn_in=0, seed=8)
    with pytest.raises(ConfigurationError):
        phiw_estimate(*streams([traj], target, behavior), 3)  # needs T >= k + 2


def test_overlap_violation_names_step_and_pair(toy):
    model, behavior, target = toy
    traj = simulate(model, behavior, T=50, burn_in=10, seed=9)
    no_treat = Policy(probs=np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(OverlapViolationError) as err:
        phiw_estimate(*streams([traj], target, no_treat), 1)
    first_treated = int(np.flatnonzero(traj.w == 1)[0])
    assert err.value.t == first_treated + 1
    assert err.value.a == 1
    assert err.value.x == traj.x[first_treated]


def test_batch_ratios_flag_first_violation_in_row_major_order(toy):
    model, behavior, target = toy
    trajs = simulate_batch(model, behavior, T=30, burn_in=5, seeds=[1, 2, 3])
    X = np.stack([tr.x for tr in trajs])
    W = np.stack([tr.w for tr in trajs])
    rho = est_mod._policy_ratios(X, W, target, behavior)
    for i, tr in enumerate(trajs):
        np.testing.assert_array_equal(rho[i], importance_ratios(tr, target, behavior))
    no_treat = Policy(probs=np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(OverlapViolationError) as err:
        est_mod._policy_ratios(X, W, target, no_treat, env="toy")
    r, t = np.argwhere(W == 1)[0]
    assert (err.value.t, err.value.x, err.value.a) == (t + 1, X[r, t], 1)
    assert err.value.env == "toy"


def _ratios_by_loop(x, w, target, behavior):
    """Plain-loop reference for ``_policy_ratios``: one scalar division per
    step, zero where the target probability is zero, and the first overlap
    violation in row-major order as (t, x, a)."""
    out = np.empty(x.shape)
    for idx in np.ndindex(x.shape):
        pi = target.probs[x[idx], w[idx]]
        e = behavior.probs[x[idx], w[idx]]
        if e == 0.0 and pi > 0.0:
            return None, (idx[-1] + 1, x[idx], w[idx])
        out[idx] = pi / e if e > 0.0 else 0.0
    return out, None


@pytest.mark.parametrize("shape", [(40,), (6, 25)])
@pytest.mark.parametrize("seed", range(4))
def test_policy_ratios_match_plain_loop_with_zero_probabilities(shape, seed):
    rng = np.random.default_rng(seed)
    num_x, num_actions = 3, 4
    target = rng.dirichlet(np.ones(num_actions), size=num_x)
    target[rng.random(target.shape) < 0.4] = 0.0
    target[np.arange(num_x), rng.integers(0, num_actions, num_x)] += 0.5
    target /= target.sum(axis=1, keepdims=True)
    # Behavior covers the target's support, and on some rows more.
    behavior = target + (rng.random(target.shape) < 0.5) * rng.random(target.shape)
    behavior /= behavior.sum(axis=1, keepdims=True)
    target, behavior = Policy(probs=target), Policy(probs=behavior)
    assert (target.probs == 0.0).any() and (behavior.probs == 0.0).any()
    x = rng.integers(0, num_x, size=shape)
    w = rng.integers(0, num_actions, size=shape)

    want, violation = _ratios_by_loop(x, w, target, behavior)
    assert violation is None
    got = est_mod._policy_ratios(x, w, target, behavior)
    assert got.dtype == np.float64 and got.shape == shape
    np.testing.assert_array_equal(got, want)

    # Swapped roles: the target now puts mass where the behavior has none.
    _, violation = _ratios_by_loop(x, w, behavior, target)
    if violation is None:
        np.testing.assert_array_equal(
            est_mod._policy_ratios(x, w, behavior, target),
            _ratios_by_loop(x, w, behavior, target)[0],
        )
    else:
        with pytest.raises(OverlapViolationError) as err:
            est_mod._policy_ratios(x, w, behavior, target)
        assert (err.value.t, err.value.x, err.value.a) == violation


def test_estimators_reject_non_finite_input():
    rho = np.ones(20)
    y = np.zeros(20)
    bad_y = y.copy()
    bad_y[4] = np.inf
    bad_rho = rho.copy()
    bad_rho[7] = np.nan
    config = EstimatorConfig(k=1)
    with pytest.raises(ConfigurationError, match="rewards .*index 4"):
        estimate_with_ci([rho], [bad_y], config)
    with pytest.raises(ConfigurationError, match="ratios .*index 7"):
        phiw_estimate([bad_rho], [y], 1)
    with pytest.raises(ConfigurationError, match="ratios .*index 7"):
        hac_variance([bad_rho], [y], -1, 3.0)


# The first series takes the direct product path, the second the log-space
# path (|log 1e9| * 2 > threshold); both once gave a silent answer.
@pytest.mark.parametrize("rho", [[2.0, -1.0, 2.0, 2.0], [1e9, -1.0, 2.0, 2.0, 1e-9]])
def test_negative_ratios_rejected_by_index(rho):
    match = r"ratios must be >= 0, got -1.0 at index 1"
    with pytest.raises(ConfigurationError, match=match):
        window_weights(rho, 1)
    for k in (-1, 1):
        with pytest.raises(ConfigurationError, match=match):
            phiw_estimate([np.array(rho)], [np.ones(len(rho))], k)


@pytest.mark.parametrize(
    "call",
    [
        lambda rho, y: phiw_estimate(rho, y, 1),
        lambda rho, y: hac_variance(rho, y, -1, 3.0),
        lambda rho, y: estimate_with_ci(rho, y, EstimatorConfig(k=1)),
        lambda rho, y: lepski_select(rho, y, [0, 1]),
    ],
    ids=["phiw_estimate", "hac_variance", "estimate_with_ci", "lepski_select"],
)
@pytest.mark.parametrize(
    "ratios, rewards, match",
    [
        ([], [], "at least one unit"),
        ([np.ones(5)], [np.ones(5), np.ones(5)], "1 ratio units but 2 reward units"),
        ([np.ones(5), np.ones(5)], [np.ones(5), np.ones(7)], r"unit 1: .*\(5,\).*\(7,\)"),
        ([np.ones(5)], [np.ones(3)], r"unit 0: .*\(5,\).*\(3,\)"),
        (np.ones(5), np.ones(5), r"unit 0: .*shape \(\)"),
        (
            [np.ones(5), np.ones(7)],
            [np.ones(5), np.ones(7)],
            "unit 1 has length 7 but unit 0 has length 5",
        ),
    ],
    ids=["empty", "unit-counts", "ragged-unit-1", "ragged-unit-0", "flat-arrays", "unit-lengths"],
)
def test_estimators_reject_empty_and_ragged_units(call, ratios, rewards, match):
    with pytest.raises(ConfigurationError, match=match):
        call(ratios, rewards)


def test_estimators_take_a_2d_array_as_one_row_per_unit(toy):
    model, behavior, target = toy
    trajs = simulate_batch(model, behavior, T=60, burn_in=10, seeds=[4, 5, 6])
    ratios, rewards = streams(trajs, target, behavior)
    config = EstimatorConfig(k=2, bandwidth=3.0)
    assert estimate_with_ci(np.stack(ratios), np.stack(rewards), config) == (
        estimate_with_ci(ratios, rewards, config)
    )


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_window_weights_respect_overlap_bound(seed):
    rng = np.random.default_rng(seed)
    model = random_model(rng)
    behavior = interior_policy(rng)
    target = random_policy(rng)
    zeta = mixing_overlap_report(model, target, behavior).overlap_zeta
    traj = simulate(model, behavior, T=60, burn_in=5, seed=int(rng.integers(2**31)))
    for k in (0, 2, 4):
        pi = target.probs[traj.x, traj.w]
        e = behavior.probs[traj.x, traj.w]
        w = window_weights(pi / e, k)
        assert w.min() >= 0.0
        assert w.max() <= np.exp(zeta * (k + 1)) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# Exact unbiasedness (exhaustive enumeration oracle)


@pytest.mark.parametrize("seed,k", [(21, 1), (22, 1), (23, 2)])
def test_estimator_expectation_matches_pushforward(seed, k):
    # E[V_hat(k)] over all trajectory realizations (chain started from the
    # behavior stationary law) must equal the k-step pushforward value.
    rng = np.random.default_rng(seed)
    T = k + 2
    model = random_model(rng, point_mass=True)
    behavior = interior_policy(rng)
    target = random_policy(rng)
    expectation = 0.0
    for states, actions, prob in iter_paths_with_probability(
        model.transition, behavior.probs, model.x_of_state, T
    ):
        y = model.reward_mean[states, actions]
        traj = Trajectory(
            x=model.x_of_state[states],
            h=states % model.num_h,
            w=actions,
            y=y,
            seed=0,
            burn_in=0,
        )
        expectation += prob * phiw_estimate(*streams([traj], target, behavior), k)
    oracle = pushforward_value(
        model.transition,
        behavior.probs,
        target.probs,
        model.reward_mean,
        model.x_of_state,
        k,
    )
    assert expectation == pytest.approx(oracle, abs=1e-10)


def test_pushforward_bias_decays_in_k(toy):
    # |V(pi; k) - V(pi)| shrinks monotonically over the first windows.
    model, behavior, target = toy
    from pomdp_ope import policy_value_exact

    v_target = policy_value_exact(model, target)
    gaps = [
        abs(
            pushforward_value(
                model.transition,
                behavior.probs,
                target.probs,
                model.reward_mean,
                model.x_of_state,
                k,
            )
            - v_target
        )
        for k in range(0, 4)
    ]
    assert all(gaps[i] > gaps[i + 1] for i in range(len(gaps) - 1))


# ---------------------------------------------------------------------------
# HAC variance


def test_hac_zero_for_constant_terms():
    # 1.25 is exactly representable, so the centered terms are exactly zero.
    rho = np.ones(50)
    y = np.full(50, 1.25)
    assert hac_variance([rho], [y], 0, bandwidth=5.0) == 0.0


def test_hac_small_bandwidth_keeps_only_lag_zero():
    rng = np.random.default_rng(13)
    y = rng.normal(size=300)
    rho = np.ones(300)
    got = hac_variance([rho], [y], 0, bandwidth=1.0)
    centered = y - y.mean()
    assert got == pytest.approx(float(centered @ centered) / 300, rel=1e-12)


def test_hac_matches_double_sum_oracle():
    rng = np.random.default_rng(14)
    y = rng.normal(size=120)
    rho = np.exp(rng.normal(0, 0.2, size=120))
    for bandwidth in (1.5, 4.0, 9.7):
        got = hac_variance([rho], [y], 1, bandwidth=bandwidth)
        terms = window_weights(rho, 1) * y[1:]
        expected = naive_hac(terms, bandwidth, parzen_kernel)
        assert got == pytest.approx(expected, rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_multi_unit_estimate_matches_double_sum_oracle(data):
    n = data.draw(st.integers(1, 4), label="n")
    T = data.draw(st.integers(2, 60), label="T")
    k = data.draw(st.integers(-1, min(T - 2, 5)), label="k")
    bandwidth = data.draw(st.floats(0.3, 1.5 * T), label="bandwidth")
    rewards = data.draw(arrays(np.float64, (n, T), elements=st.floats(-10.0, 10.0)), label="Y")
    ratios = data.draw(
        arrays(np.float64, (n, T), elements=st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0])),
        label="RHO",
    )
    value, variance = naive_estimate(ratios, rewards, k, bandwidth, parzen_kernel)
    config = EstimatorConfig(k=k, alpha=0.1, bandwidth=bandwidth)
    rep = estimate_with_ci(list(ratios), list(rewards), config)
    # Sums taken in another order differ in the last digits; a variance that
    # cancels to almost nothing is compared on the scale of the summands.
    scale = 1.0 + float(np.abs(rewards).max()) * max(float(ratios.max()), 1.0) ** (k + 1)
    assert rep.value == pytest.approx(value, rel=1e-9, abs=1e-9 * scale)
    assert rep.variance == pytest.approx(max(variance, 0.0), rel=1e-9, abs=1e-9 * scale**2)
    assert hac_variance(list(ratios), list(rewards), k, bandwidth) == rep.variance
    half = NormalDist().inv_cdf(0.95) * np.sqrt(rep.variance / (n * (T - max(k, 0))))
    assert (rep.ci_lo, rep.ci_hi) == pytest.approx((rep.value - half, rep.value + half), rel=1e-12)
    assert (rep.n_units, rep.t_used) == (n, T - max(k, 0))


def test_hac_shift_invariant_and_scale_quadratic(toy):
    model, behavior, target = toy
    traj = simulate(model, behavior, T=300, burn_in=50, seed=15)
    ratios = [target.probs[traj.x, traj.w] / behavior.probs[traj.x, traj.w]]
    base = hac_variance(ratios, [traj.y], -1, bandwidth=6.0)
    shifted = hac_variance(ratios, [traj.y + 11.0], -1, bandwidth=6.0)
    scaled = hac_variance(ratios, [3.0 * traj.y], -1, bandwidth=6.0)
    assert shifted == pytest.approx(base, rel=1e-9)
    assert scaled == pytest.approx(9.0 * base, rel=1e-12)


def test_hac_iid_matches_population_variance():
    # Unit weights and i.i.d. rewards: the long-run variance is the plain
    # variance of the generating distribution.
    rng = np.random.default_rng(16)
    sd = 0.8
    y = rng.normal(1.0, sd, size=10_000)
    rho = np.ones_like(y)
    got = hac_variance([rho], [y], 0, bandwidth=10_000 ** (1 / 3))
    assert got == pytest.approx(sd**2, rel=0.10)


def test_hac_negative_output_clamped(monkeypatch):
    # The lag window is positive semidefinite, so negativity can only come
    # from numerics; fake a window that violates it to exercise the clamp.
    monkeypatch.setattr(est_mod, "parzen_kernel", lambda x: np.where(x > 0, -10.0, 1.0))
    y = np.array([1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
    with pytest.warns(RuntimeWarning):
        got = hac_variance([np.ones(8)], [y], 0, bandwidth=1.5)
    assert got == 0.0


# ---------------------------------------------------------------------------
# Confidence intervals


def test_degenerate_interval_when_variance_zero():
    rho = np.ones(40)
    y = np.full(40, 1.25)
    rep = estimate_with_ci([rho], [y], EstimatorConfig(k=0, bandwidth=3.0))
    assert rep.variance == 0.0
    assert rep.ci_lo == rep.value == rep.ci_hi == 1.25


def test_interval_uses_normal_quantile():
    rng = np.random.default_rng(17)
    y = rng.normal(size=500)
    rho = np.ones(500)
    rep = estimate_with_ci(
        [rho], [y], EstimatorConfig(k=0, alpha=0.05, bandwidth=1.0)
    )
    half = rep.ci_hi - rep.value
    assert half == pytest.approx(
        1.959964 * np.sqrt(rep.variance / 500), rel=1e-6
    )
    assert rep.ci_lo <= rep.value <= rep.ci_hi


def test_non_finite_estimate_is_flagged_and_written_as_null():
    # Windows of four ratios of 1e200 overflow even in log space.
    rep = estimate_with_ci([np.full(12, 1e200)], [np.ones(12)], EstimatorConfig(k=3))
    assert not np.isfinite(rep.value)
    assert rep.flags == ("non_finite",)
    doc = rep.to_dict()
    assert doc["value"] is None and doc["variance"] is None and doc["ci"] == [None, None]
    json.dumps(doc, allow_nan=False)


@pytest.mark.parametrize("rewards", [np.ones(12), np.tile([1.0, -1.0], 6)])
@pytest.mark.parametrize("n_units", [1, 2])
def test_non_finite_estimate_is_flagged_without_warnings(rewards, n_units):
    # The flag reports the overflow; numpy's RuntimeWarnings on the way
    # ("overflow encountered in exp", "invalid value encountered in
    # subtract") would only repeat it.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = estimate_with_ci(
            [np.full(12, 1e200)] * n_units, [rewards] * n_units, EstimatorConfig(k=3)
        )
    assert rep.flags == ("non_finite",)
    # A direct caller of window_weights still hears about the overflow.
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert np.isinf(window_weights(np.full(12, 1e200), 3)).all()


def test_t_used_counts_summands(toy):
    model, behavior, target = toy
    traj = simulate(model, behavior, T=50, burn_in=10, seed=18)
    ratios, rewards = streams([traj], target, behavior)
    rep = estimate_with_ci(ratios, rewards, EstimatorConfig(k=3, bandwidth=4.0))
    assert rep.t_used == 47
    assert rep.n_units == 1
    rep_mean = estimate_with_ci(ratios, rewards, EstimatorConfig(k=-1, bandwidth=4.0))
    assert rep_mean.t_used == 50


def test_ci_width_halves_when_T_quadruples(toy):
    model, behavior, target = toy
    reps = 500
    widths = {}
    for ti, T in enumerate((400, 1600)):
        seeds = [np.random.SeedSequence((19, ti, r)).generate_state(1)[0] for r in range(reps)]
        trajs = simulate_batch(model, behavior, T, 100, [int(s) for s in seeds])
        config = EstimatorConfig(k=1, bandwidth=float(T) ** (1 / 3))
        ws = [
            (lambda rep: rep.ci_hi - rep.ci_lo)(
                estimate_with_ci(*streams([traj], target, behavior), config)
            )
            for traj in trajs
        ]
        widths[T] = float(np.mean(ws))
    assert widths[1600] == pytest.approx(widths[400] / 2.0, rel=0.15)


# ---------------------------------------------------------------------------
# Window selection


def test_all_overlapping_intervals_select_smallest():
    cands = [-1, 0, 1, 2, 3]
    intervals = [(0.0, 1.0)] * len(cands)
    assert select_window_from_intervals(cands, intervals) == -1


def test_disjoint_top_intervals_select_largest():
    cands = [0, 1, 2, 3]
    intervals = [(0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (5.0, 6.0)]
    # k=2's interval misses k=3's: scan stops immediately and keeps k=3.
    assert select_window_from_intervals(cands, intervals) == 3


def test_selection_uses_running_intersection():
    cands = [0, 1, 2]
    # Pairwise neighbors overlap, but the running intersection [2, 2] of
    # candidates {1, 2} misses candidate 0's interval.
    intervals = [(0.0, 1.5), (2.0, 3.0), (1.0, 2.0)]
    assert select_window_from_intervals(cands, intervals) == 1


def test_selection_depends_only_on_interval_order():
    # Running intersection (1.8, 2.0) of the top two misses the bottom
    # interval, so the scan settles on the middle candidate under either
    # labeling.
    intervals = [(0.0, 1.0), (0.9, 2.0), (1.8, 3.0)]
    a = select_window_from_intervals([-1, 0, 1], intervals)
    b = select_window_from_intervals([5, 7, 9], intervals)
    assert (a, b) == (0, 7)


def test_nan_interval_raises_naming_candidate():
    intervals = [(0.0, 1.0), (np.nan, np.nan), (5.0, 6.0)]
    with pytest.raises(ConfigurationError, match="candidate 1"):
        select_window_from_intervals([0, 1, 2], intervals)


def test_lepski_leaves_non_finite_candidates_out_of_the_scan():
    rho, y = [np.full(40, 1e200)], [np.ones(40)]
    result = lepski_select(rho, y, [-1, 0, 1, 2, 3])
    assert [rep.flags for rep in result.reports] == [(), ()] + [("non_finite",)] * 3
    # Windows 1-3 overflow; k = 0's finite interval (near 1e200) misses the
    # sample mean's, so the scan over {-1, 0} stops at 0.
    assert result.selected_k == 0
    # Zero rewards give k = -1 and k = 0 the interval [0, 0]; the NaN
    # estimates of windows 1-3 (inf weight times 0) are left out.
    assert lepski_select(rho, [np.zeros(40)], [-1, 0, 1, 2, 3]).selected_k == -1
    # With no finite candidate, the smallest is selected.
    assert lepski_select(rho, y, [1, 2, 3]).selected_k == 1
    with pytest.raises(ConfigurationError, match="sorted ascending"):
        lepski_select(rho, y, [3, 1, 2])


def _meet(intervals) -> bool:
    """Whether the closed intervals share a point."""
    return max(lo for lo, _ in intervals) <= min(hi for _, hi in intervals)


@given(
    st.lists(st.tuples(st.integers(-20, 20), st.integers(0, 10)), min_size=1, max_size=8),
    st.integers(-1, 5),
    st.integers(-1000, 1000),
)
def test_selection_scan_invariants(spans, first, shift):
    # Integer endpoints keep every shift exact, so the comparisons the scan
    # makes cannot change by rounding.
    intervals = [(float(c - r), float(c + r)) for c, r in spans]
    cands = list(range(first, first + len(intervals)))
    s = cands.index(select_window_from_intervals(cands, intervals))
    # The selected interval meets all larger windows' intervals at once ...
    assert _meet(intervals[s:])
    # ... and no smaller window's does.
    assert not any(_meet(intervals[j:]) for j in range(s))
    shifted = [(lo + shift, hi + shift) for lo, hi in intervals]
    assert select_window_from_intervals(cands, shifted) == cands[s]


def test_lepski_single_candidate(toy):
    model, behavior, target = toy
    traj = simulate(model, behavior, T=120, burn_in=20, seed=20)
    result = lepski_select(*streams([traj], target, behavior), [2])
    assert result.selected_k == 2
    assert len(result.reports) == 1


def test_lepski_deterministic(toy):
    model, behavior, target = toy
    traj = simulate(model, behavior, T=400, burn_in=50, seed=21)
    r1 = lepski_select(*streams([traj], target, behavior), list(range(-1, 6)))
    r2 = lepski_select(*streams([traj], target, behavior), list(range(-1, 6)))
    assert r1.selected_k == r2.selected_k
    assert [rep.value for rep in r1.reports] == [rep.value for rep in r2.reports]


def test_lepski_requires_sorted_candidates(toy):
    model, behavior, target = toy
    traj = simulate(model, behavior, T=100, burn_in=10, seed=22)
    with pytest.raises(ConfigurationError):
        lepski_select(*streams([traj], target, behavior), [3, 1, 2])


# ---------------------------------------------------------------------------
# Calibrated window formula


def test_corollary_window_log_one_is_zero():
    assert corollary_window(n=1, T=1, t0=2.0, zeta=0.5, C0=1.0) == 0


def test_corollary_window_direct_substitution():
    nT = int(round(np.exp(4.0)))
    # zeta = 0, t0 = 2: k = (2 / 2) * ln(nT) = 4 (up to integer rounding of e^4).
    assert corollary_window(n=1, T=nT, t0=2.0, zeta=0.0, C0=1.0) == round(np.log(nT))


def test_corollary_window_monotone_in_horizon():
    ks = [corollary_window(n=1, T=T, t0=2.0, zeta=0.7, C0=1.0) for T in (10, 100, 1000, 10_000)]
    assert ks == sorted(ks)


def test_corollary_window_clamped_to_horizon():
    assert corollary_window(n=1, T=3, t0=50.0, zeta=0.0, C0=10.0**6) <= 2


def test_bandwidth_rule():
    assert BandwidthRule("power", 1 / 3).bandwidth(1000) == pytest.approx(10.0)
    assert BandwidthRule("fixed", 7.0).bandwidth(12345) == 7.0
    with pytest.raises(ConfigurationError):
        BandwidthRule("cubic", 1.0)


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes most of a second to import; the quantile comes from
    # scipy.special.ndtri, so starting the package must not load it.
    import pomdp_ope

    src = str(Path(pomdp_ope.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    code = "import sys, pomdp_ope; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
