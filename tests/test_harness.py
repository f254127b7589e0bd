from __future__ import annotations

import json

import numpy as np
import pytest

from pomdp_ope import (
    BandwidthRule,
    ConfigurationError,
    OverlapViolationError,
    SweepSpec,
    corollary_window,
    fit_rate,
    make_environment,
    mixing_overlap_report,
    run_lepski_study,
    run_sweep,
    simulate_batch,
    sweep_result_to_csv,
    sweep_result_to_json,
)
from pomdp_ope.harness import (
    FiniteEnvironment,
    GlucoseEnvironment,
    hard_params,
    lepski_study_to_json,
)
from pomdp_ope.serialization import json_text


# ---------------------------------------------------------------------------
# Environments


def test_make_environment_toy():
    env = make_environment("toy")
    assert isinstance(env, FiniteEnvironment)
    value, prov = env.oracle()
    assert value == pytest.approx(0.76, abs=5e-3)
    assert prov["kind"] == "exact"


def test_make_environment_glucose():
    env = make_environment("glucose")
    assert isinstance(env, GlucoseEnvironment)
    value, prov = env.oracle()
    assert -3.0 <= value <= 0.0
    assert prov["kind"] == "monte-carlo"


def test_make_environment_hard():
    env = make_environment("hard:Q=3,t0=1,zeta=0.69,M1=1,M2=2,Delta=0.5")
    value, _ = env.oracle()
    # Top-state mass exp(-2), top mean M1/2 + Delta = 1.0.
    assert value == pytest.approx(np.exp(-2.0), rel=1e-9)


def test_make_environment_unknown():
    with pytest.raises(ConfigurationError):
        make_environment("banana")


def test_hard_params_validation():
    with pytest.raises(ConfigurationError):
        hard_params("Q=3,t0=1")  # missing fields
    with pytest.raises(ConfigurationError):
        hard_params("Q=3,t0=1,zeta=0.7,M1=1,M2=2,bogus=1")
    params = hard_params("Q=3,t0=1,zeta=0.7,M1=1,M2=2")
    assert params.Q == 3 and params.Delta == 0.5  # Delta defaults to M1 / 2
    assert hard_params("Q=3,t0=1,zeta=0.7,M1=1,M2=2,Delta=0.25").Delta == 0.25


# ---------------------------------------------------------------------------
# Sweeps


def _small_spec(**overrides):
    base = dict(
        environment="toy",
        k_values=(-1, 0, 1, 2),
        T_values=(60, 120),
        replications=64,
        burn_in=20,
        master_seed=314,
    )
    base.update(overrides)
    return SweepSpec(**base)


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        _small_spec(replications=0)
    with pytest.raises(ConfigurationError):
        _small_spec(k_values=(0, 70), T_values=(60,))
    with pytest.raises(ConfigurationError):
        _small_spec(alpha=1.5)


def test_sweep_mse_identity_and_shapes():
    result = run_sweep(_small_spec())
    assert len(result.cells) == 8
    for cell in result.cells:
        assert cell.mse == pytest.approx(cell.bias**2 + cell.variance, rel=1e-9)
        assert 0.0 <= cell.ci_coverage <= 1.0
        assert cell.n_replications == 64


def test_sweep_zero_mse_when_policies_match():
    # Point-mass rewards and target == behavior: the estimate equals the
    # truth for every k >= 0 on every replication.
    from pomdp_ope import PointMass, PomdpModel, Policy
    from pomdp_ope.harness import FiniteEnvironment
    import pomdp_ope.harness as harness_mod

    kernel = np.array([[0.5, 0.5], [0.5, 0.5]])
    reward = tuple(tuple(PointMass(1.5) for _ in range(2)) for _ in range(2))
    model = PomdpModel(
        num_x=1, num_h=2, num_actions=2, transition=np.stack([kernel, kernel]), reward=reward
    )
    policy = Policy(probs=np.array([[0.5, 0.5]]))
    env = FiniteEnvironment("constreward", model, policy, policy)

    def fake_make(env_id, **kw):
        return env

    original = harness_mod.make_environment
    harness_mod.make_environment = fake_make
    try:
        spec = SweepSpec(
            environment="constreward",
            k_values=(0, 1, 3),
            T_values=(40,),
            replications=1,
            burn_in=5,
            master_seed=1,
        )
        result = run_sweep(spec)
    finally:
        harness_mod.make_environment = original
    for cell in result.cells:
        assert cell.mse == 0.0


def test_paired_design_k_minus_one_is_reward_mean():
    # With one replication, the k = -1 cell must equal the trajectory mean.
    from pomdp_ope import simulate, derive_seed
    from pomdp_ope.instances import toy_model

    spec = _small_spec(replications=1, T_values=(60,))
    result = run_sweep(spec)
    model, behavior, _ = toy_model()
    traj = simulate(model, behavior, 60, spec.burn_in, derive_seed(spec.master_seed, 0, 0))
    assert result.cell(-1, 60).mean_estimate == traj.y.mean()


def test_sweep_deterministic_across_workers_and_chunks(tmp_path):
    spec = _small_spec()
    files = []
    for i, (workers, chunk) in enumerate([(1, None), (4, 7), (16, 3)]):
        result = run_sweep(spec, workers=workers, chunk_size=chunk)
        path = tmp_path / f"sweep_{i}.csv"
        sweep_result_to_csv(result, path)
        files.append(path.read_bytes())
    assert files[0] == files[1] == files[2]


def test_sweep_rejects_non_positive_chunk_size():
    # A negative size would yield no chunks and leave the outputs unwritten.
    for chunk in (0, -2):
        with pytest.raises(ConfigurationError, match="chunk size"):
            run_sweep(_small_spec(), chunk_size=chunk)


def test_chunk_size_one_matches_auto_chunking(tmp_path):
    # One replication per chunk gives the estimator engine single-row
    # batches, where its row reductions act on (1, T) arrays.
    spec = _small_spec(replications=9)
    files = []
    for i, chunk in enumerate((None, 1)):
        path = tmp_path / f"sweep_{i}.csv"
        sweep_result_to_csv(run_sweep(spec, chunk_size=chunk), path)
        files.append(path.read_bytes())
    assert files[0] == files[1]
    docs = [
        json.dumps(lepski_study_to_json(run_lepski_study(spec, [-1, 0, 1, 2], chunk_size=chunk)))
        for chunk in (None, 1)
    ]
    assert docs[0] == docs[1]


def test_clamped_variances_are_counted(monkeypatch):
    import pomdp_ope.estimators as est_mod

    spec = _small_spec(replications=8, T_values=(60,))
    assert all(c.n_clamped == 0 for c in run_sweep(spec).cells)
    # A lag window weighting every lag by -10 drives most variances negative.
    monkeypatch.setattr(est_mod, "parzen_kernel", lambda x: np.where(x > 0, -10.0, 1.0))
    cells = run_sweep(spec).cells
    assert all(0 <= c.n_clamped <= 8 for c in cells)
    assert sum(c.n_clamped for c in cells) > 0
    row = run_lepski_study(spec, [-1, 0, 1, 2]).row(60)
    assert row.n_clamped == sum(c.n_clamped for c in cells)


def test_sweep_csv_header_and_json_echo(tmp_path):
    spec = _small_spec(T_values=(60,), k_values=(0, 1), replications=8)
    result = run_sweep(spec)
    path = tmp_path / "out.csv"
    sweep_result_to_csv(result, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "env,k,T,replications,mse,bias,variance,mean_estimate,ci_coverage,oracle"
    assert len(lines) == 3
    assert lines[1].startswith("toy,0,60,8,")
    doc = sweep_result_to_json(result)
    assert doc["spec"]["master_seed"] == 314
    assert doc["oracle_provenance"]["kind"] == "exact"
    assert len(doc["cells"]) == 2


def test_environment_names_overlap_violation(monkeypatch):
    # Self-simulated data never takes a zero-probability behavior action, so
    # fake externally sourced trajectories that did: the environment check
    # must abort and name the environment.
    import pomdp_ope.harness as harness_mod
    from pomdp_ope import Policy, Trajectory
    from pomdp_ope.instances import hard_instance_pair, params_from_mixing_time

    params = params_from_mixing_time(Q=2, t0=1.0, zeta=0.5, M1=1.0, M2=2.0, Delta=0.25)
    hi, _, _, target = hard_instance_pair(params)
    never_treat = Policy(probs=np.array([[1.0, 0.0]]))
    env = FiniteEnvironment("brokenpair", hi, never_treat, target)
    corrupted = Trajectory(
        x=np.zeros(5, dtype=int),
        h=np.zeros(5, dtype=int),
        w=np.array([0, 0, 1, 0, 0]),
        y=np.zeros(5),
        seed=0,
        burn_in=0,
    )
    # One (1, T) row per column, as the array simulator returns them.
    columns = tuple(col[None] for col in (corrupted.x, corrupted.h, corrupted.w, corrupted.y))
    monkeypatch.setattr(harness_mod, "_simulate_arrays", lambda *a, **kw: columns)
    with pytest.raises(OverlapViolationError) as err:
        env.rewards_and_ratios(5, 0, [0])
    assert err.value.env == "brokenpair"
    assert err.value.t == 3
    assert err.value.a == 1


def test_chunk_boundaries_do_not_change_simulators(monkeypatch, toy):
    # A tiny step budget splits every call below into chunks of 3 rows with a
    # short last chunk; results must equal the one-chunk runs exactly.
    from pomdp_ope import core
    from pomdp_ope.instances import glucose

    model, behavior, _ = toy
    seeds = list(range(10))

    def run_all():
        monkeypatch.setattr(glucose, "_oracle_cache", {})
        trajs = simulate_batch(model, behavior, 40, 10, seeds)
        ys, rhos = glucose.glucose_rewards_and_ratios(30, 10, seeds)
        value, _ = glucose.target_value_oracle(runs=10, hours=30, burn_in=10, seed=7)
        return trajs, ys, rhos, value

    one = run_all()
    monkeypatch.setattr(core, "CHUNK_STEPS", 150)
    assert core.chunk_ranges(10, 50) == [(0, 3), (3, 6), (6, 9), (9, 10)]
    assert core.chunk_ranges(10, 40) == [(0, 3), (3, 6), (6, 9), (9, 10)]
    many = run_all()
    for a, b in zip(one[0], many[0]):
        for name in ("x", "h", "w", "y"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    np.testing.assert_array_equal(one[1], many[1])
    np.testing.assert_array_equal(one[2], many[2])
    assert one[3] == many[3]


# ---------------------------------------------------------------------------
# Window-selection study


def test_lepski_study_single_candidate_always_selected():
    spec = _small_spec(k_values=(1,), T_values=(80,), replications=16)
    study = run_lepski_study(spec, candidates=[1])
    assert study.row(80).selection_freq[1] == 1.0


# The MSE of an estimate near 1e200 overflows on the way.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_lepski_study_selects_among_finite_estimates(monkeypatch):
    # Ratios of 2e200 put every weighted estimate past the float range; the
    # scan leaves those out and keeps the sample mean instead of aborting.
    simulate = FiniteEnvironment.rewards_and_ratios

    def overflowing(self, T, burn_in, seeds):
        rewards, ratios = simulate(self, T, burn_in, seeds)
        return rewards, ratios * 1e200

    monkeypatch.setattr(FiniteEnvironment, "rewards_and_ratios", overflowing)
    spec = _small_spec(k_values=(0,), T_values=(60,), replications=8)
    study = run_lepski_study(spec, candidates=[-1, 0, 1, 2])
    row = study.row(60)
    assert row.selection_freq == {-1: 1.0, 0: 0.0, 1: 0.0, 2: 0.0}
    assert row.mse_selected == row.mse_by_k[-1]
    assert not np.isfinite(row.mse_by_k[2])
    doc = json.loads(
        json_text(lepski_study_to_json(study)),
        parse_constant=lambda c: pytest.fail(f"non-JSON constant {c}"),
    )
    assert doc["rows"][0]["mse_by_k"]["2"] is None


def test_lepski_study_shapes_and_determinism():
    spec = _small_spec(k_values=(0, 1), T_values=(80,), replications=32)
    a = run_lepski_study(spec, candidates=[-1, 0, 1, 2], workers=1)
    b = run_lepski_study(spec, candidates=[-1, 0, 1, 2], workers=4, chunk_size=5)
    assert a.row(80).selection_freq == b.row(80).selection_freq
    assert a.row(80).mse_by_k == b.row(80).mse_by_k
    assert a.row(80).mse_selected == b.row(80).mse_selected
    assert sum(a.row(80).selection_freq.values()) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Rate fits


def test_fit_rate_exact_power_law():
    pts = [(nt, 3.0 * nt ** (-0.5)) for nt in (100, 400, 1600, 6400)]
    fit = fit_rate(pts)
    assert fit.slope == pytest.approx(-0.5, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-9)


def test_fit_rate_constant_series():
    fit = fit_rate([(100, 0.2), (1000, 0.2), (10000, 0.2)])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_rejects_bad_inputs():
    with pytest.raises(ConfigurationError):
        fit_rate([(100, 0.1), (200, 0.05)])
    with pytest.raises(ConfigurationError):
        fit_rate([(100, 0.1), (200, -0.05), (300, 0.01)])


def test_fit_rate_toy_with_calibrated_window():
    # Error-vs-horizon slope with the calibrated window: negative and bounded
    # away from zero. The fitted value itself is recorded, not pinned.
    from pomdp_ope import derive_seed, phiw_estimate
    from pomdp_ope.instances import toy_model

    model, behavior, target = toy_model()
    rep = mixing_overlap_report(model, target, behavior)
    rep_e = mixing_overlap_report(model, behavior, behavior)
    t0 = max(rep.mixing_time, rep_e.mixing_time)
    env = make_environment("toy")
    reps = 500
    points = []
    for ti, T in enumerate((200, 400, 800, 1600, 3200, 6400, 12800)):
        k = corollary_window(n=1, T=T, t0=t0, zeta=rep.overlap_zeta, C0=1.0)
        seeds = [derive_seed(4242, ti, r) for r in range(reps)]
        Y, RHO = env.rewards_and_ratios(T, 100, seeds)
        est = np.array(
            [phiw_estimate([RHO[i]], [Y[i]], k) for i in range(reps)]
        )
        rmse = float(np.sqrt(((est - env.oracle()[0]) ** 2).mean()))
        points.append((T, rmse))
    fit = fit_rate(points)
    print(f"calibrated-window rate fit: slope={fit.slope:.4f} r2={fit.r_squared:.3f}")
    assert fit.slope < -0.15
