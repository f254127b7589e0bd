"""Acceptance suite: one test per criterion, each printing a pass/fail line
with the measured quantities (run with -s to see them on success).

The statistical criteria run at fixed master seeds; the properties they
check replicate across seeds but the asserted margins are pinned to the
seeded runs below.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from oracles import iter_paths_with_probability, pushforward_value

from pomdp_ope import (
    BandwidthRule,
    EstimatorConfig,
    Policy,
    PointMass,
    PomdpModel,
    SweepSpec,
    Trajectory,
    derive_seed,
    hac_variance,
    make_environment,
    phiw_estimate,
    policy_transition_matrix,
    policy_value_exact,
    run_lepski_study,
    run_sweep,
    simulate,
    stationary_distribution,
    sweep_result_to_csv,
)
from pomdp_ope.instances import (
    check_conditions,
    glucose_simulate,
    kl_bound,
    params_from_mixing_time,
    target_value_oracle,
    top_state_occupancy,
    toy_model,
)
from conftest import random_model, interior_policy, streams


def u_shaped(values, rel_tol=0.05):
    """Nonincreasing then nondecreasing, with a small relative tolerance for
    Monte Carlo noise on nearly flat segments."""
    m = int(np.argmin(values))
    down = all(values[i + 1] <= values[i] * (1 + rel_tol) for i in range(m))
    up = all(values[i + 1] >= values[i] * (1 - rel_tol) for i in range(m, len(values) - 1))
    return down and up


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# Shared heavy computations


@pytest.fixture(scope="module")
def figure3_sweep():
    spec = SweepSpec(
        environment="toy",
        k_values=(-1, 0, 1, 2, 3, 4, 5),
        T_values=(200, 600, 1400),
        replications=2000,
        burn_in=100,
        master_seed=20260810,
    )
    start = time.perf_counter()
    result = run_sweep(spec)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def lepski_study():
    spec = SweepSpec(
        environment="toy",
        k_values=(1,),  # unused by the study beyond validation
        T_values=(900, 2500, 10_000),
        replications=1000,
        burn_in=100,
        master_seed=777001,
    )
    start = time.perf_counter()
    study = run_lepski_study(spec, candidates=list(range(-1, 8)))
    return study, time.perf_counter() - start


# ---------------------------------------------------------------------------
# Criteria


def test_criterion_01_toy_oracles():
    start = time.perf_counter()
    model, behavior, target = toy_model()
    d_e = stationary_distribution(policy_transition_matrix(model, behavior))
    d_pi = stationary_distribution(policy_transition_matrix(model, target))
    v_e = policy_value_exact(model, behavior)
    v_pi = policy_value_exact(model, target)
    elapsed = time.perf_counter() - start
    ok = (
        np.abs(d_e - [0.24, 0.20, 0.20, 0.35]).max() <= 5e-3
        and np.abs(d_pi - [0.09, 0.10, 0.10, 0.71]).max() <= 5e-3
        and abs(v_e - 0.37) <= 5e-3
        and abs(v_pi - 0.76) <= 5e-3
        and elapsed < 1.0
    )
    report(
        "criterion 1 (toy oracles)",
        ok,
        f"d_e={np.round(d_e, 4)} d_pi={np.round(d_pi, 4)} "
        f"V(e)={v_e:.4f} V(pi)={v_pi:.4f} elapsed={elapsed:.3f}s",
    )


def test_criterion_02_unbiasedness_enumeration():
    start = time.perf_counter()
    rng = np.random.default_rng(90210)
    model = random_model(rng, num_x=2, num_h=2, num_actions=2, point_mass=True)
    behavior = interior_policy(rng, num_x=2, num_actions=2)
    target = interior_policy(rng, num_x=2, num_actions=2)
    T, k = 3, 1
    expectation = 0.0
    for states, actions, prob in iter_paths_with_probability(
        model.transition, behavior.probs, model.x_of_state, T
    ):
        traj = Trajectory(
            x=model.x_of_state[states],
            h=states % model.num_h,
            w=actions,
            y=model.reward_mean[states, actions],
            seed=0,
            burn_in=0,
        )
        expectation += prob * phiw_estimate(*streams([traj], target, behavior), k)
    oracle = pushforward_value(
        model.transition, behavior.probs, target.probs,
        model.reward_mean, model.x_of_state, k,
    )
    elapsed = time.perf_counter() - start
    gap = abs(expectation - oracle)
    ok = gap <= 1e-10 and elapsed < 1.0
    report(
        "criterion 2 (exact unbiasedness for the windowed target)",
        ok,
        f"E[estimate]={expectation:.12f} pushforward={oracle:.12f} "
        f"gap={gap:.2e} elapsed={elapsed:.3f}s",
    )


def test_criterion_03_identity_collapse():
    start = time.perf_counter()
    rng = np.random.default_rng(31415)
    worst = 0.0
    for i in range(100):
        model = random_model(
            rng,
            num_x=int(rng.integers(1, 3)),
            num_h=int(rng.integers(1, 4)),
            num_actions=int(rng.integers(2, 4)),
        )
        policy = interior_policy(rng, num_x=model.num_x, num_actions=model.num_actions)
        traj = simulate(model, policy, T=40, burn_in=5, seed=int(rng.integers(2**62)))
        for k in (0, 1, 2, 5):
            got = phiw_estimate(*streams([traj], policy, policy), k)
            expected = traj.y[k:].mean()
            worst = max(worst, abs(got - expected))
            assert got == expected
    elapsed = time.perf_counter() - start
    ok = worst == 0.0 and elapsed < 5.0
    report(
        "criterion 3 (identity collapse, exact)",
        ok,
        f"100 random models, k in (0,1,2,5): max |diff|={worst} elapsed={elapsed:.2f}s",
    )


def test_criterion_04_figure3_mse_shape(figure3_sweep):
    result, build_s = figure3_sweep
    ks = list(result.spec.k_values)
    lines = []
    ok = build_s < 120.0
    argmins = {}
    for T in result.spec.T_values:
        mses = [result.cell(k, T).mse for k in ks]
        argmins[T] = ks[int(np.argmin(mses))]
        ok &= u_shaped(mses)
        ok &= argmins[T] in (1, 2)
        lines.append(f"T={T}: " + " ".join(f"{k}:{m:.4f}" for k, m in zip(ks, mses)))
    best_1400 = min(result.cell(k, 1400).mse for k in ks)
    ratio_mean = result.cell(-1, 1400).mse / best_1400
    ratio_k0 = result.cell(0, 1400).mse / best_1400
    ok &= ratio_mean >= 1.5 and ratio_k0 >= 1.5
    # The replication mean at window 2 sits on its exact windowed target (the
    # 2-step pushforward value) to within Monte Carlo error.
    model, behavior, target = toy_model()
    windowed_target = pushforward_value(
        model.transition, behavior.probs, target.probs,
        model.reward_mean, model.x_of_state, 2,
    )
    mean_k2 = result.cell(2, 1400).mean_estimate
    ok &= abs(mean_k2 - windowed_target) <= 0.02
    # Bias shrinks over the first windows (geometric decay of the windowed
    # target's gap).
    biases = [abs(result.cell(k, 1400).bias) for k in (0, 1, 2, 3)]
    ok &= all(biases[i] > biases[i + 1] for i in range(3))
    report(
        "criterion 4 (MSE shape over k and T)",
        ok,
        "; ".join(lines)
        + f"; argmins={argmins} baseline ratios at T=1400: mean {ratio_mean:.1f}x, "
        f"k=0 {ratio_k0:.1f}x; mean(k=2,T=1400)={mean_k2:.4f} vs windowed target "
        f"{windowed_target:.4f}; |bias| k=0..3: {[round(b, 4) for b in biases]}; "
        f"build={build_s:.1f}s",
    )


def test_criterion_05_bias_variance_trends(figure3_sweep):
    result, _ = figure3_sweep
    Ts = result.spec.T_values
    ok = True
    # Bias at fixed k is horizon-invariant within Monte Carlo error.
    for k in result.spec.k_values:
        cells = [result.cell(k, T) for T in Ts]
        for a in range(len(cells)):
            for b in range(a + 1, len(cells)):
                ha = 1.96 * np.sqrt(cells[a].variance / cells[a].n_replications)
                hb = 1.96 * np.sqrt(cells[b].variance / cells[b].n_replications)
                ok &= abs(cells[a].bias - cells[b].bias) <= ha + hb
    # Variance (and hence MSE, bias being horizon-free) at the largest window
    # strictly shrinks with the horizon.
    variances = [result.cell(5, T).variance for T in Ts]
    mses = [result.cell(5, T).mse for T in Ts]
    ok &= variances[0] > variances[1] > variances[2]
    ok &= mses[0] > mses[1] > mses[2]
    report(
        "criterion 5 (bias horizon-invariant, variance shrinks)",
        ok,
        f"var(k=5) over T{Ts}: {[round(v, 4) for v in variances]}; "
        f"mse(k=5): {[round(m, 4) for m in mses]}",
    )


def test_criterion_06_hac_variance_consistency():
    start = time.perf_counter()
    T, k = 10_000, 1
    n_var, n_hac = 5000, 500
    env = make_environment("toy")
    bandwidth = float(T) ** (1 / 3)
    estimates = np.empty(n_var)
    hac_values = np.empty(n_hac)
    chunk = 250
    for start_idx in range(0, n_var, chunk):
        seeds = [derive_seed(606001, r) for r in range(start_idx, min(start_idx + chunk, n_var))]
        Y, RHO = env.rewards_and_ratios(T, 100, seeds)
        for i, r in enumerate(range(start_idx, min(start_idx + chunk, n_var))):
            estimates[r] = phiw_estimate([RHO[i]], [Y[i]], k)
            if r < n_hac:
                hac_values[r] = hac_variance([RHO[i]], [Y[i]], k, bandwidth)
    mc_scaled = (T - k) * estimates.var()
    hac_mean = hac_values.mean()
    rel_gap = abs(hac_mean - mc_scaled) / mc_scaled
    elapsed = time.perf_counter() - start
    ok = rel_gap <= 0.15 and elapsed < 120.0
    report(
        "criterion 6 (long-run variance estimator consistency)",
        ok,
        f"mean sigma2={hac_mean:.4f} vs (T-k)*Var(estimate)={mc_scaled:.4f} "
        f"rel gap={rel_gap:.3f} elapsed={elapsed:.1f}s",
    )


def test_criterion_07_window_selection_study(lepski_study):
    study, build_s = lepski_study
    Ts = [row.T for row in study.rows]
    freq_low = [row.selection_freq[-1] + row.selection_freq[0] for row in study.rows]
    row_hi = study.row(10_000)
    modal = max(row_hi.selection_freq, key=row_hi.selection_freq.get)
    ok = build_s < 300.0
    ok &= modal in (1, 2)
    # Monotone decrease; ties allowed only once the share has hit zero.
    ok &= freq_low[0] >= freq_low[1] >= freq_low[2] and freq_low[2] < freq_low[0]
    ok &= row_hi.mse_selected < row_hi.mse_by_k[-1]
    ok &= row_hi.mse_selected < row_hi.mse_by_k[0]
    report(
        "criterion 7 (adaptive window selection)",
        ok,
        f"modal k at T=1e4: {modal}; freq(k in {{-1,0}}) over T{Ts}: "
        f"{[round(f, 3) for f in freq_low]}; selected MSE {row_hi.mse_selected:.5f} vs "
        f"baselines {row_hi.mse_by_k[-1]:.5f} / {row_hi.mse_by_k[0]:.5f}; "
        f"build={build_s:.1f}s",
    )


def test_criterion_08_hard_instance_predicates():
    start = time.perf_counter()
    ok = True
    checked = 0
    for Q in (1, 3, 6):
        for t0 in (0.5, 1.0, 4.0):
            for zeta in (0.3, 0.7, 1.5):
                params = params_from_mixing_time(
                    Q=Q, t0=t0, zeta=zeta, M1=1.0, M2=2.0, Delta=0.5
                )
                ok &= check_conditions(params).all_ok
                from pomdp_ope.instances import hard_instance_pair

                hi, _, _, target = hard_instance_pair(params)
                d = stationary_distribution(policy_transition_matrix(hi, target))
                ok &= abs(d[-1] - top_state_occupancy(params)) <= 1e-10
                checked += 1
    # Hand substitutions of the divergence bound.
    hand_cases = [
        # (Q, t0, zeta, M1, M2, Delta, T, value worked out by hand)
        (1, 1.0, 0.5, 1.0, 2.0, 0.5, 100, 2.0 * 100 * 0.25 / 1.0),
        (3, 1.0, 0.7, 1.0, 2.0, 0.5, 100, 2.0 * 100 * 0.25 * np.exp(-2 * 1.7)),
        (6, 4.0, 1.5, 1.0, 2.0, 0.25, 1000, 2.0 * 1000 * 0.0625 * np.exp(-5 * (0.25 + 1.5))),
    ]
    for Q, t0, zeta, M1, M2, Delta, T, by_hand in hand_cases:
        params = params_from_mixing_time(Q=Q, t0=t0, zeta=zeta, M1=M1, M2=M2, Delta=Delta)
        ok &= abs(kl_bound(params, T=T, t0=t0) - by_hand) <= 1e-12
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    report(
        "criterion 8 (hard-instance predicates)",
        ok,
        f"{checked} parameter triples checked; 3 hand substitutions; elapsed={elapsed:.2f}s",
    )


def test_criterion_09_glucose_replication():
    start = time.perf_counter()
    oracle, provenance = target_value_oracle()
    spec = SweepSpec(
        environment="glucose",
        k_values=tuple(range(-1, 9)),
        T_values=(1000,),
        replications=2000,
        burn_in=50,
        master_seed=99001,
    )
    result = run_sweep(spec)
    ks = list(spec.k_values)
    mses = [result.cell(k, 1000).mse for k in ks]
    argmin = ks[int(np.argmin(mses))]
    # Utilities stay in the four categories on fresh trajectories of both kinds.
    values_ok = True
    for kind, seed in (("behavior", 5), ("target", 6)):
        traj = glucose_simulate(T=3000, burn_in=50, policy_kind=kind, seed=seed)
        values_ok &= set(np.unique(traj.y)).issubset({-3.0, -2.0, -1.0, 0.0})
    elapsed = time.perf_counter() - start
    ok = (
        values_ok
        and provenance["kind"] == "monte-carlo"
        and result.oracle == oracle  # cache reused across the sweep
        and u_shaped(mses)
        and argmin in (2, 3, 4, 5)
        and elapsed < 600.0
    )
    report(
        "criterion 9 (glucose study, shape only)",
        ok,
        f"oracle={oracle:.4f} ({provenance['runs']}x{provenance['hours']}h); MSE over k: "
        + " ".join(f"{k}:{m:.4f}" for k, m in zip(ks, mses))
        + f"; argmin={argmin}; elapsed={elapsed:.1f}s",
    )


def test_criterion_10_determinism_across_workers(tmp_path):
    spec = SweepSpec(
        environment="toy",
        k_values=(-1, 0, 1, 2, 3),
        T_values=(200,),
        replications=100,
        burn_in=50,
        master_seed=4207,
    )
    blobs = []
    for i, (workers, chunk) in enumerate([(1, None), (4, 17), (16, 3)]):
        result = run_sweep(spec, workers=workers, chunk_size=chunk)
        path = tmp_path / f"sweep_w{i}.csv"
        sweep_result_to_csv(result, path)
        blobs.append(path.read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    report(
        "criterion 10 (worker-count determinism)",
        ok,
        f"3 runs (workers 1/4/16, chunks auto/17/3): byte-identical={ok}",
    )
