from __future__ import annotations

import ast
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import interior_policy, random_model, random_policy
from oracles import stationary_by_linear_solve

from pomdp_ope import (
    ConfigurationError,
    Gaussian,
    MixingFailureError,
    PointMass,
    Policy,
    PomdpModel,
    Trajectory,
    mixing_overlap_report,
    policy_transition_matrix,
    policy_value_exact,
    simulate,
    stationary_distribution,
)
from pomdp_ope import core
from pomdp_ope.core import _dobrushin_coefficient, _run_jobs, _simulate_arrays
from pomdp_ope.instances.toy import CONTROL_KERNEL, TREAT_KERNEL


# ---------------------------------------------------------------------------
# Type validation


def test_model_rejects_bad_rows():
    trans = np.stack([CONTROL_KERNEL, TREAT_KERNEL]).copy()
    trans[0, 0, 0] += 1e-6
    reward = tuple(tuple(PointMass(0.0) for _ in range(2)) for _ in range(4))
    with pytest.raises(ConfigurationError, match=r"^transition row sum .* at index \(0, 0\)$"):
        PomdpModel(num_x=2, num_h=2, num_actions=2, transition=trans, reward=reward)


def test_model_rejects_negative_entries():
    trans = np.zeros((2, 2, 2))
    trans[:, :, 0] = 1.5
    trans[:, :, 1] = -0.5
    reward = tuple(tuple(PointMass(0.0) for _ in range(2)) for _ in range(2))
    with pytest.raises(ConfigurationError, match=r"^transition must be >= 0, got -0.5 at index \(0, 0, 1\)$"):
        PomdpModel(num_x=1, num_h=2, num_actions=2, transition=trans, reward=reward)


def test_gaussian_rejects_negative_sd():
    with pytest.raises(ConfigurationError):
        Gaussian(mean=0.0, sd=-0.1)


def test_policy_rejects_bad_rows():
    with pytest.raises(ConfigurationError, match=r"^policy probs row sum .*, got 1.2 at index 0$"):
        Policy(probs=np.array([[0.6, 0.6]]))
    with pytest.raises(ConfigurationError, match=r"^policy probs must be >= 0, got -0.2 at index \(0, 1\)$"):
        Policy(probs=np.array([[1.2, -0.2]]))


def test_trajectory_requires_aligned_lengths():
    with pytest.raises(ConfigurationError):
        Trajectory(x=[0, 1], h=[0], w=[0, 1], y=[0.0, 1.0], seed=0, burn_in=0)


def test_policy_rejects_non_finite_probs():
    # A NaN row sum compares false against the tolerance, so only an
    # explicit finiteness check catches this.
    with pytest.raises(ConfigurationError, match=r"policy probs .*index \(0, 0\)"):
        Policy(probs=np.array([[np.nan, 1.0], [0.5, 0.5]]))


def test_model_rejects_non_finite_transition():
    trans = np.stack([CONTROL_KERNEL, TREAT_KERNEL]).copy()
    trans[1, 2, 3] = np.nan
    reward = tuple(tuple(PointMass(0.0) for _ in range(2)) for _ in range(4))
    with pytest.raises(ConfigurationError, match=r"transition .*index \(1, 2, 3\)"):
        PomdpModel(num_x=2, num_h=2, num_actions=2, transition=trans, reward=reward)


def test_model_rejects_non_finite_reward_law():
    # The law refuses a non-finite number, by field, when it is built, so
    # no model holds one.
    trans = np.stack([CONTROL_KERNEL, TREAT_KERNEL])
    cases = ((np.inf, 1.0, "reward mean"), (0.0, np.nan, "reward sd"))
    for mean, sd, field in cases:
        reward = [[PointMass(0.0)] * 2 for _ in range(4)]
        with pytest.raises(ConfigurationError, match=rf"^{field} must be a finite real"):
            reward[3][1] = Gaussian(mean, sd)
            PomdpModel(num_x=2, num_h=2, num_actions=2, transition=trans, reward=reward)


def test_trajectory_rejects_non_finite_rewards():
    with pytest.raises(ConfigurationError, match=r"trajectory rewards y .*index 1"):
        Trajectory(x=[0, 1], h=[0, 0], w=[0, 1], y=[0.0, np.nan], seed=0, burn_in=0)


# ---------------------------------------------------------------------------
# policy_transition_matrix


def test_point_mass_policy_recovers_action_kernel(toy):
    model, _, _ = toy
    always_control = Policy(probs=np.array([[1.0, 0.0], [1.0, 0.0]]))
    M = policy_transition_matrix(model, always_control)
    np.testing.assert_array_equal(M, model.transition[0])


def test_toy_behavior_mixture_entry(toy):
    model, behavior, _ = toy
    M = policy_transition_matrix(model, behavior)
    np.testing.assert_allclose(M, 0.5 * CONTROL_KERNEL + 0.5 * TREAT_KERNEL)
    assert M[0, 0] == pytest.approx(0.525, abs=1e-15)


def test_uniform_policy_on_identical_kernels():
    kernel = np.array([[0.25, 0.75], [0.5, 0.5]])
    trans = np.stack([kernel, kernel])
    reward = tuple(tuple(PointMass(0.0) for _ in range(2)) for _ in range(2))
    model = PomdpModel(num_x=1, num_h=2, num_actions=2, transition=trans, reward=reward)
    M = policy_transition_matrix(model, Policy(probs=np.array([[0.5, 0.5]])))
    np.testing.assert_allclose(M, kernel)


def test_dimension_mismatch_raises(toy):
    model, _, _ = toy
    with pytest.raises(ConfigurationError):
        policy_transition_matrix(model, Policy(probs=np.array([[0.5, 0.5]])))


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_induced_kernel_is_row_stochastic(seed):
    rng = np.random.default_rng(seed)
    model = random_model(rng, num_x=2, num_h=3, num_actions=3)
    policy = random_policy(rng, num_x=2, num_actions=3)
    M = policy_transition_matrix(model, policy)
    np.testing.assert_allclose(M.sum(axis=1), 1.0, atol=1e-12)
    assert (M >= 0).all()


# ---------------------------------------------------------------------------
# stationary_distribution / policy_value_exact


def test_symmetric_two_state_kernel_is_uniform():
    d = stationary_distribution(np.array([[0.5, 0.5], [0.5, 0.5]]))
    np.testing.assert_array_equal(d, [0.5, 0.5])


def test_toy_stationary_under_behavior(toy):
    model, behavior, _ = toy
    d = stationary_distribution(policy_transition_matrix(model, behavior))
    np.testing.assert_allclose(d, [0.24, 0.20, 0.20, 0.35], atol=5e-3)


def test_toy_stationary_under_target(toy):
    model, _, target = toy
    d = stationary_distribution(policy_transition_matrix(model, target))
    np.testing.assert_allclose(d, [0.09, 0.10, 0.10, 0.71], atol=5e-3)


def test_stationary_matches_linear_solve(toy):
    model, behavior, _ = toy
    M = policy_transition_matrix(model, behavior)
    np.testing.assert_allclose(
        stationary_distribution(M), stationary_by_linear_solve(M), atol=1e-9
    )


def test_stationary_is_fixed_point_on_random_kernels():
    rng = np.random.default_rng(5)
    for _ in range(25):
        M = rng.dirichlet(np.ones(5), size=5)
        d = stationary_distribution(M)
        assert np.abs(d @ M - d).sum() <= 1e-12
        assert d.min() >= 0 and d.sum() == pytest.approx(1.0, abs=1e-12)


def test_stationary_rejects_non_stochastic():
    with pytest.raises(ConfigurationError, match=r"^kernel row sum .*, got 1.4 at index 0$"):
        stationary_distribution(np.array([[0.7, 0.7], [0.5, 0.5]]))


def test_stationary_rejects_non_finite_kernel():
    # A NaN row sum compares false against the tolerance, so this kernel
    # once ran the whole iteration budget and failed to mix.
    with pytest.raises(ConfigurationError, match=r"^kernel must be finite, got nan at index \(0, 0\)$"):
        stationary_distribution(np.array([[np.nan, 1.0], [0.5, 0.5]]))


def test_stationary_mixing_failure_carries_iterate():
    # Nearly-reducible chain mixes too slowly for a 3-iteration budget when
    # started from a non-stationary point.
    M = np.array([[1 - 1e-6, 1e-6], [2e-6, 1 - 2e-6]])
    with pytest.raises(MixingFailureError) as err:
        stationary_distribution(M, tol=1e-13, max_iter=3)
    assert err.value.last_iterate.shape == (2,)
    assert err.value.residual > 0


def _power_iteration_failure(M, max_iter, tol=1e-12):
    """(last iterate, residual) of plain power iteration from uniform that
    runs out of steps."""
    d = np.full(len(M), 1.0 / len(M))
    residual = np.inf
    for _ in range(max_iter):
        d_next = d @ M
        residual = float(np.abs(d_next - d).sum())
        d = d_next
        assert not (residual <= tol and np.abs(d @ M - d).sum() <= tol)
    return d, residual


PERIODIC_KERNELS = {
    "period2": [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]],
    "period3": [[0, 0.5, 0.5, 0], [0, 0, 0, 1], [0, 0, 0, 1], [1, 0, 0, 0]],
}


@pytest.mark.parametrize("name", sorted(PERIODIC_KERNELS))
@pytest.mark.parametrize("max_iter", [3, 4, 1000, 1001])
def test_periodic_chain_fails_with_the_plain_loops_last_step(name, max_iter):
    # The iterate repeats exactly, so the failure comes at once, carrying
    # what the last of max_iter steps would hold.
    M = np.array(PERIODIC_KERNELS[name], dtype=float)
    want_d, want_residual = _power_iteration_failure(M, max_iter)
    with pytest.raises(MixingFailureError) as err:
        stationary_distribution(M, max_iter=max_iter)
    assert err.value.last_iterate.tobytes() == want_d.tobytes()
    assert err.value.residual == want_residual
    assert err.value.max_iter == max_iter


def test_toy_values(toy):
    model, behavior, target = toy
    assert policy_value_exact(model, behavior) == pytest.approx(0.37, abs=5e-3)
    assert policy_value_exact(model, target) == pytest.approx(0.76, abs=5e-3)


def test_point_mass_rewards_give_constant_value():
    rng = np.random.default_rng(11)
    trans = rng.dirichlet(np.ones(4), size=(2, 4))
    reward = tuple(tuple(PointMass(2.5) for _ in range(2)) for _ in range(4))
    model = PomdpModel(num_x=2, num_h=2, num_actions=2, transition=trans, reward=reward)
    policy = random_policy(rng)
    assert policy_value_exact(model, policy) == pytest.approx(2.5, abs=1e-12)


# ---------------------------------------------------------------------------
# simulate


def test_simulate_deterministic_in_seed(toy):
    model, behavior, _ = toy
    a = simulate(model, behavior, T=200, burn_in=50, seed=123)
    b = simulate(model, behavior, T=200, burn_in=50, seed=123)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.h, b.h)
    np.testing.assert_array_equal(a.w, b.w)
    np.testing.assert_array_equal(a.y, b.y)


def test_simulate_batch_matches_individual_calls(toy):
    model, behavior, _ = toy
    seeds = [7, 8, 9]
    cells, ys = _simulate_arrays(model, behavior, T=50, burn_in=10, seeds=seeds)
    for seed, cell, y in zip(seeds, cells, ys):
        single = simulate(model, behavior, T=50, burn_in=10, seed=seed)
        states, w = np.divmod(cell, model.num_actions)
        np.testing.assert_array_equal(w, single.w)
        np.testing.assert_array_equal(y, single.y)
        np.testing.assert_array_equal(np.divmod(states, model.num_h), (single.x, single.h))


@pytest.mark.parametrize(
    "field, values, match",
    [
        ("x", [0.5, 1], r"^trajectory x must be a whole number >= 0, got 0.5 at index 0$"),
        ("h", [0, -1], r"^trajectory h must be a whole number >= 0, got -1 at index 1$"),
        ("w", [1, np.nan], r"^trajectory w must be a whole number >= 0, got nan at index 1$"),
        ("x", [0, np.inf], r"^trajectory x must be a whole number >= 0, got inf at index 1$"),
        ("w", [[1, 0]], r"^trajectory w must be 1-D, got shape \(1, 2\)$"),
        ("y", [[0.5], [1.5]], r"^trajectory y must be 1-D, got shape \(2, 1\)$"),
    ],
    ids=["fractional-x", "negative-h", "nan-w", "inf-x", "2d-w", "2d-y"],
)
def test_trajectory_refuses_bad_columns(field, values, match):
    # A fractional x was once truncated to 0 and a 2-D column stored as is.
    columns = {"x": [0, 1], "h": [0, 0], "w": [1, 0], "y": [0.5, 1.5]}
    columns[field] = values
    with pytest.raises(ConfigurationError, match=match):
        Trajectory(**columns, seed=0, burn_in=0)


def test_trajectory_keeps_whole_float_indices_as_integers():
    traj = Trajectory(x=[0.0, 1.0], h=[0, 0], w=[True, False], y=[1, 2], seed=0, burn_in=0)
    assert traj.x.dtype == traj.w.dtype == np.int64
    assert traj.x.tolist() == [0, 1] and traj.w.tolist() == [1, 0]
    assert traj.y.dtype == np.float64


def test_simulate_deterministic_model_hand_checked():
    # Permutation transitions, point-mass rewards, deterministic policy:
    # state cycles 0 -> 1 -> 0 under action 0 from any start.
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    stay = np.eye(2)
    reward = tuple(
        tuple(PointMass(float(10 * s + a)) for a in range(2)) for s in range(2)
    )
    model = PomdpModel(
        num_x=1, num_h=2, num_actions=2, transition=np.stack([swap, stay]), reward=reward
    )
    policy = Policy(probs=np.array([[1.0, 0.0]]))
    traj = simulate(model, policy, T=5, burn_in=0, seed=99)
    s0 = traj.h[0]
    expected_states = [(s0 + t) % 2 for t in range(5)]
    np.testing.assert_array_equal(traj.h, expected_states)
    np.testing.assert_array_equal(traj.w, np.zeros(5, dtype=int))
    np.testing.assert_array_equal(traj.y, [10.0 * s for s in expected_states])


def test_simulate_ergodic_frequencies_match_stationary(toy):
    model, behavior, _ = toy
    traj = simulate(model, behavior, T=1_000_000, burn_in=100, seed=2024)
    joint = traj.x * model.num_h + traj.h
    freq = np.bincount(joint, minlength=4) / traj.T
    d = stationary_distribution(policy_transition_matrix(model, behavior))
    np.testing.assert_allclose(freq, d, atol=1e-2)


def test_simulate_rejects_bad_T(toy):
    model, behavior, _ = toy
    with pytest.raises(ConfigurationError):
        simulate(model, behavior, T=0, burn_in=0, seed=1)


# ---------------------------------------------------------------------------
# mixing_overlap_report


def test_rank_one_kernel_mixes_instantly():
    row = np.array([[0.3, 0.7], [0.3, 0.7]])
    trans = np.stack([row, row])
    reward = tuple(tuple(PointMass(0.0) for _ in range(2)) for _ in range(2))
    model = PomdpModel(num_x=1, num_h=2, num_actions=2, transition=trans, reward=reward)
    policy = Policy(probs=np.array([[0.5, 0.5]]))
    rep = mixing_overlap_report(model, policy, policy)
    assert rep.dobrushin == 0.0
    assert rep.mixing_time == 0.0


def test_identity_kernel_never_mixes():
    trans = np.stack([np.eye(2), np.eye(2)])
    reward = tuple(tuple(PointMass(0.0) for _ in range(2)) for _ in range(2))
    model = PomdpModel(num_x=1, num_h=2, num_actions=2, transition=trans, reward=reward)
    policy = Policy(probs=np.array([[0.5, 0.5]]))
    rep = mixing_overlap_report(model, policy, policy)
    assert rep.dobrushin == 1.0
    assert rep.mixing_time == np.inf


def test_toy_overlap_is_log_two(toy):
    model, behavior, target = toy
    rep = mixing_overlap_report(model, target, behavior)
    assert rep.overlap_zeta == pytest.approx(np.log(2.0), abs=1e-15)
    assert not rep.overlap_violated


def test_overlap_violation_flagged_not_silent(toy):
    model, _, target = toy
    broken = Policy(probs=np.array([[1.0, 0.0], [1.0, 0.0]]))
    rep = mixing_overlap_report(model, target, broken)
    assert rep.overlap_violated
    assert rep.overlap_zeta == np.inf


def test_identical_policies_have_zero_overlap(toy):
    model, behavior, _ = toy
    rep = mixing_overlap_report(model, behavior, behavior)
    assert rep.overlap_zeta == 0.0


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_dobrushin_bounds_one_step_contraction(seed):
    # For any f, f': ||f' M - f M||_1 <= dobrushin(M) ||f' - f||_1.
    rng = np.random.default_rng(seed)
    M = rng.dirichlet(np.ones(4), size=4)
    coeff = _dobrushin_coefficient(M)
    for _ in range(10):
        f = rng.dirichlet(np.ones(4))
        g = rng.dirichlet(np.ones(4))
        lhs = np.abs(g @ M - f @ M).sum()
        rhs = coeff * np.abs(g - f).sum()
        assert lhs <= rhs + 1e-12


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_overlap_zeta_dominates_all_ratios(seed):
    rng = np.random.default_rng(seed)
    model = random_model(rng)
    behavior = interior_policy(rng)
    target = random_policy(rng)
    rep = mixing_overlap_report(model, target, behavior)
    support = target.probs > 0
    ratios = target.probs[support] / behavior.probs[support]
    assert np.exp(rep.overlap_zeta) >= ratios.max() - 1e-12


# ---------------------------------------------------------------------------
# Job runner


def _recording(ran: list, fail=None):
    """A job function that appends (job, thread, workspace) to ``ran`` as
    each job starts, sleeps a millisecond, and then calls ``fail(job)``, if
    given."""
    lock = threading.Lock()

    def run(job, workspace):
        with lock:
            ran.append((job, threading.current_thread(), workspace))
        time.sleep(0.001)
        if fail is not None:
            fail(job)

    return run


@pytest.mark.parametrize("threads, n", [(1, 9), (2, 9), (4, 9), (4, 3), (8, 1), (3, 0)])
def test_run_jobs_runs_every_job_exactly_once(threads, n):
    # (4, 3) and (8, 1) ask for more threads than there are jobs.
    ran = []
    baseline = threading.active_count()
    _run_jobs(_recording(ran), range(n), threads)
    assert sorted(job for job, *_ in ran) == list(range(n))
    assert threading.active_count() == baseline


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_run_jobs_gives_each_thread_one_workspace(threads):
    # Every job a thread runs gets that thread's workspace, and no two
    # threads share one.
    ran = []
    _run_jobs(_recording(ran), range(12), threads)
    held = {}
    for _, thread, workspace in ran:
        assert isinstance(workspace, core._Workspace)
        assert held.setdefault(thread, workspace) is workspace
    assert len(held) == threads
    assert len({id(workspace) for workspace in held.values()}) == threads


def test_run_jobs_takes_each_job_once_under_fast_switching():
    # Eight threads switching every microsecond: a lost update of the next
    # job to take would run a job twice or skip one.
    ran = []
    lock = threading.Lock()

    def run(job, workspace):
        with lock:
            ran.append(job)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            ran.clear()
            _run_jobs(run, range(300), 8)
            assert sorted(ran) == list(range(300))
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("threads", [2, 4])
def test_run_jobs_caller_runs_job_0_and_helper_i_starts_with_job_i(threads, monkeypatch):
    helpers = []

    class SpyThread(threading.Thread):
        def start(self):
            helpers.append(self)
            super().start()

    monkeypatch.setattr(core, "threading", SimpleNamespace(Thread=SpyThread, Lock=threading.Lock))
    ran = []
    _run_jobs(_recording(ran), range(12), threads)
    first = {}
    for job, thread, _ in ran:
        first.setdefault(thread, job)
    assert first[threading.current_thread()] == 0
    assert [first[helper] for helper in helpers] == list(range(1, threads))


@pytest.mark.parametrize("later_fails_first", [True, False])
@pytest.mark.parametrize("threads, early, late", [(2, 0, 1), (4, 0, 3), (2, 1, 3), (4, 1, 3)])
def test_run_jobs_raises_the_first_failing_job_in_job_order(threads, early, late, later_fails_first):
    # Of two failing jobs, the one that fails second waits for the other's
    # failure; the earlier job's error is raised either way.
    first, second = (late, early) if later_fails_first else (early, late)
    first_failed = threading.Event()

    def fail(job):
        if job == first:
            first_failed.set()
        elif job == second:
            assert first_failed.wait(timeout=10)
        else:
            return
        raise ValueError(f"job {job}") if job == early else KeyError(f"job {job}")

    baseline = threading.active_count()
    with pytest.raises(ValueError, match=f"job {early}"):
        _run_jobs(_recording([], fail), range(8), threads)
    assert threading.active_count() == baseline


@pytest.mark.parametrize("threads", [1, 2])
def test_run_jobs_starts_no_job_after_a_failure(threads):
    # On two threads the helper holds job 1 until job 2, on the caller, has
    # failed, so the next job either thread could take is job 3.
    failed = threading.Event()

    def fail(job):
        if job == 1 and threads > 1:
            assert failed.wait(timeout=10)
            time.sleep(0.05)
        if job == 2:
            failed.set()
            raise RuntimeError("job 2")

    ran = []
    baseline = threading.active_count()
    with pytest.raises(RuntimeError, match="job 2"):
        _run_jobs(_recording(ran, fail), range(8), threads)
    assert sorted(job for job, *_ in ran) == [0, 1, 2]
    assert threading.active_count() == baseline


def test_only_core_imports_thread_code():
    # core._run_jobs and the monoid cache's lock are the package's thread
    # code; every other module hands its jobs to the runner.
    package = Path(core.__file__).parent
    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).with_suffix("").as_posix()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            for name in names:
                threads = name.split(".")[0] == "threading" or name.startswith("concurrent")
                assert module == "core" or not threads, f"{module} imports {name}"
