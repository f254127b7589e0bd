from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import pickle
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from conftest import run_python
from oracles import seed_reference

from pomdp_ope import (
    BandwidthRule,
    ConfigurationError,
    OverlapViolationError,
    SweepSpec,
    corollary_window,
    fit_rate,
    importance_ratios,
    make_environment,
    mixing_overlap_report,
    policy_value_exact,
    run_lepski_study,
    run_sweep,
    simulate,
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

    kernel = np.array([[0.5, 0.5], [0.5, 0.5]])
    reward = tuple(tuple(PointMass(1.5) for _ in range(2)) for _ in range(2))
    model = PomdpModel(
        num_x=1, num_h=2, num_actions=2, transition=np.stack([kernel, kernel]), reward=reward
    )
    policy = Policy(probs=np.array([[0.5, 0.5]]))
    env = FiniteEnvironment("constreward", model, policy, policy)
    spec = SweepSpec(
        environment=env,
        k_values=(0, 1, 3),
        T_values=(40,),
        replications=1,
        burn_in=5,
        master_seed=1,
    )
    result = run_sweep(spec)
    for cell in result.cells:
        assert cell.mse == 0.0


def test_paired_design_k_minus_one_is_reward_mean():
    # With one replication, the k = -1 cell must equal the trajectory mean.
    from pomdp_ope import simulate
    from pomdp_ope.instances import toy_model

    spec = _small_spec(replications=1, T_values=(60,))
    result = run_sweep(spec)
    model, behavior, _ = toy_model()
    traj = simulate(model, behavior, 60, spec.burn_in, seed_reference(spec.master_seed, 0, 0))
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


def _spy_chunk_ranges(monkeypatch) -> list:
    """Record every list of chunks the harness asks ``chunk_ranges`` for."""
    import pomdp_ope.harness as harness_mod

    calls = []
    chunk_ranges = harness_mod.chunk_ranges

    def spy(*args):
        calls.append(chunk_ranges(*args))
        return calls[-1]

    monkeypatch.setattr(harness_mod, "chunk_ranges", spy)
    return calls


def _sweep_and_study_bytes(spec, tmp_path, chunk_size) -> tuple[bytes, str]:
    path = tmp_path / f"sweep-{chunk_size}.csv"
    sweep_result_to_csv(run_sweep(spec, chunk_size=chunk_size), path)
    study = run_lepski_study(spec, [-1, 0, 1, 2], chunk_size=chunk_size)
    return path.read_bytes(), json_text(lepski_study_to_json(study))


@pytest.mark.parametrize("env_id", ["toy", "hard:Q=3,t0=1,zeta=0.69,M1=1,M2=2"])
def test_cache_budget_chunks_match_one_replication_per_chunk(env_id, tmp_path, monkeypatch):
    # A budget of 300 steps fits 3 replications of T = 60 plus 20 burn-in
    # steps per chunk and 2 of T = 120, so each horizon splits into several
    # automatic chunks with a short last one.
    spec = _small_spec(environment=env_id, replications=11)
    calls = _spy_chunk_ranges(monkeypatch)
    monkeypatch.setattr(FiniteEnvironment, "chunk_steps", 300)
    auto = _sweep_and_study_bytes(spec, tmp_path, None)
    assert [len(ranges) for ranges in calls] == [4, 6, 4, 6]
    assert _sweep_and_study_bytes(spec, tmp_path, 1) == auto


def test_glucose_sweeps_chunk_by_the_memory_budget(monkeypatch):
    # 700 replications of 250 steps exceed the finite environments' cache
    # budget but fit CHUNK_STEPS, so a glucose horizon runs as one chunk.
    from pomdp_ope import core

    assert GlucoseEnvironment.chunk_steps == core.CHUNK_STEPS
    assert make_environment("toy").chunk_steps == core.CACHE_STEPS < 700 * 250
    calls = _spy_chunk_ranges(monkeypatch)
    monkeypatch.setattr(GlucoseEnvironment, "oracle", lambda self: (-0.7, {}))
    spec = _small_spec(
        environment="glucose", k_values=(0,), T_values=(200,), replications=700, burn_in=50
    )
    run_sweep(spec)
    assert calls == [[(0, 700)]]


def test_wide_hard_sweeps_chunk_by_table_cells(tmp_path, monkeypatch):
    # A 40-state hard instance fills 40 table cells per simulated step, so
    # the cache budget of 98,304 steps would take 3.9M cells; its budget is
    # capped at CHUNK_STEPS cells instead. The simulator takes the harness's
    # chunks as they are, so they alone bound its memory.
    from pomdp_ope import core

    env_id = "hard:Q=40,t0=1,zeta=0.69,M1=1,M2=2"
    env = make_environment(env_id)
    assert env.model.num_states == 40
    assert env.chunk_steps == core.CHUNK_STEPS // 40 < core.CACHE_STEPS
    spec = _small_spec(environment=env_id, T_values=(400,), burn_in=100, replications=120)
    calls = _spy_chunk_ranges(monkeypatch)
    auto = _sweep_and_study_bytes(spec, tmp_path, None)
    assert calls == [[(0, 100), (100, 120)]] * 2
    for ranges in calls:
        for start, stop in ranges:
            assert (stop - start) * (400 + 100) * 40 <= core.CHUNK_STEPS
    assert _sweep_and_study_bytes(spec, tmp_path, 3) == auto


# A toy sweep and study whose outputs' SHA-256 digests were recorded before
# replication chunks were sized by the cache budget and before they ran on
# threads (96 x 1,500 steps at T = 1,400 now runs as two chunks); drift from
# that code shows here, not only drift between chunk sizes or worker counts.
PINNED_SPEC = SweepSpec(
    environment="toy",
    k_values=(-1, 0, 1, 2, 3),
    T_values=(100, 1400),
    replications=96,
    master_seed=16,
)
PINNED_SWEEP_CSV = "cee719e817ef7ac23547f5b5d51260eb676e051028791a26fcb290d81612469a"
PINNED_STUDY_JSON = "a60145d92b554ff9f944b787b24218a22e76ce9a4142a11062f4321a20e5b52e"


def _pinned_digests(tmp_path, **options) -> tuple[str, str]:
    path = tmp_path / "sweep.csv"
    sweep_result_to_csv(run_sweep(PINNED_SPEC, **options), path)
    study = run_lepski_study(PINNED_SPEC, [-1, 0, 1, 2, 3], **options)
    return (
        hashlib.sha256(path.read_bytes()).hexdigest(),
        hashlib.sha256(json_text(lepski_study_to_json(study)).encode()).hexdigest(),
    )


def test_sweep_and_study_output_is_pinned(tmp_path):
    # Default workers: two threads where two or more cores are usable, a
    # plain loop on one core.
    sweep, study = _pinned_digests(tmp_path)
    assert sweep == PINNED_SWEEP_CSV
    assert study == PINNED_STUDY_JSON


def _finishing_in_reverse(monkeypatch) -> tuple[list[int], list[int]]:
    """Make every finite chunk sleep before it simulates, earlier chunks
    longer (100 ms, halving with each later start), so on two or more
    threads later chunks finish first. Returns the lists of chunk start
    indices in start order and in the order the chunks finished."""
    simulate = FiniteEnvironment.rewards_and_ratios
    lock = threading.Lock()
    started: list[int] = []
    finished: list[int] = []

    def slow(self, T, burn_in, seeds):
        with lock:
            index = len(started)
            started.append(index)
        time.sleep(0.1 * 0.5**index)
        out = simulate(self, T, burn_in, seeds)
        with lock:
            finished.append(index)
        return out

    monkeypatch.setattr(FiniteEnvironment, "rewards_and_ratios", slow)
    return started, finished


@pytest.mark.parametrize("chunk_size", [None, 7])
def test_chunks_finishing_out_of_order_give_the_pinned_output(chunk_size, tmp_path, monkeypatch):
    # Every job writes only its own rows, so the order in which chunks
    # finish cannot reach the output.
    started, finished = _finishing_in_reverse(monkeypatch)
    for workers in (1, 2, 4):
        started.clear()
        finished.clear()
        assert _pinned_digests(tmp_path, workers=workers, chunk_size=chunk_size) == (
            PINNED_SWEEP_CSV,
            PINNED_STUDY_JSON,
        )
        in_order = finished == started
        assert in_order if workers == 1 else not in_order


def test_more_workers_than_cores_with_fast_switching_are_deterministic(tmp_path):
    # Eight threads switching every microsecond on one-replication chunks:
    # a lost or misplaced row write would change the bytes.
    spec = _small_spec(replications=24)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [run_sweep(spec, workers=workers, chunk_size=1) for workers in (1, 8)]
        studies = [run_lepski_study(spec, [-1, 0, 1], workers=w, chunk_size=1) for w in (1, 8)]
    finally:
        sys.setswitchinterval(interval)
    files = []
    for i, result in enumerate(runs):
        path = tmp_path / f"sweep_{i}.csv"
        sweep_result_to_csv(result, path)
        files.append(path.read_bytes())
    assert files[0] == files[1]
    assert json_text(lepski_study_to_json(studies[0])) == json_text(lepski_study_to_json(studies[1]))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("T_values", [(1400, 200, 600), (200, 1400, 600)])
def test_workspace_reuse_gives_the_bytes_of_fresh_arrays(
    T_values, workers, tmp_path, monkeypatch
):
    # Chunks of 5 replications put several chunks of every horizon on each
    # runner thread, and the horizons shrink and grow, so most chunks reuse
    # buffers that a longer or shorter chunk filled before. The output must
    # match, byte for byte, a run in which every array a workspace lends is
    # new and filled with 0xFF bytes (NaN as a float, an out-of-range value
    # as an index), so no stage reads a value it did not write this chunk.
    from pomdp_ope import core

    spec = _small_spec(T_values=T_values, replications=23)

    def outputs() -> tuple[bytes, str, str]:
        path = tmp_path / "sweep.csv"
        sweep = run_sweep(spec, workers=workers, chunk_size=5)
        sweep_result_to_csv(sweep, path)
        study = run_lepski_study(spec, [-1, 0, 1, 2], workers=workers, chunk_size=5)
        return (
            path.read_bytes(),
            json_text(sweep_result_to_json(sweep)),
            json_text(lepski_study_to_json(study)),
        )

    reused = outputs()

    def fresh(self, shape, dtype=np.float64):
        arr = np.empty(shape, dtype)
        arr.view(np.uint8)[...] = 0xFF
        return arr

    monkeypatch.setattr(core._Workspace, "take", fresh)
    assert outputs() == reused


def test_workspace_arrays_do_not_alias_later_calls():
    # Public callers get arrays of their own: nothing a call returns shares
    # memory with what a later call on the same thread returns, and a sweep
    # in between changes none of it, nor an earlier sweep's result.
    env = make_environment("toy")
    trajs = [simulate(env.model, env.behavior, 300, 20, seed=s) for s in (1, 2)]
    returned = [
        [t.x, t.h, t.w, t.y, importance_ratios(t, env.target, env.behavior)] for t in trajs
    ]
    for i, seed in enumerate((3, 4)):
        returned[i] += env.rewards_and_ratios(300, 20, [seed])
    for a in returned[0]:
        assert not any(np.shares_memory(a, b) for b in returned[1])
    kept = [[a.copy() for a in arrays] for arrays in returned]
    spec = _small_spec(T_values=(300, 60), replications=12, burn_in=20)
    first = run_sweep(spec, chunk_size=5)
    before = json_text(sweep_result_to_json(first))
    run_sweep(_small_spec(T_values=(300, 60), replications=12, master_seed=9), chunk_size=5)
    assert json_text(sweep_result_to_json(first)) == before
    for arrays, copies in zip(returned, kept):
        for a, copy in zip(arrays, copies):
            np.testing.assert_array_equal(a, copy)


def _lepski(tmp_path, *argv: str) -> bytes:
    """The output bytes of an in-process ``lepski`` run with ``argv``."""
    from pomdp_ope import cli

    out = tmp_path / "lepski.json"
    assert cli.main(["lepski", *argv, "--out", str(out)]) == 0
    return out.read_bytes()


def _on_new_thread(fn):
    """fn() called on a new thread, which starts with an empty workspace."""
    got = []
    thread = threading.Thread(target=lambda: got.append(fn()))
    thread.start()
    thread.join()
    (result,) = got
    return result


@pytest.mark.parametrize("env_id", ["toy", "glucose"])
def test_a_second_lepski_run_takes_its_workspace_from_the_first(env_id, tmp_path, monkeypatch):
    # A thread keeps its workspace between calls: every array the second of
    # two runs takes comes from a buffer the first gave back, and it gives
    # back the same buffers.
    from pomdp_ope import core

    lent = []
    take = core._Workspace.take

    def spy(self, shape, dtype=np.float64):
        arr = take(self, shape, dtype)
        lent.append(arr.base)
        return arr

    monkeypatch.setattr(core._Workspace, "take", spy)

    def two_runs():
        workspace = core._workspace()
        _lepski(tmp_path, "--env", env_id, "--T", "2000", "--seed", "1")
        kept = list(workspace._free)
        lent.clear()
        _lepski(tmp_path, "--env", env_id, "--T", "2000", "--seed", "2")
        return kept, list(workspace._free)

    kept, after = _on_new_thread(two_runs)
    assert lent
    assert all(any(buf is old for old in kept) for buf in lent)
    assert sorted(map(id, after)) == sorted(map(id, kept))


def test_a_long_run_leaves_its_workspace_within_the_bound(tmp_path):
    # The arrays of a million-step trajectory are larger than a workspace
    # keeps between calls; what it keeps stays within the bound.
    from pomdp_ope import core

    def run():
        _lepski(tmp_path, "--env", "toy", "--T", "1000000", "--k-set=-1,0,1")
        return [len(buf) for buf in core._workspace()._free]

    sizes = _on_new_thread(run)
    assert sum(sizes) <= core._KEEP_BYTES < 8 * 1_000_000


def test_workspace_buffers_kept_between_runs_do_not_reach_the_output(tmp_path):
    # A toy run gives the bytes of a first run on a new thread after a
    # glucose run and a longer toy run on the same thread have left their
    # values in its workspace, and after every kept buffer is filled with
    # 0xFF bytes (NaN as a float, an out-of-range value as an index).
    from pomdp_ope import core

    argv = ("--env", "toy", "--T", "3000", "--seed", "5")
    first = _on_new_thread(lambda: _lepski(tmp_path, *argv))

    def after_others():
        _lepski(tmp_path, "--env", "glucose", "--T", "700")
        _lepski(tmp_path, "--env", "toy", "--T", "9000", "--seed", "6")
        again = _lepski(tmp_path, *argv)
        for buf in core._workspace()._free:
            buf[...] = 0xFF
        return again, _lepski(tmp_path, *argv)

    assert _on_new_thread(after_others) == (first, first)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_first_failing_chunk_raises_and_threads_end(workers, monkeypatch):
    # Chunks 2 and 4 (one replication each) fail with different errors;
    # chunk 2's is raised even when chunk 4 fails first, and no worker
    # thread outlives the call.
    from pomdp_ope.rng import _derive_seeds

    spec = _small_spec(T_values=(60,), replications=6)
    index = {int(s): r for r, s in enumerate(_derive_seeds(spec.master_seed, 0, np.arange(6)))}
    simulate = FiniteEnvironment.rewards_and_ratios

    def failing(self, T, burn_in, seeds):
        chunk = index[int(seeds[0])]
        if chunk == 2:
            time.sleep(0.05)
            raise ValueError("chunk 2 failed")
        if chunk == 4:
            raise KeyError("chunk 4 failed")
        return simulate(self, T, burn_in, seeds)

    monkeypatch.setattr(FiniteEnvironment, "rewards_and_ratios", failing)
    baseline = threading.active_count()
    for run in (run_sweep, lambda spec, **kw: run_lepski_study(spec, [-1, 0, 1], **kw)):
        with pytest.raises(ValueError, match="chunk 2 failed"):
            run(spec, workers=workers, chunk_size=1)
        assert threading.active_count() == baseline


def test_glucose_chunks_run_one_at_a_time(monkeypatch):
    # The glucose budget is CHUNK_STEPS, so however many workers are asked
    # for, one glucose chunk is in flight at a time.
    simulate = GlucoseEnvironment.rewards_and_ratios
    lock = threading.Lock()
    in_flight = [0]
    most = [0]
    calls = []

    def spy(self, T, burn_in, seeds):
        with lock:
            in_flight[0] += 1
            most[0] = max(most[0], in_flight[0])
            calls.append(len(seeds))
        try:
            time.sleep(0.01)
            return simulate(self, T, burn_in, seeds)
        finally:
            with lock:
                in_flight[0] -= 1

    monkeypatch.setattr(GlucoseEnvironment, "rewards_and_ratios", spy)
    monkeypatch.setattr(GlucoseEnvironment, "oracle", lambda self: (-0.7, {}))
    spec = _small_spec(
        environment="glucose", k_values=(0,), T_values=(30, 40), replications=6, burn_in=5
    )
    run_sweep(spec, workers=4, chunk_size=2)
    run_lepski_study(spec, [-1, 0], workers=4, chunk_size=2)
    assert calls == [2] * 12
    assert most[0] == 1


def test_chunks_side_by_side_load_no_executor():
    # The chunks run on plain threads: concurrent.futures, and the logging
    # it imports, cost about 10 ms of start-up that a sweep never needs.
    code = """
import sys, threading
from pomdp_ope import SweepSpec, run_sweep
from pomdp_ope.harness import FiniteEnvironment
threads = set()
simulate = FiniteEnvironment.rewards_and_ratios
def spy(self, *args):
    threads.add(threading.current_thread())
    return simulate(self, *args)
FiniteEnvironment.rewards_and_ratios = spy
spec = SweepSpec(environment="toy", k_values=(0,), T_values=(20,), replications=8, burn_in=5)
run_sweep(spec, workers=2, chunk_size=1)
print(len(threads), [m for m in ("concurrent.futures", "logging") if m in sys.modules])
"""
    assert run_python(code).strip() == "2 []"


@pytest.mark.parametrize("cores, expected", [(1, 1), (2, 2), (8, 2)])
def test_default_workers_are_two_capped_at_the_usable_cores(cores, expected, monkeypatch):
    from pomdp_ope import core, harness

    def affinity(pid):
        return set(range(cores))

    # The count has one owner in core, shared with the glucose draw split.
    monkeypatch.setattr(core.os, "sched_getaffinity", affinity, raising=False)
    assert harness._worker_count(None) == expected
    assert harness._worker_count(5) == 5


@pytest.mark.parametrize(
    "T_values, replications, chunk_size, bound, pooled",
    [
        # chunk_size=R: each job is a whole horizon of 960 or 1,680 steps.
        ((60, 120), 12, 12, 1, False),
        # One replication of 420 or 520 steps overflows the 300-step budget,
        # so each automatic chunk is one replication larger than the budget.
        ((400, 500), 3, None, 1, False),
        # Automatic chunks of 3 replications (240 steps) fit 4 at a time.
        ((60,), 24, None, 4, True),
    ],
)
def test_chunks_in_flight_hold_at_most_chunk_steps(
    T_values, replications, chunk_size, bound, pooled, monkeypatch
):
    # With the budgets shrunk to 300 steps per chunk and 1,000 steps in
    # flight, a spy counts the steps of the chunks being simulated at once.
    from pomdp_ope import harness

    monkeypatch.setattr(FiniteEnvironment, "chunk_steps", 300)
    monkeypatch.setattr(harness, "CHUNK_STEPS", 1000)
    simulate = FiniteEnvironment.rewards_and_ratios
    lock = threading.Lock()
    in_flight = [0, 0]  # chunks, steps
    most = [0, 0]

    def spy(self, T, burn_in, seeds):
        steps = len(seeds) * (T + burn_in)
        with lock:
            in_flight[0] += 1
            in_flight[1] += steps
            most[:] = [max(m, f) for m, f in zip(most, in_flight)]
        try:
            time.sleep(0.01)
            return simulate(self, T, burn_in, seeds)
        finally:
            with lock:
                in_flight[0] -= 1
                in_flight[1] -= steps

    monkeypatch.setattr(FiniteEnvironment, "rewards_and_ratios", spy)
    spec = _small_spec(T_values=T_values, replications=replications, burn_in=20)
    run_sweep(spec, workers=4, chunk_size=chunk_size)
    run_lepski_study(spec, [-1, 0], workers=4, chunk_size=chunk_size)
    assert most[0] <= bound
    assert most[0] > 1 if pooled else most[0] == 1
    assert most[1] <= 1000 or most[0] == 1


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
    # One (1, T) row of (state, action) cells and one of rewards, as the
    # array simulator returns them.
    states = corrupted.x * hi.num_h + corrupted.h
    columns = ((states * hi.num_actions + corrupted.w)[None], corrupted.y[None])
    monkeypatch.setattr(harness_mod, "_simulate_arrays", lambda *a, **kw: columns)
    with pytest.raises(OverlapViolationError) as err:
        env.rewards_and_ratios(5, 0, [0])
    assert err.value.env == "brokenpair"
    assert err.value.t == 3
    assert err.value.a == 1


@pytest.mark.parametrize("role", ["behavior", "target"])
def test_finite_environment_refuses_a_policy_of_another_shape(role):
    # Ratios are read from a table with one row per model state, so a
    # policy with other covariates is refused by name when the environment
    # is built.
    from pomdp_ope import Policy

    toy = make_environment("toy")
    policies = {"behavior": toy.behavior, "target": toy.target}
    policies[role] = Policy(probs=np.full((3, 2), 0.5))
    with pytest.raises(ConfigurationError, match=r"policy shape \(3, 2\) does not match model"):
        FiniteEnvironment("toy", toy.model, **policies)


def test_chunk_boundaries_do_not_change_simulators(monkeypatch, toy):
    # Chunks of 3 rows with a short last chunk: the batch simulators take the
    # seeds they are given, so their chunks are split by hand into separate
    # calls, and a tiny step budget splits the oracle's own runs. Results
    # must equal the one-chunk runs exactly, and the finite rows the
    # one-seed trajectories of ``simulate``.
    from pomdp_ope import core
    from pomdp_ope.instances import glucose

    model, behavior, _ = toy
    seeds = list(range(10))

    def run_all(finite_ranges, glucose_ranges):
        monkeypatch.setattr(glucose, "_oracle_cache", {})
        finite = [
            core._simulate_arrays(model, behavior, 40, 10, seeds[a:b]) for a, b in finite_ranges
        ]
        cells, y = (np.concatenate(column) for column in zip(*finite))
        states, w = np.divmod(cells, model.num_actions)
        x, h = np.divmod(states, model.num_h)
        trajs = [dict(x=x[r], h=h[r], w=w[r], y=y[r]) for r in range(len(seeds))]
        chunks = [glucose._rewards_and_ratios(30, 10, seeds[a:b]) for a, b in glucose_ranges]
        ys, rhos = (np.concatenate(column) for column in zip(*chunks))
        value, _ = glucose.target_value_oracle(runs=10, hours=30, burn_in=10, seed=7)
        return trajs, ys, rhos, value

    one = run_all([(0, 10)], [(0, 10)])
    monkeypatch.setattr(core, "CHUNK_STEPS", 150)
    assert core.chunk_ranges(10, 50) == [(0, 3), (3, 6), (6, 9), (9, 10)]
    assert core.chunk_ranges(10, 40) == [(0, 3), (3, 6), (6, 9), (9, 10)]
    many = run_all(core.chunk_ranges(10, 50), core.chunk_ranges(10, 40))
    singles = [simulate(model, behavior, 40, 10, seed) for seed in seeds]
    for a, b, single in zip(one[0], many[0], singles):
        for name in ("x", "h", "w", "y"):
            np.testing.assert_array_equal(a[name], b[name])
            np.testing.assert_array_equal(getattr(single, name), b[name])
    np.testing.assert_array_equal(one[1], many[1])
    np.testing.assert_array_equal(one[2], many[2])
    assert one[3] == many[3]


# ---------------------------------------------------------------------------
# Window-selection study


def test_lepski_study_single_candidate_always_selected():
    spec = _small_spec(k_values=(1,), T_values=(80,), replications=16)
    study = run_lepski_study(spec, candidates=[1])
    assert study.row(80).selection_freq[1] == 1.0


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


def test_study_aggregates_of_overflowing_estimates_do_not_warn(monkeypatch):
    # Ratios of 1e200 put k = 0 estimates near 1e200, whose squared errors
    # overflow to inf; longer windows are not finite at all. Both reach the
    # aggregates without a numpy warning.
    simulate = FiniteEnvironment.rewards_and_ratios

    def overflowing(self, T, burn_in, seeds):
        rewards, ratios = simulate(self, T, burn_in, seeds)
        return rewards, ratios * 1e200

    monkeypatch.setattr(FiniteEnvironment, "rewards_and_ratios", overflowing)
    spec = _small_spec(k_values=(-1, 0, 1), T_values=(60,), replications=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sweep = run_sweep(spec)
        study = run_lepski_study(spec, candidates=[-1, 0, 1])
    mse = {cell.k: cell.mse for cell in sweep.cells}
    assert np.isfinite(mse[-1]) and np.isinf(mse[0]) and not np.isfinite(mse[1])
    assert np.isinf([c.variance for c in sweep.cells if c.k == 0]).all()
    row = study.row(60)
    assert np.isinf(row.mse_by_k[0]) and not np.isfinite(row.mse_by_k[1])
    assert row.mse_selected == row.mse_by_k[-1]


@pytest.mark.parametrize(
    "run", [run_sweep, lambda spec: run_lepski_study(spec, [-1, 0])], ids=["sweep", "study"]
)
def test_negative_master_seed_is_named(run):
    with pytest.raises(ConfigurationError, match="non-negative.*-1"):
        run(_small_spec(master_seed=-1))


@pytest.mark.parametrize(
    "document",
    [
        lambda spec: sweep_result_to_json(run_sweep(spec)),
        lambda spec: lepski_study_to_json(run_lepski_study(spec, [-1, 0])),
    ],
    ids=["sweep", "study"],
)
def test_numpy_integer_spec_fields_serialize(document):
    spec = _small_spec(
        k_values=np.array([0]), T_values=(np.int64(20),), replications=np.int64(2),
        burn_in=np.int64(5), master_seed=np.int64(3),
    )
    echo = json.loads(json_text(document(spec)))["spec"]
    assert (echo["replications"], echo["burn_in"], echo["master_seed"]) == (2, 5, 3)
    assert (echo["k_values"], echo["T_values"]) == ([0], [20])


@pytest.mark.parametrize("field", ["master_seed", "burn_in", "replications"])
@pytest.mark.parametrize("value", [3.0, float("nan"), "3"])
def test_non_integer_spec_field_is_named(field, value):
    with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
        _small_spec(**{field: value})


@pytest.mark.parametrize(
    "field, values, entry",
    [("k_values", (0.9, 1.5), "0.9"), ("T_values", (60.7,), "60.7"), ("k_values", (0, "1"), "'1'")],
)
def test_fractional_window_or_horizon_is_named(field, values, entry):
    with pytest.raises(ConfigurationError, match=f"{field} entry must be an integer, got {entry}"):
        _small_spec(**{field: values})


def test_fractional_candidate_is_named():
    with pytest.raises(ConfigurationError, match="candidates entry must be an integer, got 0.5"):
        run_lepski_study(_small_spec(), (0.5, 1.7))


@pytest.mark.parametrize(
    "env_id, burn_in",
    [("toy", 100), ("glucose", 50), ("hard:Q=3,t0=1,zeta=0.69,M1=1,M2=2", 100)],
)
def test_spec_burn_in_defaults_to_the_environments(env_id, burn_in):
    spec = SweepSpec(environment=env_id, k_values=(0,), T_values=(20,), replications=1)
    assert spec.burn_in == make_environment(env_id).default_burn_in == burn_in
    assert spec.to_dict()["burn_in"] == burn_in


def test_spec_holds_the_environment_it_was_given():
    # An environment built apart from the id's: a spec of the id holds the
    # id's one environment instead.
    from pomdp_ope.instances import toy_model

    env = FiniteEnvironment("toy", *toy_model())
    given = SweepSpec(environment=env, k_values=(0,), T_values=(20,), replications=1)
    named = SweepSpec(environment="toy", k_values=(0,), T_values=(20,), replications=1)
    assert given.env is env and given.environment == named.environment == "toy"
    assert named.env is make_environment("toy") is not env
    # The object takes no part in the spec's comparison, echo or repr.
    assert given == named and hash(given) == hash(named)
    assert given.to_dict() == named.to_dict() and repr(given) == repr(named)
    assert json_text(sweep_result_to_json(run_sweep(given))) == json_text(
        sweep_result_to_json(run_sweep(named))
    )


def test_a_spec_copy_keeps_its_environment_object():
    # dataclasses.replace passes the name back with the object, so a spec of
    # a model file, whose name is no id, copies to a spec of the same
    # object with the echo of one built anew; a new id builds its own.
    toy = make_environment("toy")
    env = FiniteEnvironment("m.json", toy.model, toy.behavior, toy.target)
    spec = SweepSpec(environment=env, k_values=(0,), T_values=(20,), replications=2)
    copy = dataclasses.replace(spec, replications=3)
    built = SweepSpec(environment=env, k_values=(0,), T_values=(20,), replications=3)
    assert copy.env is env and copy == built
    assert json_text(copy.to_dict()) == json_text(built.to_dict())
    other = dataclasses.replace(spec, environment="toy")
    assert other.env is not env and other.env.name == "toy"


@pytest.mark.parametrize(
    "run",
    [
        lambda spec: run_sweep(spec),
        lambda spec: run_lepski_study(spec, [0, 1]),
    ],
    ids=["run_sweep", "run_lepski_study"],
)
@pytest.mark.parametrize(
    "env_id", ["toy", "hard:Q=3,t0=1,zeta=0.69,M1=1,M2=2", "glucose"], ids=["toy", "hard", "glucose"]
)
def test_a_run_from_a_name_builds_its_environment_once(environment_builds, run, env_id):
    # Without burn_in the spec needs the environment's default; the run
    # then uses the environment the spec built.
    spec = SweepSpec(environment=env_id, k_values=(0, 1), T_values=(20,), replications=2)
    run(spec)
    assert len(environment_builds) == 1
    run(spec)
    assert len(environment_builds) == 1


@pytest.mark.parametrize(
    "run",
    [
        lambda spec, **kw: run_sweep(spec, **kw),
        lambda spec, **kw: run_lepski_study(spec, [0, 1], **kw),
    ],
    ids=["run_sweep", "run_lepski_study"],
)
@pytest.mark.parametrize("workers", [1, 2, 8])
def test_a_run_builds_its_step_monoid_once(run, workers, monkeypatch, step_tables):
    # Every chunk of both horizons of two runs, each building its own
    # environment, on every runner thread, one seed included, follows its
    # paths by the ids of one step-map monoid, built at the first chunk
    # that asks; the cache starts empty. A slow build with threads
    # switching every microsecond: a second build would show. The step
    # tables are built once too: one bucket table of the policy, one of the
    # transition tensor.
    from pomdp_ope import core

    builds, scans, buckets = [], [], []
    build, follow_maps, bucket_counts = core._step_monoid, core._follow_maps, core._bucket_counts

    def slow_build(nxt_of):
        builds.append(nxt_of)
        time.sleep(0.01)
        return build(nxt_of)

    monkeypatch.setattr(core, "_step_monoid", slow_build)
    monkeypatch.setattr(core, "_bucket_counts", lambda cum, values: buckets.append(cum.shape) or bucket_counts(cum, values))
    monkeypatch.setattr(core, "_follow_maps", lambda *a: scans.append(a[1]) or follow_maps(*a))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(2):
            spec = SweepSpec(environment="toy", k_values=(0, 1), T_values=(40, 60), replications=7, burn_in=5)
            run(spec, workers=workers, chunk_size=3)
    finally:
        sys.setswitchinterval(interval)
    assert len(builds) == len(step_tables) == 1
    assert buckets == [(2, 2), (2, 4, 4)]
    assert sorted(scans) == [44] * 6 + [64] * 6


def test_a_spec_pickles_after_its_run(monkeypatch, step_tables):
    # The step tables and their monoid live in core, not in the environment,
    # so a spec still pickles after its run, and the copy runs to the same
    # cells. The copy holds new model objects, so it builds its own tables,
    # which go with it.
    from pomdp_ope import core

    builds = []
    build = core._step_monoid
    monkeypatch.setattr(core, "_step_monoid", lambda nxt_of: builds.append(nxt_of) or build(nxt_of))
    spec = SweepSpec(environment="toy", k_values=(0, 1), T_values=(40,), replications=5, burn_in=5)
    result = run_sweep(spec)
    assert run_sweep(pickle.loads(pickle.dumps(spec))).cells == result.cells
    assert len(builds) == 2 and len(step_tables) == 1


def test_random_dense_model_sweeps_against_its_exact_value():
    from conftest import interior_policy, random_model

    rng = np.random.default_rng(31)
    model = random_model(rng, num_x=3, num_h=4, num_actions=3)
    behavior, target = interior_policy(rng, 3, 3), interior_policy(rng, 3, 3)
    env = FiniteEnvironment("dense", model, behavior, target)
    spec = SweepSpec(environment=env, k_values=(-1, 0, 1, 2), T_values=(200,), replications=40)
    result = run_sweep(spec, workers=2)
    assert result.oracle == policy_value_exact(model, target)
    assert result.oracle_provenance == {"kind": "exact", "tol": 1e-12}
    assert result.spec.environment == "dense" and result.spec.burn_in == 100
    assert sweep_result_to_json(result)["spec"]["environment"] == "dense"
    for cell in result.cells:
        assert np.isfinite([cell.mse, cell.bias, cell.variance]).all()
        assert cell.mse == pytest.approx(cell.bias**2 + cell.variance, rel=1e-9)
    assert run_sweep(spec, workers=1, chunk_size=7) == result


@pytest.mark.parametrize(
    "name",
    ["hard:Q=3,t0=1,zeta=0.69,M1=1,M2=2", 'runs/a "b",c.json', "runs/line\nbreak.json"],
    ids=["hard-id", "comma-and-quote", "newline"],
)
def test_sweep_csv_quotes_an_env_cell_that_needs_it(tmp_path, name):
    toy = make_environment("toy")
    env = FiniteEnvironment(name, toy.model, toy.behavior, toy.target)
    spec = SweepSpec(environment=env, k_values=(-1, 0), T_values=(20,), replications=2, burn_in=5)
    path = tmp_path / "sweep.csv"
    sweep_result_to_csv(run_sweep(spec), path)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert len(rows) == 3 and rows[0][0] == "env"
    assert all(len(row) == len(rows[0]) == 10 for row in rows)
    assert [row[0] for row in rows[1:]] == [name, name]


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
    from pomdp_ope import phiw_estimate
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
        seeds = [seed_reference(4242, ti, r) for r in range(reps)]
        Y, RHO = env.rewards_and_ratios(T, 100, seeds)
        est = np.array(
            [phiw_estimate([RHO[i]], [Y[i]], k) for i in range(reps)]
        )
        rmse = float(np.sqrt(((est - env.oracle()[0]) ** 2).mean()))
        points.append((T, rmse))
    fit = fit_rate(points)
    print(f"calibrated-window rate fit: slope={fit.slope:.4f} r2={fit.r_squared:.3f}")
    assert fit.slope < -0.15
