from __future__ import annotations

import hashlib
import io
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import glucose_reference, seed_reference

from pomdp_ope import core
from pomdp_ope.errors import ConfigurationError
from pomdp_ope.instances import glucose
from pomdp_ope.instances.glucose import (
    GLUCOSE_REST,
    _rewards_and_ratios,
    _utility,
    glucose_mean_update,
    glucose_simulate,
    target_rule,
    target_value_oracle,
)
from pomdp_ope.rng import _make_rng
from pomdp_ope.serialization import trajectory_to_csv

FIELDS = ("gl", "ex", "di", "insulin", "y", "behavior_prob", "target_action")


def test_utility_thresholds():
    assert _utility(100.0) == 0
    assert _utility(60.0) == -3
    assert _utility(130.0) == -1
    assert _utility(160.0) == -2
    # Band edges: 70 is hypoglycemic, 80 borderline, 120 normal, 150 borderline.
    assert _utility(70.0) == -3
    assert _utility(80.0) == -1
    assert _utility(120.0) == 0
    assert _utility(150.0) == -1


def test_target_rule_thresholds():
    assert target_rule(120.0, ex_now=30.0, ex_prev=20.0) == 1
    assert target_rule(100.0, ex_now=0.0, ex_prev=0.0) == 0
    assert target_rule(110.0, ex_now=50.0, ex_prev=50.0) == 1
    assert target_rule(110.0, ex_now=50.0, ex_prev=51.0) == 0


def test_noise_free_recursion_converges_to_rest():
    gl = 250.0
    for _ in range(200):
        gl = glucose_mean_update(gl, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert gl == pytest.approx(GLUCOSE_REST, abs=1e-6)


def test_deterministic_in_seed():
    a = glucose_simulate(T=100, burn_in=10, policy_kind="behavior", seed=5)
    b = glucose_simulate(T=100, burn_in=10, policy_kind="behavior", seed=5)
    np.testing.assert_array_equal(a.gl, b.gl)
    np.testing.assert_array_equal(a.insulin, b.insulin)
    np.testing.assert_array_equal(a.y, b.y)


def test_utilities_confined_to_categories():
    traj = glucose_simulate(T=2000, burn_in=50, policy_kind="behavior", seed=6)
    assert set(np.unique(traj.y)).issubset({-3.0, -2.0, -1.0, 0.0})


def test_activity_and_diet_nonnegative():
    traj = glucose_simulate(T=2000, burn_in=50, policy_kind="behavior", seed=7)
    assert traj.ex.min() >= 0.0
    assert traj.di.min() >= 0.0


def test_activity_event_frequencies():
    traj = glucose_simulate(T=20_000, burn_in=50, policy_kind="behavior", seed=8)
    active = traj.ex > 0
    assert active.mean() == pytest.approx(0.6, abs=0.02)
    moderate = traj.ex > 500
    assert moderate.mean() == pytest.approx(0.2, abs=0.02)
    assert (traj.di > 0).mean() == pytest.approx(0.2, abs=0.02)


def test_behavior_insulin_rate():
    traj = glucose_simulate(T=20_000, burn_in=50, policy_kind="behavior", seed=9)
    assert traj.insulin.mean() == pytest.approx(0.3, abs=0.02)
    np.testing.assert_array_equal(
        traj.behavior_prob, np.where(traj.insulin == 1, 0.3, 0.7)
    )


def test_target_run_follows_rule():
    traj = glucose_simulate(T=5000, burn_in=50, policy_kind="target", seed=10)
    np.testing.assert_array_equal(traj.insulin, traj.target_action)


def test_importance_ratios_values():
    traj = glucose_simulate(T=1000, burn_in=50, policy_kind="behavior", seed=11)
    rho = traj.importance_ratios()
    allowed = {0.0, 1.0 / 0.3, 1.0 / 0.7}
    assert all(any(abs(r - v) < 1e-12 for v in allowed) for r in np.unique(rho))


def test_batch_matches_single_runs():
    ys, rhos = _rewards_and_ratios(T=50, burn_in=10, seeds=[3, 4])
    for i, seed in enumerate((3, 4)):
        traj = glucose_simulate(T=50, burn_in=10, policy_kind="behavior", seed=seed)
        np.testing.assert_array_equal(ys[i], traj.y)
        np.testing.assert_array_equal(rhos[i], traj.importance_ratios())


def test_oracle_cached_and_reproducible():
    a, prov_a = target_value_oracle(runs=50, hours=200, seed=123)
    b, prov_b = target_value_oracle(runs=50, hours=200, seed=123)
    assert a == b
    assert prov_a == prov_b
    assert prov_a["kind"] == "monte-carlo"
    assert prov_a["seed"] == 123


def test_target_policy_beats_behavior_on_average():
    v_target, _ = target_value_oracle(runs=300, hours=500, seed=99)
    ys, _ = _rewards_and_ratios(T=500, burn_in=50, seeds=list(range(300)))
    assert v_target > ys.mean() + 0.3


def test_csv_round_trip_columns():
    traj = glucose_simulate(T=5, burn_in=2, policy_kind="behavior", seed=12)
    buf = io.StringIO()
    trajectory_to_csv(traj, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,gl,ex,di,in,y,behavior_prob,target_action"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == pytest.approx(traj.gl[0])


@pytest.mark.parametrize("shape", [(4,), (5, 1)])
def test_csv_refuses_a_column_without_one_entry_per_hour(shape):
    # A short column once failed with a bare IndexError mid-write.
    traj = glucose_simulate(T=5, burn_in=2, policy_kind="behavior", seed=12)
    object.__setattr__(traj, "ex", np.ones(shape))
    with pytest.raises(ConfigurationError, match=rf"^ex must have shape \(5,\), got \({shape[0]},"):
        trajectory_to_csv(traj, io.StringIO())


def assert_same(got, want):
    """Equal values and equal dtypes."""
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def reference_rewards_and_ratios(T, burn_in, seeds):
    refs = [glucose_reference(T, burn_in, "behavior", s) for s in seeds]
    ys = np.array([r["y"] for r in refs])
    rhos = np.array(
        [(r["insulin"] == r["target_action"]).astype(float) / r["behavior_prob"] for r in refs]
    )
    return ys, rhos


def reference_oracle(runs, hours, burn_in, seed):
    total = sum(
        glucose_reference(hours, burn_in, "target", seed_reference(seed, r))["y"].sum()
        for r in range(runs)
    )
    return float(total) / (runs * hours)


@pytest.mark.parametrize("policy_kind", ["behavior", "target"])
@pytest.mark.parametrize("T, burn_in, seed", [(1, 0, 3), (5, 2, 12), (300, 50, 7), (200, 0, 8)])
def test_simulate_matches_reference(policy_kind, T, burn_in, seed):
    traj = glucose_simulate(T=T, burn_in=burn_in, policy_kind=policy_kind, seed=seed)
    ref = glucose_reference(T, burn_in, policy_kind, seed)
    for name in FIELDS:
        assert_same(getattr(traj, name), ref[name])


def test_rewards_and_ratios_match_reference_across_chunks():
    # The simulator takes the seeds it is given, so each chunk is its own
    # call: one call for all, then 5 rows and 1 row at a time, joined.
    T, burn_in, seeds = 40, 10, list(range(20, 37))
    want_y, want_rho = reference_rewards_and_ratios(T, burn_in, seeds)
    for chunk_rows in (None, 5, 1):
        ranges = core.chunk_ranges(len(seeds), T + burn_in, chunk_rows)
        chunks = [_rewards_and_ratios(T, burn_in, seeds[a:b]) for a, b in ranges]
        # C order: the estimator engine's sums follow memory order.
        assert all(arr.flags.c_contiguous for chunk in chunks for arr in chunk)
        ys, rhos = (np.concatenate(column) for column in zip(*chunks))
        assert_same(ys, want_y)
        assert_same(rhos, want_rho)


def test_oracle_matches_reference_across_chunks(monkeypatch, oracle_values):
    want = reference_oracle(runs=7, hours=30, burn_in=5, seed=41)
    value, _ = target_value_oracle(runs=7, hours=30, burn_in=5, seed=41)
    assert value == want
    oracle_values.cache_clear()
    monkeypatch.setattr(core, "CHUNK_STEPS", 3 * 35)
    value, _ = target_value_oracle(runs=7, hours=30, burn_in=5, seed=41)
    assert value == want


def test_oracle_holds_one_chunk_at_a_time(monkeypatch, oracle_values):
    # Three chunks of 1,000 runs x 250 hours. A chunk's draws hold three
    # float arrays (glucose on the noise rows, activity, diet) and the
    # rule's bool array; a second glucose buffer, or the previous chunk's
    # glucose kept alive while the next one is drawn, adds one array each.
    monkeypatch.setattr(core, "CHUNK_STEPS", 1_000 * 250)
    chunk_array = 1_000 * 250 * 8
    tracemalloc.start()
    try:
        target_value_oracle(runs=3000, hours=200, burn_in=50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * chunk_array, f"peak {peak / chunk_array:.2f} chunk arrays"


def test_forced_rejection_matches_reference(monkeypatch, oracle_values):
    # Means near zero make many truncated draws negative, so
    # _truncated_normal redraws, and the redraws sit between the blocks in
    # the stream.
    monkeypatch.setattr(glucose, "MILD_ACTIVITY_MEAN", 1.0)
    monkeypatch.setattr(glucose, "DIET_MEAN", 0.5)
    for policy_kind in ("behavior", "target"):
        traj = glucose_simulate(T=60, burn_in=5, policy_kind=policy_kind, seed=13)
        ref = glucose_reference(60, 5, policy_kind, 13)
        for name in FIELDS:
            assert_same(getattr(traj, name), ref[name])
    # The first mild block of seed 13 (after 65 noise normals and 65
    # uniforms) does hold negative draws.
    rng = _make_rng(13)
    rng.standard_normal(65)
    rng.random(65)
    assert (rng.normal(1.0, glucose.MILD_ACTIVITY_SD, 65) < 0.0).any()
    want_y, want_rho = reference_rewards_and_ratios(30, 5, [1, 2, 3])
    ys, rhos = _rewards_and_ratios(30, 5, [1, 2, 3])
    assert_same(ys, want_y)
    assert_same(rhos, want_rho)
    assert target_value_oracle(runs=3, hours=30, burn_in=5, seed=2)[0] == reference_oracle(
        3, 30, 5, 2
    )


def test_outputs_pinned():
    # Any change to the draw order or the glucose arithmetic shows here.
    ys, rhos = _rewards_and_ratios(T=200, burn_in=50, seeds=list(range(64)))
    assert hashlib.sha256(ys.tobytes() + rhos.tobytes()).hexdigest() == (
        "97828f55f851cee3f17e9807337ab98c300876ba9e8c8e938b3872b652fb445d"
    )
    value, _ = target_value_oracle(runs=50, hours=200, seed=123)
    assert hashlib.sha256(np.float64(value).tobytes()).hexdigest() == (
        "61859100903e6d0c391e24184d730465813a4f5894e0215fa4bdfecb51bf5e35"
    )


@pytest.mark.parametrize(
    "runs, hours, name", [(0, 10, "runs"), (-3, 10, "runs"), (5, 0, "hours"), (5, -1, "hours")]
)
def test_oracle_without_runs_raises(runs, hours, name):
    with pytest.raises(ConfigurationError, match=name):
        target_value_oracle(runs=runs, hours=hours)


@pytest.mark.parametrize(
    "mean, sd",
    [
        (0.0, glucose.GLUCOSE_NOISE_SD),
        (glucose.MILD_ACTIVITY_MEAN, glucose.MILD_ACTIVITY_SD),
        (glucose.MODERATE_ACTIVITY_MEAN, glucose.MODERATE_ACTIVITY_SD),
        (glucose.DIET_MEAN, glucose.DIET_SD),
    ],
)
def test_normal_is_scaled_standard_normal(mean, sd):
    # The grouped draws fill standard normals and scale them afterwards; that
    # equals Generator.normal only if NumPy computes mean + sd * z with a
    # separate multiply and add. A build that fuses the two fails here.
    want = np.random.default_rng(17).normal(mean, sd, 200_000)
    z = np.random.default_rng(17).standard_normal(200_000)
    got = mean + sd * z
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist(), (
        "Generator.normal(mean, sd) differs bitwise from mean + sd * standard_normal: "
        "this NumPy build fuses multiply-add, so the grouped glucose draws are not bit-exact"
    )


def assert_arrays_match_reference(T, burn_in, policy_kind, seeds):
    """Every column of ``_simulate_arrays`` equals the one-seed reference."""
    gl, ex, di, insulin, wants = glucose._simulate_arrays(T, burn_in, policy_kind, seeds)
    for i, seed in enumerate(seeds):
        ref = glucose_reference(T, burn_in, policy_kind, seed)
        for name, got in (("gl", gl), ("ex", ex), ("di", di)):
            assert_same(got[:, i], ref[name])
        assert_same(insulin[:, i].astype(np.int64), ref["insulin"])
        assert_same(wants[:, i].astype(np.int64), ref["target_action"])


@pytest.mark.parametrize("group", [1, 3, 40])
def test_group_size_does_not_change_outputs(monkeypatch, oracle_values, group):
    T, burn_in, seeds = 30, 6, list(range(50, 61))
    monkeypatch.setattr(glucose, "_GROUP_SEEDS", group)
    for policy_kind in ("behavior", "target"):
        assert_arrays_match_reference(T, burn_in, policy_kind, seeds)
    want_y, want_rho = reference_rewards_and_ratios(T, burn_in, seeds)
    ys, rhos = _rewards_and_ratios(T, burn_in, seeds)
    assert_same(ys, want_y)
    assert_same(rhos, want_rho)
    value, _ = target_value_oracle(runs=11, hours=T, burn_in=burn_in, seed=43)
    assert value == reference_oracle(11, T, burn_in, 43)


def test_mixed_group_rejection_matches_reference(monkeypatch, oracle_values):
    # At a mild mean of 3.5 sd above zero, about one seed in seven meets a
    # negative truncated draw in 350 hours: a group holds seeds drawn
    # again by the sequential path next to seeds kept from the group fill.
    monkeypatch.setattr(glucose, "MILD_ACTIVITY_MEAN", 17.5)
    redrawn = []

    def recording_make_rng(seed):
        redrawn.append(int(seed))
        return _make_rng(seed)

    monkeypatch.setattr(glucose, "_make_rng", recording_make_rng)
    seeds = list(range(100, 100 + glucose._GROUP_SEEDS))  # one group
    for policy_kind in ("behavior", "target"):
        redrawn.clear()
        assert_arrays_match_reference(300, 50, policy_kind, seeds)
        assert 0 < len(redrawn) < len(seeds)
    assert target_value_oracle(runs=16, hours=300, burn_in=50, seed=3)[0] == reference_oracle(
        16, 300, 50, 3
    )


def test_band_counts_sum_utilities():
    edges = np.array(glucose.UTILITY_EDGES)
    near = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    spread = np.random.default_rng(5).normal(110.0, 40.0, 996)
    for gl in [near, spread, np.concatenate([near, spread]).reshape(-1, 16)]:
        assert glucose._utility_sum(gl) == _utility(gl).sum()
    for edge in edges:
        for value in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)):
            gl = np.array([value])
            assert glucose._utility_sum(gl) == _utility(gl).sum()
    values = _utility(near)
    below = np.searchsorted(edges, near)
    assert values.tolist() == [glucose.UTILITY_VALUES[i] for i in below]


@pytest.mark.parametrize(
    "name, column, got",
    [("insulin", [1, 0], r"\(2,\)"), ("gl", np.ones((2, 2)), r"\(2, 2\)")],
    ids=["short", "2-D"],
)
def test_trajectory_refuses_a_column_without_one_entry_per_hour(name, column, got):
    # A 2-entry insulin column beside 4-entry ones once failed only later,
    # in importance_ratios, with numpy's bare broadcast error.
    traj = glucose_simulate(T=4, burn_in=2, policy_kind="behavior", seed=12)
    fields = {field: getattr(traj, field) for field in FIELDS}
    fields[name] = column
    want = rf"^glucose trajectory {name} must have shape \(4,\), .* got {got}"
    with pytest.raises(ConfigurationError, match=want):
        glucose.GlucoseTrajectory(**fields, policy_kind="behavior", seed=12, burn_in=2)


def test_trajectory_columns_are_read_only_views():
    # A write to a column once changed the ratios the record reports; the
    # caller's own arrays keep their flags.
    traj = glucose_simulate(T=4, burn_in=2, policy_kind="behavior", seed=12)
    ratios = traj.importance_ratios()
    for name in FIELDS:
        with pytest.raises(ValueError, match="read-only"):
            getattr(traj, name)[:] = 1
    np.testing.assert_array_equal(traj.importance_ratios(), ratios)
    fields = {field: getattr(traj, field).copy() for field in FIELDS}
    built = glucose.GlucoseTrajectory(**fields, policy_kind="behavior", seed=12, burn_in=2)
    assert all(column.flags.writeable for column in fields.values())
    assert not any(getattr(built, field).flags.writeable for field in FIELDS)


def split_draws(monkeypatch, workers, group=3):
    """Draw in groups of ``group`` seeds on ``workers`` threads."""
    monkeypatch.setattr(glucose, "_GROUP_SEEDS", group)
    monkeypatch.setattr(glucose, "_worker_count", lambda count: workers)
    glucose._oracle_value.cache_clear()


@pytest.mark.parametrize("n", [16, 17, 33, 50])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_split_draws_match_reference(monkeypatch, oracle_values, workers, n):
    # 3-seed groups: 16 and 50 seeds end in a part group, and 17 and 33
    # split into runs of unequal length.
    split_draws(monkeypatch, workers)
    T, burn_in, seeds = 12, 4, list(range(200, 200 + n))
    for policy_kind in ("behavior", "target"):
        assert_arrays_match_reference(T, burn_in, policy_kind, seeds)
    want_y, want_rho = reference_rewards_and_ratios(T, burn_in, seeds)
    ys, rhos = _rewards_and_ratios(T, burn_in, seeds)
    assert_same(ys, want_y)
    assert_same(rhos, want_rho)
    value, _ = target_value_oracle(runs=n, hours=T, burn_in=burn_in, seed=47)
    assert value == reference_oracle(n, T, burn_in, 47)


def test_split_redraws_in_the_helper_match_reference(monkeypatch, oracle_values):
    # As in test_mixed_group_rejection_matches_reference, about one seed in
    # seven is drawn again by the sequential path; some of those fall in
    # the helper thread's run.
    split_draws(monkeypatch, workers=2)
    monkeypatch.setattr(glucose, "MILD_ACTIVITY_MEAN", 17.5)
    on_helper = []

    def recording_make_rng(seed):
        on_helper.append(threading.current_thread() is not threading.main_thread())
        return _make_rng(seed)

    monkeypatch.setattr(glucose, "_make_rng", recording_make_rng)
    seeds = list(range(100, 133))
    for policy_kind in ("behavior", "target"):
        on_helper.clear()
        assert_arrays_match_reference(300, 50, policy_kind, seeds)
        assert any(on_helper) and not all(on_helper)
    assert target_value_oracle(runs=33, hours=300, burn_in=50, seed=3)[0] == reference_oracle(
        33, 300, 50, 3
    )


@pytest.mark.parametrize("bad_seed", [101, 130])  # in the caller's run, in the helper's
def test_split_failure_reaches_the_caller_after_the_join(monkeypatch, oracle_values, bad_seed):
    # Every seed is drawn again (mean 1), and _draw_row fails on the fresh
    # generator of one of them.
    split_draws(monkeypatch, workers=2)
    monkeypatch.setattr(glucose, "MILD_ACTIVITY_MEAN", 1.0)
    bad_state = _make_rng(bad_seed).bit_generator.state
    draw_row = glucose._draw_row

    def failing_draw_row(rng, rows):
        if rng.bit_generator.state == bad_state:
            raise RuntimeError(f"draw failed for seed {bad_seed}")
        draw_row(rng, rows)

    monkeypatch.setattr(glucose, "_draw_row", failing_draw_row)
    baseline = threading.active_count()
    with pytest.raises(RuntimeError, match=f"seed {bad_seed}"):
        glucose._simulate_arrays(20, 5, "behavior", list(range(100, 133)))
    assert threading.active_count() == baseline


@pytest.mark.parametrize(
    "cores, n, helpers",
    [(1, 50, 0), (2, glucose._GROUP_SEEDS, 0), (2, glucose._GROUP_SEEDS + 1, 1)],
)
def test_split_starts_a_helper_only_on_two_cores_and_two_groups(monkeypatch, cores, n, helpers):
    started = []

    class SpyThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    monkeypatch.setattr(core, "threading", SimpleNamespace(Thread=SpyThread, Lock=threading.Lock))
    assert_arrays_match_reference(10, 2, "behavior", list(range(n)))
    assert len(started) == helpers
    started.clear()
    glucose_simulate(T=10, burn_in=2, seed=5)
    assert started == []


def test_split_draws_hold_under_fast_thread_switching(monkeypatch, oracle_values):
    # More runs than cores, switching threads every few microseconds: each
    # run still writes exactly its own columns.
    seeds = list(range(300, 350))
    split_draws(monkeypatch, workers=1)
    want = glucose._draw_exogenous(seeds, 40, True)
    split_draws(monkeypatch, workers=4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(20):
            got = glucose._draw_exogenous(seeds, 40, True)
            for g, w in zip(got, want):
                assert_same(g, w)
    finally:
        sys.setswitchinterval(interval)
