"""The table-driven batch simulator against the per-step reference loop,
and the harness's array path against the per-trajectory one."""

from __future__ import annotations

import hashlib
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import interior_policy, random_model, run_python
from oracles import simulate_reference

from pomdp_ope import (
    Gaussian,
    PointMass,
    Policy,
    PomdpModel,
    core,
    importance_ratios,
    simulate,
)
from pomdp_ope.estimators import _policy_ratios
from pomdp_ope.harness import FiniteEnvironment, make_environment

HARD_Q3 = "hard:Q=3,t0=1,zeta=0.69,M1=1,M2=2,Delta=0.5"
HARD_Q20 = "hard:Q=20,t0=2,zeta=0.69,M1=1,M2=2"


def _batch_columns(model, behavior, T, burn_in, seeds):
    """(seeds, T) x, h, w and y arrays of one batch of the simulator core."""
    cells, y = core._simulate_arrays(model, behavior, T, burn_in, seeds)
    states, w = np.divmod(cells, model.num_actions)
    x, h = np.divmod(states, model.num_h)
    return x, h, w, y


def _assert_matches_reference(model, behavior, T, burn_in, seeds, make_rng=np.random.default_rng):
    batch = _batch_columns(model, behavior, T, burn_in, seeds)
    expected = simulate_reference(model, behavior, T, burn_in, seeds, make_rng)
    assert all(len(column) == len(expected) for column in batch)
    for r, columns in enumerate(expected):
        for got, want in zip((column[r] for column in batch), columns):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
    return batch


def _with_zeros(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Random probability rows (last axis); every row of two or more entries
    has between one and all but one of them set to exactly zero."""
    probs = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
    if shape[-1] > 1:
        for row in probs.reshape(-1, shape[-1]):
            row[rng.choice(shape[-1], size=rng.integers(1, shape[-1]), replace=False)] = 0.0
    return probs / probs.sum(axis=-1, keepdims=True)


def _sparse_model(rng: np.random.Generator, num_x: int, num_h: int):
    num_actions = 3
    s = num_x * num_h
    reward = tuple(
        tuple(
            PointMass(float(rng.normal()))
            if rng.random() < 0.3
            else Gaussian(float(rng.normal()), float(rng.uniform(0.0, 1.0)))
            for _ in range(num_actions)
        )
        for _ in range(s)
    )
    model = PomdpModel(
        num_x=num_x,
        num_h=num_h,
        num_actions=num_actions,
        transition=_with_zeros(rng, (num_actions, s, s)),
        reward=reward,
    )
    return model, Policy(probs=_with_zeros(rng, (num_x, num_actions)))


@pytest.mark.parametrize("env_id", ["toy", HARD_Q3, HARD_Q20])
def test_simulate_batch_matches_reference_on_instances(env_id):
    env = make_environment(env_id)
    _assert_matches_reference(env.model, env.behavior, 120, 30, [3, 1, 4, 1, 5])


@pytest.mark.parametrize("num_x", [1, 2, 3])
@pytest.mark.parametrize("num_h", [1, 2, 3])
def test_simulate_batch_matches_reference_with_zero_probabilities(num_x, num_h):
    rng = np.random.default_rng(100 * num_x + num_h)
    model, behavior = _sparse_model(rng, num_x, num_h)
    assert (behavior.probs == 0.0).any()
    x, _, w, _ = _assert_matches_reference(model, behavior, 80, 20, [11, 12, 13])
    # A zero-probability action is never taken.
    assert (behavior.probs[x, w] > 0.0).all()


@pytest.mark.parametrize("T, burn_in", [(1, 0), (1, 7), (25, 0)])
def test_simulate_batch_matches_reference_at_edge_lengths(toy, T, burn_in):
    model, behavior, _ = toy
    _assert_matches_reference(model, behavior, T, burn_in, [0, 9, 2**40])


def _one_state_model():
    model = PomdpModel(
        num_x=1,
        num_h=1,
        num_actions=2,
        transition=np.ones((2, 1, 1)),
        reward=((Gaussian(1.0, 0.5), PointMass(2.0)),),
    )
    return model, Policy(probs=np.array([[0.3, 0.7]]))


def test_simulate_batch_matches_reference_with_one_state_and_many_seeds():
    # 256 seeds x 1 state: the flat (seed, state) index needs a wider type
    # than the state alone.
    _assert_matches_reference(*_one_state_model(), 6, 2, list(range(256)))


@pytest.mark.parametrize("env_id", ["toy", HARD_Q20, "one-state"])
def test_long_single_trajectory_matches_reference(env_id):
    # One seed: the state is followed through three levels of the scan.
    if env_id == "one-state":
        model, behavior = _one_state_model()
    else:
        env = make_environment(env_id)
        model, behavior = env.model, env.behavior
    _assert_matches_reference(model, behavior, 5_000, 100, [77])


def _follow_by_step(table: np.ndarray, start: np.ndarray) -> np.ndarray:
    path = np.empty((len(table) + 1, len(start)), dtype=table.dtype)
    path[0] = start
    for t, row in enumerate(table):
        path[t + 1] = row[path[t]]
    return path


def _assert_follows(table: np.ndarray, start: np.ndarray) -> None:
    table.setflags(write=False)
    got = core._follow(table, start)
    want = _follow_by_step(table, start)
    assert got.dtype == want.dtype and got.shape == (len(table) + 1, len(start))
    np.testing.assert_array_equal(got, want)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_follow_matches_per_step_loop(data):
    # Row widths up to ~1,200 lanes, among them fig3's chunk widths (260,
    # 560 and 1,000 lanes) and the one-byte index limit.
    lanes = data.draw(
        st.sampled_from([1, 4, 255, 256, 257, 260, 560, 1000]) | st.integers(1, 1200),
        label="lanes",
    )
    n = data.draw(st.integers(1, 300), label="n")
    # The simulator's index type for these lanes, or the narrowest that
    # holds every lane (one byte at 256 lanes).
    dtype = data.draw(
        st.sampled_from([np.min_scalar_type(lanes), np.min_scalar_type(lanes - 1)]),
        label="dtype",
    )
    # Empty tables (T = 1, no burn-in), one block of steps and one step
    # either side of it, of a second level and of a third, and anything else
    # up to ~5,000 steps.
    m = data.draw(
        st.sampled_from([0, 1, 15, 16, 17, 255, 256, 257, 4095, 4096, 4097])
        | st.integers(0, 5000),
        label="m",
    )
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    table = rng.integers(0, lanes, size=(m, lanes)).astype(dtype)
    _assert_follows(table, rng.integers(0, lanes, size=n))


def test_follow_matches_per_step_loop_on_one_long_trajectory():
    # cli-lepski's shape: one toy seed (4 lanes), T = 20,000 plus burn-in 100.
    rng = np.random.default_rng(20_099)
    table = rng.integers(0, 4, size=(20_099, 4)).astype(np.uint8)
    _assert_follows(table, np.array([2]))


def test_simulate_batch_chunks_match_reference(toy):
    model, behavior, _ = toy
    seeds = list(range(7))
    _, _, whole_w, whole_y = _batch_columns(model, behavior, 40, 10, seeds)
    # 50 steps x 4 states per seed: 3 seeds per chunk, the last chunk short.
    ranges = core.chunk_ranges(len(seeds), 50 * model.num_states, budget=600)
    assert ranges == [(0, 3), (3, 6), (6, 7)]
    # The simulator takes the seeds it is given, so its caller's chunks are
    # separate calls, joined here.
    chunks = [_assert_matches_reference(model, behavior, 40, 10, seeds[a:b]) for a, b in ranges]
    _, _, w, y = (np.concatenate(column) for column in zip(*chunks))
    np.testing.assert_array_equal(whole_y, y)
    np.testing.assert_array_equal(whole_w, w)


def test_simulate_batch_output_is_pinned(toy):
    # SHA-256 of five fixed toy trajectories, recorded before the
    # table-driven simulator replaced the per-step loop; any change to the
    # random stream order or the compare-and-count rule shows up here.
    model, behavior, _ = toy
    digest = hashlib.sha256()
    for seed in range(5):
        traj = simulate(model, behavior, 200, 50, seed)
        for arr in (traj.x, traj.h, traj.w, traj.y):
            digest.update(arr.dtype.str.encode())
            digest.update(arr.tobytes())
    assert digest.hexdigest() == "77e7ecc15fbd715dcd6e1009a84e736f199b607c18bee316f1ff85171061f986"


def test_rounding_shortfall_goes_to_last_positive_entry():
    # Rows whose cumulative sum ends below 1.0 (allowed within the row-sum
    # tolerance) send a draw above the total to the last entry with positive
    # probability, never past the end or onto a zero-probability entry.
    probs = np.array([[0.5, 0.5 - 1e-13, 0.0], [0.0, 0.0, 1.0]])
    cum = core._thresholds(probs)
    np.testing.assert_array_equal(cum, [[0.5, 1.0, 1.0], [0.0, 0.0, 1.0]])
    u = np.array([0.2, 0.5, 1.0 - 1e-14])
    # The per-row rule of dense models: one sorted search of the row.
    np.testing.assert_array_equal(cum[0].searchsorted(u, side="right"), [0, 1, 1])
    # The same counts read from the bucket table of the step codes.
    values = np.unique(cum[cum < 1.0])
    buckets = np.searchsorted(values, u, side="right")
    table = core._bucket_counts(cum, values)
    np.testing.assert_array_equal(table[0, buckets], [0, 1, 1])
    np.testing.assert_array_equal(table[1, buckets], [2, 2, 2])


def _record_paths(monkeypatch, model) -> dict:
    """Spy on ``_simulate_arrays``'s two regimes: the shapes whose bucket
    tables are built, and whether every row was counted per state. Only
    the (code, state) tables of step codes need a bucket table of the
    transition tensor's shape, so the per-row regime is a run that builds
    none. The tables are built once per model and process, so a test that
    spies starts from an empty cache (the ``step_tables`` fixture)."""
    seen = {"tables": [], "per_row": True}
    bucket_counts = core._bucket_counts

    def tables(cum, values):
        seen["tables"].append(cum.shape)
        seen["per_row"] &= cum.shape != model.transition.shape
        return bucket_counts(cum, values)

    monkeypatch.setattr(core, "_bucket_counts", tables)
    return seen


def _shortfall_model(rng: np.random.Generator):
    """A sparse model and policy whose rows fall short of 1 by rounding."""
    model, behavior = _sparse_model(rng, 2, 3)
    model = PomdpModel(
        num_x=model.num_x,
        num_h=model.num_h,
        num_actions=model.num_actions,
        transition=model.transition * (1.0 - 4e-13),
        reward=model.reward,
    )
    return model, Policy(probs=behavior.probs * (1.0 - 4e-13))


@pytest.mark.parametrize("case", ["toy", "hard-Q40", "one-state", "sparse-shortfall"])
def test_step_codes_match_reference(case, monkeypatch, step_tables):
    if case == "one-state":
        model, behavior = _one_state_model()
    elif case == "sparse-shortfall":
        model, behavior = _shortfall_model(np.random.default_rng(8))
        assert (model.transition == 0.0).any() and (behavior.probs == 0.0).any()
        assert (model.transition.sum(axis=2) < 1.0).all()
    else:
        env = make_environment("toy" if case == "toy" else "hard:Q=40,t0=1,zeta=0.69,M1=1,M2=2")
        model, behavior = env.model, env.behavior
    if case == "toy":
        # Two thresholds one ulp apart are two move buckets.
        cum = core._thresholds(model.transition)
        assert 0.3 in cum and 0.30000000000000004 in cum
    seen = _record_paths(monkeypatch, model)
    _assert_matches_reference(model, behavior, 150, 40, [3, 1, 4, 1, 5, 9])
    assert not seen["per_row"]
    assert seen["tables"][-1] == model.transition.shape


def test_per_row_counting_matches_reference(monkeypatch, step_tables):
    # S = 30 dense rows have more step codes than one seed's 149 next-state
    # rows, so each state counts its own rows. So do 24 sparse states at
    # T = 30 and two seeds: their rows hold zero entries (repeated
    # thresholds), and some fall short of 1.0 by rounding.
    rng = np.random.default_rng(30)
    dense = random_model(rng, num_x=10, num_h=3, num_actions=3)
    dense_behavior = interior_policy(rng, num_x=10, num_actions=3)
    sparse, sparse_behavior = _sparse_model(np.random.default_rng(3), 6, 4)
    assert (sparse.transition == 0.0).any()
    assert (sparse.transition.sum(axis=2) < 1.0).any()
    runs = ((dense, dense_behavior, 50, 100, [6]), (sparse, sparse_behavior, 30, 5, [3, 103]))
    for model, behavior, T, burn_in, seeds in runs:
        seen = _record_paths(monkeypatch, model)
        _assert_matches_reference(model, behavior, T, burn_in, seeds)
        assert seen["per_row"]
        assert model.transition.shape not in seen["tables"]
        assert seen["tables"] == [behavior.probs.shape]


def test_dense_batch_builds_no_code_tables(monkeypatch, step_tables):
    # A random S = 100, A = 4 model has about 3.0 M step codes, far more than
    # a chunk's next-state rows, so no (code, state) table is built.
    rng = np.random.default_rng(0)
    model = random_model(rng, num_x=25, num_h=4, num_actions=4)
    behavior = interior_policy(rng, num_x=25, num_actions=4)
    seen = _record_paths(monkeypatch, model)
    core._simulate_arrays(model, behavior, 50, 10, [0, 1])
    assert seen["per_row"]
    assert seen["tables"] == [behavior.probs.shape]
    # Nor is one kept: the cache holds the pair's tables without them.
    (tables,) = step_tables.values()
    assert tables.coded is None


def test_equal_pairs_built_apart_share_one_cache_entry(step_tables):
    # Two toy environments hold equal arrays in distinct objects, so every
    # batch of either reads one set of step tables.
    first, second = make_environment("toy"), make_environment("toy")
    assert first.model is not second.model and first.behavior is not second.behavior
    for env in (first, second):
        core._simulate_arrays(env.model, env.behavior, 50, 5, [0, 1])
    (tables,) = step_tables.values()
    got, coded = core._step_tables(second.model, second.behavior, 98)
    assert got is tables and coded is tables.coded is not None


def _variants():
    """A 2 x 2 model and policy, and pairs that differ from it only in one
    transition entry, in one policy entry (each by 1e-13, within the row-sum
    tolerance), or in the split of its 4 states into covariates and hidden
    states (one covariate, whose policy row is the first)."""
    rng = np.random.default_rng(12)
    model, behavior = random_model(rng), interior_policy(rng)

    def remodel(transition=model.transition, num_x=2, num_h=2):
        return PomdpModel(num_x=num_x, num_h=num_h, num_actions=2, transition=transition, reward=model.reward)

    transition, probs = model.transition.copy(), behavior.probs.copy()
    transition[1, 2, 0] += 1e-13
    probs[0, 1] += 1e-13
    return [
        (model, behavior),
        (remodel(transition), behavior),
        (model, Policy(probs=probs)),
        (remodel(num_x=1, num_h=4), Policy(probs=behavior.probs[:1])),
    ]


def test_pairs_that_differ_in_one_entry_or_their_split_get_their_own_tables(step_tables):
    for model, behavior in _variants():
        _assert_matches_reference(model, behavior, 40, 5, [3, 4])
    assert len(step_tables) == 4


def test_the_cache_keeps_the_last_eight_pairs(step_tables):
    rng = np.random.default_rng(5)
    pairs = [(random_model(rng), interior_policy(rng)) for _ in range(9)]
    for model, behavior in pairs[:8]:
        core._simulate_arrays(model, behavior, 20, 2, [0])
    held = list(step_tables.values())
    assert len(held) == 8
    # The ninth pair takes the place of the first.
    core._simulate_arrays(*pairs[8], 20, 2, [0])
    assert len(step_tables) == 8
    assert list(step_tables.values())[:7] == held[1:]
    assert held[0] not in step_tables.values()


def test_code_tables_wait_for_the_first_step_code_batch(monkeypatch, step_tables):
    # Eight steps of four seeds have fewer next-state rows than the pair has
    # step codes, so they count per row and leave the (code, state) tables
    # unbuilt; 200 steps build them and follow the step maps, and eight
    # steps after that still count per row.
    model, behavior = _eighths_model()
    policy, transition = behavior.probs.shape, model.transition.shape
    for T, built, coded in ((8, [policy], False), (200, [transition], True), (8, [], True)):
        seen = _record_paths(monkeypatch, model)
        scans = _record_scans(monkeypatch)
        _assert_matches_reference(model, behavior, T, 2, [0, 1, 2, 3])
        assert seen["tables"] == built
        assert scans == ([] if T == 8 else [T + 1])
        (tables,) = step_tables.values()
        assert (tables.coded is not None) is coded


def test_the_first_batches_of_two_threads_build_the_tables_once(monkeypatch, step_tables):
    # Two runner threads ask for toy's tables at their first batches. A slow
    # build with threads switching every microsecond: a second would show.
    env = make_environment("toy")
    buckets, monoids = [], []
    bucket_counts, step_monoid = core._bucket_counts, core._step_monoid

    def slow_counts(cum, values):
        buckets.append(cum.shape)
        time.sleep(0.01)
        return bucket_counts(cum, values)

    monkeypatch.setattr(core, "_bucket_counts", slow_counts)
    monkeypatch.setattr(core, "_step_monoid", lambda nxt_of: monoids.append(nxt_of) or step_monoid(nxt_of))
    got = {}

    def run(seeds, workspace):
        got[seeds] = core._simulate_arrays(env.model, env.behavior, 60, 5, list(seeds), workspace)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        core._run_jobs(run, [(0, 1), (2, 3)], 2)
    finally:
        sys.setswitchinterval(interval)
    assert buckets == [(2, 2), (2, 4, 4)]
    assert len(monoids) == len(step_tables) == 1
    for seeds, (cells, y) in got.items():
        want_cells, want_y = core._simulate_arrays(env.model, env.behavior, 60, 5, list(seeds))
        np.testing.assert_array_equal(cells, want_cells)
        np.testing.assert_array_equal(y, want_y)


class _Eighths:
    """A seed's generator whose uniforms are rounded down to eighths, so
    that draws land exactly on thresholds made of eighths."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def integers(self, low, high):
        return self._rng.integers(low, high)

    def random(self, size=None, out=None):
        u = self._rng.random(size, out=out)
        u *= 8.0
        np.floor(u, out=u)
        u /= 8.0
        return u

    def standard_normal(self, size=None, out=None):
        return self._rng.standard_normal(size, out=out)


def _eighths_model():
    """A model and policy with probabilities in eighths, zero entries among
    them, and one transition row lifted above 1.0 by rounding before its
    last positive entry."""
    rng = np.random.default_rng(8)
    transition = rng.multinomial(8, np.full(4, 0.25), size=(3, 4)) / 8.0
    transition[2, 3] = [0.5, 0.5 + 2e-13, 1e-13, 0.0]
    model = PomdpModel(
        num_x=2,
        num_h=2,
        num_actions=3,
        transition=transition,
        reward=tuple((PointMass(float(s)), Gaussian(0.0, 1.0), PointMass(-1.0)) for s in range(4)),
    )
    return model, Policy(probs=np.array([[1.0, 3.0, 4.0], [0.0, 2.0, 6.0]]) / 8.0)


@pytest.mark.parametrize("T, per_row", [(8, True), (200, False)], ids=["per-row", "step-codes"])
def test_draws_equal_to_a_threshold_count_it(T, per_row, monkeypatch, step_tables):
    # A draw equal to a threshold counts that threshold, as in the reference
    # loop: every draw is a multiple of 1/8, as is every threshold below 1.0.
    model, behavior = _eighths_model()
    assert (core._thresholds(model.transition) > 1.0).any()
    assert (model.transition == 0.0).any() and (behavior.probs == 0.0).any()
    monkeypatch.setattr(core, "_make_rngs", lambda seeds: map(_Eighths, seeds))
    seen = _record_paths(monkeypatch, model)
    _assert_matches_reference(model, behavior, T, 2, [0, 1, 2, 3], _Eighths)
    assert seen["per_row"] is per_row


def _sparse_environment(seed: int) -> FiniteEnvironment:
    """Sparse random model with a behavior policy that never takes one
    action per covariate, and a target that also drops the behavior's
    likeliest action, so realized ratios include exact zeros."""
    rng = np.random.default_rng(seed)
    model, _ = _sparse_model(rng, 2, 3)
    rows = np.arange(model.num_x)
    probs = rng.dirichlet(np.ones(model.num_actions), size=model.num_x)
    probs[rows, rng.integers(0, model.num_actions, model.num_x)] = 0.0
    behavior = probs / probs.sum(axis=1, keepdims=True)
    target = behavior.copy()
    target[rows, behavior.argmax(axis=1)] = 0.0
    target /= target.sum(axis=1, keepdims=True)
    return FiniteEnvironment(f"sparse{seed}", model, Policy(probs=behavior), Policy(probs=target))


def _dense_environment(seed: int) -> FiniteEnvironment:
    """Random dense model, every transition entry positive, with a behavior
    policy that never takes some actions; the target keeps to its support."""
    rng = np.random.default_rng(seed)
    num_x, num_h, num_actions = 3, 2, 3
    s = num_x * num_h
    reward = tuple(
        tuple(Gaussian(float(rng.normal()), float(rng.uniform())) for _ in range(num_actions))
        for _ in range(s)
    )
    model = PomdpModel(
        num_x=num_x,
        num_h=num_h,
        num_actions=num_actions,
        transition=rng.dirichlet(np.ones(s), size=(num_actions, s)),
        reward=reward,
    )
    behavior = _with_zeros(rng, (num_x, num_actions))
    target = behavior * rng.uniform(0.5, 2.0, size=behavior.shape)
    target /= target.sum(axis=1, keepdims=True)
    return FiniteEnvironment("dense", model, Policy(probs=behavior), Policy(probs=target))


@pytest.mark.parametrize("env_id", ["toy", HARD_Q3, "dense"])
def test_cell_adapter_matches_reference_loop(env_id):
    # The simulator's (state, action) cells and their one ratio table give
    # the rewards and ratios of the per-step reference loop, with ratios
    # taken at its (covariate, action) pairs.
    env = _dense_environment(5) if env_id == "dense" else make_environment(env_id)
    if env_id == "dense":
        assert (env.model.transition > 0.0).all() and (env.behavior.probs == 0.0).any()
    T, burn_in, seeds = 70, 15, [40, 41, 2**33, 43, 44, 45]
    y, rho = env.rewards_and_ratios(T, burn_in, seeds)
    reference = simulate_reference(env.model, env.behavior, T, burn_in, seeds)
    x, _, w, want_y = (np.stack(column) for column in zip(*reference))
    cells = np.ravel_multi_index((x, w), env.target.probs.shape)
    covariates = np.arange(env.model.num_x)
    want_rho = _policy_ratios(cells, covariates, env.target, env.behavior)
    for got, want in ((y, want_y), (rho, want_rho)):
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("env_id", ["toy", HARD_Q3, "dense"])
@pytest.mark.parametrize(
    "T, burn_in, n, group_seeds, blocks",
    [
        # 3 seeds of 40 steps fit the budget of 120: a short last group.
        (30, 10, 7, 3, ([(0, 3), (3, 6), (6, 7)], 40)),
        (30, 10, 1, 3, ([(0, 1)], 40)),
        # Groups of at least 2 seeds draw 85 or 61 steps in spans of 60,
        # the last span 25 steps or one.
        (70, 15, 5, 2, ([(0, 2), (2, 4), (4, 5)], 60)),
        (46, 15, 3, 2, ([(0, 2), (2, 3)], 60)),
        # A seed's 85 steps exceed the budget, so each group is one seed.
        (70, 15, 3, 1, ([(0, 1), (1, 2), (2, 3)], 85)),
    ],
    ids=["short-last-group", "one-seed", "spans", "one-step-span", "one-seed-groups"],
)
def test_draw_blocks_match_reference_loop(env_id, T, burn_in, n, group_seeds, blocks, monkeypatch):
    # With a budget of 120 steps per block, every way of splitting the
    # seeds' streams into groups and spans gives the per-step reference
    # loop's trajectories, zero-probability behavior actions included.
    env = _dense_environment(5) if env_id == "dense" else make_environment(env_id)
    monkeypatch.setattr(core, "GROUP_STEPS", 120)
    monkeypatch.setattr(core, "GROUP_SEEDS", group_seeds)
    assert core._draw_blocks(n, T + burn_in) == blocks
    _assert_matches_reference(env.model, env.behavior, T, burn_in, list(range(60, 60 + n)))


@pytest.mark.parametrize("env_id", ["toy", HARD_Q20, "sparse1", "sparse2"])
def test_rewards_and_ratios_equal_stacked_trajectories(env_id):
    if env_id.startswith("sparse"):
        env = _sparse_environment(int(env_id[len("sparse") :]))
    else:
        env = make_environment(env_id)
    T, burn_in, seeds = 40, 10, list(range(20, 27))
    trajs = [simulate(env.model, env.behavior, T, burn_in, seed) for seed in seeds]
    want_y = np.stack([traj.y for traj in trajs])
    want_rho = np.stack([importance_ratios(traj, env.target, env.behavior) for traj in trajs])
    if env_id.startswith("sparse"):
        assert (want_rho == 0.0).any()

    # 3 seeds per chunk, the last chunk short, each chunk its own call.
    cells = (T + burn_in) * env.model.num_states
    ranges = core.chunk_ranges(len(seeds), cells, budget=3 * cells)
    assert ranges[-1] == (6, 7)
    chunks = [env.rewards_and_ratios(T, burn_in, seeds[a:b]) for a, b in ranges]
    y, rho = (np.concatenate(column) for column in zip(*chunks))
    whole_y, whole_rho = env.rewards_and_ratios(T, burn_in, seeds)
    for got, want in ((y, want_y), (rho, want_rho), (whole_y, y), (whole_rho, rho)):
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)


def _random_pair(seed: int, num_h: int):
    rng = np.random.default_rng(seed)
    return random_model(rng, num_h=num_h), interior_policy(rng)


def _scan_case(case: str):
    """(model, behavior, maps in its step-map monoid or None past the cap)."""
    if case == "random-S4":
        return (*_random_pair(1, 2), 140)
    if case == "random-S6":
        return (*_random_pair(1, 3), None)
    # A ladder of Q rungs makes 2Q - 1 maps, so one-byte ids hold Q <= 128.
    ladders = {f"hard-Q{Q}": f"hard:Q={Q},t0=1,zeta=0.69,M1=1,M2=2" for Q in (80, 128, 129)}
    env = make_environment({"toy": "toy", "hard-Q3": HARD_Q3, "hard-Q20": HARD_Q20, **ladders}[case])
    sizes = {"toy": 57, "hard-Q3": 5, "hard-Q20": 39, "hard-Q80": 159, "hard-Q128": 255, "hard-Q129": None}
    return env.model, env.behavior, sizes[case]


def _code_table(model, behavior) -> np.ndarray:
    """The (code, state) next-state table a batch builds its monoid from."""
    tables = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_tables", {})  # built here, and kept out of the cache
        patch.setattr(core, "_step_monoid", tables.append)  # no monoid, so lanes
        core._simulate_arrays(model, behavior, 300, 0, [0, 1])
    (table,) = tables
    return table


def _record_scans(monkeypatch) -> list:
    """Spy on the step-map scan: one entry per call, its step count."""
    calls = []
    follow_maps = core._follow_maps

    def spy(code, m, *args):
        calls.append(m)
        return follow_maps(code, m, *args)

    monkeypatch.setattr(core, "_follow_maps", spy)
    return calls


# hard-Q80 checks the step-map scan on a wide monoid: 159 maps of 80 states.
SCAN_CASES = ["toy", "hard-Q3", "hard-Q20", "hard-Q80", "random-S4", "random-S6"]


@pytest.mark.parametrize("case", SCAN_CASES + ["hard-Q128", "hard-Q129"])
def test_step_monoid_is_closed_and_holds_the_identity(case):
    model, behavior, size = _scan_case(case)
    nxt_of = _code_table(model, behavior)
    monoid = core._step_monoid(nxt_of)
    if size is None:
        assert monoid is None
        return
    maps, step = monoid
    assert maps.shape == (size, model.num_states) and step.shape == (size, len(nxt_of))
    assert step.dtype == np.uint8
    np.testing.assert_array_equal(maps[0], np.arange(model.num_states))
    assert len({m.tobytes() for m in maps}) == size  # no map twice
    # Every code after every map is the map its id names.
    np.testing.assert_array_equal(maps[step], nxt_of[:, maps].transpose(1, 0, 2))


@pytest.mark.parametrize("case", SCAN_CASES)
@pytest.mark.parametrize(
    "T, burn_in, n",
    [
        # Moves: two whole blocks, one above, a part block of 8 more, fewer
        # than one block, none, and three levels of blocks; one seed and
        # wide batches.
        (30, 3, 1), (31, 3, 40), (50, 7, 3), (5, 2, 9), (1, 0, 4), (4_900, 100, 1), (300, 20, 250),
    ],
)
def test_step_map_scan_matches_reference(case, T, burn_in, n, monkeypatch):
    model, behavior, size = _scan_case(case)
    calls = _record_scans(monkeypatch)
    seeds = list(range(500, 500 + n))
    cells, y = core._simulate_arrays(model, behavior, T, burn_in, seeds)
    expected = simulate_reference(model, behavior, T, burn_in, seeds)
    x, h, w, want_y = (np.stack(column) for column in zip(*expected))
    np.testing.assert_array_equal(cells, (x * model.num_h + h) * model.num_actions + w)
    np.testing.assert_array_equal(y, want_y)
    # A model past the cap, or whose codes outnumber the moves, scans lanes.
    fits = size is not None and len(_code_table(model, behavior)) <= (T + burn_in - 1) * n
    assert calls == ([T + burn_in - 1] if fits else [])


@pytest.mark.parametrize("case", SCAN_CASES)
def test_environment_scans_step_maps_for_one_seed_and_a_batch(case, monkeypatch):
    model, behavior, size = _scan_case(case)
    env = FiniteEnvironment(case, model, behavior, behavior)
    calls = _record_scans(monkeypatch)
    env.rewards_and_ratios(400, 20, [7])
    assert calls == ([419] if size is not None else [])
    env.rewards_and_ratios(400, 20, [7, 8, 9])
    assert calls == ([419, 419] if size is not None else [])


def test_toy_simulation_does_not_import_numpy_ma():
    # numpy.ma costs about 15 ms to import; neither the step codes nor the
    # step-map monoid's build need it.
    out = run_python(
        "import sys\n"
        "from pomdp_ope import make_environment, simulate\n"
        "env = make_environment('toy')\n"
        "simulate(env.model, env.behavior, 200, 10, 3)\n"
        "print('numpy.ma' in sys.modules)"
    )
    assert out == "False\n"
