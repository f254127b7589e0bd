"""The table-driven batch simulator against the per-step reference loop,
and the harness's array path against the per-trajectory one."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from oracles import simulate_reference

from pomdp_ope import (
    Gaussian,
    PointMass,
    Policy,
    PomdpModel,
    core,
    importance_ratios,
    simulate_batch,
)
from pomdp_ope.harness import FiniteEnvironment, make_environment

HARD_Q3 = "hard:Q=3,t0=1,zeta=0.69,M1=1,M2=2,Delta=0.5"
HARD_Q20 = "hard:Q=20,t0=2,zeta=0.69,M1=1,M2=2"


def _assert_matches_reference(model, behavior, T, burn_in, seeds):
    trajs = simulate_batch(model, behavior, T, burn_in, seeds)
    expected = simulate_reference(model, behavior, T, burn_in, seeds)
    assert len(trajs) == len(expected)
    for traj, columns in zip(trajs, expected):
        for got, want in zip((traj.x, traj.h, traj.w, traj.y), columns):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
    return trajs


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
    trajs = _assert_matches_reference(model, behavior, 80, 20, [11, 12, 13])
    # A zero-probability action is never taken.
    for traj in trajs:
        assert (behavior.probs[traj.x, traj.w] > 0.0).all()


@pytest.mark.parametrize("T, burn_in", [(1, 0), (1, 7), (25, 0)])
def test_simulate_batch_matches_reference_at_edge_lengths(toy, T, burn_in):
    model, behavior, _ = toy
    _assert_matches_reference(model, behavior, T, burn_in, [0, 9, 2**40])


def test_simulate_batch_matches_reference_with_one_state_and_many_seeds():
    # 256 seeds x 1 state: the flat (state, seed) index needs a wider type
    # than the state alone.
    model = PomdpModel(
        num_x=1,
        num_h=1,
        num_actions=2,
        transition=np.ones((2, 1, 1)),
        reward=((Gaussian(1.0, 0.5), PointMass(2.0)),),
    )
    behavior = Policy(probs=np.array([[0.3, 0.7]]))
    _assert_matches_reference(model, behavior, 6, 2, list(range(256)))


def test_simulate_batch_chunks_match_reference(toy, monkeypatch):
    model, behavior, _ = toy
    seeds = list(range(7))
    whole = simulate_batch(model, behavior, 40, 10, seeds)
    # 50 steps x 4 states per seed: 3 seeds per chunk, the last chunk short.
    monkeypatch.setattr(core, "CHUNK_STEPS", 600)
    assert core.chunk_ranges(len(seeds), 50 * model.num_states) == [(0, 3), (3, 6), (6, 7)]
    chunked = _assert_matches_reference(model, behavior, 40, 10, seeds)
    for a, b in zip(whole, chunked):
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.w, b.w)


def test_simulate_batch_output_is_pinned(toy):
    # SHA-256 of a fixed toy batch, recorded before the table-driven
    # simulator replaced the per-step loop; any change to the random stream
    # order or the compare-and-count rule shows up here.
    model, behavior, _ = toy
    digest = hashlib.sha256()
    for traj in simulate_batch(model, behavior, 200, 50, [0, 1, 2, 3, 4]):
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
    count = np.zeros(3, dtype=np.uint8)
    core._add_count_at_or_below(count, cum[0], np.array([0.2, 0.5, 1.0 - 1e-14]))
    np.testing.assert_array_equal(count, [0, 1, 1])


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


@pytest.mark.parametrize("env_id", ["toy", HARD_Q20, "sparse1", "sparse2"])
def test_rewards_and_ratios_equal_stacked_trajectories(env_id, monkeypatch):
    if env_id.startswith("sparse"):
        env = _sparse_environment(int(env_id[len("sparse") :]))
    else:
        env = make_environment(env_id)
    T, burn_in, seeds = 40, 10, list(range(20, 27))
    trajs = simulate_batch(env.model, env.behavior, T, burn_in, seeds)
    want_y = np.stack([traj.y for traj in trajs])
    want_rho = np.stack([importance_ratios(traj, env.target, env.behavior) for traj in trajs])
    if env_id.startswith("sparse"):
        assert (want_rho == 0.0).any()

    # 3 seeds per chunk, the last chunk short.
    monkeypatch.setattr(core, "CHUNK_STEPS", 3 * (T + burn_in) * env.model.num_states)
    assert core.chunk_ranges(len(seeds), (T + burn_in) * env.model.num_states)[-1] == (6, 7)
    y, rho = env.rewards_and_ratios(T, burn_in, seeds)
    for got, want in ((y, want_y), (rho, want_rho)):
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
