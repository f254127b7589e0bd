"""Finite POMDP models, policies, trajectory simulation, and exact chain
analysis.

The joint state s ranges over observed-covariate x hidden-state pairs,
flattened row-major as s = x * num_h + h. A policy sees only x. All
operations are pure functions of their inputs; model and policy arrays are
frozen after validation and safe to share across threads.

Chain oracles provided here:

- ``policy_transition_matrix``: the state kernel induced by a policy,
  M[s, s'] = sum_a pi_a(x(s)) T[a, s, s'].
- ``stationary_distribution``: power iteration from a uniform start.
- ``policy_value_exact``: expected reward under the stationary law.
- ``mixing_overlap_report``: Dobrushin one-step contraction coefficient of
  the target kernel (a computable certificate of geometric mixing) together
  with the log overlap constant max ln(pi_a(x) / e_a(x)).

Trajectories are simulated by ``_simulate_arrays``, which is table-driven
and returns (seeds, T) arrays of covariates, hidden states, actions and
rewards; ``simulate_batch`` wraps each row in a ``Trajectory``, and the
harness reads the arrays directly. Each seed's random stream is drawn up
front. Whole-array comparisons against the cumulative policy and transition
rows then build two tables over every (seed, step): the action drawn if the
covariate is x, and the next state reached from state s. ``_follow`` then
follows the state through the next-state table. When a step's row is
narrow (at most ``SCAN_LANES`` (state, seed) lanes) it runs a blocked scan:
it composes the steps inside blocks of about sqrt(steps) with wide gathers,
carries the state from block to block, and fills each block's rows in one
gather, so about 2 sqrt(steps) numpy calls replace one per step. Wider rows
keep one gather per step. Covariates, hidden states, actions and rewards
are derived from the state path in one vectorized pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt
from typing import Sequence, Union

import numpy as np

from .errors import ConfigurationError, MixingFailureError
from .rng import make_rng

ROW_SUM_TOL = 1e-12

# Work per chunk, shared by every batch simulator and the harness: simulated
# steps, or for ``_simulate_arrays`` table cells (steps x states). Bounds the
# per-chunk draws and tables to tens of MB whatever T is.
CHUNK_STEPS = 2_000_000

# Widest step row, in (state, seed) lanes, that ``_follow`` scans in blocks.
# Per-step gathers cost a fixed call overhead per step; the scan's cost
# grows with steps x lanes. They broke even near 200 lanes (S = 3, 4 and 20
# states, 2-core Xeon VM, numpy 2.4).
SCAN_LANES = 200


def chunk_ranges(
    n: int, steps_per_row: int, chunk: int | None = None
) -> list[tuple[int, int]]:
    """Split n rows of steps_per_row simulated steps each into (start, stop)
    ranges of ``chunk`` rows, by default as many as fit in CHUNK_STEPS.

    Every row drives its own random stream, so results never depend on where
    the chunks break.
    """
    if chunk is None:
        chunk = max(1, CHUNK_STEPS // max(steps_per_row, 1))
    elif chunk < 1:
        raise ConfigurationError(f"chunk size must be >= 1, got {chunk}")
    return [(s, min(s + chunk, n)) for s in range(0, n, chunk)]


def _raise_at_first(name: str, arr: np.ndarray, bad: np.ndarray, requirement: str) -> None:
    """Raise ConfigurationError naming the first entry of arr flagged in bad."""
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        where = idx[0] if len(idx) == 1 else idx
        raise ConfigurationError(
            f"{name} must be {requirement}, got {arr[idx]} at index {where}"
        )


def _check_finite(name: str, values) -> None:
    """Raise ConfigurationError naming the first non-finite entry of values."""
    arr = np.asarray(values, dtype=float)
    _raise_at_first(name, arr, ~np.isfinite(arr), "finite")


@dataclass(frozen=True)
class Gaussian:
    """Normal reward with standard deviation ``sd`` (not variance)."""

    mean: float
    sd: float

    def __post_init__(self):
        if self.sd < 0:
            raise ConfigurationError(f"reward sd must be >= 0, got {self.sd}")


@dataclass(frozen=True)
class PointMass:
    """Deterministic reward."""

    value: float


RewardSpec = Union[Gaussian, PointMass]


def _reward_mean_sd(spec: RewardSpec) -> tuple[float, float]:
    if isinstance(spec, Gaussian):
        return spec.mean, spec.sd
    if isinstance(spec, PointMass):
        return spec.value, 0.0
    raise ConfigurationError(f"unknown reward descriptor {spec!r}")


@dataclass(frozen=True, eq=False)
class PomdpModel:
    """Finite POMDP with per-action transition tensor and per-(state, action)
    reward law.

    transition has shape (num_actions, S, S) with S = num_x * num_h; every
    row transition[a][s] is a probability vector. reward[s][a] is a
    ``Gaussian`` or ``PointMass``.
    """

    num_x: int
    num_h: int
    num_actions: int
    transition: np.ndarray
    reward: tuple[tuple[RewardSpec, ...], ...]
    reward_mean: np.ndarray = field(init=False, repr=False)
    reward_sd: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.num_x < 1 or self.num_h < 1:
            raise ConfigurationError("num_x and num_h must be >= 1")
        if self.num_actions < 2:
            raise ConfigurationError("num_actions must be >= 2")
        s = self.num_states
        trans = np.asarray(self.transition, dtype=float)
        _check_finite("transition", trans)
        if trans.shape != (self.num_actions, s, s):
            raise ConfigurationError(
                f"transition shape {trans.shape} != {(self.num_actions, s, s)}"
            )
        if (trans < 0).any():
            raise ConfigurationError("transition entries must be >= 0")
        rowsum = trans.sum(axis=2)
        if np.abs(rowsum - 1.0).max() > ROW_SUM_TOL:
            worst = float(np.abs(rowsum - 1.0).max())
            raise ConfigurationError(
                f"transition rows must sum to 1 within {ROW_SUM_TOL}, worst deviation {worst:.3e}"
            )
        reward = tuple(tuple(row) for row in self.reward)
        if len(reward) != s or any(len(row) != self.num_actions for row in reward):
            raise ConfigurationError(
                f"reward must be {s} x {self.num_actions} descriptors"
            )
        means = np.empty((s, self.num_actions))
        sds = np.empty((s, self.num_actions))
        for i, row in enumerate(reward):
            for a, spec in enumerate(row):
                means[i, a], sds[i, a] = _reward_mean_sd(spec)
        _check_finite("reward mean", means)
        _check_finite("reward sd", sds)
        trans.setflags(write=False)
        means.setflags(write=False)
        sds.setflags(write=False)
        object.__setattr__(self, "transition", trans)
        object.__setattr__(self, "reward", reward)
        object.__setattr__(self, "reward_mean", means)
        object.__setattr__(self, "reward_sd", sds)

    @property
    def num_states(self) -> int:
        return self.num_x * self.num_h

    @property
    def x_of_state(self) -> np.ndarray:
        """Covariate index of each joint state, shape (S,)."""
        return np.arange(self.num_states) // self.num_h


@dataclass(frozen=True, eq=False)
class Policy:
    """Map from observed covariate to a probability vector over actions."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 2:
            raise ConfigurationError(f"policy probs must be 2-D, got shape {p.shape}")
        _check_finite("policy probs", p)
        if (p < 0).any() or (p > 1 + ROW_SUM_TOL).any():
            raise ConfigurationError("policy probabilities must lie in [0, 1]")
        if np.abs(p.sum(axis=1) - 1.0).max() > ROW_SUM_TOL:
            raise ConfigurationError(f"policy rows must sum to 1 within {ROW_SUM_TOL}")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def num_x(self) -> int:
        return self.probs.shape[0]

    @property
    def num_actions(self) -> int:
        return self.probs.shape[1]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Aligned (x, h, w, y) sequences recorded after a burn-in period."""

    x: np.ndarray
    h: np.ndarray
    w: np.ndarray
    y: np.ndarray
    seed: int
    burn_in: int

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.int64)
        h = np.asarray(self.h, dtype=np.int64)
        w = np.asarray(self.w, dtype=np.int64)
        y = np.asarray(self.y, dtype=float)
        n = len(y)
        if n < 1 or not (len(x) == len(h) == len(w) == n):
            raise ConfigurationError("trajectory sequences must share a length T >= 1")
        _check_finite("trajectory rewards y", y)
        for arr in (x, h, w, y):
            arr.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "y", y)

    @property
    def T(self) -> int:
        return len(self.y)


@dataclass(frozen=True)
class MixingOverlapReport:
    """One-step contraction coefficient of the target kernel, the implied
    mixing time, and the log overlap constant of target vs. behavior."""

    dobrushin: float
    mixing_time: float
    overlap_zeta: float
    overlap_violated: bool = False


def _check_dimensions(model: PomdpModel, policy: Policy) -> None:
    if policy.num_x != model.num_x or policy.num_actions != model.num_actions:
        raise ConfigurationError(
            f"policy shape {policy.probs.shape} does not match model "
            f"({model.num_x} covariates, {model.num_actions} actions)"
        )


def policy_transition_matrix(model: PomdpModel, policy: Policy) -> np.ndarray:
    """State kernel induced by a policy: M[s, s'] = sum_a pi_a(x(s)) T[a, s, s']."""
    _check_dimensions(model, policy)
    per_state = policy.probs[model.x_of_state]  # (S, A)
    return np.einsum("sa,asz->sz", per_state, model.transition)


def stationary_distribution(
    kernel: np.ndarray, tol: float = 1e-12, max_iter: int = 10**6
) -> np.ndarray:
    """Stationary distribution of a row-stochastic kernel by power iteration
    from the uniform distribution.

    Returns d with ||d @ kernel - d||_1 <= tol. Raises MixingFailureError
    (carrying the last iterate and residual) if max_iter is exhausted. An
    iterate that repeats one seen before, bit for bit (a periodic chain),
    fails at once: Brent's cycle check compares each iterate with the one
    saved at the last power-of-two step, and whole cycles up to max_iter are
    skipped, so the error carries what step max_iter would hold.
    """
    M = np.asarray(kernel, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ConfigurationError(f"kernel must be square, got shape {M.shape}")
    if tol <= 0:
        raise ConfigurationError("tol must be > 0")
    if (M < 0).any() or np.abs(M.sum(axis=1) - 1.0).max() > 1e-9:
        raise ConfigurationError("kernel must be row-stochastic")
    d = np.full(M.shape[0], 1.0 / M.shape[0])
    residual = np.inf
    saved, saved_at = d.tobytes(), 0
    step = 0
    while step < max_iter:
        d_next = d @ M
        residual = float(np.abs(d_next - d).sum())
        d = d_next
        step += 1
        if residual <= tol:
            # Fixed-point check on the returned iterate, not its predecessor.
            if float(np.abs(d @ M - d).sum()) <= tol:
                return d / d.sum()
        key = d.tobytes()
        if key == saved:
            # Every step of the cycle has been tried; the rest repeat it.
            period = step - saved_at
            step += (max_iter - step) // period * period
        elif step & (step - 1) == 0:
            saved, saved_at = key, step
    raise MixingFailureError(d, residual, max_iter)


def policy_value_exact(model: PomdpModel, policy: Policy, tol: float = 1e-12) -> float:
    """Long-run expected reward V = sum_s d(s) sum_a pi_a(x(s)) E[Y | s, a]."""
    _check_dimensions(model, policy)
    d = stationary_distribution(policy_transition_matrix(model, policy), tol=tol)
    per_state = policy.probs[model.x_of_state]
    return float(d @ (per_state * model.reward_mean).sum(axis=1))


def dobrushin_coefficient(kernel: np.ndarray) -> float:
    """Half the maximum L1 distance between any two rows of the kernel."""
    M = np.asarray(kernel, dtype=float)
    if M.shape[0] == 1:
        return 0.0
    diffs = np.abs(M[:, None, :] - M[None, :, :]).sum(axis=2)
    return float(diffs.max()) / 2.0


def mixing_overlap_report(
    model: PomdpModel, target: Policy, behavior: Policy
) -> MixingOverlapReport:
    """Contraction and overlap diagnostics for a (target, behavior) pair.

    The Dobrushin coefficient of the target kernel is a valid one-step total
    variation contraction rate, so exp(-1/mixing_time) certifies geometric
    mixing. If the behavior policy puts zero mass on an action the target
    policy can take, overlap_zeta is +inf and overlap_violated is set instead
    of silently returning a number.
    """
    _check_dimensions(model, target)
    _check_dimensions(model, behavior)
    coeff = min(dobrushin_coefficient(policy_transition_matrix(model, target)), 1.0)
    if coeff <= 0.0:
        mixing_time = 0.0
    elif coeff >= 1.0:
        mixing_time = np.inf
    else:
        mixing_time = -1.0 / np.log(coeff)
    pi = target.probs
    e = behavior.probs
    support = pi > 0
    violated = bool((support & (e == 0)).any())
    if violated:
        zeta = np.inf
    else:
        zeta = float(np.log(pi[support] / e[support]).max())
    return MixingOverlapReport(
        dobrushin=coeff,
        mixing_time=float(mixing_time),
        overlap_zeta=zeta,
        overlap_violated=violated,
    )


def simulate(
    model: PomdpModel,
    behavior: Policy,
    T: int,
    burn_in: int = 100,
    seed: int = 0,
) -> Trajectory:
    """Simulate one trajectory of length T under the behavior policy.

    Runs burn_in + T steps from a uniform random initial joint state; each
    step draws the action from behavior(x), the reward from the (state,
    action) reward law, and the next state from the transition tensor. Only
    the last T steps are recorded. Identical arguments produce a bit-identical
    trajectory.
    """
    return simulate_batch(model, behavior, T, burn_in, [seed])[0]


def simulate_batch(
    model: PomdpModel,
    behavior: Policy,
    T: int,
    burn_in: int,
    seeds: Sequence[int],
) -> list[Trajectory]:
    """Simulate one trajectory per seed: the rows of ``_simulate_arrays``,
    each wrapped in a ``Trajectory``.

    Each seed drives its own random stream with a fixed consumption order
    (initial state, then per-step action/transition uniforms, then reward
    normals), so the result for a given seed does not depend on which other
    seeds share the batch. Equivalent to, and tested against, a loop of
    single-seed ``simulate`` calls and a plain per-step reference loop.
    """
    x, h, w, y = _simulate_arrays(model, behavior, T, burn_in, seeds)
    return [
        Trajectory(x=x[r], h=h[r], w=w[r], y=y[r], seed=int(sd), burn_in=burn_in)
        for r, sd in enumerate(seeds)
    ]


def _simulate_arrays(
    model: PomdpModel,
    behavior: Policy,
    T: int,
    burn_in: int,
    seeds: Sequence[int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Covariates, hidden states, actions (int64) and rewards (float64) of
    one trajectory per seed, each as a (len(seeds), T) array.

    A chunk of seeds is simulated from two tables built with whole-array
    operations: the action each covariate would draw and the next state each
    state would reach, at every (seed, step). ``_follow`` then follows the
    state through the next-state table: in about 2 sqrt(steps) numpy calls
    by a blocked scan for batches of at most ``SCAN_LANES`` (state, seed)
    lanes, one gather per step for wider ones. Chunks are sized by
    table cells, (T + burn_in) * num_states per seed, and each writes its own
    rows of the outputs.
    """
    _check_dimensions(model, behavior)
    if T < 1:
        raise ConfigurationError("T must be >= 1")
    if burn_in < 0:
        raise ConfigurationError("burn_in must be >= 0")
    n = len(seeds)
    x, h, w = (np.empty((n, T), dtype=np.int64) for _ in range(3))
    y = np.empty((n, T))
    for start, stop in chunk_ranges(n, (T + burn_in) * model.num_states):
        rows = slice(start, stop)
        x[rows], h[rows], w[rows], y[rows] = _simulate_chunk(
            model, behavior, T, burn_in, seeds[start:stop]
        )
    return x, h, w, y


def _thresholds(probs: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis of probability rows, with every
    entry from the row's last positive column on raised to 1.0.

    A draw u in [0, 1) picks index #{j : cum[j] <= u}. Entries >= 1.0 never
    count, so raising the tail changes nothing unless rounding left the row
    total below 1, where the count could run past the last index; then the
    last positive column takes the leftover mass instead.
    """
    cum = np.cumsum(probs, axis=-1)
    k = probs.shape[-1]
    last = k - 1 - np.argmax(probs[..., ::-1] > 0, axis=-1)
    cum[np.arange(k) >= last[..., None]] = 1.0
    return cum


def _add_count_at_or_below(
    out: np.ndarray, thresholds: np.ndarray, u: np.ndarray, where: np.ndarray | None = None
) -> None:
    """out += #{j : thresholds[j] <= u} elementwise over u (only where
    ``where`` is set, if given), for one row of ``_thresholds``. Each distinct
    value below 1.0 is compared once and weighted by how often it repeats."""
    values, repeats = np.unique(thresholds[thresholds < 1.0], return_counts=True)
    for value, repeat in zip(values, repeats):
        hit = u >= value
        if where is not None:
            hit &= where
        out += hit if repeat == 1 else hit * out.dtype.type(repeat)


def _simulate_chunk(
    model: PomdpModel,
    behavior: Policy,
    T: int,
    burn_in: int,
    seeds: Sequence[int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    n = len(seeds)
    total = T + burn_in
    num_s = model.num_states
    uu = np.empty((n, total, 2))
    zz = np.empty((n, total))
    state = np.empty(n, dtype=np.int64)
    for r, sd in enumerate(seeds):
        rng = make_rng(sd)
        state[r] = rng.integers(0, num_s)
        uu[r] = rng.random((total, 2))
        zz[r] = rng.standard_normal(total)
    # The tables are built in (step, seed) layout, so each step's block is
    # one contiguous row of the table ``_follow`` walks. Each stage's inputs
    # are dropped once it is done, which keeps peak memory near that of a
    # per-step loop.
    u_act = np.ascontiguousarray(uu[:, :, 0].T)
    u_move = np.ascontiguousarray(uu[:, : total - 1, 1].T)
    del uu

    # act[x, t, r]: the action drawn at step t of seed r if the covariate is x.
    cum_pol = _thresholds(behavior.probs)
    act = np.zeros((model.num_x, total, n), dtype=np.min_scalar_type(model.num_actions - 1))
    for x in range(model.num_x):
        _add_count_at_or_below(act[x], cum_pol[x], u_act)
    del u_act

    # nxt[t, s, r]: where state s moves at step t of seed r, stored as the flat
    # index s' * n + r into the (state, seed) block of step t + 1. The last
    # step's move is never used.
    cum_trans = _thresholds(model.transition)
    x_of_state = model.x_of_state
    index_dtype = np.min_scalar_type(num_s * n)  # holds n itself too
    nxt = np.empty((total - 1, num_s, n), dtype=index_dtype)
    count = np.empty(u_move.shape, dtype=index_dtype)
    for s in range(num_s):
        chosen = act[x_of_state[s], : total - 1]
        count[...] = 0
        for a in range(model.num_actions):
            _add_count_at_or_below(count, cum_trans[a, s], u_move, where=chosen == a)
        nxt[:, s] = count
    nxt *= index_dtype.type(n)
    nxt += np.arange(n, dtype=index_dtype)
    del u_move, count

    path = _follow(nxt.reshape(total - 1, num_s * n), state * n + np.arange(n))
    del nxt

    # Derive the recorded columns from the state path, one seed per row.
    states = np.empty((n, T), dtype=np.intp)
    np.floor_divide(path[burn_in:].T, n, out=states)
    xs = x_of_state.take(states)
    hs = (np.arange(num_s) % model.num_h).take(states)
    ws = np.take_along_axis(act[:, burn_in:].transpose(0, 2, 1), xs[None], axis=0)[0]
    cell = states  # flat (state, action) index into the reward tables
    cell *= model.num_actions
    cell += ws
    # mean[s, w] + sd[s, w] * z, evaluated in place.
    ys = model.reward_sd.take(cell)
    ys *= zz[:, burn_in:]
    del zz
    np.add(model.reward_mean.take(cell), ys, out=ys)
    return xs, hs, ws, ys


def _follow(table: np.ndarray, start: np.ndarray) -> np.ndarray:
    """The (m + 1, n) path through an (m, lanes) next-state table: row 0 is
    ``start`` and row t + 1 is ``table[t]`` gathered at row t.

    Works in blocks of B steps: B = isqrt(m) when ``lanes`` is at most
    ``SCAN_LANES``, else 1. First, each pass composes one more step into every
    block at once, so comp[j, b] is the lane reached at step b B + j + 1 from
    each lane at step b B (a last partial block is padded with identity
    steps). Then the path is carried from block start to block start, one
    gather of width n per block. Last, one gather fills the rows inside every
    block. At B = 1 the first and last stages are empty and the middle one is
    a gather per step. Every index is in range by construction
    (``_thresholds`` keeps each count below num_states), and "clip" skips the
    buffered bounds check of the default mode.
    """
    m, lanes = table.shape
    n = len(start)
    B = max(isqrt(m), 1) if lanes <= SCAN_LANES else 1
    blocks = -(-m // B)
    pad = blocks * B - m
    if pad:
        identity = np.broadcast_to(np.arange(lanes, dtype=table.dtype), (pad, lanes))
        table = np.concatenate([table, identity])
    # A copy for B > 1, a view of the table for B = 1.
    comp = np.ascontiguousarray(table.reshape(blocks, B, lanes).transpose(1, 0, 2))
    offsets = np.arange(0, blocks * lanes, lanes)[:, None]
    for prev, row in zip(comp, comp[1:]):
        row[:] = row.take(prev + offsets, mode="clip")
    path = np.empty((blocks * B + 1, n), dtype=table.dtype)
    path[0] = start
    for last, cur, new in zip(comp[-1], path[::B], path[B::B]):
        last.take(cur, out=new, mode="clip")
    inner = np.take_along_axis(comp[:-1], path[:-1:B][None], axis=2)
    path[1:].reshape(blocks, B, n)[:, :-1] = inner.transpose(1, 0, 2)
    return path[: m + 1]
