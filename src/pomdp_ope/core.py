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
and returns (seeds, T) arrays of flat (state, action) cells
s * num_actions + w and of rewards; ``simulate`` splits one seed's cells
into covariates, hidden states and actions, and the harness gathers ratios
at the cells directly. A batch's generators are seeded in one vectorized
pass (``rng._make_rngs``). Each seed's stream is read in a fixed order: the
initial state, an (action, move) uniform pair per step, then a reward
normal per step. The uniforms are drawn a block at a time (a group of seeds
and a span of steps, ``GROUP_STEPS`` draws at most) into a small scratch
and written straight into time-major tables; the normals are drawn last, a
group at a time once the path is known, and turned into rewards in place.
Each step's two uniforms are classified once, into a step code: its action
bucket counts the policy's distinct thresholds at or below the action
uniform, its move bucket those of all transition rows merged at or below
the move uniform, and (code, state) tables give each state's next state
and cell in one gather each. Each code maps every state to its next, so
every run of steps is one map S -> S, and the maps the codes make from the
identity form a monoid, found by exact closure (``_step_monoid``). When a
one-byte id holds it (at most 255 maps; a hard ladder of Q rungs makes
2Q - 1, so Q up to 128 fits), ``_follow_maps`` composes one id per (step,
seed) in blocks of ``FOLLOW_BLOCK`` steps and follows the block maps to
each block's start; otherwise ``_follow`` follows the state through the
next-state table of every (seed, state) lane by a recursive blocked scan,
whose numpy calls grow with log(steps). A model with more codes than the
batch's (T + burn_in - 1) n moves (a dense one) keeps the action bucket as
its code and searches each (state, action) row once. The cells are read
off the state path time-major, a group of seeds at a time, into seed rows;
the rewards' means and sds are gathered from them. What the model and
behavior policy alone fix is built once per pair of objects and kept while
both live (``_step_tables``): the thresholds, buckets and actions at the
first call, the (code, state) tables and monoid at the first that counts
step codes.

Each stage takes its large arrays from the calling thread's ``_workspace``
where it starts and gives them back where it ends. A thread keeps its
workspace for life (``_run_jobs`` lends its helpers spares that core keeps
between calls), so the next stage, chunk or call on the thread reuses the
buffers instead of faulting in memory that malloc gave back to the OS. An
array a caller keeps, such as the rewards and ratios of
``rewards_and_ratios``, is never lent again and is freed when dropped.

Each batch is chunked once, by its owner: the harness and the glucose
oracle split their seeds with ``chunk_ranges``, and the simulators take the
seeds they are given. ``CHUNK_STEPS`` bounds a chunk's memory and
``CACHE_STEPS``, a smaller cache bound, sizes the replication chunks of
finite-environment sweeps and studies.
"""

from __future__ import annotations

import bisect
import math
import os
import threading
import weakref
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .errors import ConfigurationError, MixingFailureError, _finite, _integer, _positive
from .rng import _make_rngs

ROW_SUM_TOL = 1e-12

# Steps simulated and discarded before recording, so that recorded steps
# come from (near) the stationary law the estimators target.
DEFAULT_BURN_IN = 100

# Work per chunk that a batch's owner hands a simulator: simulated steps,
# or for a finite environment table cells (steps x states). A memory bound:
# it keeps the per-chunk draws and tables to tens of MB whatever T is.
CHUNK_STEPS = 2_000_000

# Simulated steps per replication chunk of a finite-environment sweep or
# study. A cache bound: the estimator engine makes about 16 passes over each
# chunk's (replications, T) arrays per window, and chunks of this size keep
# them near the 2 MiB L2 of a 2-core Xeon VM while two of them run side by
# side. There (numpy 2.4, chunks on two threads), 65,536 and 81,920 steps
# ran the figure-3 sweep about 10% slower than this budget; 114,688 and
# 131,072 ran it about as fast but raised its peak RSS by 1 and 4 MiB more
# (7% and 13% over one thread at 131,072, against 5% here). The glucose
# simulator's sweeps ran slower at a cache budget, so the glucose
# environment keeps CHUNK_STEPS.
CACHE_STEPS = 98_304

# Draws per block of ``_simulate_arrays``: a group of seeds' uniforms pass
# through a scratch of at most this many steps on their way into the
# time-major tables (see ``_draw_blocks``), so no stage holds a second
# full-chunk copy of the draws.
GROUP_STEPS = 32_768
# Fewest seeds per group when a batch has that many. A narrower group writes
# strips of the time-major rows that fill only part of a cache line each,
# which ran about 20% slower at T = 10,000 (2-core Xeon VM, numpy 2.4), so
# the streams of long series are drawn in spans of steps instead.
GROUP_SEEDS = 16

# Steps per block of the scans: ``_follow_maps`` composes that many step-map
# ids per block, and each level of ``_follow`` makes FOLLOW_BLOCK - 1
# composing gathers and one fill and passes a table FOLLOW_BLOCK times
# shorter to the next. Over tables of 4 to 1,000 lanes (2-core Xeon VM,
# numpy 2.4) blocks of 8 or 32 steps ran no faster overall.
FOLLOW_BLOCK = 16

# Bytes that each workspace keeps free between calls: eight float64 arrays of
# a ``CACHE_STEPS`` chunk. A program calling from one thread so keeps at most
# ``DEFAULT_WORKERS`` times this: its own workspace's and the spares'.
# A sweep or study chunk's buffers (about five such) stay, a long run's do
# not, as they could pin malloc's heap: one T = 1,000,000 ``lepski`` left 69
# MiB resident at 8x this bound, 46-47 here, 46 with no workspace (glibc).
_KEEP_BYTES = 64 * CACHE_STEPS


# Threads that share a batch's work by default, capped at the usable cores:
# the chunks of a sweep or study (``harness``) and the seed draws of one
# glucose chunk (``glucose._draw_exogenous``). Two is the most measured: on
# a 2-core Xeon VM two threads ran the figure-3 sweep and the
# window-selection study about 20% faster than one in raw time while the
# host lent the VM both cores, and up to a third slower while it stole
# 20-40% of the VM's time, because the simulator holds the GIL for most of
# its run (``BENCH_17.json``), and so do the estimator's per-lag
# ``np.vecdot`` calls on a chunk of 500 rows or fewer: NumPy lets the GIL go
# only in a ufunc loop of more than 500 iterations, and a vecdot loops once
# per row (with one BLAS thread, a pure-Python thread beside one call stood
# still at 65-500 rows and ran at 501 and 600). The glucose draws, NumPy
# fills that release the GIL, took a fifth to a third less time on two
# (``BENCH_19.json``).
DEFAULT_WORKERS = 2


def _worker_count(workers: int | None) -> int:
    """``workers`` checked (an integer >= 1), or if None ``DEFAULT_WORKERS``
    capped at the usable cores."""
    if workers is not None:
        return _integer("workers", workers, 1)
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return min(DEFAULT_WORKERS, cores)


def _run_jobs(run, jobs: Sequence, threads: int) -> None:
    """Call ``run(job)`` for every job, on the caller's thread and up to
    ``threads - 1`` helper threads (none for one thread or one job), each
    helper with its own ``_workspace``: a spare that core keeps between
    calls, or past ``DEFAULT_WORKERS - 1`` spares one for this call only.

    Thread i starts with job i, the caller with job 0; then each takes the
    next job not yet started. No job starts once an earlier job in job order
    has failed, and jobs are taken in order, so every job before the first
    failing one runs, as in a plain loop. Every helper is joined before this
    returns or raises, and the first failing job in job order raises its
    error. The jobs must write disjoint outputs; the runner shares nothing
    else between them.
    """
    lock = threading.Lock()
    taken = threads = max(1, min(threads, len(jobs)))
    # The earliest failed job in job order and its error; len(jobs) if none.
    failed, error = len(jobs), None

    def work(i: int | None, workspace: _Workspace | None = None) -> None:
        nonlocal taken, failed, error
        if workspace is not None:  # a helper's, lent for this call
            _thread.workspace = workspace
        while True:
            with lock:
                if i is None:
                    i, taken = taken, taken + 1
                if i >= failed:
                    return
            try:
                run(jobs[i])
            except BaseException as exc:
                with lock:
                    if i < failed:
                        failed, error = i, exc
                return
            i = None

    helpers, lent = [], []
    try:
        for i in range(1, threads):
            try:
                lent.append(_spares.pop())
            except IndexError:
                lent.append(_Workspace())
            helper = threading.Thread(target=work, args=(i, lent[-1]))
            helper.start()
            helpers.append(helper)
        work(0)
    finally:
        for helper in helpers:
            helper.join()
        _spares.extend(lent)
        del _spares[DEFAULT_WORKERS - 1 :]
    if error is not None:
        raise error


class _Workspace:
    """Scratch memory that the stages of one thread's calls share.

    ``take`` lends the smallest free buffer that holds the array, or, if none
    does, drops the largest free one and makes a buffer of the size asked,
    so the workspace keeps about as many buffers as one call has arrays
    live at once; a taken array holds whatever its buffer last held. A lent
    buffer is held by weak reference, freed if never given back. ``give``
    takes back only what this workspace lent, once, and ignores any other
    array; then it drops the largest free buffers past ``_KEEP_BYTES``.
    """

    def __init__(self):
        self._lent = weakref.WeakValueDictionary()  # buffers in use, by id
        self._free: list[np.ndarray] = []  # the others, smallest first

    def take(self, shape, dtype=np.float64) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        i = bisect.bisect_left(self._free, nbytes, key=len)
        if i < len(self._free):
            buf = self._free.pop(i)
        else:
            del self._free[-1:]
            buf = np.empty(nbytes, np.uint8)
        self._lent[id(buf)] = buf
        return np.ndarray(shape, dtype, buf)

    def give(self, *arrays: np.ndarray) -> None:
        for arr in arrays:
            buf = arr if arr.base is None else arr.base
            if self._lent.pop(id(buf), None) is buf:
                bisect.insort_left(self._free, buf, key=len)
        while sum(map(len, self._free)) > _KEEP_BYTES:
            self._free.pop()


_thread = threading.local()  # the calling thread's ``workspace``, once it has one
# The workspaces of ``_run_jobs`` helpers between calls, as many as a default
# call starts helpers: kept for every helper, one figure-3 sweep on eight
# threads would hold 20 MiB of free buffers for the life of the process.
_spares: list[_Workspace] = []


def _workspace() -> _Workspace:
    """The calling thread's workspace, made at its first use."""
    if not hasattr(_thread, "workspace"):
        _thread.workspace = _Workspace()
    return _thread.workspace


def chunk_ranges(
    n: int, steps_per_row: int, chunk: int | None = None, budget: int | None = None
) -> list[tuple[int, int]]:
    """Split n rows of steps_per_row simulated steps each into (start, stop)
    ranges of ``chunk`` rows, by default as many as fit in ``budget`` steps
    (CHUNK_STEPS if None).

    Every row drives its own random stream, so results never depend on where
    the chunks break.
    """
    if chunk is None:
        budget = CHUNK_STEPS if budget is None else budget
        chunk = max(1, budget // max(steps_per_row, 1))
    chunk = _integer("chunk size", chunk, 1)
    return [(s, min(s + chunk, n)) for s in range(0, n, chunk)]


def _raise_at_first(name: str, arr: np.ndarray, bad: np.ndarray, requirement: str) -> None:
    """Raise ConfigurationError naming the first entry of arr flagged in bad."""
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        where = idx[0] if len(idx) == 1 else idx
        raise ConfigurationError(
            f"{name} must be {requirement}, got {arr[idx]} at index {where}"
        )


def _float_array(name: str, values) -> np.ndarray:
    """``values`` as a float array; ConfigurationError naming ``name`` if
    they are not a rectangular array of numbers."""
    try:
        arr = np.asarray(values)
        # Text would convert where it spells a number, and bools to 0 and 1,
        # also among numbers in a list; a document's array holds numbers.
        listed = np.asarray(values, object).flat if isinstance(values, (list, tuple)) else ()
        if arr.dtype.kind not in "USb" and not any(isinstance(v, (bool, np.bool_)) for v in listed):
            return arr.astype(float, copy=False)
    except (TypeError, ValueError):
        pass
    raise ConfigurationError(f"{name} must be a rectangular array of numbers")


def _check_finite(name: str, values) -> None:
    """Raise ConfigurationError naming the first non-finite entry of values."""
    arr = np.asarray(values, dtype=float)
    _raise_at_first(name, arr, np.isnan(arr) | np.isinf(arr), "finite")


def _probability_rows(name: str, arr: np.ndarray, tol: float = ROW_SUM_TOL) -> None:
    """ConfigurationError naming the first non-finite or negative entry of
    arr, else the first row (last axis) whose sum is off 1 by more than tol."""
    _check_finite(name, arr)
    _raise_at_first(name, arr, arr < 0, ">= 0")
    sums = arr.sum(axis=-1)
    _raise_at_first(f"{name} row sum", sums, np.abs(sums - 1.0) > tol, f"1 within {tol:g}")


@dataclass(frozen=True)
class Gaussian:
    """Normal reward with standard deviation ``sd`` (not variance)."""

    mean: float
    sd: float

    def __post_init__(self):
        _finite("reward mean", self.mean)
        _finite("reward sd", self.sd, 0)


@dataclass(frozen=True)
class PointMass:
    """Deterministic reward."""

    value: float

    def __post_init__(self):
        _finite("reward value", self.value)


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

    num_x and num_h are integers >= 1 and num_actions one >= 2. transition
    has shape (num_actions, S, S) with S = num_x * num_h; every row
    transition[a][s] is a probability vector. reward[s][a] is a
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
        for name, minimum in (("num_x", 1), ("num_h", 1), ("num_actions", 2)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), minimum))
        s = self.num_states
        trans = _float_array("transition", self.transition)
        if trans.shape != (self.num_actions, s, s):
            raise ConfigurationError(
                f"transition shape {trans.shape} != {(self.num_actions, s, s)}"
            )
        _probability_rows("transition", trans)
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
        p = _float_array("policy probs", self.probs)
        if p.ndim != 2:
            raise ConfigurationError(f"policy probs must be 2-D, got shape {p.shape}")
        _probability_rows("policy probs", p)
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
    """Aligned (x, h, w, y) sequences recorded after a burn-in period: 1-D
    columns of one length, whole numbers >= 0 in x, h and w, and finite
    rewards y."""

    x: np.ndarray
    h: np.ndarray
    w: np.ndarray
    y: np.ndarray
    seed: int
    burn_in: int

    # The CSV columns after t, as (header, field) pairs.
    csv_columns = (("x", "x"), ("h", "h"), ("w", "w"), ("y", "y"))

    def __post_init__(self):
        columns = {}
        for name in ("x", "h", "w", "y"):
            raw = np.asarray(getattr(self, name))
            if raw.ndim != 1:
                raise ConfigurationError(f"trajectory {name} must be 1-D, got shape {raw.shape}")
            real = raw.astype(float)
            if name == "y":
                _check_finite("trajectory rewards y", real)
                columns[name] = real
            else:
                whole = (real >= 0.0) & (real < np.inf) & (real == np.floor(real))
                _raise_at_first(f"trajectory {name}", raw, ~whole, "a whole number >= 0")
                columns[name] = raw.astype(np.int64)
        T = len(columns["y"])
        if T < 1 or any(len(arr) != T for arr in columns.values()):
            raise ConfigurationError("trajectory sequences must share a length T >= 1")
        for name, arr in columns.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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
    """Stationary distribution of a kernel whose rows are probability
    vectors (within 1e-9) by power iteration from the uniform distribution.

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
    _positive("tol", tol)
    _integer("max_iter", max_iter, 1)
    _probability_rows("kernel", M, 1e-9)
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


def _dobrushin_coefficient(kernel: np.ndarray) -> float:
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
    coeff = min(_dobrushin_coefficient(policy_transition_matrix(model, target)), 1.0)
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
    burn_in: int = DEFAULT_BURN_IN,
    seed: int = 0,
) -> Trajectory:
    """Simulate one trajectory of length T under the behavior policy.

    Runs burn_in + T steps from a uniform random initial joint state; each
    step draws the action from behavior(x), the reward from the (state,
    action) reward law, and the next state from the transition tensor. Only
    the last T steps are recorded. Identical arguments produce a bit-identical
    trajectory, the row of ``seed`` in any batch of ``_simulate_arrays``.
    """
    cells, y = _simulate_arrays(model, behavior, T, burn_in, [seed])
    states, w = np.divmod(cells[0], model.num_actions)
    x, h = np.divmod(states, model.num_h)
    traj = Trajectory(x=x, h=h, w=w, y=y[0], seed=int(seed), burn_in=burn_in)
    _workspace().give(cells, y)  # the trajectory holds copies
    return traj


def _thresholds(probs: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis of probability rows, with every
    entry from the row's last positive column on raised to 1.0.

    A draw u in [0, 1) picks index #{j : cum[j] <= u}, a prefix of the row
    even where rounding lifts an entry above 1.0: every entry from the first
    >= 1.0 on is >= 1.0 and never counts. So raising the tail changes nothing
    unless rounding left the row total below 1, where the count could run
    past the last index; then the last positive column takes the leftover
    mass instead.
    """
    cum = np.cumsum(probs, axis=-1)
    k = probs.shape[-1]
    last = k - 1 - np.argmax(probs[..., ::-1] > 0, axis=-1)
    cum[np.arange(k) >= last[..., None]] = 1.0
    return cum


def _add_count_at_or_below(out: np.ndarray, values: np.ndarray, u: np.ndarray) -> None:
    """out += #{j : values[j] <= u} elementwise over u, one compare-and-add
    pass per value (the sorted distinct thresholds below 1.0 of a step code)."""
    for value in values:
        out += u >= value


def _bucket_counts(cum: np.ndarray, values: np.ndarray) -> np.ndarray:
    """(..., len(values) + 1) table of #{j : cum[..., j] <= u} for the draws u
    of each bucket b, those with b of the sorted distinct ``values`` <= u.
    Every entry of ``cum`` below 1.0 must be one of ``values``."""
    m = len(values) + 1
    first = (np.searchsorted(values, cum) + 1).reshape(-1, cum.shape[-1])
    hist = np.zeros((len(first), m + 1), dtype=np.intp)
    np.add.at(hist, (np.arange(len(first))[:, None], first), 1)
    return hist.cumsum(axis=1)[:, :m].reshape(cum.shape[:-1] + (m,))


def _step_monoid(nxt_of: np.ndarray):
    """The maps S -> S that the rows of the (code, state) next-state table
    generate from the identity, if a one-byte id holds them: (maps, step),
    maps[i] the map of id i (the identity is id 0) and step[i, c] the id of
    code c after map i; None past 255 maps. Found by exact closure: each
    pass follows the next maps not yet followed (at most 256 // G + 1, G the
    distinct code maps) by every code map, and a product not yet seen,
    keyed by its bytes, takes the next id."""
    num_s = nxt_of.shape[1]
    nxt_of = nxt_of.astype(np.min_scalar_type(num_s - 1))
    gens, of_code = np.unique(nxt_of, axis=0, return_inverse=True)
    width, per_pass = gens[0].nbytes, 256 // len(gens) + 1
    ids = {np.arange(num_s, dtype=gens.dtype).tobytes(): 0}  # map bytes -> id, in id order
    step = []  # step[i * len(gens) + g]: the id of gens[g] after map i
    while len(step) < len(ids) * len(gens):
        done = len(step) // len(gens)
        found = np.frombuffer(b"".join(list(ids)[done : done + per_pass]), gens.dtype)
        after = gens[:, found.reshape(-1, num_s)].transpose(1, 0, 2).tobytes()
        step += [ids.setdefault(after[at : at + width], len(ids)) for at in range(0, len(after), width)]
        if len(ids) > 255:
            return None
    maps = np.frombuffer(b"".join(ids), gens.dtype).reshape(-1, num_s)
    return maps, np.array(step, np.uint8).reshape(len(ids), -1)[:, of_code.reshape(-1)]


def _values_below_one(cum: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of ``cum`` below 1.0."""
    # One sort and a diff, no masks: with np.unique (which also imports
    # numpy.ma on first use) a process that simulated one dense S = 1,000,
    # A = 4 model and dropped it stayed 37 MiB larger, with this 10 (glibc
    # keeps freed temporaries in its heap).
    values = np.sort(cum, axis=None)
    values = values[: values.searchsorted(1.0)]
    return values[np.flatnonzero(np.diff(values, prepend=-1.0))]


class _StepTables:
    """What ``_simulate_arrays`` reads of one model and behavior policy (see
    the module docstring). It holds no reference to either. ``move_values``
    and ``coded``, the (code, state) next-state and cell tables and the
    former's ``_step_monoid``, are set by ``_step_tables`` at the first batch
    that counts step codes; until then only the move buckets' count is kept,
    which is all that the per-row path of a dense model reads of them."""

    def __init__(self, model: PomdpModel, behavior: Policy):
        cum_pol, self.cum_trans = _thresholds(behavior.probs), _thresholds(model.transition)
        self.act_values = _values_below_one(cum_pol)
        # act_by_x[x, b] and cell_of[b, s]: the action of covariate x and the cell of state s in bucket b.
        self.act_by_x = _bucket_counts(cum_pol, self.act_values).astype(np.min_scalar_type(model.num_actions))
        states = np.arange(model.num_states, dtype=np.min_scalar_type(model.num_states * model.num_actions))
        self.cell_of = states * model.num_actions + self.act_by_x[model.x_of_state].T
        self.moves = len(_values_below_one(self.cum_trans)) + 1
        self.codes = (len(self.act_values) + 1) * self.moves
        self.move_values = self.coded = None


# _tables[model][behavior]: the ``_StepTables`` of each pair simulated whose
# model and behavior policy both live. Both classes hash by identity, and an
# entry goes when either object does.
_tables: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_tables_lock = threading.Lock()


def _step_tables(model: PomdpModel, behavior: Policy, rows: int):
    """The ``_StepTables`` of (model, behavior) and its ``coded`` tables,
    built at the pair's first call and kept in ``_tables`` while both
    objects live; ``coded`` is None, and not built, when the codes outnumber
    the call's ``rows`` next-state rows (a dense model). A thread that asks
    while another builds waits for that build."""
    with _tables_lock:
        of_model = _tables.setdefault(model, weakref.WeakKeyDictionary())
        tables = of_model.get(behavior)
        if tables is None:
            tables = of_model[behavior] = _StepTables(model, behavior)
        if tables.codes > rows:
            coded = None
        elif (coded := tables.coded) is None:
            tables.move_values = _values_below_one(tables.cum_trans)
            move_of = _bucket_counts(tables.cum_trans, tables.move_values)
            nxt_of = move_of[tables.act_by_x[model.x_of_state].T, np.arange(model.num_states)].transpose(0, 2, 1).reshape(tables.codes, -1)
            coded = tables.coded = nxt_of, np.repeat(tables.cell_of, tables.moves, axis=0), _step_monoid(nxt_of)
        return tables, coded


def _draw_blocks(n: int, total: int) -> tuple[list[tuple[int, int]], int]:
    """The (start, stop) seed groups of a batch of n seeds of ``total``
    steps, and the steps per span each group's streams are drawn in: a
    group holds as many seeds as fit in ``GROUP_STEPS`` steps but at least
    ``GROUP_SEEDS`` (at most n), and a span as many steps as fit in
    ``GROUP_STEPS`` for the group (at most ``total``)."""
    groups = chunk_ranges(n, 1, min(n, max(GROUP_SEEDS, GROUP_STEPS // total)))
    return groups, min(total, max(1, GROUP_STEPS // groups[0][1]))


def _simulate_arrays(
    model: PomdpModel, behavior: Policy, T: int, burn_in: int, seeds: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """The (state, action) cells s * num_actions + w (int64) and the rewards
    (float64) of one trajectory per seed, each as a (len(seeds), T) array,
    by the step codes of the module docstring. The batch's owner sizes it
    with ``chunk_ranges``, and this simulates all the seeds it is given. Its
    large arrays come from the thread's workspace; all but the two returned
    go back.
    """
    _check_dimensions(model, behavior)
    T = _integer("T", T, 1)
    burn_in = _integer("burn_in", burn_in, 0)
    n = len(seeds)
    ws = _workspace()
    cells = ws.take((n, T), np.int64)
    ys = ws.take((n, T))
    total = T + burn_in
    num_s = model.num_states
    rngs = list(_make_rngs(seeds))
    groups, span = _draw_blocks(n, total)
    # Time-major tables, so each step's block is one contiguous row of the
    # table ``_follow`` walks. Each stage's inputs go back to the workspace
    # and lose their names once it is done, which keeps peak memory near
    # that of a per-step loop.
    u_act = ws.take((total, n))
    u_move = ws.take((total - 1, n))
    state = np.empty(n, dtype=np.int64)
    scratch = ws.take((groups[0][1], span, 2))
    for start, stop in groups:
        for t0 in range(0, total, span):
            t1 = min(t0 + span, total)
            drawn = scratch[: stop - start, : t1 - t0]
            for r, uu in zip(range(start, stop), drawn):
                if t0 == 0:
                    state[r] = rngs[r].integers(0, num_s)
                rngs[r].random(out=uu)
            u_act[t0:t1, start:stop] = drawn[:, :, 0].T
            u_move[t0:t1, start:stop] = drawn[:, : total - 1 - t0, 1].T
    ws.give(scratch)
    del scratch, drawn, uu

    # Each step's two uniforms make its step code; the last step's move is never used.
    tables, coded = _step_tables(model, behavior, (total - 1) * n)
    # No code tables (a dense model): a step's code is its action bucket alone, and each (state,
    # action) row is searched once (side="right": those <= u_move, a prefix; see ``_thresholds``).
    rows = max(total, -(-(total - 1) // FOLLOW_BLOCK) * FOLLOW_BLOCK)  # whole blocks
    padded = ws.take((rows, n), np.min_scalar_type(len(tables.act_values) if coded is None else tables.codes))
    padded[...] = 0  # rows past the last step hold code 0
    code = padded[:total]
    _add_count_at_or_below(code, tables.act_values, u_act)
    ws.give(u_act)
    del u_act

    # nxt[t, r, s]: where state s moves at step t of seed r, stored as the
    # flat index r * num_s + s' into the (seed, state) lanes of step t + 1.
    index_dtype = np.min_scalar_type(num_s * n)
    lanes = np.arange(0, n * num_s, num_s, dtype=index_dtype)
    cell_of, monoid = tables.cell_of, None
    if coded is None:
        acts = [row.take(code[:-1]) for row in tables.act_by_x]
        nxt = ws.take((total - 1, n, num_s), index_dtype)
        for s in range(num_s):
            act, nxt_s = acts[s // model.num_h], nxt[:, :, s]
            for a in range(model.num_actions):
                hit = act == a
                nxt_s[hit] = tables.cum_trans[a, s].searchsorted(u_move[hit], side="right")
        del acts, act, nxt_s, hit
    else:
        code *= tables.moves
        _add_count_at_or_below(code[:-1], tables.move_values, u_move)
        nxt_of, cell_of, monoid = coded
        if monoid is None:
            nxt = ws.take((total - 1, n, num_s), index_dtype)
            nxt_of.astype(index_dtype).take(code[:-1], axis=0, out=nxt, mode="clip")
    ws.give(u_move)
    del u_move
    if monoid:
        path = _follow_maps(padded, total - 1, state, monoid, lanes)
    else:
        nxt += lanes[:, None]
        path = _follow(nxt.reshape(total - 1, n * num_s), state + lanes)
        ws.give(nxt)
        del nxt

    # The recorded cells, a group of seeds at a time: each step's state and
    # code, read off time-major, pick the cell, written into seed rows. The
    # first group is the largest, so its cell index and gathered cells hold
    # every group's.
    at_all = ws.take((T * groups[0][1],), np.intp)
    picked_all = ws.take((T * groups[0][1],), cell_of.dtype)
    for start, stop in groups:
        at = at_all[: T * (stop - start)].reshape(T, stop - start)
        np.multiply(code[burn_in:, start:stop], num_s, out=at, dtype=np.intp)
        at += path[burn_in:, start:stop]
        if not monoid:  # lanes, not states
            at -= lanes[start:stop]
        picked = picked_all[: T * (stop - start)].reshape(T, stop - start)
        cells[start:stop] = cell_of.ravel().take(at, out=picked, mode="clip").T
    ws.give(path, padded, at_all, picked_all)
    del path, code, padded, at_all, picked_all, at, picked

    # Each stream's reward normals come last in it: mean[cell] + sd[cell] * z,
    # evaluated in place a group at a time; every cell is in range.
    for start, stop in groups:
        for r in range(start, stop):
            rngs[r].standard_normal(burn_in)  # the burn-in steps' normals
            rngs[r].standard_normal(out=ys[r])
        rows = slice(start, stop)
        ys[rows] *= model.reward_sd.take(cells[rows], mode="clip")
        ys[rows] += model.reward_mean.take(cells[rows], mode="clip")
    return cells, ys


def _follow(table: np.ndarray, start: np.ndarray) -> np.ndarray:
    """The (m + 1, n) path through an (m, lanes) next-state table: row 0 is
    ``start`` and row t + 1 is ``table[t]`` gathered at row t. The lane scan
    of paths whose step maps no one-byte id holds, and of block starts.

    A table of at most 2 B steps, B = ``FOLLOW_BLOCK``, is followed one
    gather per step. A longer one is cut into blocks of B steps, the last
    filled up with identity steps, and B - 1 wide gathers compose the steps
    inside every block at once, so comp[j, b] is the lane reached at step
    b B + j + 1 from each lane at step b B. The last of these, one step per
    block, is itself a next-state table, and ``_follow`` on it gives the
    lane at every block's start. One gather then fills the rows inside every
    block. Every index is in range by construction (``_thresholds`` keeps
    each count below num_states), and "clip" skips the buffered bounds check
    of the default mode. The path and every buffer come from the calling
    thread's workspace; the buffers go back to it.
    """
    workspace = _workspace()
    m, lanes = table.shape
    n = len(start)
    B = FOLLOW_BLOCK
    if m <= 2 * B:
        path = workspace.take((m + 1, n), table.dtype)
        path[0] = start
        for row, cur, new in zip(table, path, path[1:]):
            row.take(cur, out=new, mode="clip")
        return path
    blocks = -(-m // B)
    last = m - (blocks - 1) * B  # steps of the last block
    comp = workspace.take((B, blocks, lanes), table.dtype)
    comp[:, :-1] = table[: m - last].reshape(blocks - 1, B, lanes).transpose(1, 0, 2)
    comp[:last, -1] = table[m - last :]
    comp[last:, -1] = np.arange(lanes, dtype=table.dtype)
    offsets = np.arange(0, blocks * lanes, lanes)[:, None]
    # Each lane's block offset, as a whole (blocks, lanes) array: adding the
    # (blocks, 1) column by broadcasting made the scan 10-15% slower (toy
    # tables of 4 to 1,000 lanes).
    lane_offsets = workspace.take((blocks, lanes), np.intp)
    lane_offsets[...] = offsets
    at = workspace.take((blocks, lanes), np.intp)
    for prev, row in zip(comp, comp[1:]):
        row[:] = row.take(np.add(prev, lane_offsets, out=at), mode="clip")
    workspace.give(lane_offsets, at)
    del lane_offsets
    starts = _follow(comp[-1], start)
    at = np.add(starts[:-1], offsets, out=workspace.take((blocks, n), np.intp))
    workspace.give(starts)
    del starts
    inner = comp.reshape(B, blocks * lanes).take(
        at, axis=1, mode="clip", out=workspace.take((B, blocks, n), table.dtype)
    )
    workspace.give(at, comp)
    del at, comp
    path = workspace.take((blocks * B + 1, n), table.dtype)
    path[0] = start
    path[1:].reshape(blocks, B, n)[:] = inner.transpose(1, 0, 2)
    workspace.give(inner)
    return path[: m + 1]


def _follow_maps(code, m: int, start, monoid, lanes) -> np.ndarray:
    """The (m + 1, n) states from ``start`` through the moves in the first m
    rows of the ``FOLLOW_BLOCK``-row blocks of step codes ``code``, by ids in
    ``monoid`` (``_step_monoid``; id 0 the identity): B - 1 gathers compose
    one id per (step, seed) inside every block at once, ``_follow`` follows
    the (seed, state) ``lanes`` through each block's last map, and one
    gather fills the rows. Its arrays come from the calling thread's
    workspace."""
    workspace = _workspace()
    maps, step = monoid
    n, num_s, B = len(start), maps.shape[1], FOLLOW_BLOCK
    blocks = -(-m // B)
    moves = code[: blocks * B].reshape(blocks, B, n)
    # ids[j, b]: the map from block b's start to step b B + j + 1.
    ids = workspace.take((B, blocks, n), np.uint8)
    step[0].take(moves[:, 0], out=ids[0], mode="clip")
    # Flat indexes in the narrowest type: composing ran 25% faster than in intp on toy.
    at = workspace.take((blocks, n), np.min_scalar_type(step.size))
    for j in range(1, B):
        np.multiply(ids[j - 1], step.shape[1], out=at, dtype=at.dtype)
        at += moves[:, j]
        step.take(at, out=ids[j], mode="clip")
    table = np.add(maps.take(ids[-1], axis=0), lanes[:, None], dtype=lanes.dtype)
    starts = _follow(table.reshape(blocks, n * num_s), start + lanes)
    fill = workspace.take((blocks, B, n), np.min_scalar_type(maps.size))
    np.multiply(ids.transpose(1, 0, 2), num_s, out=fill, dtype=fill.dtype)
    fill += (starts[:-1] - lanes)[:, None]
    workspace.give(at, ids, starts)
    path = workspace.take((blocks * B + 1, n), maps.dtype)
    path[0] = start
    maps.take(fill, out=path[1:].reshape(blocks, B, n), mode="clip")
    workspace.give(fill)
    return path[: m + 1]
