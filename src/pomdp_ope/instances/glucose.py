"""Hourly blood-glucose simulator for a single type-1 diabetic patient.

Each hour the patient may receive an insulin injection (under the logging
policy: with probability 0.3, independently of everything else), may partake
in physical activity (mild with probability 0.4, moderate with probability
0.2), and may eat (probability 0.2, with the dietary intake unobserved).
Average blood glucose follows a linear recursion over the two most recent
hours of intake, activity, and insulin plus Gaussian noise, and the hourly
utility is a four-level category of the glucose reading (hypoglycemic -3,
hyperglycemic -2, borderline -1, normal 0).

The evaluation policy of interest injects insulin exactly when the current
glucose reading is at least 110 and the last two hours of activity counts
total at most 100. Behavior-policy runs record, per hour, the probability of
the action actually taken (0.3 or 0.7) and the action the evaluation rule
would have taken, which is all the downstream importance-weighting needs.

Glucose starts at the noise-free resting level 100 with empty lag history,
and a burn-in period (default 50 hours) is discarded before recording.

A batch of seeds is simulated time-major. The batch's seeds are cut into
contiguous runs of whole groups, drawn side by side by ``core._run_jobs`` on
the default thread count; NumPy's random fills release the GIL, so the runs
overlap. Each run's generators are seeded in one vectorized pass and drawn
in cache-sized groups of seeds through a scratch from its thread's
workspace: each seed's stream fills its rows of the group's blocks with
standard normals and uniforms, the group scales the normals, applies the
hour's events and writes its columns straight into ``(hours, seeds)``
arrays, so the hour loop reads and writes contiguous rows and no full-batch
transpose is made. Every seed's stream is its own, so the values do not
depend on the thread count. The hour loop runs on the caller's thread alone.
A seed whose truncated normals hold a negative draw is drawn again by the
exact sequential path, with the rejections in-stream, so every seed's
values are those of drawing it alone. The hour loop adds each hour's mean
update onto that hour's row of the noise array, which so becomes the
glucose array, and carries the seven lags as views of earlier rows; the
only array it allocates holds the evaluation rule's decisions. Rewards,
logging probabilities and ratios are computed from those arrays
afterwards, and the Monte Carlo oracle sums utilities from counts of
glucose readings per utility band, one chunk's arrays at a time.
The behavior policy's uniform u_insulin is the last draw of a stream and is
drawn only for behavior runs, so target runs see the same values either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core import _run_jobs, _worker_count, chunk_ranges
from ..errors import ConfigurationError, _integer
from ..rng import _derive_seeds, _make_rng, _make_rngs

INSULIN_PROB = 0.3
MILD_ACTIVITY_PROB = 0.4
MODERATE_ACTIVITY_PROB = 0.2
DIET_PROB = 0.2

MILD_ACTIVITY_MEAN, MILD_ACTIVITY_SD = 31.0, 5.0
MODERATE_ACTIVITY_MEAN, MODERATE_ACTIVITY_SD = 819.0, 10.0
DIET_MEAN, DIET_SD = 78.0, 10.0

GLUCOSE_NOISE_SD = 5.5

# Linear recursion coefficients: intercept, carryover, and the two most
# recent hours of diet, activity, and insulin.
GL_INTERCEPT = 10.0
GL_CARRY = 0.9
GL_DIET = 0.1
GL_ACTIVITY = -0.01
GL_INSULIN_LAG1 = -2.0
GL_INSULIN_LAG2 = -4.0

GLUCOSE_REST = 100.0  # fixed point of the noise-free recursion: 10 / (1 - 0.9)

# Utility bands: a reading at or below UTILITY_EDGES[i] and above the edge
# before it earns UTILITY_VALUES[i]; above the last edge, the last value.
UTILITY_EDGES = (70.0, 80.0, 120.0, 150.0)
UTILITY_VALUES = (-3.0, -1.0, 0.0, -1.0, -2.0)

TARGET_GLUCOSE_MIN = 110.0
TARGET_ACTIVITY_MAX = 100.0

DEFAULT_BURN_IN = 50
DEFAULT_ORACLE_RUNS = 10_000
DEFAULT_ORACLE_HOURS = 1_000
DEFAULT_ORACLE_SEED = 202406

# Seeds whose streams are drawn together before their columns are written
# time-major. The draws of a 1,904-seed, 1,050-hour chunk took the same time
# for groups of 8 to 256 seeds, and longer for 1 seed or the whole chunk
# (2-core Xeon VM, numpy 2.4); at 16, a group's 7-8 scratch blocks of that
# length (about 1 MB) stay inside a 2 MB L2.
_GROUP_SEEDS = 16


@dataclass(frozen=True, eq=False)
class GlucoseTrajectory:
    """Recorded hourly sequences after burn-in.

    behavior_prob holds the logging-policy probability of the insulin
    decision actually realized each hour; target_action holds the decision
    the evaluation rule would have made. Importance ratios follow as
    1{insulin == target_action} / behavior_prob. The columns are 1-D
    with one entry per hour.
    """

    gl: np.ndarray
    ex: np.ndarray
    di: np.ndarray
    insulin: np.ndarray
    y: np.ndarray
    behavior_prob: np.ndarray
    target_action: np.ndarray
    policy_kind: str
    seed: int
    burn_in: int

    # The CSV columns after t, as (header, field) pairs.
    csv_columns = (
        ("gl", "gl"),
        ("ex", "ex"),
        ("di", "di"),
        ("in", "insulin"),
        ("y", "y"),
        ("behavior_prob", "behavior_prob"),
        ("target_action", "target_action"),
    )

    def __post_init__(self):
        T = np.size(self.y)
        for _, name in self.csv_columns:
            column = np.asarray(getattr(self, name))
            if column.shape != (T,):
                raise ConfigurationError(
                    f"glucose trajectory {name} must have shape ({T},), one entry per "
                    f"hour of y, got {column.shape}"
                )
            object.__setattr__(self, name, column)

    @property
    def T(self) -> int:
        return len(self.y)

    def importance_ratios(self) -> np.ndarray:
        """Per-hour target/behavior probability ratio of the realized action."""
        return _ratios(self.insulin, self.target_action, self.behavior_prob)


def _ratios(insulin, target_action, behavior_prob) -> np.ndarray:
    """1{insulin == target_action} / behavior_prob, elementwise."""
    return (insulin == target_action).astype(float) / behavior_prob


def glucose_mean_update(gl_prev, di_lag1, di_lag2, ex_lag1, ex_lag2, in_lag1, in_lag2):
    """Noise-free part of the glucose recursion, elementwise: the last
    glucose reading and two hours of dietary intake, activity counts and
    insulin indicators, each a float for one patient or an array for a
    batch."""
    return (
        GL_INTERCEPT
        + GL_CARRY * gl_prev
        + GL_DIET * di_lag1
        + GL_DIET * di_lag2
        + GL_ACTIVITY * ex_lag1
        + GL_ACTIVITY * ex_lag2
        + GL_INSULIN_LAG1 * in_lag1
        + GL_INSULIN_LAG2 * in_lag2
    )


def _utility(gl):
    """Four-level utility, elementwise: -3 at or below 70, -2 above 150, -1
    on the borderline bands (70, 80] and (120, 150], 0 on the normal band
    (80, 120] (the bands of ``UTILITY_EDGES`` and ``UTILITY_VALUES``)."""
    out = UTILITY_VALUES[-1]
    for edge, value in zip(UTILITY_EDGES[::-1], UTILITY_VALUES[-2::-1]):
        out = np.where(gl <= edge, value, out)
    return out


def _utility_sum(gl: np.ndarray) -> float:
    """``_utility(gl).sum()`` from band counts: the readings at or below
    each edge, differenced into per-band counts. Exact, since the utilities
    are integers."""
    at_or_below = [np.count_nonzero(gl <= edge) for edge in UTILITY_EDGES]
    return float(np.dot(np.diff(at_or_below, prepend=0, append=gl.size), UTILITY_VALUES))


def target_rule(gl, ex_now, ex_prev):
    """Evaluation policy, elementwise: inject iff glucose >= 110 and the two
    most recent activity counts total <= 100."""
    return (gl >= TARGET_GLUCOSE_MIN) & (ex_now + ex_prev <= TARGET_ACTIVITY_MAX)


def _truncated_normal(rng: np.random.Generator, mean: float, sd: float, size: int) -> np.ndarray:
    """Left-truncate at zero by rejection; the means here sit many standard
    deviations above zero, so redraws are vanishingly rare."""
    out = rng.normal(mean, sd, size=size)
    bad = out < 0.0
    while bad.any():
        out[bad] = rng.normal(mean, sd, size=int(bad.sum()))
        bad = out < 0.0
    return out


def _draw_row(rng: np.random.Generator, rows) -> None:
    """The exact sequential path: one seed's whole stream, in stream order,
    into ``rows`` (the noise, u_activity, mild, moderate, moderate's mild
    part, u_diet, diet and, for behavior runs, u_insulin row), each
    truncated normal redrawing its negative values in-stream."""
    noise, u_activity, mild, moderate, moderate_mild, u_diet, diet, *u_insulin = rows
    total = len(noise)
    noise[:] = rng.normal(0.0, GLUCOSE_NOISE_SD, total)
    rng.random(out=u_activity)
    mild[:] = _truncated_normal(rng, MILD_ACTIVITY_MEAN, MILD_ACTIVITY_SD, total)
    moderate[:] = _truncated_normal(rng, MODERATE_ACTIVITY_MEAN, MODERATE_ACTIVITY_SD, total)
    moderate_mild[:] = _truncated_normal(rng, MILD_ACTIVITY_MEAN, MILD_ACTIVITY_SD, total)
    rng.random(out=u_diet)
    diet[:] = _truncated_normal(rng, DIET_MEAN, DIET_SD, total)
    for row in u_insulin:
        rng.random(out=row)


def _draw_exogenous(seeds: Sequence[int], total: int, with_insulin: bool):
    """All randomness the trajectories of ``seeds`` consume: ``(noise, ex,
    di, insulin)``, each time-major ``(total, len(seeds))`` with one column
    per seed. ``insulin`` is the behavior policy's injection decision, drawn
    only when ``with_insulin`` (otherwise None).

    The seeds are cut into contiguous runs of whole ``_GROUP_SEEDS`` groups,
    one run per thread (``core._worker_count(None)``, at most one per
    group), which ``core._run_jobs`` draws side by side; NumPy's fills
    release the GIL, so they overlap. A run's generators come from one pass
    of the batch seed core, made on the caller's thread; it takes its
    scratch from its thread's workspace and writes only its own columns.
    Within a run, each seed's stream fills that seed's row of the group's
    blocks in a fixed order (noise, u_activity, mild, moderate, moderate's
    mild part, u_diet, diet, then u_insulin), as standard normals and
    uniforms; the group then scales each normal block to ``mean + sd * z``,
    which is how ``Generator.normal`` computes it.
    A row with no negative truncated draw consumed exactly the stream the
    sequential path would have; a row with one is drawn again from a fresh
    generator by that path (``_draw_row``). The group's events are then
    applied and its columns written into the time-major arrays.
    """
    n = len(seeds)
    noise, ex, di = (np.empty((total, n)) for _ in range(3))
    insulin = np.empty((total, n), dtype=bool) if with_insulin else None
    group = max(1, min(_GROUP_SEEDS, n))
    groups = -(-n // group)
    threads = max(1, min(_worker_count(None), groups))
    cuts = [min(n, group * (groups * i // threads)) for i in range(threads + 1)]
    runs = [(lo, hi, _make_rngs(seeds[lo:hi])) for lo, hi in zip(cuts, cuts[1:])]

    def draw_run(start: int, stop: int, rngs, workspace) -> None:
        scratch = workspace.take((8 if with_insulin else 7, group, total))
        for lo in range(start, stop, group):
            hi = min(lo + group, stop)
            blocks = scratch[:, : hi - lo]
            z_noise, u_activity, mild, moderate, moderate_mild, u_diet, diet, *u_insulin = blocks
            for j, rng in zip(range(hi - lo), rngs):
                rng.standard_normal(out=z_noise[j])
                rng.random(out=u_activity[j])
                rng.standard_normal(out=mild[j])
                rng.standard_normal(out=moderate[j])
                rng.standard_normal(out=moderate_mild[j])
                rng.random(out=u_diet[j])
                rng.standard_normal(out=diet[j])
                for u in u_insulin:
                    rng.random(out=u[j])
            rejected = np.zeros(hi - lo, dtype=bool)
            for block, mean, sd, truncated in (
                (z_noise, 0.0, GLUCOSE_NOISE_SD, False),
                (mild, MILD_ACTIVITY_MEAN, MILD_ACTIVITY_SD, True),
                (moderate, MODERATE_ACTIVITY_MEAN, MODERATE_ACTIVITY_SD, True),
                (moderate_mild, MILD_ACTIVITY_MEAN, MILD_ACTIVITY_SD, True),
                (diet, DIET_MEAN, DIET_SD, True),
            ):
                block *= sd
                block += mean
                if truncated:
                    rejected |= block.min(axis=1) < 0.0
            for j in np.flatnonzero(rejected):
                _draw_row(_make_rng(seeds[lo + j]), blocks[:, j])
            # Each hour keeps the draw of its event and zeroes the others, by
            # multiplying with 0/1 masks. That is exact: the truncated draws
            # are finite and non-negative, so x * 1 = x, x * 0 = +0.0 and
            # x + 0.0 = x. mild becomes the activity and diet the intake.
            mild_hour = u_activity < MILD_ACTIVITY_PROB
            moderate_hour = u_activity < MILD_ACTIVITY_PROB + MODERATE_ACTIVITY_PROB
            moderate_hour ^= mild_hour
            moderate += moderate_mild
            moderate *= moderate_hour
            mild *= mild_hour
            mild += moderate
            diet *= u_diet < DIET_PROB
            noise[:, lo:hi] = z_noise.T
            ex[:, lo:hi] = mild.T
            di[:, lo:hi] = diet.T
            for u in u_insulin:
                np.less(u.T, INSULIN_PROB, out=insulin[:, lo:hi])

    _run_jobs(lambda run, workspace: draw_run(*run, workspace), runs, threads)
    return noise, ex, di, insulin


def _simulate_arrays(T: int, burn_in: int, policy_kind: str, seeds: Sequence[int]):
    """Batch engine: one trajectory per seed, time loop vectorized across
    seeds. Per-seed streams keep every trajectory independent of which other
    seeds share the batch.

    Returns ``(gl, ex, di, insulin, wants)`` for the T recorded hours, each
    time-major with shape ``(T, len(seeds))``: glucose, activity, diet, the
    insulin decision taken and the evaluation rule's decision (both bool).
    The draws arrive time-major, so each hour reads and writes contiguous
    rows. Only behavior runs draw u_insulin; target runs inject exactly
    when the rule says so.
    """
    T = _integer("T", T, 1)
    burn_in = _integer("burn_in", burn_in, 0)
    if policy_kind not in ("behavior", "target"):
        raise ConfigurationError(f"policy_kind must be behavior|target, got {policy_kind!r}")
    behavior = policy_kind == "behavior"
    # Each hour's glucose is its noise plus the mean update, added in place:
    # gl is the noise array, and the lags are views of earlier rows.
    gl, ex, di, insulin = _draw_exogenous(seeds, T + burn_in, behavior)
    wants = np.empty(gl.shape, dtype=bool)
    if not behavior:
        insulin = wants
    gl_prev = np.full(gl.shape[1], GLUCOSE_REST)
    di1 = di2 = ex1 = ex2 = in1 = in2 = 0.0
    for t in range(len(gl)):
        gl[t] += glucose_mean_update(gl_prev, di1, di2, ex1, ex2, in1, in2)
        wants[t] = target_rule(gl[t], ex[t], ex1)
        gl_prev, di1, di2, ex1, ex2, in1, in2 = gl[t], di[t], di1, ex[t], ex1, insulin[t], in1
    return gl[burn_in:], ex[burn_in:], di[burn_in:], insulin[burn_in:], wants[burn_in:]


def _behavior_prob(insulin: np.ndarray) -> np.ndarray:
    """Logging-policy probability of each realized insulin decision."""
    return np.where(insulin, INSULIN_PROB, 1.0 - INSULIN_PROB)


def glucose_simulate(
    T: int,
    burn_in: int = DEFAULT_BURN_IN,
    policy_kind: str = "behavior",
    seed: int = 0,
) -> GlucoseTrajectory:
    """Simulate one patient for burn_in + T hours, recording the last T."""
    arrays = _simulate_arrays(T, burn_in, policy_kind, [seed])
    gl, ex, di, insulin, wants = (a[:, 0] for a in arrays)
    return GlucoseTrajectory(
        gl=gl,
        ex=ex,
        di=di,
        insulin=insulin.astype(np.int64),
        y=_utility(gl),
        behavior_prob=_behavior_prob(insulin),
        target_action=wants.astype(np.int64),
        policy_kind=policy_kind,
        seed=int(seed),
        burn_in=burn_in,
    )


def _rewards_and_ratios(
    T: int, burn_in: int, seeds: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Behavior-policy batch: rewards and per-hour importance ratios, each a
    C-contiguous (len(seeds), T) array, the layout whose memory order the
    estimator engine's sums follow. Simulates every seed it is given; the
    harness sizes the batch."""
    gl, _, _, insulin, wants = _simulate_arrays(T, burn_in, "behavior", seeds)
    ys = np.ascontiguousarray(_utility(gl).T)
    rhos = np.ascontiguousarray(_ratios(insulin, wants, _behavior_prob(insulin)).T)
    return ys, rhos


_oracle_cache: dict[tuple, tuple[float, dict]] = {}


def target_value_oracle(
    runs: int = DEFAULT_ORACLE_RUNS,
    hours: int = DEFAULT_ORACLE_HOURS,
    burn_in: int = DEFAULT_BURN_IN,
    seed: int = DEFAULT_ORACLE_SEED,
) -> tuple[float, dict]:
    """Monte Carlo long-run value of the evaluation policy.

    Averages the utility over `runs` independent target-policy trajectories
    of `hours` hours each (after burn-in). Cached per parameter tuple; the
    provenance dict records everything needed to reproduce the number.
    Run r's stream is hash(seed, r), derived for every run in one vectorized
    pass. Each chunk's utility sum comes from its band counts; utilities are
    small integers, so the sum is exact and the mean does not depend on
    where chunks break.
    """
    runs = _integer("runs", runs, 1)
    hours = _integer("hours", hours, 1)
    burn_in = _integer("burn_in", burn_in, 0)
    # The seed's type too: a bool or float equal to a cached seed is still checked.
    key = (runs, hours, burn_in, type(seed), seed)
    if key not in _oracle_cache:
        total = 0.0
        seeds = _derive_seeds(seed, np.arange(runs))
        for start, stop in chunk_ranges(runs, hours + burn_in):
            # No name holds a chunk's glucose, so it is freed before the
            # next chunk is drawn.
            total += _utility_sum(_simulate_arrays(hours, burn_in, "target", seeds[start:stop])[0])
        provenance = {
            "kind": "monte-carlo",
            "runs": runs,
            "hours": hours,
            "burn_in": burn_in,
            # A plain int: the seed passed the derivation's integer check,
            # and a NumPy integer would not serialize.
            "seed": int(seed),
        }
        _oracle_cache[key] = (total / (runs * hours), provenance)
    return _oracle_cache[key]
