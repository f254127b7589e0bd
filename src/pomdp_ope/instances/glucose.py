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

A batch of seeds is simulated time-major. The batch's generators are seeded
in one vectorized pass, and each seed's own stream is drawn once, straight
into that seed's row of preallocated blocks; the blocks are then transposed
to ``(hours, seeds)`` so that the hour loop reads and writes contiguous rows,
and only glucose and the two insulin decisions are stored.
Rewards, logging probabilities and ratios are computed from those arrays
afterwards, and the Monte Carlo oracle turns only glucose into utilities.
The behavior policy's uniform u_insulin is the last draw of a stream and is
drawn only for behavior runs, so target runs see the same values either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Sequence, Union

import numpy as np

from ..core import chunk_ranges
from ..errors import ConfigurationError
from ..rng import _derive_seeds, _make_rngs
from ..serialization import write_text

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

TARGET_GLUCOSE_MIN = 110.0
TARGET_ACTIVITY_MAX = 100.0

DEFAULT_BURN_IN = 50
DEFAULT_ORACLE_RUNS = 10_000
DEFAULT_ORACLE_HOURS = 1_000
DEFAULT_ORACLE_SEED = 202406


@dataclass(frozen=True)
class GlucoseState:
    """Lagged inputs the recursion needs: last glucose reading, two hours of
    dietary intake, activity counts, and insulin indicators. Fields are
    floats for one patient or equal-shape arrays for a batch."""

    gl_prev: float = GLUCOSE_REST
    di_lag1: float = 0.0
    di_lag2: float = 0.0
    ex_lag1: float = 0.0
    ex_lag2: float = 0.0
    in_lag1: float = 0.0
    in_lag2: float = 0.0


@dataclass(frozen=True, eq=False)
class GlucoseTrajectory:
    """Recorded hourly sequences after burn-in.

    behavior_prob holds the logging-policy probability of the insulin
    decision actually realized each hour; target_action holds the decision
    the evaluation rule would have made. Importance ratios follow as
    1{insulin == target_action} / behavior_prob.
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

    @property
    def T(self) -> int:
        return len(self.y)

    def importance_ratios(self) -> np.ndarray:
        """Per-hour target/behavior probability ratio of the realized action."""
        return _ratios(self.insulin, self.target_action, self.behavior_prob)


def _ratios(insulin, target_action, behavior_prob) -> np.ndarray:
    """1{insulin == target_action} / behavior_prob, elementwise."""
    return (insulin == target_action).astype(float) / behavior_prob


def glucose_mean_update(state: GlucoseState):
    """Noise-free part of the glucose recursion, elementwise over the state."""
    return (
        GL_INTERCEPT
        + GL_CARRY * state.gl_prev
        + GL_DIET * state.di_lag1
        + GL_DIET * state.di_lag2
        + GL_ACTIVITY * state.ex_lag1
        + GL_ACTIVITY * state.ex_lag2
        + GL_INSULIN_LAG1 * state.in_lag1
        + GL_INSULIN_LAG2 * state.in_lag2
    )


def utility_from_glucose(gl):
    """Four-level utility, elementwise: -3 at or below 70, -2 above 150, -1
    on the borderline bands (70, 80] and (120, 150], 0 on the normal band
    (80, 120]."""
    return np.where(
        gl <= 70.0,
        -3.0,
        np.where(gl > 150.0, -2.0, np.where((gl <= 80.0) | (gl > 120.0), -1.0, 0.0)),
    )


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


def _draw_exogenous(seeds: Sequence[int], total: int, with_insulin: bool):
    """All randomness the trajectories of ``seeds`` consume: ``(noise, ex,
    di, insulin)``, each ``(len(seeds), total)`` with one row per seed.
    ``insulin`` is the behavior policy's injection decision, drawn only when
    ``with_insulin`` (otherwise None).

    The generators come from one pass of the batch seed core; each seed's
    own stream is drawn in a fixed order (noise, u_activity,
    mild, moderate, moderate's mild part, u_diet, diet, then u_insulin)
    straight into that seed's row of each block.
    """
    n = len(seeds)
    noise, u_activity, ex, moderate, u_diet, di = (np.empty((n, total)) for _ in range(6))
    insulin = np.empty((n, total), dtype=bool) if with_insulin else None
    for i, rng in enumerate(_make_rngs(seeds)):
        noise[i] = rng.normal(0.0, GLUCOSE_NOISE_SD, total)
        rng.random(out=u_activity[i])
        ex[i] = _truncated_normal(rng, MILD_ACTIVITY_MEAN, MILD_ACTIVITY_SD, total)
        moderate[i] = _truncated_normal(rng, MODERATE_ACTIVITY_MEAN, MODERATE_ACTIVITY_SD, total)
        moderate[i] += _truncated_normal(rng, MILD_ACTIVITY_MEAN, MILD_ACTIVITY_SD, total)
        rng.random(out=u_diet[i])
        di[i] = _truncated_normal(rng, DIET_MEAN, DIET_SD, total)
        if with_insulin:
            np.less(rng.random(total), INSULIN_PROB, out=insulin[i])
    # ex starts as the mild draws and di as the diet draws; both are then
    # overwritten in place where the hour's event differs.
    np.copyto(ex, moderate, where=u_activity >= MILD_ACTIVITY_PROB)
    np.copyto(ex, 0.0, where=u_activity >= MILD_ACTIVITY_PROB + MODERATE_ACTIVITY_PROB)
    np.copyto(di, 0.0, where=u_diet >= DIET_PROB)
    return noise, ex, di, insulin


def _simulate_arrays(T: int, burn_in: int, policy_kind: str, seeds: Sequence[int]):
    """Batch engine: one trajectory per seed, time loop vectorized across
    seeds. Per-seed streams keep every trajectory independent of which other
    seeds share the batch.

    Returns ``(gl, ex, di, insulin, wants)`` for the T recorded hours, each
    time-major with shape ``(T, len(seeds))``: glucose, activity, diet, the
    insulin decision taken and the evaluation rule's decision (both bool).
    The draws are transposed to time-major once, so each hour reads and
    writes contiguous rows. Only behavior runs draw u_insulin; target runs
    inject exactly when the rule says so.
    """
    if T < 1:
        raise ConfigurationError("T must be >= 1")
    if burn_in < 0:
        raise ConfigurationError("burn_in must be >= 0")
    if policy_kind not in ("behavior", "target"):
        raise ConfigurationError(f"policy_kind must be behavior|target, got {policy_kind!r}")
    behavior = policy_kind == "behavior"
    noise, ex, di, insulin = _draw_exogenous(seeds, T + burn_in, behavior)
    # Transposed one at a time, so each seed-major block is freed before
    # the next copy is made.
    noise = np.ascontiguousarray(noise.T)
    ex = np.ascontiguousarray(ex.T)
    di = np.ascontiguousarray(di.T)
    total, n = noise.shape
    gl = np.empty((total, n))
    wants = np.empty((total, n), dtype=bool)
    insulin = np.ascontiguousarray(insulin.T) if behavior else wants
    zeros = np.zeros(n)
    state = GlucoseState(np.full(n, GLUCOSE_REST), zeros, zeros, zeros, zeros, zeros, zeros)
    for t in range(total):
        np.add(glucose_mean_update(state), noise[t], out=gl[t])
        wants[t] = target_rule(gl[t], ex[t], state.ex_lag1)
        state = GlucoseState(
            gl[t], di[t], state.di_lag1, ex[t], state.ex_lag1, insulin[t], state.in_lag1
        )
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
        y=utility_from_glucose(gl),
        behavior_prob=_behavior_prob(insulin),
        target_action=wants.astype(np.int64),
        policy_kind=policy_kind,
        seed=int(seed),
        burn_in=burn_in,
    )


def glucose_rewards_and_ratios(
    T: int, burn_in: int, seeds: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Behavior-policy batch: rewards and per-hour importance ratios,
    shape (len(seeds), T) each. Chunked by ``chunk_ranges`` to bound memory."""
    ys = np.empty((len(seeds), T))
    rhos = np.empty((len(seeds), T))
    for start, stop in chunk_ranges(len(seeds), T + burn_in):
        gl, _, _, insulin, wants = _simulate_arrays(T, burn_in, "behavior", seeds[start:stop])
        ys[start:stop] = utility_from_glucose(gl).T
        rhos[start:stop] = _ratios(insulin, wants, _behavior_prob(insulin)).T
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
    pass. Utilities are small integers, so each chunk's sum is exact and the
    mean does not depend on where chunks break.
    """
    if runs < 1:
        raise ConfigurationError(f"runs must be >= 1, got {runs}")
    if hours < 1:
        raise ConfigurationError(f"hours must be >= 1, got {hours}")
    key = (runs, hours, burn_in, seed)
    if key not in _oracle_cache:
        total = 0.0
        count = 0
        seeds = _derive_seeds(seed, np.arange(runs))
        for start, stop in chunk_ranges(runs, hours + burn_in):
            gl = _simulate_arrays(hours, burn_in, "target", seeds[start:stop])[0]
            total += float(utility_from_glucose(gl).sum())
            count += gl.size
        provenance = {
            "kind": "monte-carlo",
            "runs": runs,
            "hours": hours,
            "burn_in": burn_in,
            # A plain int: the seed passed the derivation's integer check,
            # and a NumPy integer would not serialize.
            "seed": int(seed),
        }
        _oracle_cache[key] = (total / count, provenance)
    return _oracle_cache[key]


def glucose_trajectory_to_csv(traj: GlucoseTrajectory, out: Union[str, IO[str]]) -> None:
    """CSV with header t,gl,ex,di,in,y,behavior_prob,target_action."""
    lines = ["t,gl,ex,di,in,y,behavior_prob,target_action"]
    for t in range(traj.T):
        lines.append(
            f"{t + 1},{traj.gl[t]:.17g},{traj.ex[t]:.17g},{traj.di[t]:.17g},"
            f"{int(traj.insulin[t])},{traj.y[t]:.17g},"
            f"{traj.behavior_prob[t]:.17g},{int(traj.target_action[t])}"
        )
    write_text("\n".join(lines) + "\n", out)
