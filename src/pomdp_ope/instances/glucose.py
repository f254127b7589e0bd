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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Sequence, Union

import numpy as np

from ..core import chunk_ranges
from ..errors import ConfigurationError
from ..rng import derive_seed, make_rng

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


def _draw_exogenous(rng: np.random.Generator, total: int) -> dict[str, np.ndarray]:
    """All randomness one trajectory consumes, drawn in a fixed order."""
    noise = rng.normal(0.0, GLUCOSE_NOISE_SD, size=total)
    u_activity = rng.random(total)
    mild = _truncated_normal(rng, MILD_ACTIVITY_MEAN, MILD_ACTIVITY_SD, total)
    moderate = _truncated_normal(
        rng, MODERATE_ACTIVITY_MEAN, MODERATE_ACTIVITY_SD, total
    ) + _truncated_normal(rng, MILD_ACTIVITY_MEAN, MILD_ACTIVITY_SD, total)
    u_diet = rng.random(total)
    diet = _truncated_normal(rng, DIET_MEAN, DIET_SD, total)
    u_insulin = rng.random(total)
    ex = np.where(
        u_activity < MILD_ACTIVITY_PROB,
        mild,
        np.where(u_activity < MILD_ACTIVITY_PROB + MODERATE_ACTIVITY_PROB, moderate, 0.0),
    )
    di = np.where(u_diet < DIET_PROB, diet, 0.0)
    return {"noise": noise, "ex": ex, "di": di, "u_insulin": u_insulin}


def _simulate_arrays(
    T: int, burn_in: int, policy_kind: str, seeds: Sequence[int]
) -> dict[str, np.ndarray]:
    """Batch engine: one trajectory per seed, time loop vectorized across
    seeds. Per-seed streams keep every trajectory independent of which other
    seeds share the batch."""
    if T < 1:
        raise ConfigurationError("T must be >= 1")
    if burn_in < 0:
        raise ConfigurationError("burn_in must be >= 0")
    if policy_kind not in ("behavior", "target"):
        raise ConfigurationError(f"policy_kind must be behavior|target, got {policy_kind!r}")
    n = len(seeds)
    total = T + burn_in
    draws = [_draw_exogenous(make_rng(s), total) for s in seeds]
    noise = np.stack([d["noise"] for d in draws])
    ex_all = np.stack([d["ex"] for d in draws])
    di_all = np.stack([d["di"] for d in draws])
    u_insulin = np.stack([d["u_insulin"] for d in draws])

    zeros = np.zeros(n)
    state = GlucoseState(
        np.full(n, GLUCOSE_REST), zeros, zeros, zeros, zeros, zeros, zeros
    )
    out = {
        name: np.empty((n, T))
        for name in ("gl", "ex", "di", "insulin", "y", "behavior_prob", "target_action")
    }
    for t in range(total):
        gl = glucose_mean_update(state) + noise[:, t]
        ex = ex_all[:, t]
        di = di_all[:, t]
        wants_insulin = target_rule(gl, ex, state.ex_lag1).astype(float)
        if policy_kind == "behavior":
            insulin = (u_insulin[:, t] < INSULIN_PROB).astype(float)
        else:
            insulin = wants_insulin
        y = utility_from_glucose(gl)
        if t >= burn_in:
            j = t - burn_in
            out["gl"][:, j] = gl
            out["ex"][:, j] = ex
            out["di"][:, j] = di
            out["insulin"][:, j] = insulin
            out["y"][:, j] = y
            out["behavior_prob"][:, j] = np.where(
                insulin == 1.0, INSULIN_PROB, 1.0 - INSULIN_PROB
            )
            out["target_action"][:, j] = wants_insulin
        state = GlucoseState(
            gl, di, state.di_lag1, ex, state.ex_lag1, insulin, state.in_lag1
        )
    return out


def glucose_simulate(
    T: int,
    burn_in: int = DEFAULT_BURN_IN,
    policy_kind: str = "behavior",
    seed: int = 0,
) -> GlucoseTrajectory:
    """Simulate one patient for burn_in + T hours, recording the last T."""
    arrays = _simulate_arrays(T, burn_in, policy_kind, [seed])
    return GlucoseTrajectory(
        gl=arrays["gl"][0],
        ex=arrays["ex"][0],
        di=arrays["di"][0],
        insulin=arrays["insulin"][0].astype(np.int64),
        y=arrays["y"][0],
        behavior_prob=arrays["behavior_prob"][0],
        target_action=arrays["target_action"][0].astype(np.int64),
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
        arrays = _simulate_arrays(T, burn_in, "behavior", seeds[start:stop])
        ys[start:stop] = arrays["y"]
        rhos[start:stop] = _ratios(
            arrays["insulin"], arrays["target_action"], arrays["behavior_prob"]
        )
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
    Utilities are small integers, so each chunk's sum is exact and the mean
    does not depend on where chunks break.
    """
    key = (runs, hours, burn_in, seed)
    if key not in _oracle_cache:
        total = 0.0
        count = 0
        for start, stop in chunk_ranges(runs, hours + burn_in):
            seeds = [derive_seed(seed, r) for r in range(start, stop)]
            arrays = _simulate_arrays(hours, burn_in, "target", seeds)
            total += float(arrays["y"].sum())
            count += arrays["y"].size
        provenance = {
            "kind": "monte-carlo",
            "runs": runs,
            "hours": hours,
            "burn_in": burn_in,
            "seed": seed,
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
    text = "\n".join(lines) + "\n"
    if hasattr(out, "write"):
        out.write(text)
    else:
        from pathlib import Path

        Path(out).write_text(text)
