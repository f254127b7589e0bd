"""Partial-history importance weighting with HAC confidence intervals and
adaptive window selection.

The point estimator weights each reward Y_t by the product of
target-to-behavior probability ratios of the k+1 most recent actions
(overlapping windows), averaging over t = k+1..T and over trajectories:

    V_hat(k) = (1/n) sum_i (1/(T-k)) sum_{t=k+1}^T
               [ prod_{s=0}^{k} pi_{W_{t-s}}(X_{t-s}) / e_{W_{t-s}}(X_{t-s}) ] Y_{i,t}

Window length k = -1 denotes the unweighted sample mean baseline and k = 0
reweights the current step only. Larger k reduces the bias from evaluating
a policy that was not the one generating the data, at the price of
exponentially growing weight variance; the Lepski scan below picks k from
data by intersecting the Gaussian confidence intervals of successive
windows.

Every estimator takes the same two streams: per-step ratios and rewards,
one 1-D array of each per unit (a 2-D array counts as one row per unit),
all units of one length. Adapters produce them: ``importance_ratios(traj,
target, behavior)`` with ``traj.y`` for a finite trajectory,
``GlucoseTrajectory.importance_ratios()`` with its ``y`` for a glucose run,
and the environments' ``rewards_and_ratios`` for seeded batches.

All estimators run on one core, ``_estimate_windows``. It evaluates every
requested window on a (G, n, T) batch, G estimates of n units each, in one
pass: ``_window_terms`` builds each window's products from the previous
window's, the lag window is evaluated once per call, each lag's cross
products are summed across all units at once, and the normal quantile is
computed once. The public estimators pass their units as one estimate;
Monte Carlo studies pass each replication as an estimate of one unit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from scipy.special import ndtri

from .core import Policy, Trajectory, _check_finite, _raise_at_first
from .errors import ConfigurationError, OverlapViolationError

# Switch window products to log space once the worst-case product magnitude
# could overflow or lose precision; below this, direct multiplication is exact
# enough and slightly faster.
_LOG_SPACE_THRESHOLD = 30.0


@dataclass(frozen=True)
class EstimatorConfig:
    """Window length k (>= -1), CI level alpha, and HAC bandwidth."""

    k: int
    alpha: float = 0.05
    bandwidth: float = 10.0

    def __post_init__(self):
        if self.k < -1:
            raise ConfigurationError("k must be >= -1")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigurationError("alpha must lie in (0, 1)")
        if self.bandwidth <= 0:
            raise ConfigurationError("bandwidth must be > 0")


@dataclass(frozen=True)
class BandwidthRule:
    """Bandwidth as a function of trajectory length: T**value or a constant."""

    kind: str  # "power" | "fixed"
    value: float

    def __post_init__(self):
        if self.kind not in ("power", "fixed"):
            raise ConfigurationError(f"unknown bandwidth rule kind {self.kind!r}")
        if self.kind == "fixed" and self.value <= 0:
            raise ConfigurationError("fixed bandwidth must be > 0")

    def bandwidth(self, T: int) -> float:
        if self.kind == "power":
            return float(T) ** self.value
        return self.value


DEFAULT_BANDWIDTH_RULE = BandwidthRule("power", 1.0 / 3.0)


@dataclass(frozen=True)
class EstimateReport:
    """Point estimate with HAC variance and Gaussian confidence interval."""

    value: float
    variance: float
    ci_lo: float
    ci_hi: float
    k: int
    n_units: int
    t_used: int
    flags: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        """Plain-JSON fields: a non-finite number (flagged "non_finite") is None."""
        value, variance, lo, hi = (
            x if math.isfinite(x) else None
            for x in (self.value, self.variance, self.ci_lo, self.ci_hi)
        )
        return {
            "value": value,
            "variance": variance,
            "ci": [lo, hi],
            "k": self.k,
            "n_units": self.n_units,
            "t_used": self.t_used,
            "flags": list(self.flags),
        }


@dataclass(frozen=True)
class LepskiResult:
    """Selected window plus the per-candidate reports the scan used."""

    selected_k: int
    reports: tuple[EstimateReport, ...]

    def report_for(self, k: int) -> EstimateReport:
        for rep in self.reports:
            if rep.k == k:
                return rep
        raise KeyError(k)

    def to_dict(self) -> dict:
        return {
            "selected_k": self.selected_k,
            "reports": [rep.to_dict() for rep in self.reports],
        }


def _policy_ratios(
    x: np.ndarray,
    w: np.ndarray,
    target: Policy,
    behavior: Policy,
    env: str | None = None,
) -> np.ndarray:
    """Ratios pi_w(x) / e_w(x) for covariate/action arrays of any shape with
    time on the last axis, gathered from one (num_x, num_actions) table.

    Raises OverlapViolationError at the first violation in row-major order.
    """
    pi = target.probs
    e = behavior.probs
    bad = (e == 0.0) & (pi > 0.0)
    if bad.any() and bad[x, w].any():
        idx = tuple(np.argwhere(bad[x, w])[0])
        raise OverlapViolationError(
            t=int(idx[-1]) + 1, x=int(x[idx]), a=int(w[idx]), env=env
        )
    table = np.zeros_like(pi)
    ok = e > 0.0
    table[ok] = pi[ok] / e[ok]
    return table[x, w]


def importance_ratios(traj: Trajectory, target: Policy, behavior: Policy) -> np.ndarray:
    """Per-step ratio pi_{W_t}(X_t) / e_{W_t}(X_t) along a trajectory.

    The finite-trajectory adapter: with ``traj.y`` it gives the unit of
    ratios and rewards that the estimators take.

    Raises OverlapViolationError naming (t, x, a) if the behavior policy has
    zero probability on a realized action to which the target assigns
    positive probability. Steps where the target probability is zero yield a
    zero ratio (the window weight vanishes).
    """
    return _policy_ratios(traj.x, traj.w, target, behavior)


def _check_ratios(rho: np.ndarray) -> None:
    """Raise ConfigurationError naming the first non-finite or negative ratio."""
    _check_finite("ratios", rho)
    _raise_at_first("ratios", rho, rho < 0.0, ">= 0")


def window_weights(ratios: np.ndarray, k: int) -> np.ndarray:
    """Products of k+1 consecutive ratios; entry j covers steps j..j+k.

    Large windows (where the worst-case log magnitude exceeds a safe bound)
    are accumulated in log space, with zero ratios tracked separately so a
    single zero still annihilates its window. Ratios must be finite and
    >= 0, or ConfigurationError names the first bad index.
    """
    rho = np.asarray(ratios, dtype=float)
    _check_ratios(rho)
    if k < 0:
        raise ConfigurationError("window_weights requires k >= 0")
    n = rho.size - k
    if n < 1:
        raise ConfigurationError(f"need at least k+1={k + 1} steps, got {rho.size}")
    positive = rho > 0.0
    max_log = float(np.abs(np.log(rho[positive])).max()) if positive.any() else 0.0
    if (k + 1) * max_log <= _LOG_SPACE_THRESHOLD:
        w = np.ones(n)
        for s in range(k + 1):
            w = w * rho[s : s + n]
        return w
    log_rho = np.where(positive, np.log(np.where(positive, rho, 1.0)), 0.0)
    log_w = np.zeros(n)
    zeros = np.zeros(n, dtype=np.int64)
    for s in range(k + 1):
        log_w += log_rho[s : s + n]
        zeros += ~positive[s : s + n]
    return np.where(zeros > 0, 0.0, np.exp(log_w))


def weighted_terms(ratios: np.ndarray, rewards: np.ndarray, k: int) -> np.ndarray:
    """The summands of the estimator: window weight times reward.

    k = -1 returns the rewards unchanged (sample-mean baseline, all T terms).
    Ratios and rewards of different lengths, non-finite values, or negative
    ratios raise ConfigurationError.
    """
    RHO, Y = _units([ratios], [rewards])
    ((_, terms),) = _window_terms(Y, RHO, [k])
    return terms[0]


def _units(
    ratios: Sequence[np.ndarray], rewards: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """(n, T) ratio and reward arrays, one row per unit. Raises
    ConfigurationError for no units, unequal unit counts, a unit whose ratios
    and rewards are not 1-D arrays of one length, units of different lengths,
    and non-finite values or negative ratios."""
    rhos = [np.asarray(rho, dtype=float) for rho in ratios]
    ys = [np.asarray(y, dtype=float) for y in rewards]
    if len(rhos) != len(ys):
        raise ConfigurationError(f"got {len(rhos)} ratio units but {len(ys)} reward units")
    if not rhos:
        raise ConfigurationError("need at least one unit of ratios and rewards")
    for i, (rho, y) in enumerate(zip(rhos, ys)):
        if rho.ndim != 1 or rho.shape != y.shape:
            raise ConfigurationError(
                f"unit {i}: ratios (shape {rho.shape}, length {rho.size}) and rewards "
                f"(shape {y.shape}, length {y.size}) must be 1-D arrays of one length"
            )
        if y.size != ys[0].size:
            raise ConfigurationError(
                f"unit {i} has length {y.size} but unit 0 has length "
                f"{ys[0].size}; all units must have one length"
            )
        _check_ratios(rho)
        _check_finite("rewards", y)
    return np.stack(rhos), np.stack(ys)


def _window_terms(
    Y: np.ndarray, RHO: np.ndarray, ks: Sequence[int]
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (k, summands) for each distinct window in ``ks``, ascending, on
    (m, T) rewards ``Y`` and ratios ``RHO``, one unit per row. Each row
    switches to log space by ``window_weights``' rule; a row past the
    threshold at k stays past it for every larger k."""
    ks = sorted({int(k) for k in ks})
    if not ks or ks[0] < -1:
        raise ConfigurationError("need a nonempty set of windows k >= -1")
    T = Y.shape[1]
    if ks[-1] >= 0 and T < ks[-1] + 2:
        raise ConfigurationError(
            f"trajectory length {T} too short for window k={ks[-1]} (need T >= k+2)"
        )
    if ks[0] == -1:
        yield -1, Y
    positive = RHO > 0.0
    max_log = np.abs(np.log(np.where(positive, RHO, 1.0))).max(axis=1)
    W = RHO
    for k in range(ks[-1] + 1):
        # Multiplying in window_weights' order keeps products identical.
        # Rows past the threshold are recomputed below; their direct
        # products may overflow.
        with np.errstate(over="ignore", invalid="ignore"):
            if k > 0:
                W = W[:, : T - k] * RHO[:, k:]
            if k not in ks:
                continue
            terms = W * Y[:, k:]
        for i in np.flatnonzero((k + 1) * max_log > _LOG_SPACE_THRESHOLD):
            # A weight past the float range becomes inf here, and the
            # estimate built on it is flagged "non_finite".
            with np.errstate(over="ignore", invalid="ignore"):
                terms[i] = window_weights(RHO[i], k) * Y[i, k:]
        yield k, terms


def phiw_estimate(
    ratios: Sequence[np.ndarray], rewards: Sequence[np.ndarray], k: int
) -> float:
    """Partial-history importance-weighted estimate of the target policy value.

    For k >= 0, each reward is weighted by the product of the k+1 most recent
    per-step ratios; k = -1 is the plain mean of all rewards. Requires every
    unit to have T >= k+2 so the time sum is nonempty.
    """
    RHO, Y = _units(ratios, rewards)
    ((_, terms),) = _window_terms(Y, RHO, [k])
    return float(terms.mean(axis=1).mean())


def parzen_kernel(x):
    """Piecewise-cubic lag window: 1 - 6x^2 + 6|x|^3 on |x| <= 1/2,
    2(1-|x|)^3 on 1/2 <= |x| <= 1, and 0 outside [-1, 1]."""
    ax = np.abs(np.asarray(x, dtype=float))
    out = np.zeros_like(ax)
    inner = ax <= 0.5
    out[inner] = 1.0 - 6.0 * ax[inner] ** 2 + 6.0 * ax[inner] ** 3
    outer = (ax > 0.5) & (ax <= 1.0)
    out[outer] = 2.0 * (1.0 - ax[outer]) ** 3
    if out.ndim == 0:
        return float(out)
    return out


# Flags the core sets per estimate and window, in the order of its mask.
_FLAGS = ("hac_clamped", "non_finite")


def _estimate_windows(
    Y: np.ndarray, RHO: np.ndarray, ks: Sequence[int], alpha: float, bandwidth: float
) -> tuple[np.ndarray, np.ndarray]:
    """Every window in ``ks`` on (G, n, T) rewards ``Y`` and ratios ``RHO``:
    G estimates of n units each, with L summands per unit.

    An estimate is the mean of its units' means. Its variance averages the
    units' lag sums sum_t e_t^2 + 2 sum_{j>=1} Psi(j/B) sum_t e_t e_{t+j}
    over L, with e the summands less their pooled mean, clamped to zero if
    negative (only floating-point cancellation can do that). Returns the
    (G, K, 4) array of (value, variance, ci_lo, ci_hi), with half-width
    z_{1-alpha/2} sqrt(variance / (n L)), and the (G, K, len(_FLAGS)) mask.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError("alpha must lie in (0, 1)")
    if bandwidth <= 0:
        raise ConfigurationError("bandwidth must be > 0")
    G, n, T = Y.shape
    est = np.empty((G, len(ks), 4))
    flags = np.zeros((G, len(ks), len(_FLAGS)), dtype=bool)
    z = float(ndtri(1.0 - alpha / 2.0))
    lag_cap = min(int(math.floor(bandwidth)), T - 1)
    psi = parzen_kernel(np.arange(1, lag_cap + 1) / bandwidth)
    for k, terms in _window_terms(Y.reshape(G * n, T), RHO.reshape(G * n, T), ks):
        L = terms.shape[1]
        # Infinite summands make inf - inf here; every estimate they reach
        # is flagged "non_finite" below instead of warning.
        with np.errstate(over="ignore", invalid="ignore"):
            value = terms.mean(axis=1).reshape(G, n).mean(axis=1)
            # With one unit the pooled mean is that unit's mean.
            center = value if n == 1 else terms.reshape(G, n * L).mean(axis=1)
            yt = terms - np.repeat(center, n)[:, None]
            acc = np.vecdot(yt, yt)
            for j in range(1, min(lag_cap, L - 1) + 1):
                if psi[j - 1] != 0.0:
                    acc += 2.0 * psi[j - 1] * np.vecdot(yt[:, :-j], yt[:, j:])
            variance = (acc / L).reshape(G, n).mean(axis=1)
        clamped = variance < 0.0
        variance[clamped] = 0.0
        half = z * np.sqrt(variance / (n * L))
        cols = [c for c, kc in enumerate(ks) if kc == k]
        est[:, cols] = np.stack([value, variance, value - half, value + half], axis=1)[:, None]
        flags[:, cols, 0] = clamped[:, None]
    flags[..., 1] = ~np.isfinite(est).all(axis=2)
    return est, flags


def _reports(
    RHO: np.ndarray, Y: np.ndarray, ks: Sequence[int], alpha: float, bandwidth: float
) -> list[EstimateReport]:
    """One report per window in ``ks``, the (n, T) units forming one estimate."""
    n, T = Y.shape
    est, flags = _estimate_windows(Y[None], RHO[None], ks, alpha, bandwidth)
    return [
        EstimateReport(
            *(float(x) for x in row),
            k=k,
            n_units=n,
            t_used=T - max(k, 0),
            flags=tuple(name for name, on in zip(_FLAGS, mask) if on),
        )
        for k, row, mask in zip(ks, est[0], flags[0])
    ]


def hac_variance(
    ratios: Sequence[np.ndarray],
    rewards: Sequence[np.ndarray],
    k: int,
    bandwidth: float,
) -> float:
    """Long-run variance estimate for the weighted reward series.

    Estimates the asymptotic variance of sqrt(n (T-k)) times the estimation
    error, combining lagged autocovariances with the piecewise-cubic lag
    window so that lags beyond the bandwidth are ignored. Negative output
    (possible only through floating-point cancellation) is clamped to zero
    with a warning.
    """
    report = _reports(*_units(ratios, rewards), [k], 0.05, bandwidth)[0]
    if "hac_clamped" in report.flags:
        warnings.warn(
            "HAC variance came out negative (numerical issue; the lag window "
            "is positive semidefinite) and was clamped to 0",
            RuntimeWarning,
            stacklevel=2,
        )
    return report.variance


def estimate_with_ci(
    ratios: Sequence[np.ndarray],
    rewards: Sequence[np.ndarray],
    config: EstimatorConfig,
) -> EstimateReport:
    """Point estimate, HAC variance, and Gaussian confidence interval.

    The variance estimates the limit of n(T-k) * Var(V_hat), so the interval
    half-width is z_{1-alpha/2} * sqrt(variance / (n (T-k))). k = -1 reuses
    the same machinery with unit weights. Flags: "hac_clamped", "non_finite".
    """
    return _reports(*_units(ratios, rewards), [config.k], config.alpha, config.bandwidth)[0]


def select_window_from_intervals(
    candidates: Sequence[int], intervals: Sequence[tuple[float, float]]
) -> int:
    """Backward scan over candidate windows: keep intersecting confidence
    intervals from the largest candidate down; when the running intersection
    first becomes empty at candidate k, return the next candidate above k.
    If the intersection never empties, return the smallest candidate. A NaN
    endpoint raises ConfigurationError naming its candidate."""
    cands = list(candidates)
    if not cands:
        raise ConfigurationError("candidate set must be nonempty")
    if sorted(cands) != cands:
        raise ConfigurationError("candidates must be sorted ascending")
    if len(intervals) != len(cands):
        raise ConfigurationError("need one interval per candidate")
    for c, (c_lo, c_hi) in zip(cands, intervals):
        if math.isnan(c_lo) or math.isnan(c_hi):
            raise ConfigurationError(
                f"interval for candidate {c} must not be NaN, got ({c_lo}, {c_hi})"
            )
    lo, hi = -np.inf, np.inf
    for idx in range(len(cands) - 1, -1, -1):
        c_lo, c_hi = intervals[idx]
        lo = max(lo, c_lo)
        hi = min(hi, c_hi)
        if lo > hi:
            return cands[idx + 1]
    return cands[0]


def lepski_select(
    ratios: Sequence[np.ndarray],
    rewards: Sequence[np.ndarray],
    candidates: Sequence[int],
    alpha: float = 0.05,
    bandwidth_rule: BandwidthRule = DEFAULT_BANDWIDTH_RULE,
) -> LepskiResult:
    """Adaptive window choice by interval intersection.

    Builds a confidence interval for every candidate window (ascending order
    required; -1 and 0 are allowed) and scans from the largest window down,
    returning the smallest window whose interval still meets the intersection
    of all larger ones. The bandwidth follows the unit length. Deterministic
    given the reports.
    """
    RHO, Y = _units(ratios, rewards)
    reports = _reports(RHO, Y, candidates, alpha, bandwidth_rule.bandwidth(Y.shape[1]))
    selected = select_window_from_intervals(
        candidates, [(rep.ci_lo, rep.ci_hi) for rep in reports]
    )
    return LepskiResult(selected_k=selected, reports=tuple(reports))


def corollary_window(n: int, T: int, t0: float, zeta: float, C0: float = 1.0) -> int:
    """Theoretically calibrated window length
    round(t0 / (t0 zeta + 2) * ln(C0 n T)), clamped to [0, T-1].

    Nondecreasing in n*T for fixed (t0, zeta, C0).
    """
    if t0 <= 0 or C0 <= 0:
        raise ConfigurationError("t0 and C0 must be > 0")
    if n * T < 1:
        raise ConfigurationError("n*T must be >= 1")
    if zeta < 0:
        raise ConfigurationError("zeta must be >= 0")
    k = int(np.round(t0 / (t0 * zeta + 2.0) * math.log(C0 * n * T)))
    return max(0, min(k, T - 1))
