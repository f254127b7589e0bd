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
one 1-D array of each per unit (a 2-D array counts as one row per unit).
Adapters produce them: ``importance_ratios(traj, target, behavior)`` with
``traj.y`` for a finite trajectory, ``GlucoseTrajectory.importance_ratios()``
with its ``y`` for a glucose run, and the environments'
``rewards_and_ratios`` for seeded batches.

Monte Carlo studies evaluate every window on each of many replications.
For them, ``_estimate_windows`` computes all windows on an (R, T) batch of
rewards and ratios in one pass, each row its own unit: window products are
built incrementally from the previous window, the lag window is evaluated
once per call and each lag's cross products are summed across all rows at
once, and the normal quantile is computed once. It performs the same
floating-point operations in the same order as ``estimate_with_ci`` on
one row, which stays as its reference.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

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
        return {
            "value": self.value,
            "variance": self.variance,
            "ci": [self.ci_lo, self.ci_hi],
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
    rho = np.asarray(ratios, dtype=float)
    y = np.asarray(rewards, dtype=float)
    if rho.shape != y.shape:
        raise ConfigurationError(
            f"ratios (length {rho.size}) and rewards (length {y.size}) must have one length"
        )
    _check_ratios(rho)
    _check_finite("rewards", y)
    if k == -1:
        return y.copy()
    if y.size < k + 2:
        raise ConfigurationError(
            f"trajectory length {y.size} too short for window k={k} (need T >= k+2)"
        )
    return window_weights(rho, k) * y[k:]


def _units(
    ratios: Sequence[np.ndarray], rewards: Sequence[np.ndarray]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Ratio and reward arrays per unit, checked to pair up.

    Raises ConfigurationError for no units, unequal unit counts, or a unit
    whose ratios and rewards are not 1-D arrays of one length.
    """
    rhos = [np.asarray(rho, dtype=float) for rho in ratios]
    ys = [np.asarray(y, dtype=float) for y in rewards]
    if len(rhos) != len(ys):
        raise ConfigurationError(f"got {len(rhos)} ratio units but {len(ys)} reward units")
    if not rhos:
        raise ConfigurationError("need at least one unit of ratios and rewards")
    for i, (rho, y) in enumerate(zip(rhos, ys)):
        if rho.ndim != 1 or rho.shape != y.shape:
            raise ConfigurationError(
                f"unit {i}: ratios of shape {rho.shape} and rewards of shape "
                f"{y.shape} must be 1-D arrays of one length"
            )
    return rhos, ys


def _unit_terms(
    ratios: Sequence[np.ndarray], rewards: Sequence[np.ndarray], k: int
) -> list[np.ndarray]:
    return [weighted_terms(rho, y, k) for rho, y in zip(*_units(ratios, rewards))]


def phiw_estimate(
    ratios: Sequence[np.ndarray], rewards: Sequence[np.ndarray], k: int
) -> float:
    """Partial-history importance-weighted estimate of the target policy value.

    For k >= 0, each reward is weighted by the product of the k+1 most recent
    per-step ratios; k = -1 is the plain mean of all rewards. Requires every
    unit to have T >= k+2 so the time sum is nonempty.
    """
    per_unit = [terms.mean() for terms in _unit_terms(ratios, rewards, k)]
    return float(np.mean(per_unit))


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


def _hac_from_terms(
    terms_per_unit: list[np.ndarray], bandwidth: float
) -> tuple[float, bool]:
    """Kernel-weighted long-run variance of the estimator summands.

    Terms are centered at their pooled mean (the sample analogue of the
    population centering constant). Computed per unit via the lag
    decomposition sum_t ytilde_t^2 + 2 sum_{j>=1} Psi(j/B) sum_t ytilde_t
    ytilde_{t+j}, then averaged across units. Returns (value, clamped);
    clamped marks a negative result forced to zero.
    """
    center = float(np.mean(np.concatenate(terms_per_unit)))
    per_unit = []
    for terms in terms_per_unit:
        yt = terms - center
        n = yt.size
        acc = float(yt @ yt)
        max_lag = min(int(math.floor(bandwidth)), n - 1)
        for j in range(1, max_lag + 1):
            psi = parzen_kernel(j / bandwidth)
            if psi == 0.0:
                continue
            acc += 2.0 * psi * float(yt[:-j] @ yt[j:])
        per_unit.append(acc / n)
    value = float(np.mean(per_unit))
    if value < 0.0:
        return 0.0, True
    return value, False


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
    if bandwidth <= 0:
        raise ConfigurationError("bandwidth must be > 0")
    value, clamped = _hac_from_terms(_unit_terms(ratios, rewards, k), bandwidth)
    if clamped:
        warnings.warn(
            "HAC variance came out negative (numerical issue; the lag window "
            "is positive semidefinite) and was clamped to 0",
            RuntimeWarning,
            stacklevel=2,
        )
    return value


def estimate_with_ci(
    ratios: Sequence[np.ndarray],
    rewards: Sequence[np.ndarray],
    config: EstimatorConfig,
) -> EstimateReport:
    """Point estimate, HAC variance, and Gaussian confidence interval.

    The variance estimates the limit of n(T-k) * Var(V_hat), so the interval
    half-width is z_{1-alpha/2} * sqrt(variance / (n (T-k))). k = -1 reuses
    the same machinery with unit weights.
    """
    k = config.k
    terms = _unit_terms(ratios, rewards, k)
    t_used = min(t.size for t in terms)
    value = float(np.mean([t.mean() for t in terms]))
    variance, clamped = _hac_from_terms(terms, config.bandwidth)
    z = float(ndtri(1.0 - config.alpha / 2.0))
    half = z * math.sqrt(variance / (len(terms) * t_used))
    return EstimateReport(
        value=value,
        variance=variance,
        ci_lo=value - half,
        ci_hi=value + half,
        k=k,
        n_units=len(terms),
        t_used=t_used,
        flags=("hac_clamped",) if clamped else (),
    )


def _estimate_windows(
    Y: np.ndarray,
    RHO: np.ndarray,
    ks: Sequence[int],
    alpha: float,
    bandwidth: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Estimate and interval for every window in ``ks`` on every row of
    (R, T) rewards ``Y`` and per-step ratios ``RHO``.

    Each row is its own unit: entry [i, j] is what
    ``estimate_with_ci([RHO[i]], [Y[i]], EstimatorConfig(ks[j], alpha,
    bandwidth))`` reports. Returns an
    (R, K, 3) array of (value, ci_lo, ci_hi) and the (R, K) mask of
    variance estimates clamped to zero.
    """
    R, T = Y.shape
    ks = [int(k) for k in ks]
    if not ks or min(ks) < -1:
        raise ConfigurationError("need a nonempty set of windows k >= -1")
    k_max = max(ks)
    if k_max >= 0 and T < k_max + 2:
        raise ConfigurationError(
            f"trajectory length {T} too short for window k={k_max} (need T >= k+2)"
        )
    out = np.empty((R, len(ks), 3))
    clamped = np.zeros((R, len(ks)), dtype=bool)
    z = float(ndtri(1.0 - alpha / 2.0))
    lag_cap = min(int(math.floor(bandwidth)), T - 1)
    psi = parzen_kernel(np.arange(1, lag_cap + 1) / bandwidth)

    def fill(k: int, terms: np.ndarray) -> None:
        n = terms.shape[1]
        value = terms.mean(axis=1)
        yt = terms - value[:, None]
        acc = np.vecdot(yt, yt)
        for j in range(1, min(lag_cap, n - 1) + 1):
            if psi[j - 1] != 0.0:
                acc += 2.0 * psi[j - 1] * np.vecdot(yt[:, :-j], yt[:, j:])
        variance = acc / n
        neg = variance < 0.0
        variance[neg] = 0.0
        half = z * np.sqrt(variance / n)
        cols = [c for c, kc in enumerate(ks) if kc == k]
        out[:, cols] = np.stack([value, value - half, value + half], axis=1)[:, None]
        clamped[:, cols] = neg[:, None]

    if -1 in ks:
        fill(-1, Y)
    # Same per-row switch to log space as window_weights; a row that crosses
    # the threshold at k stays past it for every larger k.
    positive = RHO > 0.0
    max_log = np.abs(np.log(np.where(positive, RHO, 1.0))).max(axis=1)
    W = RHO
    for k in range(k_max + 1):
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
            terms[i] = window_weights(RHO[i], k) * Y[i, k:]
        fill(k, terms)
    return out, clamped


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
    of all larger ones. The bandwidth follows the shortest unit's length.
    Deterministic given the reports.
    """
    rhos, ys = _units(ratios, rewards)
    bandwidth = bandwidth_rule.bandwidth(min(y.size for y in ys))
    reports = tuple(
        estimate_with_ci(
            rhos, ys, EstimatorConfig(k=k, alpha=alpha, bandwidth=bandwidth)
        )
        for k in candidates
    )
    selected = select_window_from_intervals(
        list(candidates), [(rep.ci_lo, rep.ci_hi) for rep in reports]
    )
    return LepskiResult(selected_k=selected, reports=reports)


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
