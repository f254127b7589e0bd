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
window's, the lag window is evaluated once per call, and the lag sums of
all units go into one (lags + 1, rows) buffer, weighted in one multiply
and added in lag order. A window of at most 10,000 steps takes each lag's
cross products of all units in one ``np.vecdot``, one dot per row; a
longer window sums each row's lags in fixed blocks of 4,096 steps, every
lag of a block in one ``np.correlate``, and adds the block sums in order,
so its bytes do not depend on the BLAS thread count. Clamping,
half-widths, intervals and flags are computed once per call, after the
last window, with z_{1-alpha/2} from ``_ndtri``, a plain-Python port of the
Cephes library's inverse normal CDF ``ndtri`` (the package needs numpy
alone). The public estimators pass their units as one estimate; Monte Carlo
studies pass each replication as an estimate of one unit. One array rule on
the engine's interval ends, ``select_window_from_intervals``, selects the
window for the CLI, ``lepski_select`` and the window-selection study alike,
leaving out the windows whose estimates are flagged "non_finite".
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import _FRESH, Policy, Trajectory, _FreshArrays, _check_finite, _raise_at_first
from .errors import (
    ConfigurationError,
    OverlapViolationError,
    _distinct,
    _finite,
    _integer,
    _level,
    _positive,
)

# Switch window products to log space once the worst-case product magnitude
# could overflow or lose precision; below this, direct multiplication is exact
# enough and slightly faster.
_LOG_SPACE_THRESHOLD = 30.0

# OpenBLAS splits a dot of more than _VECDOT_STEPS products across its
# threads, and the split changes the sum's last bits, so longer series take
# their lag sums in blocks of _LAG_BLOCK steps, each block one np.correlate
# call for every lag. At 20,000 steps and 27 lags (2-core Xeon VM, numpy
# 2.4, one BLAS thread) blocks of 4,096 took 53 µs per window, against 61-79
# µs for blocks of 1,024, 2,048, 8,192 and 10,000, and 115-194 µs for one
# np.vecdot per lag.
_VECDOT_STEPS = 10_000
_LAG_BLOCK = 4096


# Cephes ndtri: a rational approximation in y - 1/2 on the central branch
# exp(-2) < y < 1 - exp(-2), and in 1/x with x = sqrt(-2 log y) in the tails,
# one table pair for 2 <= x < 8 and one for 8 <= x. The Q tables lead with the
# implicit coefficient 1, which leaves Horner's rule unchanged bit for bit.
_EXP_M2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _horner(x: float, coefs: tuple[float, ...]) -> float:
    """The polynomial with ``coefs``, highest degree first, at x."""
    ans = coefs[0]
    for c in coefs[1:]:
        ans = ans * x + c
    return ans


def _ndtri(p: float) -> float:
    """Standard normal quantile for p in [0, 1]: -inf at 0 and inf at 1."""
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    y, lower = p, True
    if y > 1.0 - _EXP_M2:
        y, lower = 1.0 - y, False
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _horner(y2, _P0) / _horner(y2, _Q0))) * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    P, Q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    x = x - math.log(x) / x - z * _horner(z, P) / _horner(z, Q)
    return -x if lower else x


@dataclass(frozen=True)
class EstimatorConfig:
    """Window length k (>= -1), CI level alpha, and HAC bandwidth."""

    k: int
    alpha: float = 0.05
    bandwidth: float = 10.0

    def __post_init__(self):
        _windows("k", [self.k])
        _level("alpha", self.alpha)
        _positive("bandwidth", self.bandwidth)


@dataclass(frozen=True)
class BandwidthRule:
    """Bandwidth as a function of trajectory length: T**value or a constant."""

    kind: str  # "power" | "fixed"
    value: float

    def __post_init__(self):
        if self.kind not in ("power", "fixed"):
            raise ConfigurationError(f"unknown bandwidth rule kind {self.kind!r}")
        if self.kind == "fixed":
            _positive("fixed bandwidth", self.value)
        else:
            _finite("bandwidth exponent", self.value)

    def bandwidth(self, T: int) -> float:
        if self.kind == "power":
            try:
                power = float(T) ** self.value
            except OverflowError:
                power = math.inf
            return _positive(f"bandwidth {T}**{self.value}", power)
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

    def to_dict(self) -> dict:
        return {
            "selected_k": self.selected_k,
            "reports": [rep.to_dict() for rep in self.reports],
        }


def _policy_ratios(
    cells: np.ndarray,
    covariates: np.ndarray,
    target: Policy,
    behavior: Policy,
    env: str | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Ratios pi_a(x) / e_a(x) gathered from one table at the flat cells
    row * num_actions + a of an array of any shape with time on the last
    axis, where table row r stands for covariate ``covariates[r]``: one row
    per covariate for (x, w) pairs, one per state for a simulator's
    (state, action) cells. Written into ``out`` if given.

    Raises OverlapViolationError at the first violation in row-major order.
    """
    pi = target.probs[covariates].ravel()
    e = behavior.probs[covariates].ravel()
    ok = e > 0.0
    bad = ~ok & (pi > 0.0)
    if bad.any() and bad.take(cells).any():
        idx = tuple(np.argwhere(bad.take(cells))[0])
        row, a = divmod(int(cells[idx]), target.num_actions)
        raise OverlapViolationError(t=idx[-1] + 1, x=int(covariates[row]), a=a, env=env)
    table = np.zeros_like(pi)
    table[ok] = pi[ok] / e[ok]
    # Every cell is in range (``importance_ratios`` checks its columns, and
    # the simulator makes them so), and "clip" writes into ``out`` without
    # the buffered copy of the default mode.
    return table.take(cells, out=out, mode="clip")


def importance_ratios(traj: Trajectory, target: Policy, behavior: Policy) -> np.ndarray:
    """Per-step ratio pi_{W_t}(X_t) / e_{W_t}(X_t) along a trajectory.

    The finite-trajectory adapter: with ``traj.y`` it gives the unit of
    ratios and rewards that the estimators take.

    Raises OverlapViolationError naming (t, x, a) if the behavior policy has
    zero probability on a realized action to which the target assigns
    positive probability. Steps where the target probability is zero yield a
    zero ratio (the window weight vanishes). Raises ConfigurationError if
    the two policies differ in shape, or naming the first step whose x or w
    is out of their range.
    """
    if target.probs.shape != behavior.probs.shape:
        raise ConfigurationError(
            f"target policy shape {target.probs.shape} != behavior policy shape "
            f"{behavior.probs.shape}"
        )
    for name, column, size in (("x", traj.x, target.num_x), ("w", traj.w, target.num_actions)):
        _raise_at_first(f"trajectory {name}", column, column >= size, f"< {size}")
    cells = np.ravel_multi_index((traj.x, traj.w), target.probs.shape)
    return _policy_ratios(cells, np.arange(target.num_x), target, behavior)


def _check_ratios(rho: np.ndarray) -> None:
    """Raise ConfigurationError naming the first non-finite or negative ratio."""
    _check_finite("ratios", rho)
    _raise_at_first("ratios", rho, rho < 0.0, ">= 0")


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


def _windows(name: str, ks, T: int | None = None, ascending: bool = False) -> list[int]:
    """The windows ``ks`` as Python ints: at least one, each an integer >= -1
    (a bad one is named ``name``), none repeated, at most T - 2 given the
    series length T, and sorted if ``ascending``."""
    windows = [_integer(name, k, -1) for k in ks]
    if not windows:
        raise ConfigurationError(f"need at least one {name}")
    _distinct(name, windows)
    if ascending and windows != sorted(windows):
        raise ConfigurationError(f"windows must be sorted ascending, got {windows}")
    if T is not None and max(windows) > T - 2:
        raise ConfigurationError(
            f"trajectory length {T} too short for window k={max(windows)} (need T >= k+2)"
        )
    return windows


def _smallest_positive(RHO: np.ndarray, workspace: _FreshArrays = _FRESH) -> np.ndarray:
    """Each row's smallest positive entry of (m, T) ratios >= 0, or 0.0 for a
    row of zeros, without branches: positive doubles order as their bit
    patterns, and one less than a zero's wraps to the top of uint64."""
    bits = workspace.take(RHO.shape, np.uint64)
    np.subtract(RHO.view(np.uint64), np.uint64(1), out=bits)
    smallest = (bits.min(axis=1) + np.uint64(1)).view(np.float64)
    workspace.give(bits)
    return smallest


def _window_terms(
    Y: np.ndarray, RHO: np.ndarray, ks: Sequence[int], workspace: _FreshArrays = _FRESH
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (k, summands) for each window in the ascending, distinct ``ks``
    (-1 <= k < T) on (m, T) rewards ``Y`` and ratios ``RHO``, one series per
    row. Products grow left to right from the previous window's; a row whose
    worst-case log magnitude (k+1) max|log rho| passes _LOG_SPACE_THRESHOLD
    takes them from log sums grown the same way, kept only for the rows that
    pass it at the largest k, none if no row does. An overflowing weight is
    inf, unwarned under the caller's ``np.errstate(over="ignore",
    invalid="ignore")``; the summands of rows in log space are replaced.

    The summands of k >= 0 and the products come from ``workspace``; the
    caller may write into the summands and gives them back once it is done
    with them (k = -1 yields ``Y`` itself), and the products go back when
    the last window has been yielded."""
    if ks[0] == -1:
        yield -1, Y
    T = RHO.shape[1]
    # A row's largest |log rho| is at its largest or its smallest positive
    # ratio; a row with no positive ratio has only zero windows.
    hi = RHO.max(axis=1)
    lo = _smallest_positive(RHO, workspace)
    none = ~(hi > 0.0)
    hi[none] = lo[none] = 1.0
    max_log = np.maximum(np.abs(np.log(hi)), np.abs(np.log(lo)))
    logged = np.flatnonzero((ks[-1] + 1) * max_log > _LOG_SPACE_THRESHOLD)
    if logged.size:
        positive = RHO[logged] > 0.0
        L = log_rho = np.log(np.where(positive, RHO[logged], 1.0))
        Z = zero = ~positive
    W = RHO
    for k in range(ks[-1] + 1):
        if k == 1:
            W = np.multiply(RHO[:, :-1], RHO[:, 1:], out=workspace.take((len(RHO), T - 1)))
        elif k > 1:
            # Later products overwrite the first one's buffer.
            W = np.multiply(W[:, : T - k], RHO[:, k:], out=W[:, : T - k])
        if logged.size and k > 0:
            L = L[:, :-1] + log_rho[:, k:]
            Z = Z[:, :-1] | zero[:, k:]
        if k not in ks:
            continue
        terms = np.multiply(W, Y[:, k:], out=workspace.take(W.shape))
        if logged.size:
            past = (k + 1) * max_log[logged] > _LOG_SPACE_THRESHOLD
            if past.any():
                rows = logged[past]
                terms[rows] = np.where(Z[past], 0.0, np.exp(L[past])) * Y[rows, k:]
        yield k, terms
        del terms  # freed before the next window's, once the caller drops it too
    if W is not RHO:
        workspace.give(W)


def phiw_estimate(
    ratios: Sequence[np.ndarray], rewards: Sequence[np.ndarray], k: int
) -> float:
    """Partial-history importance-weighted estimate of the target policy value.

    For k >= 0, each reward is weighted by the product of the k+1 most recent
    per-step ratios; k = -1 is the plain mean of all rewards. Requires every
    unit to have T >= k+2 so the time sum is nonempty.
    """
    # The value depends on neither alpha nor the bandwidth.
    return _reports(*_units(ratios, rewards), [k], 0.05, 1.0)[0].value


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


def _blocked_lag_sums(y: np.ndarray, J: int) -> np.ndarray:
    """sum_t y_t y_{t+j} for j = 0..J (J < len(y)) over a 1-D series, in
    blocks of at most _LAG_BLOCK steps t, each lag's block sums added in
    block order: first the blocks of the L - J steps that every lag reaches
    in range, then the blocks of the last J steps, whose lag j products stop
    at y_{L-1}. Every dot is one BLAS call of at most _LAG_BLOCK products,
    which OpenBLAS never splits, and only in-range products are taken, so an
    infinite summand meets no padding zero."""
    L = len(y)
    out = np.zeros(J + 1)
    for s in range(0, L - J, _LAG_BLOCK):
        e = min(s + _LAG_BLOCK, L - J)
        out += np.correlate(y[s : e + J], y[s:e], "valid")
    for s in range(L - J, L, _LAG_BLOCK):
        e = min(s + _LAG_BLOCK, L)
        m = e - s
        # Lags below L - e stay in range over the whole block; the "full"
        # correlate's entries from m - 1 on are lags L - e..L - s - 1, each
        # over the products before y_{L-1} (the entries before m - 1, the
        # negative lags, are not used).
        if e < L:
            out[: L - e] += np.correlate(y[s : L - 1], y[s:e], "valid")
        out[L - e : L - s] += np.correlate(y[L - m :], y[s:e], "full")[m - 1 :]
    return out


def _estimate_windows(
    Y: np.ndarray,
    RHO: np.ndarray,
    ks: Sequence[int],
    alpha: float,
    bandwidth: float,
    workspace: _FreshArrays = _FRESH,
) -> tuple[np.ndarray, np.ndarray]:
    """Every window in ``ks`` on (G, n, T) rewards ``Y`` and ratios ``RHO``:
    G estimates of n units each, with L summands per unit. The window
    products and summands come from ``workspace`` and go back to it.

    An estimate is the mean of its units' means. Its variance averages the
    units' lag sums sum_t e_t^2 + 2 sum_{j>=1} Psi(j/B) sum_t e_t e_{t+j}
    over L, with e the summands less their pooled mean, clamped to zero if
    negative (only floating-point cancellation can do that). Returns the
    (G, K, 4) array of (value, variance, ci_lo, ci_hi), with half-width
    z_{1-alpha/2} sqrt(variance / (n L)), and the (G, K, len(_FLAGS)) mask.
    """
    _level("alpha", alpha)
    _positive("bandwidth", bandwidth)
    G, n, T = Y.shape
    # The engine takes repeated windows and computes each distinct one once.
    windows = sorted(_windows("k", dict.fromkeys(ks), T))
    z = _ndtri(1.0 - alpha / 2.0)
    lag_cap = min(int(math.floor(bandwidth)), T - 1)
    psi = parzen_kernel(np.arange(1, lag_cap + 1) / bandwidth)
    # Lag 0 and the lags of nonzero weight, with their weights 2 Psi(j/B).
    lags = np.concatenate(([0], np.flatnonzero(psi) + 1))
    weights = 2.0 * psi[lags[1:] - 1, None]
    sums = np.empty((len(lags), G * n))
    value, variance = np.empty((2, len(windows), G))
    by_window = _window_terms(Y.reshape(G * n, T), RHO.reshape(G * n, T), windows, workspace)
    # Infinite summands make inf - inf here; every estimate they reach is
    # flagged "non_finite" below instead of warning. Means are sums over
    # counts, as ndarray.mean takes them, without its per-call wrapper.
    with np.errstate(over="ignore", invalid="ignore"):
        for w, (k, terms) in enumerate(by_window):
            L = terms.shape[1]
            used = np.searchsorted(lags, L - 1, side="right")  # lags below L
            value[w] = np.add.reduce((np.add.reduce(terms, axis=1) / L).reshape(G, n), axis=1) / n
            # With one unit the pooled mean is that unit's mean.
            center = value[w] if n == 1 else np.add.reduce(terms.reshape(G, n * L), axis=1) / (n * L)
            center = np.repeat(center, n)[:, None]
            # The rewards (k = -1) are the caller's; window summands are
            # this call's, so they are centred in place.
            yt = np.subtract(terms, center, out=workspace.take(terms.shape) if k == -1 else terms)
            if L > _VECDOT_STEPS:
                for r, y in enumerate(yt):
                    sums[:used, r] = _blocked_lag_sums(y, lags[used - 1])[lags[:used]]
            else:
                for i, j in enumerate(lags[:used]):
                    np.vecdot(yt[:, : L - j], yt[:, j:], out=sums[i])
            sums[1:used] *= weights[: used - 1]
            # Added in lag order, as a running sum would: a reduce would sum
            # one row's lags pairwise.
            acc = np.add.accumulate(sums[:used], axis=0)[-1]
            variance[w] = np.add.reduce((acc / L).reshape(G, n), axis=1) / n
            workspace.give(yt)
            del terms, yt  # so the next window's summands need no second buffer
    clamped = variance < 0.0
    variance[clamped] = 0.0
    used_T = T - np.maximum(windows, 0)
    half = z * np.sqrt(variance / (n * used_T)[:, None])
    cols = [windows.index(k) for k in ks]
    est = np.stack([value, variance, value - half, value + half], axis=2)[cols].transpose(1, 0, 2)
    flags = np.stack([clamped[cols].T, ~np.isfinite(est).all(axis=2)], axis=2)
    return est, flags


def _as_reports(
    ks: Sequence[int], shape: tuple[int, int], est: np.ndarray, flags: np.ndarray
) -> list[EstimateReport]:
    """One report per window in ``ks`` from the engine's (1, K, 4) estimates
    and (1, K, len(_FLAGS)) mask of one estimate of (n, T) units."""
    n, T = shape
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


def _reports(
    RHO: np.ndarray, Y: np.ndarray, ks: Sequence[int], alpha: float, bandwidth: float
) -> list[EstimateReport]:
    """One report per window in ``ks``, the (n, T) units forming one estimate."""
    return _as_reports(ks, Y.shape, *_estimate_windows(Y[None], RHO[None], ks, alpha, bandwidth))


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
    lo: np.ndarray, hi: np.ndarray, skip: np.ndarray
) -> np.ndarray:
    """Lepski's rule on each row of (m, K) interval ends, lo <= hi, over
    ascending candidates: the index of the smallest candidate not flagged in ``skip``
    whose interval meets the intervals of every larger unflagged candidate
    at once, or 0 if every candidate is flagged. A flagged entry counts as
    (-inf, inf), so it leaves the running max of ``lo`` and min of ``hi``,
    taken from the largest candidate down, unchanged."""
    low = np.maximum.accumulate(np.where(skip, -np.inf, lo)[:, ::-1], axis=1)[:, ::-1]
    high = np.minimum.accumulate(np.where(skip, np.inf, hi)[:, ::-1], axis=1)[:, ::-1]
    # The intersections that meet are a suffix of each row.
    ok = (low <= high) & ~skip
    return ok.argmax(axis=1)


def lepski_select(
    ratios: Sequence[np.ndarray],
    rewards: Sequence[np.ndarray],
    candidates: Sequence[int],
    alpha: float = 0.05,
    bandwidth_rule: BandwidthRule = DEFAULT_BANDWIDTH_RULE,
) -> LepskiResult:
    """Adaptive window choice by interval intersection.

    Builds a confidence interval for every candidate window (ascending order
    required; -1 and 0 are allowed) and selects the smallest window whose
    interval meets the intervals of all larger ones at once, by the rule the
    window-selection study applies to every replication:
    ``select_window_from_intervals`` on the engine's interval ends. A
    candidate whose estimate is flagged "non_finite" is left out; if every
    one is, the smallest is selected. The bandwidth follows the unit length.
    """
    RHO, Y = _units(ratios, rewards)
    candidates = _windows("candidates entry", candidates, ascending=True)
    bandwidth = bandwidth_rule.bandwidth(Y.shape[1])
    est, flags = _estimate_windows(Y[None], RHO[None], candidates, alpha, bandwidth)
    selected = select_window_from_intervals(est[..., 2], est[..., 3], flags[..., 1])[0]
    return LepskiResult(candidates[selected], tuple(_as_reports(candidates, Y.shape, est, flags)))


def corollary_window(n: int, T: int, t0: float, zeta: float, C0: float = 1.0) -> int:
    """Theoretically calibrated window length
    round(t0 / (t0 zeta + 2) * ln(C0 n T)), clamped to [0, T-2]. T must be
    at least 2, the shortest horizon that takes a window, and zeta a finite
    real >= 0: an infinite overlap constant calibrates no window.

    Nondecreasing in n*T for fixed (t0, zeta, C0).
    """
    _positive("t0", t0)
    _positive("C0", C0)
    _integer("n", n, 1)
    _integer("T", T, 2)
    _finite("zeta", zeta, 0)
    k = int(np.round(t0 / (t0 * zeta + 2.0) * math.log(C0 * n * T)))
    return max(0, min(k, T - 2))
