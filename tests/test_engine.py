"""The batched all-windows engine: replications as one-unit estimates
against the public estimator on each unit alone."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import blocked_lag_sums_reference, window_weights_reference

from pomdp_ope import ConfigurationError, EstimatorConfig, estimate_with_ci
from pomdp_ope import estimators as est_mod
from pomdp_ope.estimators import _LOG_SPACE_THRESHOLD, _estimate_windows

ALPHA = 0.1


def _assert_matches_per_unit(Y, RHO, ks, bandwidth):
    out, flags = _estimate_windows(Y[:, None], RHO[:, None], ks, ALPHA, bandwidth)
    assert out.shape == (Y.shape[0], len(ks), 4)
    assert flags.shape == (Y.shape[0], len(ks), 2)
    for i in range(Y.shape[0]):
        for j, k in enumerate(ks):
            rep = estimate_with_ci(
                [RHO[i]], [Y[i]], EstimatorConfig(k=k, alpha=ALPHA, bandwidth=bandwidth)
            )
            # A batch row and a lone unit take the same products, sums and
            # dot products, whatever the other rows hold.
            assert tuple(out[i, j]) == (rep.value, rep.variance, rep.ci_lo, rep.ci_hi)
            assert flags[i, j, 0] == ("hac_clamped" in rep.flags)
            assert flags[i, j, 1] == ("non_finite" in rep.flags)


@pytest.mark.parametrize("R", [1, 2, 7])
# Below one lag, non-integer, integer (the last lag weight is exactly 0),
# and at least T (every lag up to T-1 used).
@pytest.mark.parametrize("bandwidth", [0.6, 2.7, 3.0, 45.0])
@pytest.mark.parametrize("ks", [(-1, 0, 1, 2, 5), (4, 0, -1, 2, 4)])
def test_engine_matches_per_unit_path(R, bandwidth, ks):
    rng = np.random.default_rng(1000 * R + int(10 * bandwidth))
    T = 30
    Y = rng.normal(1.0, 0.5, size=(R, T))
    RHO = rng.choice([0.0, 0.5, 1.0, 2.0], size=(R, T))
    _assert_matches_per_unit(Y, RHO, ks, bandwidth)


# Zero ratios annihilate windows; exp(9) sends a row to log space from k=3.
RATIO_VALUES = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 4.0, float(np.exp(9.0))]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_engine_matches_per_unit_path_property(data):
    R = data.draw(st.integers(1, 4), label="R")
    T = data.draw(st.integers(2, 160), label="T")
    # Any window set, -1 and duplicates allowed, in any order.
    ks = data.draw(
        st.lists(st.integers(-1, min(T - 2, 8)), min_size=1, max_size=6), label="ks"
    )
    bandwidth = data.draw(st.floats(0.3, 2.0 * T), label="bandwidth")
    Y = data.draw(arrays(np.float64, (R, T), elements=st.floats(-10.0, 10.0)), label="Y")
    RHO = data.draw(
        arrays(np.float64, (R, T), elements=st.sampled_from(RATIO_VALUES)), label="RHO"
    )
    _assert_matches_per_unit(Y, RHO, ks, bandwidth)


def test_engine_mixes_log_space_and_direct_rows_at_one_window():
    rng = np.random.default_rng(5)
    T = 60
    Y = rng.normal(size=(2, T))
    RHO = np.stack([rng.uniform(0.5, 2.0, size=T), np.exp(rng.normal(0.0, 2.0, size=T))])
    RHO[0, ::7] = 0.0
    RHO[1, 5] = np.exp(9.0)  # row 1 crosses the threshold between k=2 and k=3
    k = 3
    row_max = [np.abs(np.log(r[r > 0])).max() for r in RHO]
    assert (k + 1) * row_max[0] <= _LOG_SPACE_THRESHOLD < (k + 1) * row_max[1]
    assert k * row_max[1] <= _LOG_SPACE_THRESHOLD
    _assert_matches_per_unit(Y, RHO, (-1, 0, 1, 2, k), bandwidth=4.2)


def test_log_space_decision_reads_each_rows_extreme_ratios():
    # Row 0 passes the threshold at k = 3 only through its smallest positive
    # ratio, row 1 only through its largest, and row 2 has no positive ratio.
    # Rows 0 and 1 hold zeros too, which the decision must not count.
    rng = np.random.default_rng(17)
    T = 40
    Y = rng.normal(size=(3, T))
    RHO = np.stack([rng.uniform(0.8, 1.25, size=T), rng.uniform(0.8, 1.25, size=T), np.zeros(T)])
    RHO[0, 7], RHO[1, 11] = np.exp(-9.0), np.exp(9.0)
    RHO[:2, [3, 20]] = 0.0
    assert 3 * 9.0 <= _LOG_SPACE_THRESHOLD < 4 * 9.0
    ks = [-1, 0, 1, 2, 3, 4]
    with np.errstate(over="ignore", invalid="ignore"):  # as the engine runs the pass
        got = dict(est_mod._window_terms(Y, RHO, ks))
    for k in ks[1:]:
        for i in range(3):
            want = window_weights_reference(RHO[i], k, _LOG_SPACE_THRESHOLD) * Y[i, k:]
            np.testing.assert_array_equal(got[k][i].view(np.int64), want.view(np.int64))
    _assert_matches_per_unit(Y, RHO, ks, bandwidth=3.5)


def test_engine_log_space_rows_survive_overflowing_direct_products():
    # Every window of 4 or 8 steps has product 1, but the direct partial
    # products of the second row overflow to inf or underflow to 0.
    rng = np.random.default_rng(8)
    T = 64
    Y = rng.normal(size=(2, T))
    big = np.exp(360.0)
    RHO = np.stack(
        [rng.uniform(0.5, 2.0, size=T), np.tile([big, big, 1 / big, 1 / big], T // 4)]
    )
    _assert_matches_per_unit(Y, RHO, (3, 7), bandwidth=4.0)
    out, flags = _estimate_windows(Y[:, None], RHO[:, None], (3, 7), ALPHA, 4.0)
    assert np.isfinite(out).all()
    assert not flags.any()


def test_engine_clamps_negative_variance(monkeypatch):
    # Same fake lag window as test_hac_negative_output_clamped.
    monkeypatch.setattr(est_mod, "parzen_kernel", lambda x: np.where(x > 0, -10.0, 1.0))
    y = np.array([[1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0]])
    rho = np.ones_like(y)
    out, flags = _estimate_windows(y[:, None], rho[:, None], [0], ALPHA, 1.5)
    assert flags[0, 0].tolist() == [True, False]
    value, variance, lo, hi = out[0, 0]
    assert variance == 0.0
    assert lo == value == hi
    rep = estimate_with_ci(
        [rho[0]], [y[0]], EstimatorConfig(k=0, alpha=ALPHA, bandwidth=1.5)
    )
    assert rep.variance == 0.0
    assert rep.flags == ("hac_clamped",)
    assert (rep.value, rep.ci_lo, rep.ci_hi) == (value, lo, hi)


def test_engine_rejects_short_series_and_negative_windows():
    Y = np.zeros((2, 1, 5))
    with pytest.raises(ConfigurationError):
        _estimate_windows(Y, np.ones((2, 1, 5)), [4], ALPHA, 2.0)
    with pytest.raises(ConfigurationError):
        _estimate_windows(Y, np.ones((2, 1, 5)), [-2], ALPHA, 2.0)


def test_lag_sums_are_added_in_lag_order_on_one_row():
    # Lag 0 and 26 weighted lags of one series: a pairwise sum of them
    # (numpy's reduction over more than 8 contiguous values) would differ in
    # the last bits from the running sum the engine keeps.
    # At 10,000 steps, the most that take one dot per lag.
    T, bandwidth = 10_000, 27.0
    rng = np.random.default_rng(27)
    Y = rng.normal(size=(1, 1, T)) + 0.2 * rng.standard_cauchy(size=(1, 1, T))
    out, _ = _estimate_windows(Y, np.ones_like(Y), [-1], ALPHA, bandwidth)
    y = Y[0]
    yt = y - y.mean(axis=1).reshape(1, 1).mean(axis=1)[:, None]
    acc = float(np.vecdot(yt, yt)[0])
    psi = est_mod.parzen_kernel(np.arange(1, 27) / bandwidth)
    for j in range(1, 27):
        acc += float(2.0 * psi[j - 1] * np.vecdot(yt[:, :-j], yt[:, j:])[0])
    assert out[0, 0, 1] == acc / T


def _series(T: int, seed: int) -> np.ndarray:
    """A (1, 1, T) series with heavy tails, whose sums in another order
    differ in their last bits."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(1, 1, T)) + 0.2 * rng.standard_cauchy(size=(1, 1, T))


def _lag_weights(T: int, bandwidth: float) -> tuple[np.ndarray, np.ndarray]:
    """The engine's lags of nonzero weight below T and their weights 2 Psi(j/B)."""
    psi = est_mod.parzen_kernel(np.arange(1, min(int(bandwidth), T - 1) + 1) / bandwidth)
    lags = np.flatnonzero(psi) + 1
    return lags, 2.0 * psi[lags - 1]


@pytest.mark.parametrize(
    "T, bandwidth, J",
    [
        (10_001, 10_001 ** (1 / 3), 21),
        # Three blocks and an odd tail, with 58 lags that cross block edges.
        (3 * 4096 + 5, 59.0, 58),
        # Lag 0 alone.
        (20_000, 0.5, 0),
        # More lags than one block, so the last J steps take blocks too.
        (10_500, 5000.5, 5000),
    ],
    ids=["10001", "blocks-and-tail", "lag-0", "long-lags"],
)
def test_long_series_sum_their_lags_in_blocks(T, bandwidth, J):
    # Over 10,000 steps each lag's in-range products are summed per block of
    # 4,096 steps and the block sums added in order, so no dot is long
    # enough for OpenBLAS to split across threads.
    Y = _series(T, seed=T)
    out, _ = _estimate_windows(Y, np.ones_like(Y), [-1], ALPHA, bandwidth)
    yt = Y[0, 0] - Y[0].mean(axis=1).reshape(1, 1).mean(axis=1)[0]
    sums = blocked_lag_sums_reference(yt, J, est_mod._LAG_BLOCK)
    lags, weights = _lag_weights(T, bandwidth)
    assert lags.max(initial=0) == J
    acc = sums[0]
    for j, w in zip(lags, weights):
        acc += w * sums[j]
    assert out[0, 0, 1] == acc / T


def test_engine_matches_per_unit_path_on_long_series():
    # Each row of a batch takes its own blocked lag sums.
    Y = np.concatenate([_series(10_001, seed)[0] for seed in (1, 2, 3)])
    RHO = np.exp(0.1 * np.random.default_rng(4).normal(size=Y.shape))
    _assert_matches_per_unit(Y, RHO, [-1, 0, 3], 21.6)


@pytest.mark.parametrize("T, J", [(20_000, 27), (3 * 4096 + 5, 58), (10_500, 5000)])
def test_blocked_lag_sums_agree_with_exact_sums(T, J):
    y = _series(T, seed=J)[0, 0]
    got = est_mod._blocked_lag_sums(y, J)
    for j in [*range(0, J, max(1, J // 60)), J]:
        products = y[: T - j] * y[j:]
        # Relative to the sum of the products' magnitudes: a lag sum near
        # zero has no relative accuracy to keep.
        assert abs(got[j] - math.fsum(products)) <= 1e-13 * math.fsum(np.abs(products))


def test_overflowing_long_series_is_flagged_non_finite():
    # Windows of two ratios of 1e200 overflow; the blocked lag sums of
    # 20,000 steps leave the estimate flagged, unwarned and written as null.
    T = 20_000
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = estimate_with_ci(
            [np.full(T, 1e200)], [np.ones(T)], EstimatorConfig(k=1, bandwidth=30.0)
        )
    assert rep.flags == ("non_finite",)
    doc = rep.to_dict()
    assert doc["value"] is None and doc["variance"] is None and doc["ci"] == [None, None]


@pytest.mark.parametrize(
    "row",
    [
        [0.0, 0.0, 0.0],
        [0.0, 0.0, 2.5],
        [3.0, 0.0, 0.0],
        [0.0, np.inf, 2.0],
        [np.inf, 0.0, 0.0],
        [np.inf, np.inf, np.inf],
        [5e-324, 1.0, 0.0],
        [1e300, np.exp(-40.0), 0.0, 1e-300],
    ],
    ids=["zeros", "one-last", "one-first", "inf-and-finite", "inf-alone", "all-inf",
         "subnormal", "log-space"],
)
def test_smallest_positive_ratio_of_each_row(row):
    RHO = np.array([row, np.ones(len(row)), row[::-1]])
    positive = RHO > 0.0
    want = np.where(positive.any(axis=1), np.where(positive, RHO, np.inf).min(axis=1), 0.0)
    got = est_mod._smallest_positive(RHO)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, want)
