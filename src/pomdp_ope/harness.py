"""Seeded Monte Carlo experiment runner.

Replications are independent work items: replication r of horizon index ti
draws its trajectory from the stream hash(master_seed, ti, r), every window
length is evaluated on that same trajectory (a paired design), and results
are gathered into preallocated per-replication arrays before aggregation.
Replications run in one serial loop over chunks sized by ``chunk_ranges``
(or ``chunk_size``); each chunk is simulated into (rewards, ratios) arrays
and evaluated by the batched estimator engine. Finite environments read
the array simulator ``core._simulate_arrays`` directly and gather ratios
from one policy-ratio table, so no ``Trajectory`` is built on the way.
Output is bit-identical for a given spec whatever the chunk size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .core import Policy, PomdpModel, _simulate_arrays, chunk_ranges, policy_value_exact
from .errors import ConfigurationError
from .estimators import (
    BandwidthRule,
    DEFAULT_BANDWIDTH_RULE,
    _estimate_windows,
    _policy_ratios,
    _select_finite,
)
from .instances.glucose import glucose_rewards_and_ratios, target_value_oracle
from .instances.hard import HardInstanceParams, hard_instance_pair, params_from_mixing_time
from .instances.toy import toy_model
from .rng import derive_seed

DEFAULT_BURN_IN = 100


# ---------------------------------------------------------------------------
# Environments


class FiniteEnvironment:
    """Finite POMDP with exact value oracle."""

    def __init__(self, name: str, model: PomdpModel, behavior: Policy, target: Policy):
        self.name = name
        self.model = model
        self.behavior = behavior
        self.target = target

    def rewards_and_ratios(
        self, T: int, burn_in: int, seeds: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        x, _, w, y = _simulate_arrays(self.model, self.behavior, T, burn_in, seeds)
        return y, _policy_ratios(x, w, self.target, self.behavior, env=self.name)

    def oracle(self) -> tuple[float, dict]:
        return policy_value_exact(self.model, self.target), {"kind": "exact", "tol": 1e-12}


class GlucoseEnvironment:
    """Blood-glucose simulator with a cached Monte Carlo value oracle."""

    name = "glucose"

    def rewards_and_ratios(
        self, T: int, burn_in: int, seeds: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        return glucose_rewards_and_ratios(T, burn_in, seeds)

    def oracle(self) -> tuple[float, dict]:
        return target_value_oracle()


def hard_params(text: str) -> HardInstanceParams:
    """Hard-instance parameters from a 'Q=3,t0=1,zeta=0.69,M1=1,M2=2' spec,
    optionally with ',Delta=0.5'; Delta defaults to M1 / 2."""
    kv: dict[str, float] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigurationError(f"bad hard-instance parameter {part!r}")
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in ("Q", "t0", "zeta", "M1", "M2", "Delta"):
            raise ConfigurationError(f"unknown hard-instance parameter {key!r}")
        try:
            kv[key] = float(value)
        except ValueError as exc:
            raise ConfigurationError(f"bad value for {key!r}: {value!r}") from exc
    for key in ("Q", "t0", "zeta", "M1", "M2"):
        if key not in kv:
            raise ConfigurationError(f"hard-instance spec missing {key!r}")
    return params_from_mixing_time(
        Q=int(kv["Q"]),
        t0=kv["t0"],
        zeta=kv["zeta"],
        M1=kv["M1"],
        M2=kv["M2"],
        Delta=kv.get("Delta", kv["M1"] / 2.0),
    )


def make_environment(env_id: str):
    """Build a named environment: 'toy', 'glucose', or 'hard:<params>'.

    Hard-instance sweeps simulate and evaluate the first (high-mean)
    instance of the pair.
    """
    if env_id == "toy":
        model, behavior, target = toy_model()
        return FiniteEnvironment("toy", model, behavior, target)
    if env_id == "glucose":
        return GlucoseEnvironment()
    if env_id.startswith("hard:"):
        params = hard_params(env_id[len("hard:") :])
        hi, _lo, behavior, target = hard_instance_pair(params)
        return FiniteEnvironment(env_id, hi, behavior, target)
    raise ConfigurationError(f"unknown environment {env_id!r}")


# ---------------------------------------------------------------------------
# Sweeps


@dataclass(frozen=True)
class SweepSpec:
    """What to run: environment, windows, horizons, replication count, and
    the shared randomness / inference settings."""

    environment: str
    k_values: tuple[int, ...]
    T_values: tuple[int, ...]
    replications: int
    burn_in: int = DEFAULT_BURN_IN
    master_seed: int = 0
    bandwidth: BandwidthRule = DEFAULT_BANDWIDTH_RULE
    alpha: float = 0.05

    def __post_init__(self):
        object.__setattr__(self, "k_values", tuple(int(k) for k in self.k_values))
        object.__setattr__(self, "T_values", tuple(int(t) for t in self.T_values))
        if self.replications < 1:
            raise ConfigurationError("replications must be >= 1")
        if not self.k_values or not self.T_values:
            raise ConfigurationError("k_values and T_values must be nonempty")
        if min(self.k_values) < -1:
            raise ConfigurationError("window lengths must be >= -1")
        if max(self.k_values) >= min(self.T_values):
            raise ConfigurationError("every k must be smaller than every T")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigurationError("alpha must lie in (0, 1)")

    def to_dict(self) -> dict:
        return {
            "environment": self.environment,
            "k_values": list(self.k_values),
            "T_values": list(self.T_values),
            "replications": self.replications,
            "burn_in": self.burn_in,
            "master_seed": self.master_seed,
            "bandwidth": {"kind": self.bandwidth.kind, "value": self.bandwidth.value},
            "alpha": self.alpha,
        }


@dataclass(frozen=True)
class SweepCell:
    """Aggregates for one (k, T) combination."""

    k: int
    T: int
    mse: float
    bias: float
    variance: float
    mean_estimate: float
    ci_coverage: float
    n_replications: int
    # Variance estimates clamped to zero across the cell's replications.
    n_clamped: int = 0


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    cells: tuple[SweepCell, ...]
    oracle: float
    oracle_provenance: dict = field(default_factory=dict)

    def cell(self, k: int, T: int) -> SweepCell:
        for c in self.cells:
            if c.k == k and c.T == T:
                return c
        raise KeyError((k, T))


def _evaluate_windows(
    env, spec: SweepSpec, ti: int, ks: Sequence[int], chunk_size: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """Every window in ks on every replication of horizon index ti, each
    replication an estimate of one unit.

    Returns the (R, K, 4) array of (value, variance, ci_lo, ci_hi) and the
    (R, K) masks of clamped variances and of non-finite estimates; chunks of
    replications are simulated and estimated in turn into their own rows.
    """
    T = spec.T_values[ti]
    R = spec.replications
    out = np.empty((R, len(ks), 4))
    flags = np.empty((R, len(ks), 2), dtype=bool)
    bandwidth = spec.bandwidth.bandwidth(T)
    seeds = [derive_seed(spec.master_seed, ti, r) for r in range(R)]
    for start, stop in chunk_ranges(R, T + spec.burn_in, chunk_size):
        Y, RHO = env.rewards_and_ratios(T, spec.burn_in, seeds[start:stop])
        out[start:stop], flags[start:stop] = _estimate_windows(
            Y[:, None], RHO[:, None], ks, spec.alpha, bandwidth
        )
    return out, flags[..., 0], flags[..., 1]


def run_sweep(
    spec: SweepSpec, workers: int | None = None, chunk_size: int | None = None
) -> SweepResult:
    """Mean-squared-error sweep over (k, T).

    For each horizon index ti and replication r, simulates one behavior
    trajectory from stream hash(master_seed, ti, r) and evaluates every
    window length on it together with its confidence interval. Aggregates
    MSE, bias, variance, mean estimate, CI coverage and the count of
    clamped variance estimates against the environment's value oracle.
    Results do not depend on chunk_size (replications per chunk, >= 1;
    None fits each chunk to the shared step budget of ``chunk_ranges``).
    ``workers`` is accepted and ignored: replications always run serially.
    """
    env = make_environment(spec.environment)
    oracle, provenance = env.oracle()
    ks = spec.k_values
    cells: list[SweepCell] = []
    for ti, T in enumerate(spec.T_values):
        out, clamped, _ = _evaluate_windows(env, spec, ti, ks, chunk_size)
        est = out[:, :, 0]
        cover = (out[:, :, 2] <= oracle) & (oracle <= out[:, :, 3])
        for ki, k in enumerate(ks):
            col = est[:, ki]
            mean_est = float(col.mean())
            bias = mean_est - oracle
            variance = float(col.var())
            cells.append(
                SweepCell(
                    k=k,
                    T=T,
                    mse=float(((col - oracle) ** 2).mean()),
                    bias=bias,
                    variance=variance,
                    mean_estimate=mean_est,
                    ci_coverage=float(cover[:, ki].mean()),
                    n_replications=spec.replications,
                    n_clamped=int(clamped[:, ki].sum()),
                )
            )
    return SweepResult(
        spec=spec, cells=tuple(cells), oracle=oracle, oracle_provenance=provenance
    )


# ---------------------------------------------------------------------------
# Window-selection studies


@dataclass(frozen=True)
class LepskiRow:
    """Selection frequencies and MSE curves for one horizon."""

    T: int
    selection_freq: dict[int, float]
    mse_by_k: dict[int, float]
    mse_selected: float
    # Variance estimates clamped to zero, over all replications and candidates.
    n_clamped: int = 0


@dataclass(frozen=True)
class LepskiStudyResult:
    spec: SweepSpec
    candidates: tuple[int, ...]
    rows: tuple[LepskiRow, ...]
    oracle: float
    oracle_provenance: dict = field(default_factory=dict)

    def row(self, T: int) -> LepskiRow:
        for r in self.rows:
            if r.T == T:
                return r
        raise KeyError(T)


def run_lepski_study(
    spec: SweepSpec,
    candidates: Sequence[int],
    workers: int | None = None,
    chunk_size: int | None = None,
) -> LepskiStudyResult:
    """Adaptive-window study: how often each candidate gets selected per
    horizon, and the MSE of the selected estimator next to every fixed
    window. ``chunk_size`` and ``workers`` behave as in ``run_sweep``."""
    candidates = tuple(int(k) for k in candidates)
    if list(candidates) != sorted(candidates):
        raise ConfigurationError("candidates must be sorted ascending")
    env = make_environment(spec.environment)
    oracle, provenance = env.oracle()
    rows: list[LepskiRow] = []
    for ti, T in enumerate(spec.T_values):
        R = spec.replications
        out, clamped, non_finite = _evaluate_windows(env, spec, ti, candidates, chunk_size)
        est = out[:, :, 0]
        intervals = zip(out[:, :, 2:].tolist(), non_finite.tolist())
        sel = np.array([_select_finite(candidates, *iv) for iv in intervals], dtype=np.int64)
        sel_idx = np.searchsorted(np.asarray(candidates), sel)
        sel_est = est[np.arange(R), sel_idx]
        rows.append(
            LepskiRow(
                T=T,
                selection_freq={
                    k: float((sel == k).mean()) for k in candidates
                },
                mse_by_k={
                    k: float(((est[:, ki] - oracle) ** 2).mean())
                    for ki, k in enumerate(candidates)
                },
                mse_selected=float(((sel_est - oracle) ** 2).mean()),
                n_clamped=int(clamped.sum()),
            )
        )
    return LepskiStudyResult(
        spec=spec,
        candidates=candidates,
        rows=tuple(rows),
        oracle=oracle,
        oracle_provenance=provenance,
    )


# ---------------------------------------------------------------------------
# Rate fits


@dataclass(frozen=True)
class RateFit:
    """OLS fit of log(rmse) against log(nT)."""

    slope: float
    intercept: float
    residuals: tuple[float, ...]
    r_squared: float


def fit_rate(points: Sequence[tuple[float, float]]) -> RateFit:
    """Least-squares slope of log(rmse) vs log(nT) with residual diagnostics.

    Accepts (nT, rmse) pairs; needs at least 3, all strictly positive.
    """
    if len(points) < 3:
        raise ConfigurationError("need at least 3 points to fit a rate")
    nt = np.array([p[0] for p in points], dtype=float)
    rmse = np.array([p[1] for p in points], dtype=float)
    if (nt <= 0).any() or (rmse <= 0).any():
        raise ConfigurationError("rate fit requires strictly positive inputs")
    lx = np.log(nt)
    ly = np.log(rmse)
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    resid = ly - fitted
    total = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 - float((resid**2).sum()) / total if total > 0 else 1.0
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        residuals=tuple(float(r) for r in resid),
        r_squared=r2,
    )


# ---------------------------------------------------------------------------
# Output files


def sweep_result_to_csv(result: SweepResult, path: Union[str, Path]) -> None:
    """CSV with header env,k,T,replications,mse,bias,variance,mean_estimate,
    ci_coverage,oracle; one row per (k, T) cell in spec order."""
    lines = ["env,k,T,replications,mse,bias,variance,mean_estimate,ci_coverage,oracle"]
    for cell in result.cells:
        lines.append(
            f"{result.spec.environment},{cell.k},{cell.T},{cell.n_replications},"
            f"{cell.mse:.17g},{cell.bias:.17g},{cell.variance:.17g},"
            f"{cell.mean_estimate:.17g},{cell.ci_coverage:.17g},{result.oracle:.17g}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def sweep_result_to_json(result: SweepResult) -> dict:
    """Companion document: spec echo plus oracle provenance and the seed
    derivation scheme."""
    return {
        "spec": result.spec.to_dict(),
        "oracle": result.oracle,
        "oracle_provenance": result.oracle_provenance,
        "seed_scheme": "stream(r, ti) = hash(master_seed, T_index=ti, replication=r)",
        "cells": [
            {
                "k": c.k,
                "T": c.T,
                "replications": c.n_replications,
                "mse": c.mse,
                "bias": c.bias,
                "variance": c.variance,
                "mean_estimate": c.mean_estimate,
                "ci_coverage": c.ci_coverage,
            }
            for c in result.cells
        ],
    }


def lepski_study_to_json(result: LepskiStudyResult) -> dict:
    return {
        "spec": result.spec.to_dict(),
        "candidates": list(result.candidates),
        "oracle": result.oracle,
        "oracle_provenance": result.oracle_provenance,
        "rows": [
            {
                "T": row.T,
                "selection_freq": {str(k): v for k, v in row.selection_freq.items()},
                "mse_by_k": {str(k): v for k, v in row.mse_by_k.items()},
                "mse_selected": row.mse_selected,
            }
            for row in result.rows
        ],
    }
