"""Seeded Monte Carlo experiment runner.

Replications are independent work items: replication r of horizon index ti
draws its trajectory from the stream hash(master_seed, ti, r), derived for
all replications of a horizon in one vectorized pass, every window
length is evaluated on that same trajectory (a paired design), and results
are gathered into preallocated per-replication arrays before aggregation.
A sweep or study is one list of jobs, one per (horizon, chunk) in that
order, a chunk being as many replications as fit in the environment's
``chunk_steps`` budget of simulated steps (or ``chunk_size``
replications). Each job simulates its chunk into (rewards, ratios) arrays,
evaluates them with the batched estimator engine and writes only its own
rows of its horizon's arrays. These chunks are the only ones: the
simulators take the seeds they are given. Finite environments budget
``core.CACHE_STEPS``, so the engine's passes over a chunk stay in cache,
but never more than ``core.CHUNK_STEPS`` cells of the simulator's (step,
state) tables; glucose budgets ``core.CHUNK_STEPS``, the memory bound.
The harness only lists the jobs: ``core._run_jobs`` runs them on up to
``workers`` threads (``core.DEFAULT_WORKERS`` says how far they overlap),
each job in its thread's ``core._Workspace``. The chunks in flight hold at
most ``CHUNK_STEPS`` simulated steps between them, so a glucose chunk runs
alone and splits its seed draws instead. Finite
environments gather ratios at the (state, action) cells of
``core._simulate_arrays`` from one policy-ratio table, so no
``Trajectory`` is built on the way. Output is bit-identical for a given
spec whatever the chunk size and worker count.

An environment object is the one place that knows its kind and defaults:
``make_environment`` maps an id to one, built once per id and process and
frozen, and each carries its default burn-in (``core.DEFAULT_BURN_IN`` for
finite POMDPs, ``glucose.DEFAULT_BURN_IN`` for the glucose simulator) and
its chunk budget, simulates rewards and ratios, answers its value oracle and
writes its own trajectory CSV. A ``SweepSpec`` holds its run's one
environment, given or that of its id, and its default burn-in; the command
line hands the spec the one it loaded, so model files sweep too.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Sequence, Union

import numpy as np

from .core import (
    CACHE_STEPS,
    CHUNK_STEPS,
    DEFAULT_BURN_IN,
    Policy,
    PomdpModel,
    _check_dimensions,
    _check_finite,
    _run_jobs,
    _simulate_arrays,
    _worker_count,
    _workspace,
    chunk_ranges,
    policy_value_exact,
    simulate,
)
from .errors import ConfigurationError, _distinct, _integer, _level
from .estimators import (
    BandwidthRule,
    DEFAULT_BANDWIDTH_RULE,
    _estimate_windows,
    _policy_ratios,
    _windows,
    select_window_from_intervals,
)
from .instances import glucose
from .instances.glucose import glucose_simulate, target_value_oracle
from .instances.hard import HardInstanceParams, hard_instance_pair, params_from_mixing_time
from .instances.toy import toy_model
from .rng import _derive_seeds
from .serialization import trajectory_to_csv


# ---------------------------------------------------------------------------
# Environments


@dataclass(frozen=True, eq=False)
class FiniteEnvironment:
    """Finite POMDP with exact value oracle."""

    name: str
    model: PomdpModel
    behavior: Policy
    target: Policy

    default_burn_in = DEFAULT_BURN_IN

    def __post_init__(self):
        # The ratio table has a row per state, read from both policies.
        _check_dimensions(self.model, self.behavior)
        _check_dimensions(self.model, self.target)

    @property
    def chunk_steps(self) -> int:
        """Simulated steps per replication chunk: ``CACHE_STEPS``, or fewer
        when that many steps would take more than ``CHUNK_STEPS`` cells of
        the simulator's (step, state) tables."""
        return min(CACHE_STEPS, CHUNK_STEPS // self.model.num_states)

    def rewards_and_ratios(self, T: int, burn_in: int, seeds: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        cells, y = _simulate_arrays(self.model, self.behavior, T, burn_in, seeds)
        rho = _policy_ratios(
            cells, self.model.x_of_state, self.target, self.behavior, self.name,
            out=_workspace().take(cells.shape),
        )
        _workspace().give(cells)
        return y, rho

    def oracle(self) -> tuple[float, dict]:
        return policy_value_exact(self.model, self.target), {"kind": "exact", "tol": 1e-12}

    def write_trajectory(self, T: int, burn_in: int, seed: int, out: Union[str, IO[str]]) -> None:
        """One behavior-policy trajectory as CSV (header t,x,h,w,y)."""
        trajectory_to_csv(simulate(self.model, self.behavior, T, burn_in, seed), out)


@dataclass(frozen=True, eq=False)
class GlucoseEnvironment:
    """Blood-glucose simulator with a cached Monte Carlo value oracle."""

    name = "glucose"
    default_burn_in = glucose.DEFAULT_BURN_IN
    chunk_steps = CHUNK_STEPS

    def rewards_and_ratios(self, T: int, burn_in: int, seeds: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        return glucose._rewards_and_ratios(T, burn_in, seeds)

    def oracle(self) -> tuple[float, dict]:
        return target_value_oracle()

    def write_trajectory(self, T: int, burn_in: int, seed: int, out: Union[str, IO[str]]) -> None:
        """One behavior-policy trajectory as CSV (header
        t,gl,ex,di,in,y,behavior_prob,target_action)."""
        trajectory_to_csv(glucose_simulate(T, burn_in, "behavior", seed), out)


@dataclass(frozen=True, eq=False)
class HardEnvironment(FiniteEnvironment):
    """A hard pair's high-mean instance, with its parameters and low-mean instance."""

    lo: PomdpModel
    params: HardInstanceParams


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
        if key in kv:
            raise ConfigurationError(f"{key} must not repeat in a hard-instance spec")
        try:
            kv[key] = float(value)
        except ValueError as exc:
            raise ConfigurationError(f"bad value for {key!r}: {value!r}") from exc
    for key in ("Q", "t0", "zeta", "M1", "M2"):
        if key not in kv:
            raise ConfigurationError(f"hard-instance spec missing {key!r}")
    # A whole Q passes as its int, any other Q as given, to be refused by name.
    return params_from_mixing_time(
        Q=int(kv["Q"]) if kv["Q"].is_integer() else kv["Q"],
        t0=kv["t0"],
        zeta=kv["zeta"],
        M1=kv["M1"],
        M2=kv["M2"],
        Delta=kv.get("Delta", kv["M1"] / 2.0),
    )


def make_environment(env_id: str):
    """The named environment: 'toy', 'glucose', or 'hard:<params>', built
    once per id and process (the last eight ids are kept), so every run of
    an id shares one frozen environment and the step tables of its model.

    Hard-instance sweeps simulate and evaluate the first (high-mean)
    instance of the pair.
    """
    if not isinstance(env_id, str):
        raise ConfigurationError(f"environment must be an id or an environment object, got {env_id!r:.80}")
    return _build_environment(env_id)


@functools.lru_cache(maxsize=8)
def _build_environment(env_id: str):
    if env_id == "toy":
        model, behavior, target = toy_model()
        return FiniteEnvironment("toy", model, behavior, target)
    if env_id == "glucose":
        return GlucoseEnvironment()
    if env_id.startswith("hard:"):
        params = hard_params(env_id[len("hard:") :])
        hi, lo, behavior, target = hard_instance_pair(params)
        return HardEnvironment(env_id, hi, behavior, target, lo, params)
    raise ConfigurationError(f"unknown environment {env_id!r}")


# ---------------------------------------------------------------------------
# Sweeps


@dataclass(frozen=True)
class SweepSpec:
    """What to run: environment, windows, horizons, replication count, and
    the shared randomness / inference settings.

    ``environment`` is an environment object, or an id, whose one
    environment (``make_environment``) it takes: the spec keeps the object
    as ``env`` (outside repr and comparison) and takes its name as
    ``environment`` and, for a None ``burn_in``, its default; an
    ``env`` that ``environment`` names, as ``dataclasses.replace`` passes
    them, is kept. Counts and windows must be integers (NumPy integers
    included), ``k_values`` windows the shortest horizon takes, and no
    window or horizon may repeat; all are stored as Python ints, so the
    spec's echo always serializes. The bandwidth rule must give every
    horizon a bandwidth."""

    environment: str | FiniteEnvironment | GlucoseEnvironment
    k_values: tuple[int, ...]
    T_values: tuple[int, ...]
    replications: int
    burn_in: int | None = None
    master_seed: int = 0
    bandwidth: BandwidthRule = DEFAULT_BANDWIDTH_RULE
    alpha: float = 0.05
    env: FiniteEnvironment | GlucoseEnvironment | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        T_values = tuple(_integer("T_values entry", T, 1) for T in self.T_values)
        if not T_values:
            raise ConfigurationError("need at least one T_values entry")
        _distinct("T_values entry", T_values)
        k_values = tuple(_windows("k_values entry", self.k_values, min(T_values)))
        object.__setattr__(self, "T_values", T_values)
        object.__setattr__(self, "k_values", k_values)
        for T in T_values:
            self.bandwidth.bandwidth(T)
        env, kinds = self.environment, (FiniteEnvironment, GlucoseEnvironment)
        if not isinstance(env, kinds):
            kept = isinstance(self.env, kinds) and self.env.name == env
            env = self.env if kept else make_environment(env)
        object.__setattr__(self, "env", env)
        object.__setattr__(self, "environment", env.name)
        if self.burn_in is None:
            object.__setattr__(self, "burn_in", env.default_burn_in)
        for name, minimum in (("replications", 1), ("burn_in", 0), ("master_seed", 0)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), minimum))
        _level("alpha", self.alpha)

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
    spec: SweepSpec, ks: Sequence[int], workers: int | None, chunk_size: int | None
) -> tuple[float, dict, list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """The environment's oracle value and provenance, and every window in
    ks on every replication of every horizon, each replication one unit:
    per horizon, the (R, K, 4) array of (value, variance, ci_lo, ci_hi) and
    the (R, K) masks of clamped variances and of non-finite estimates.

    One job per (horizon, chunk of replications) simulates its chunk,
    estimates it and writes only its own rows; ``core._run_jobs`` runs the
    jobs on ``workers`` threads, at most as many as ``CHUNK_STEPS`` holds of
    the largest job or of the environment's budget, whichever is larger,
    and the first job to fail in job order raises its error. Each job
    works in its runner thread's ``core._Workspace`` and gives back what it
    took; nothing the call returns lives in one.
    """
    workers = _worker_count(workers)
    env = spec.env
    oracle, provenance = env.oracle()
    R = spec.replications
    outs = [np.empty((R, len(ks), 4)) for _ in spec.T_values]
    flags = [np.empty((R, len(ks), 2), dtype=bool) for _ in spec.T_values]
    jobs = []
    for ti, T in enumerate(spec.T_values):
        seeds = _derive_seeds(spec.master_seed, ti, np.arange(R))
        bandwidth = spec.bandwidth.bandwidth(T)
        for start, stop in chunk_ranges(R, T + spec.burn_in, chunk_size, env.chunk_steps):
            jobs.append((ti, T, bandwidth, seeds[start:stop], slice(start, stop)))

    def run(job) -> None:
        ti, T, bandwidth, seeds, rows = job
        Y, RHO = env.rewards_and_ratios(T, spec.burn_in, seeds)
        outs[ti][rows], flags[ti][rows] = _estimate_windows(
            Y[:, None], RHO[:, None], ks, spec.alpha, bandwidth
        )
        _workspace().give(Y, RHO)

    # Chunks in flight hold at most CHUNK_STEPS simulated steps, as one
    # automatic chunk did when they ran one at a time; a glucose chunk, whose
    # budget is CHUNK_STEPS, always runs alone.
    largest = max((rows.stop - rows.start) * (T + spec.burn_in) for _, T, _, _, rows in jobs)
    _run_jobs(run, jobs, min(workers, max(1, CHUNK_STEPS // max(env.chunk_steps, largest))))
    return oracle, provenance, [(out, f[..., 0], f[..., 1]) for out, f in zip(outs, flags)]


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
    None fits each chunk to the environment's ``chunk_steps`` budget) nor
    on ``workers``, which bounds the chunks in flight (an integer >= 1;
    None means ``core.DEFAULT_WORKERS``, or one on a single usable core).
    Chunks run side by side only while together they hold at most
    ``CHUNK_STEPS`` simulated steps, so glucose chunks always run one at a
    time; each glucose chunk's seed draws use the default thread count.
    """
    cells: list[SweepCell] = []
    oracle, provenance, results = _evaluate_windows(spec, spec.k_values, workers, chunk_size)
    for T, (out, clamped, _) in zip(spec.T_values, results):
        est = out[:, :, 0]
        cover = (out[:, :, 2] <= oracle) & (oracle <= out[:, :, 3])
        for ki, k in enumerate(spec.k_values):
            col = est[:, ki]
            mean_est = float(col.mean())
            bias = mean_est - oracle
            # An error past about 1e154 squares to inf without a warning;
            # the core already flags such estimates "non_finite".
            with np.errstate(over="ignore"):
                variance = float(col.var())
                mse = float(((col - oracle) ** 2).mean())
            cells.append(
                SweepCell(
                    k=k,
                    T=T,
                    mse=mse,
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
    window. ``chunk_size`` and ``workers`` behave as in ``run_sweep``: the
    chunks of every horizon run side by side on ``workers`` threads, and
    the result does not depend on either."""
    candidates = tuple(
        _windows("candidates entry", candidates, min(spec.T_values), ascending=True)
    )
    rows: list[LepskiRow] = []
    oracle, provenance, results = _evaluate_windows(spec, candidates, workers, chunk_size)
    for T, (out, clamped, non_finite) in zip(spec.T_values, results):
        est = out[:, :, 0]
        sel = select_window_from_intervals(out[:, :, 2], out[:, :, 3], non_finite)
        sel_est = est[np.arange(spec.replications), sel]
        # As in run_sweep, a squared error past the float range is inf, unwarned.
        with np.errstate(over="ignore"):
            mse_by_k = {
                k: float(((est[:, ki] - oracle) ** 2).mean())
                for ki, k in enumerate(candidates)
            }
            mse_selected = float(((sel_est - oracle) ** 2).mean())
        rows.append(
            LepskiRow(
                T=T,
                selection_freq={k: float((sel == i).mean()) for i, k in enumerate(candidates)},
                mse_by_k=mse_by_k,
                mse_selected=mse_selected,
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

    Accepts (nT, rmse) pairs; needs at least 3, all finite and strictly positive.
    """
    if len(points) < 3:
        raise ConfigurationError("need at least 3 points to fit a rate")
    _check_finite("rate-fit points", points)
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
    ci_coverage,oracle; one row per (k, T) cell in spec order, the env cell
    quoted (RFC 4180) when it holds a comma, a quote or a line break."""
    lines = ["env,k,T,replications,mse,bias,variance,mean_estimate,ci_coverage,oracle"]
    env = result.spec.environment
    if any(c in env for c in ',"\r\n'):
        env = '"' + env.replace('"', '""') + '"'
    for cell in result.cells:
        lines.append(
            f"{env},{cell.k},{cell.T},{cell.n_replications},"
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
