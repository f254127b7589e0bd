"""The benchmark's workloads: inputs, one op, and the checks on its output.

An op is one call into a public entry point of ``pomdp_ope``. Each op gets
its own seed, derived from the workload seed and the op index, so no two
ops of a run share inputs. Every op's output is checked against invariants
that hold for any seed; op 0 at the reference seed is also compared with
the results recorded in ``reference.json``.

Why each workload exists:

- ``fig3-sweep``: the paper's figure-3 MSE study. Many short series times
  seven windows, so per-call estimator overhead dominates and simulation is
  a small share. A batched estimator engine shows its gain here.
- ``select-study``: the window-selection study. Long series, up to 21 lags
  and 9 windows, with the selection scan running and simulation a larger
  share. An engine tuned for short series or for wide arrays could lose
  time or memory here.
- ``glucose-oracle``: the glucose Monte Carlo value oracle at its default
  size with a fresh seed, so the per-process cache never serves it. Pure
  simulation with no estimator work: estimator changes must leave it alone.
- ``cli-lepski``: one-trajectory window selection through the command
  line, the single-trajectory user. Simulation runs at width one, and it is
  the only workload where the CLI layer runs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Tolerance for comparing an op's output with the recorded reference.
# Relative 1e-9 catches a wrong answer (changing one replication moves an
# MSE or a value by far more) and leaves room for last-digit drift from
# reordered floating-point sums. Shares of replications (interval coverage,
# selection frequencies) may move by one replication, because such drift
# at an interval's edge can flip a single comparison.
RTOL = 1e-9
ATOL = 1e-12
SHARE_KEYS = ("ci_coverage", "selection_freq")

REFERENCE_SEED = 1
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Op sizes. "full" is what the benchmark measures; "tiny" only smoke-tests
# the benchmark itself and doubles as each run's warm-up op.
FIG3 = {
    "full": dict(k=tuple(range(-1, 6)), T=(200, 600, 1400), R=250, burn_in=100),
    "tiny": dict(k=(-1, 0, 1, 2), T=(40, 80), R=4, burn_in=20),
}
SELECT = {
    "full": dict(k=tuple(range(-1, 8)), T=(900, 2500, 10000), R=40, burn_in=100),
    "tiny": dict(k=(-1, 0, 1, 2, 3), T=(60, 120), R=3, burn_in=20),
}
GLUCOSE = {
    "full": dict(runs=10_000, hours=1_000),
    "tiny": dict(runs=20, hours=30),
}
CLI = {
    "full": dict(T=20_000, k=tuple(range(-1, 8))),
    "tiny": dict(T=300, k=(-1, 0, 1, 2, 3)),
}


def op_seed(workload: str, seed: int, index) -> int:
    """Seed of op ``index`` of a run; a pure function of its arguments."""
    digest = hashlib.blake2b(f"{workload}/{seed}/{index}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "little")


@dataclass
class Context:
    """What a run builds once, before its first timed op."""

    size: str
    out_dir: Path
    toy_value: float


@dataclass(frozen=True)
class Workload:
    # run(ctx, seed) -> raw result; the only timed part of an op
    run: Callable
    # output(ctx, raw) -> (JSON-like output, counters for a traced op)
    output: Callable
    # check(ctx, seed, output) -> list of problems
    check: Callable


# ---------------------------------------------------------------------------
# Checks


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _share(x) -> bool:
    return _finite(x) and 0.0 <= x <= 1.0


def compare(ref, got, share_atol: float, path: str = "", in_share: bool = False) -> list[str]:
    """Differences between a recorded output and a fresh one, within the
    tolerance stated at the top of this module."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            return [f"{path}: keys differ"]
        out = []
        for key in ref:
            out += compare(
                ref[key], got[key], share_atol, f"{path}.{key}", in_share or key in SHARE_KEYS
            )
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return [f"{path}: lengths differ"]
        out = []
        for i, (r, g) in enumerate(zip(ref, got)):
            out += compare(r, g, share_atol, f"{path}[{i}]", in_share)
        return out
    if isinstance(ref, float) and _finite(got):
        atol = max(ATOL, share_atol) if in_share else ATOL
        if math.isclose(got, ref, rel_tol=RTOL, abs_tol=atol):
            return []
    elif type(ref) is type(got) and ref == got:
        return []
    return [f"{path}: {got!r} != {ref!r}"]


def check_reference(workload: str, output, reference: dict) -> list[str]:
    ref = reference[workload]
    spec = output.get("spec", {}) if isinstance(output, dict) else {}
    share_atol = 1.0 / spec["replications"] + ATOL if "replications" in spec else 0.0
    return [f"reference{p}" for p in compare(ref, output, share_atol)]


def _check_oracle(ctx: Context, doc: dict) -> list[str]:
    if not (_finite(doc.get("oracle")) and math.isclose(doc["oracle"], ctx.toy_value, rel_tol=1e-12)):
        return [f"oracle {doc.get('oracle')!r} != policy_value_exact {ctx.toy_value!r}"]
    return []


def _check_sweep(ctx: Context, seed: int, doc: dict) -> list[str]:
    p = FIG3[ctx.size]
    problems = _check_oracle(ctx, doc)
    if doc["spec"]["master_seed"] != seed:
        problems.append("spec does not echo the op seed")
    cells = doc["cells"]
    if sorted((c["k"], c["T"]) for c in cells) != sorted((k, T) for k in p["k"] for T in p["T"]):
        problems.append("sweep cells do not cover the (k, T) grid")
    for c in cells:
        where = f"cell k={c['k']} T={c['T']}"
        if c["replications"] != p["R"]:
            problems.append(f"{where}: replications {c['replications']}")
        if not all(_finite(c[f]) for f in ("mse", "bias", "variance", "mean_estimate")):
            problems.append(f"{where}: non-finite value")
            continue
        if c["mse"] < 0 or c["variance"] < 0:
            problems.append(f"{where}: negative mse or variance")
        if not math.isclose(c["mse"], c["bias"] ** 2 + c["variance"], rel_tol=1e-9, abs_tol=1e-15):
            problems.append(f"{where}: mse != bias^2 + variance")
        if not _share(c["ci_coverage"]):
            problems.append(f"{where}: coverage {c['ci_coverage']!r} outside [0, 1]")
    return problems


def _check_study(ctx: Context, seed: int, doc: dict) -> list[str]:
    p = SELECT[ctx.size]
    problems = _check_oracle(ctx, doc)
    if doc["spec"]["master_seed"] != seed:
        problems.append("spec does not echo the op seed")
    if doc["candidates"] != list(p["k"]) or [r["T"] for r in doc["rows"]] != list(p["T"]):
        problems.append("study candidates or horizons differ from the inputs")
    for row in doc["rows"]:
        where = f"row T={row['T']}"
        freq = row["selection_freq"]
        if sorted(freq) != sorted(str(k) for k in p["k"]):
            problems.append(f"{where}: selection keys are not the candidates")
        if not all(_share(v) for v in freq.values()):
            problems.append(f"{where}: frequency outside [0, 1]")
        elif not math.isclose(sum(freq.values()), 1.0, abs_tol=1e-9):
            problems.append(f"{where}: frequencies sum to {sum(freq.values())!r}")
        mses = list(row["mse_by_k"].values()) + [row["mse_selected"]]
        if not all(_finite(v) and v >= 0 for v in mses):
            problems.append(f"{where}: MSE not finite and >= 0")
    return problems


def _check_glucose(ctx: Context, seed: int, doc: dict) -> list[str]:
    p = GLUCOSE[ctx.size]
    problems = []
    if not (_finite(doc["value"]) and -3.0 <= doc["value"] <= 0.0):
        problems.append(f"oracle value {doc['value']!r} outside the utility range [-3, 0]")
    prov = doc["provenance"]
    # A cached answer would carry the seed of the call that filled the
    # cache; every op's seed is fresh, so a matching seed shows the value
    # was computed for this op.
    if prov.get("seed") != seed:
        problems.append(f"provenance seed {prov.get('seed')!r} is not the op seed {seed}")
    if (prov.get("runs"), prov.get("hours")) != (p["runs"], p["hours"]):
        problems.append("provenance size differs from the request")
    return problems


def _check_cli(ctx: Context, seed: int, doc: dict) -> list[str]:
    p = CLI[ctx.size]
    problems = []
    if doc.get("selected_k") not in p["k"]:
        problems.append(f"selected_k {doc.get('selected_k')!r} is not a candidate")
    reports = doc.get("reports", [])
    if [r.get("k") for r in reports] != list(p["k"]):
        problems.append("reports do not follow the candidates")
    for r in reports:
        where = f"report k={r.get('k')}"
        lo, hi = r["ci"]
        if not all(_finite(v) for v in (r["value"], r["variance"], lo, hi)):
            problems.append(f"{where}: non-finite value")
        elif not (lo <= r["value"] <= hi and r["variance"] >= 0):
            problems.append(f"{where}: interval does not contain the estimate")
        if r["n_units"] != 1 or r["t_used"] != p["T"] - max(r["k"], 0):
            problems.append(f"{where}: unit count or length wrong")
        if not set(r["flags"]) <= {"hac_clamped"}:
            problems.append(f"{where}: unknown flags {r['flags']!r}")
    return problems


# ---------------------------------------------------------------------------
# Ops. Entry points are looked up on their module at call time, so the
# traced run's wrappers are the ones called.


def sweep_spec(params: dict, seed: int):
    from pomdp_ope import harness

    return harness.SweepSpec(
        environment="toy",
        k_values=params["k"],
        T_values=params["T"],
        replications=params["R"],
        burn_in=params["burn_in"],
        master_seed=seed,
    )


def _run_sweep(ctx: Context, seed: int):
    from pomdp_ope import harness

    return harness.run_sweep(sweep_spec(FIG3[ctx.size], seed))


def _sweep_output(ctx: Context, result):
    from pomdp_ope import harness

    return harness.sweep_result_to_json(result), {}


def _run_study(ctx: Context, seed: int):
    from pomdp_ope import harness

    p = SELECT[ctx.size]
    return harness.run_lepski_study(sweep_spec(p, seed), p["k"])


def _study_output(ctx: Context, result):
    from pomdp_ope import harness

    return harness.lepski_study_to_json(result), {}


def _run_glucose(ctx: Context, seed: int):
    from pomdp_ope.instances import glucose

    return glucose.target_value_oracle(seed=seed, **GLUCOSE[ctx.size])


def _glucose_output(ctx: Context, result):
    value, provenance = result
    return {"value": value, "provenance": dict(provenance)}, {}


def _cli_out(ctx: Context) -> Path:
    return ctx.out_dir / "cli-lepski.json"


def _run_cli(ctx: Context, seed: int):
    from pomdp_ope import cli

    p = CLI[ctx.size]
    return cli.main(
        [
            "lepski",
            "--env",
            "toy",
            "--T",
            str(p["T"]),
            "--k-set=" + ",".join(str(k) for k in p["k"]),
            "--seed",
            str(seed),
            "--out",
            str(_cli_out(ctx)),
        ]
    )


def _cli_output(ctx: Context, code: int):
    if code != 0:
        raise RuntimeError(f"pomdp-ope lepski exited with code {code}")
    data = _cli_out(ctx).read_bytes()
    return json.loads(data), {"cli.out_bytes": len(data)}


WORKLOADS = {
    "fig3-sweep": Workload(_run_sweep, _sweep_output, _check_sweep),
    "select-study": Workload(_run_study, _study_output, _check_study),
    "glucose-oracle": Workload(_run_glucose, _glucose_output, _check_glucose),
    "cli-lepski": Workload(_run_cli, _cli_output, _check_cli),
}


def build_context(workload: str, size: str, out_dir: Path) -> Context:
    """Import the library, build the inputs and run one tiny warm-up op so
    lazy initialisation is paid before the first timed op."""
    import pomdp_ope
    from pomdp_ope.instances import toy_model

    model, behavior, target = toy_model()
    out_dir.mkdir(parents=True, exist_ok=True)
    ctx = Context(size=size, out_dir=out_dir, toy_value=pomdp_ope.policy_value_exact(model, target))
    warm = Context(size="tiny", out_dir=out_dir, toy_value=ctx.toy_value)
    w = WORKLOADS[workload]
    seed = op_seed(workload, -1, "warm-up")
    doc, _ = w.output(warm, w.run(warm, seed))
    problems = w.check(warm, seed, doc)
    if problems:
        raise RuntimeError(f"warm-up op failed its checks: {problems[:3]}")
    return ctx
