"""Outside-in benchmark of pomdp_ope.

One caller drives the library in a closed loop: each op starts only after
the previous one has finished. Run from the root of a checkout:

    python3 bench/run.py --workload fig3-sweep --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
run that wraps each layer's functions and reports the per-layer metrics and
the tracing overhead. End-to-end times are adjusted for the host's speed
at the moment they were taken (see ``hostspeed.py``); the raw times are
printed beside them. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full result, run record included, also goes to ``.bench_out/``. See
``bench/README.md`` for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer, layer_patches, layer_totals
from workloads import (
    ATOL,
    FIG3,
    REFERENCE_PATH,
    REFERENCE_SEED,
    RTOL,
    WORKLOADS,
    build_context,
    check_reference,
    op_seed,
    sweep_spec,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

# Fresh-process set-ups per end-to-end run; setup_s is their median.
SETUP_RUNS = 3
# op_s_tail is the highest percentile with at least this many ops beyond it.
TAIL_BEYOND = 10
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Per-layer metrics: (name, span the numbers come from, how).
#   self   -- self time of the span, seconds per traced op
#   calls  -- spans per traced op
#   count  -- counter per traced op
#   rate   -- counter per second of the span's inclusive time
#   share  -- first counter over second counter
LAYER_METRICS = [
    ("core.simulate_batch.self_s", "core.simulate_batch", "self", None),
    ("core.simulate_batch.steps_per_s", "core.simulate_batch", "rate", "core.simulate_batch.steps"),
    ("harness.rewards_and_ratios.self_s", "harness.rewards_and_ratios", "self", None),
    ("harness.self_s", "harness", "self", None),
    ("rng.derive_seed.calls", "rng.derive_seed", "calls", None),
    ("rng.derive_seed.self_s", "rng.derive_seed", "self", None),
    ("estimators.estimate.calls", "estimators.estimate", "calls", None),
    ("estimators.estimate.self_s", "estimators.estimate", "self", None),
    ("estimators.window_weights.self_s", "estimators.window_weights", "self", None),
    ("estimators.window_weights.elements", "estimators.window_weights", "count", "estimators.window_weights.elements"),
    (
        "estimators.window_weights.nonzero_share",
        "estimators.window_weights",
        "share",
        ("estimators.window_weights.nonzero", "estimators.window_weights.elements"),
    ),
    ("estimators.lag_sums.self_s", "estimators.lag_sums", "self", None),
    ("estimators.lag_sums.lags", "estimators.lag_sums", "count", "estimators.lag_sums.lags"),
    ("estimators.parzen_kernel.calls", "estimators.parzen_kernel", "calls", None),
    ("estimators.parzen_kernel.self_s", "estimators.parzen_kernel", "self", None),
    ("estimators.z_quantile.calls", "estimators.z_quantile", "calls", None),
    ("estimators.z_quantile.self_s", "estimators.z_quantile", "self", None),
    ("estimators.select.calls", "estimators.select", "calls", None),
    ("estimators.select.self_s", "estimators.select", "self", None),
    ("estimators.importance_ratios.self_s", "estimators.importance_ratios", "self", None),
    ("estimators.hac_clamped.count", "estimators.lag_sums", "count", "estimators.hac_clamped"),
    ("glucose.oracle.steps_per_s", "glucose.oracle", "rate", "glucose.oracle.steps"),
    ("glucose.draws.self_s", "glucose.draws", "self", None),
    ("glucose.recursion.self_s", "glucose.recursion", "self", None),
    ("cli.self_s", "cli", "self", None),
    ("cli.out_bytes", "cli", "count", "cli.out_bytes"),
]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="Outside-in benchmark of pomdp_ope.")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke test only")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument(
        "--write-reference",
        action="store_true",
        help="record op 0 of every workload at the reference seed into bench/reference.json",
    )
    return p.parse_args(argv)


def prepare_environment() -> None:
    """Use the library's default worker count and keep BLAS threads within
    the cores this process may run on. Must run before numpy is imported."""
    os.environ.pop("OPE_THREADS", None)
    cores = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var)
        if value is not None and (not value.isdigit() or int(value) > cores):
            os.environ[var] = str(cores)
    sys.path.insert(0, str(ROOT / "src"))


# ---------------------------------------------------------------------------
# Run record


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    """Content hash of the library sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_record(args) -> dict:
    import numpy
    import scipy

    import pomdp_ope

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "loop": "closed, one caller",
        "machine": {
            "nproc": os.cpu_count(),
            "usable_cores": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pomdp_ope": pomdp_ope.__version__,
        "git_sha": _git_sha(),
        "src_digest": _src_digest(),
        "workers": "library default (OPE_THREADS cleared)",
        "blas": {"library": blas, **{v: os.environ.get(v) for v in BLAS_THREAD_VARS}},
    }


# ---------------------------------------------------------------------------
# Measurement


def setup_times(args) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter until it has imported the
    library, built the inputs and run its warm-up op: raw, and adjusted for
    the host speed that the fresh interpreter probed during its set-up."""
    from hostspeed import Interval

    raw, adjusted = [], []
    for _ in range(SETUP_RUNS if args.size == "full" else 1):
        cmd = [
            sys.executable,
            str(HERE / "run.py"),
            "--setup-probe",
            "--workload",
            args.workload,
            "--size",
            args.size,
        ]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait(timeout=120)
        word, _, probe_s = line.partition(" ")
        if word != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}): {line}{rest}")
        interval = Interval(elapsed, (float(probe_s),))
        raw.append(interval.elapsed)
        adjusted.append(interval.adjusted)
    return raw, adjusted


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the highest percentile
    with TAIL_BEYOND samples beyond it. A run of long ops has too few
    samples for that; it takes a quarter of its samples as the tail instead
    (the maximum below four samples), so the value stays at or above the
    upper quartile."""
    xs = sorted(times)
    n = len(xs)
    beyond = min(TAIL_BEYOND, n // 4)
    return xs[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def run_ops(args, ctx, workload, reference, tracer=None, patches=None) -> dict:
    """Closed loop for ``args.seconds``. With a tracer, odd ops run traced
    and even ops untraced, so the two can be compared. Without a tracer,
    each op's time is also kept adjusted for the host speed probed during
    it."""
    from hostspeed import timed

    plain, plain_adjusted, traced, problems = [], [], [], []
    attempted = failed = 0
    seeds = []
    deadline = time.perf_counter() + args.seconds
    i = 0
    while i < (2 if tracer else 1) or time.perf_counter() < deadline:
        seed = op_seed(args.workload, args.seed, i)
        seeds.append(seed)
        is_traced = tracer is not None and i % 2 == 1
        attempted += 1
        t0 = time.perf_counter()
        adjusted = None
        try:
            if is_traced:
                tracer.op_id = i
                with Tracer.installed(patches):
                    raw = workload.run(ctx, seed)
                elapsed = time.perf_counter() - t0
            elif tracer is not None:
                raw = workload.run(ctx, seed)
                elapsed = time.perf_counter() - t0
            else:
                with timed() as interval:
                    raw = workload.run(ctx, seed)
                elapsed, adjusted = interval.elapsed, interval.adjusted
            doc, counts = workload.output(ctx, raw)
            errs = workload.check(ctx, seed, doc)
            if i == 0 and reference is not None and args.seed == REFERENCE_SEED:
                errs += check_reference(args.workload, doc, reference)
            if is_traced:
                for key, value in counts.items():
                    tracer.counts[key] += value
        except Exception as exc:  # an op that raises is a failed op
            elapsed = time.perf_counter() - t0
            errs = [f"{type(exc).__name__}: {exc}"]
        if is_traced:
            traced.append(elapsed)
        else:
            plain.append(elapsed)
            plain_adjusted.append(adjusted if adjusted is not None else elapsed)
        if errs:
            failed += 1
            problems.append({"op": i, "seed": seed, "problems": errs[:5]})
        i += 1
    if len(set(seeds)) != len(seeds):
        failed += 1
        problems.append({"op": None, "problems": ["two ops of the run shared a seed"]})
    return {
        "plain": plain,
        "plain_adjusted": plain_adjusted,
        "traced": traced,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }


def workers2(args, ctx) -> tuple[float, bool]:
    """One fig3-sweep op at workers=1 and at workers=2: speedup t1/t2 and
    whether both sweep CSVs are byte-identical."""
    from pomdp_ope import harness

    spec = sweep_spec(FIG3[ctx.size], op_seed(args.workload, args.seed, "workers"))
    times, csv = [], []
    for workers in (1, 2):
        t0 = time.perf_counter()
        result = harness.run_sweep(spec, workers=workers)
        times.append(time.perf_counter() - t0)
        path = ctx.out_dir / f"workers{workers}.csv"
        harness.sweep_result_to_csv(result, path)
        csv.append(path.read_bytes())
        path.unlink()
    return times[0] / times[1], csv[0] == csv[1]


def layer_metrics(tracer, n_ops: int) -> tuple[dict, dict]:
    """Per-layer values and, for layers not called, why they read 0."""
    totals = layer_totals(tracer)
    values, absent = {}, {}
    for name, span, how, counter in LAYER_METRICS:
        entry = totals.get(span)
        if not entry or entry["calls"] == 0:
            values[name] = 0
            absent[name] = f"{span} is not called on this workload"
            continue
        if how == "self":
            values[name] = entry["self_s"] / n_ops
        elif how == "calls":
            values[name] = entry["calls"] / n_ops
        elif how == "count":
            values[name] = tracer.counts[counter] / n_ops
        elif how == "rate":
            values[name] = tracer.counts[counter] / entry["total_s"]
        else:
            num, den = (tracer.counts[c] for c in counter)
            values[name] = num / den if den else 0
    return values, absent


def write_reference() -> None:
    """Record the outputs the reference check compares op 0 with. Rewrite
    the file only when a change alters results on purpose and says so."""
    reference = {
        "about": f"op 0 of each workload at --seed {REFERENCE_SEED}, full size; "
        f"compared with rtol {RTOL}, atol {ATOL}, shares of replications within 1/R",
        "src_digest": _src_digest(),
    }
    for name, w in WORKLOADS.items():
        ctx = build_context(name, "full", OUT_DIR)
        seed = op_seed(name, REFERENCE_SEED, 0)
        doc, _ = w.output(ctx, w.run(ctx, seed))
        problems = w.check(ctx, seed, doc)
        if problems:
            raise RuntimeError(f"{name}: reference op fails its checks: {problems[:3]}")
        reference[name] = doc
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "pomdp_ope" / "__init__.py").is_file():
        print(f"error: no pomdp_ope sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    prepare_environment()
    if args.write_reference:
        write_reference()
        return 0
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        from hostspeed import timed

        with timed() as interval:
            build_context(args.workload, args.size, OUT_DIR)
        print(f"ready {statistics.fmean(interval.probes)!r}", flush=True)
        return 0

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    record = run_record(args)
    workload = WORKLOADS[args.workload]
    ctx = build_context(args.workload, args.size, OUT_DIR)
    reference = json.loads(REFERENCE_PATH.read_text()) if args.size == "full" else None

    details: dict = {}
    if args.trace:
        tracer = Tracer()
        res = run_ops(args, ctx, workload, reference, tracer, layer_patches(tracer))
        values, absent = layer_metrics(tracer, len(res["traced"]))
        if args.workload == "fig3-sweep" and len(os.sched_getaffinity(0)) >= 2:
            res["attempted"] += 1
            try:
                speedup, identical = workers2(args, ctx)
                errs = [] if identical else ["workers=1 and workers=2 CSVs differ"]
            except Exception as exc:  # counted like any failed op
                speedup, errs = 0, [f"{type(exc).__name__}: {exc}"]
            values["harness.workers2_speedup"] = speedup
            if errs:
                res["failed"] += 1
                res["problems"].append({"op": "workers", "problems": errs})
        else:
            values["harness.workers2_speedup"] = 0
            absent["harness.workers2_speedup"] = "measured on fig3-sweep only, with at least 2 usable cores"
        plain_p50 = statistics.median(res["plain"])
        values["trace.overhead_s"] = statistics.median(res["traced"]) - plain_p50
        values["trace.overhead_share"] = values["trace.overhead_s"] / plain_p50
        tracer.save(OUT_DIR / f"spans-{args.workload}.npz")
        details["absent"] = absent
        details["spans"] = len(tracer.start)
        notes = {name: f"absent: {why}" for name, why in absent.items()}
    else:
        setups_raw, setups = setup_times(args)
        res = run_ops(args, ctx, workload, reference)
        times, raw_times = res["plain_adjusted"], res["plain"]
        tail_value, tail_pct, beyond = tail(times)
        raw = {
            "setup_s": statistics.median(setups_raw),
            "ops_per_s": len(raw_times) / sum(raw_times),
            "op_s_p50": statistics.median(raw_times),
            "op_s_tail": tail(raw_times)[0],
        }
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(times) / sum(times),
            "op_s_p50": statistics.median(times),
            "op_s_tail": tail_value,
            "success_rate": 1.0 - res["failed"] / res["attempted"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        details["setup_times_s"] = setups_raw
        details["setup_times_adjusted_s"] = setups
        details["raw"] = raw
        details["tail"] = {"percentile": tail_pct, "samples": len(times), "beyond": beyond}
        notes = {name: f"raw {value:.6g}" for name, value in raw.items()}
        notes["setup_s"] += f", median of {len(setups)} fresh-process set-ups"
        notes["op_s_tail"] += f", p{tail_pct:.4g} of {len(times)} ops, {beyond} beyond"
        notes.update({
            "success_rate": f"fail_rate {res['failed'] / res['attempted']:.4g}"
            f" = {res['failed']} failed / {res['attempted']} attempted",
        })

    names = [m["name"] for m in wanted]
    if set(values) != set(names):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(names))} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    details.update(
        op_times_s=res["plain"],
        op_times_adjusted_s=res["plain_adjusted"],
        traced_op_times_s=res["traced"],
        problems=res["problems"],
    )
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"record": record, "result": result, "details": details}, indent=1))

    print("record " + json.dumps(record, sort_keys=True))
    print(
        f"{args.workload}  seed {args.seed}  trace {args.trace}  "
        f"attempted {res['attempted']}  failed {res['failed']}"
    )
    for m in wanted:
        note = notes.get(m["name"], "")
        print(f"  {m['name']:<42} {values[m['name']]:>14.6g} {m['unit']:<8} {note}".rstrip())
    for p in res["problems"][:10]:
        print(f"  FAILED op {p['op']}: {'; '.join(p['problems'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
