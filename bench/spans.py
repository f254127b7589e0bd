"""In-memory spans for the traced benchmark run.

The traced run wraps the module-level functions through which each layer
of ``pomdp_ope`` is called. Every call records one span -- name, start,
end, parent span and op id -- in flat arrays, and counters are added at the
same boundaries. Nothing is written until the run ends.

Tracing is single-threaded: the traced ops run with the library's default
worker count (one), so a span's parent is the innermost span still open.
"""

from __future__ import annotations

import inspect
import math
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Span and counter store for one traced benchmark run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` recording a span per call; ``count(counts, fn, args,
        kwargs, result)`` adds counters when the call returns."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            i = len(self.name_id)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(math.nan)
            stack.append(i)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
            if count is not None:
                count(self.counts, fn, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @staticmethod
    @contextmanager
    def installed(patches):
        """Set each ``(owner, attribute, replacement)`` for the duration of
        the block, restoring the originals on exit."""
        saved = []
        try:
            for owner, attr, replacement in patches:
                saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, replacement)
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def save(self, path) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover. Children are clipped to the parent's interval and
    overlapping children are counted once."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = [e - s for s, e in zip(start, end)]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        run_lo = run_hi = None
        for s, e in sorted((max(start[c], lo), min(end[c], hi)) for c in kids):
            if e <= s:
                continue
            if run_hi is None or s > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = s, e
            else:
                run_hi = max(run_hi, e)
        if run_hi is not None:
            covered += run_hi - run_lo
        out[p] -= covered
    return out


def layer_totals(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: call count, summed self time and summed duration."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    totals = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in tracer.names}
    for nid, s, e, own in zip(tracer.name_id, tracer.start, tracer.end, selfs):
        entry = totals[tracer.names[nid]]
        entry["calls"] += 1
        entry["self_s"] += own
        entry["total_s"] += e - s
    return totals


# ---------------------------------------------------------------------------
# Layer map: which library functions are wrapped, under which span name, and
# what each boundary counts.


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_steps(counts, fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    counts["core.simulate_batch.steps"] += len(a["seeds"]) * (a["T"] + a["burn_in"])


def _count_oracle_steps(counts, fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    counts["glucose.oracle.steps"] += a["runs"] * (a["hours"] + a["burn_in"])


def _count_weights(counts, fn, args, kwargs, out):
    counts["estimators.window_weights.elements"] += out.size
    counts["estimators.window_weights.nonzero"] += int((out != 0.0).sum())


def _count_lags(counts, fn, args, kwargs, out):
    # Called thousands of times per op: bind by position when possible,
    # since a signature bind per call would inflate the tracing overhead.
    a = _bound(fn, args, kwargs) if kwargs else dict(zip(("terms_per_unit", "bandwidth"), args))
    max_lag = int(math.floor(a["bandwidth"]))
    counts["estimators.lag_sums.lags"] += sum(
        max(0, min(max_lag, t.size - 1)) for t in a["terms_per_unit"]
    )
    counts["estimators.hac_clamped"] += int(bool(out[1]))


class _NormProxy:
    """Stands in for ``scipy.stats.norm`` inside the estimators module so
    that its quantile function can be traced."""

    def __init__(self, norm, ppf):
        self._norm = norm
        self.ppf = ppf

    def __getattr__(self, attr):
        return getattr(self._norm, attr)


def layer_patches(tracer: Tracer) -> list[tuple]:
    """``(owner, attribute, traced replacement)`` for every layer boundary,
    with span names taken from the package's modules.

    A function imported by name into another module is patched in each
    namespace it is called from. Targets a later version of the library no
    longer has are skipped, so their layer reads as absent.
    """
    from pomdp_ope import cli, core, estimators, harness
    from pomdp_ope.instances import glucose

    targets = [
        # Op roots: the public entry points the workloads call.
        (harness, "run_sweep", "harness", None),
        (harness, "run_lepski_study", "harness", None),
        (cli, "main", "cli", None),
        (glucose, "target_value_oracle", "glucose.oracle", _count_oracle_steps),
        # Layers below them.
        (core, "simulate_batch", "core.simulate_batch", _count_steps),
        (harness, "simulate_batch", "core.simulate_batch", _count_steps),
        (harness.FiniteEnvironment, "rewards_and_ratios", "harness.rewards_and_ratios", None),
        (harness, "derive_seed", "rng.derive_seed", None),
        (glucose, "derive_seed", "rng.derive_seed", None),
        (harness, "estimate_with_ci_from_ratios", "estimators.estimate", None),
        (estimators, "estimate_with_ci_from_ratios", "estimators.estimate", None),
        (estimators, "window_weights", "estimators.window_weights", _count_weights),
        (estimators, "_hac_from_terms", "estimators.lag_sums", _count_lags),
        (estimators, "parzen_kernel", "estimators.parzen_kernel", None),
        (harness, "select_window_from_intervals", "estimators.select", None),
        (estimators, "select_window_from_intervals", "estimators.select", None),
        (cli, "importance_ratios", "estimators.importance_ratios", None),
        (glucose, "_simulate_arrays", "glucose.recursion", None),
        (glucose, "_draw_exogenous", "glucose.draws", None),
    ]
    patches = [
        (owner, attr, tracer.wrap(name, vars(owner)[attr], count))
        for owner, attr, name, count in targets
        if attr in vars(owner)
    ]
    norm = vars(estimators).get("norm")
    if norm is not None:
        ppf = tracer.wrap("estimators.z_quantile", norm.ppf)
        patches.append((estimators, "norm", _NormProxy(norm, ppf)))
    return patches
