"""Tests of the benchmark itself: span arithmetic, the host-speed
adjustment and a tiny-size smoke run.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hostspeed import REFERENCE_S, Interval, timed
from spans import Tracer, layer_totals, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_the_union_of_direct_children():
    # 0: root [0, 10]; 1 and 2 overlap ([1, 3] and [2, 5]) and count once;
    # 3 sticks out of the root and is clipped to [9, 10]; 4 is a grandchild
    # and is charged to 1, not to the root.
    start = [0.0, 1.0, 2.0, 9.0, 1.5]
    end = [10.0, 3.0, 5.0, 12.0, 2.5]
    parent = [-1, 0, 0, 0, 1]
    got = self_times(start, end, parent)
    assert got == pytest.approx([10.0 - 4.0 - 1.0, 2.0 - 1.0, 3.0, 3.0, 1.0])


def test_self_time_of_a_leaf_is_its_duration():
    assert self_times([2.0], [2.5], [-1]) == [0.5]


def test_tracer_records_nesting_and_restores_patches():
    import types

    mod = types.SimpleNamespace()
    tracer = Tracer()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    patches = [
        (mod, "inner", tracer.wrap("inner", mod.inner)),
        (mod, "outer", tracer.wrap("outer", mod.outer)),
    ]
    originals = (mod.inner, mod.outer)
    with Tracer.installed(patches):
        assert mod.outer(1) == 4
    assert (mod.inner, mod.outer) == originals
    assert list(tracer.parent) == [-1, 0]
    totals = layer_totals(tracer)
    assert totals["outer"]["calls"] == totals["inner"]["calls"] == 1
    assert totals["outer"]["self_s"] == pytest.approx(
        totals["outer"]["total_s"] - totals["inner"]["total_s"]
    )


def test_adjusted_time_scales_by_reference_over_mean_probe():
    # probes at 1x and 3x the reference average to 2x: the host ran at half speed
    assert Interval(2.0, (REFERENCE_S, 3 * REFERENCE_S)).adjusted == pytest.approx(1.0)


def test_timed_probes_inside_and_takes_the_probes_out():
    before = signal.getsignal(signal.SIGALRM)
    with timed() as interval:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    # one probe before, one after and at least two at 25 ms intervals inside
    assert len(interval.probes) >= 4
    inside = sum(interval.probes[1:-1])
    assert 0.2 - inside - 1e-3 <= interval.elapsed <= 0.2 - inside + 0.05


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(
            line.split()[:1] == [m["name"]] and m["unit"] in line.split()[2:] for line in lines
        ), f"{m['name']} not printed with unit {m['unit']}"


def test_fails_without_the_library(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "bench" / f.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "fig3-sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
