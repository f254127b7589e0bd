"""Host-speed adjustment of measured times.

The benchmark shares a few cores of a host with other tenants, and the
speed at which those cores run this process drifts by tens of percent over
seconds to minutes. On a 2-core Xeon VM the same fig3-sweep op, same seed,
took 1.45 s to 2.82 s within one 40 s run, all of it user CPU time, so the
slowdown is not time spent off the CPU. Raw op times of one commit then
spread between runs by more than any useful regression bound.

So while an interval is timed, a timer signal runs a tiny fixed probe every
``PERIOD_S`` seconds: a loop of small numpy operations that never calls
``pomdp_ope``, like the many short numpy calls the library makes. The probe
also runs once just before and once just after the interval. The
interval's time, without the probes' own time, is scaled by
``REFERENCE_S`` over the mean probe time. A host that runs both more slowly
cancels out; a change to the library moves the interval and not the probe,
so it shows in full. On the VM above this cut the spread of one workload's
op times from 0.31 to 0.07 of their median (interquartile range, 34 ops).

The adjusted time reads as seconds on a host where the probe takes
``REFERENCE_S``, its typical time on the VM above. Each run's result file
keeps both the raw and the adjusted times.

The probe only runs between Python bytecodes, so an op that spends a long
stretch inside one C call is sampled less often during it; the probes
before and after keep at least two samples per interval.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# Typical probe time on the 2-core Xeon VM the benchmark was written on. A
# constant: changing it rescales every adjusted time.
REFERENCE_S = 95e-6
# Seconds between probes while an interval runs.
PERIOD_S = 0.025

_SMALL = np.ones(64)


def probe() -> float:
    """Seconds the fixed probe takes now."""
    t0 = time.perf_counter()
    a = _SMALL
    for _ in range(40):
        a = a * 0.5 + _SMALL
    return time.perf_counter() - t0


@dataclass
class Interval:
    """A timed interval: wall seconds without the probes run inside it, and
    the probe times sampled before, during and after it."""

    elapsed: float = 0.0
    probes: tuple[float, ...] = ()

    @property
    def adjusted(self) -> float:
        """``elapsed`` at the reference host speed."""
        return self.elapsed * REFERENCE_S / statistics.fmean(self.probes)


@contextmanager
def timed():
    """Time the ``with`` body, probing host speed around and inside it.
    Must run in the main thread, which owns the timer signal."""
    interval = Interval()
    samples = [probe()]

    def on_alarm(signum, frame):
        samples.append(probe())

    previous = signal.signal(signal.SIGALRM, on_alarm)
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    try:
        yield interval
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = time.perf_counter()
        signal.signal(signal.SIGALRM, previous)
        interval.elapsed = t1 - t0 - sum(samples[1:])
        samples.append(probe())
        interval.probes = tuple(samples)

