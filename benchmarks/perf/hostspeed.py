"""A frozen yardstick for how fast this host is *while the work runs*.

The reference host is a 2-vCPU VM that shares its cores with other
tenants.  Identical work takes up to twice as long for minutes at a
time (one ``sm_cold`` round: 5.4 s one evening, 8.2 s the next morning,
10.6 s that afternoon), and within a minute an identical 20 ms loop
takes anywhere from 18 to 65 ms.  Raw host times of one commit
therefore differ by more than any bound a benchmark could usefully set.

What does repeat is the program's time multiplied by the host's speed
over the same interval.  ``Yardstick`` measures that speed: every
``PERIOD_S`` of wall time a timer interrupts the main thread and runs
one small fixed kernel (~2.5 ms of CPU); a sample's *speed* is the
kernel's reference time over the CPU time it just took — 1.0 on the
reference host at a quiet moment, 0.7 when the host is 1/0.7 times
slower.  A timed interval is then reported in **reference-host
seconds**: its length, less the yardstick's own CPU time inside it,
times the mean speed sampled inside it.

The kernel is many tiny numpy calls, because that is what tracks the
program.  Over seven minutes in which a one-second slice of ``sm_cold``
ranged 2.2x and a ``warm_sweep`` round 2.5x, the slope of log round
time on log kernel time was 0.97 and 1.06 for this kernel, against
1.36 and 1.72 for a pure-Python integer loop and 1.24 and 1.43 for a
heap-and-dict event loop (both slow down less than the program does,
so they under-correct).  In reference-host seconds the medians of
eight-round runs then spread (interquartile range / median) 1.8 % and
5.0 %, where the raw ones spread 9.9 % and 9.8 %.  README.md has the
ten-seed figures for every workload.

Nothing here may change once results have been committed: the kernel
and ``REFERENCE_S`` *are* the unit.  They import nothing from ``repro``,
so no change to the program can move them.
"""

from __future__ import annotations

import bisect
import operator
import signal
import time
from typing import List, Tuple

import numpy as np

#: CPU seconds ``_lanes`` takes on the reference host at a quiet moment
#: (the fastest of 3 000 back-to-back calls when this file was written).
REFERENCE_S = 0.00233

#: Wall time between samples; with ~2.5 ms a sample, 5 % of the host.
PERIOD_S = 0.05

_LANES = np.arange(64, dtype=np.int64)
_VALUES = np.linspace(0.0, 1.0, 64)


def _lanes() -> np.ndarray:
    """Many tiny numpy calls: interpreter dispatch, C calls and small
    allocations, the shape of the simulator's per-lane work."""
    acc = _LANES.copy()
    values = _VALUES.copy()
    for step in range(1100):
        acc = acc + _LANES
        values = np.where(acc > step, values * 1.0001, values)
    return acc


_TAKEN = operator.itemgetter(0)  # when a sample was taken


class Yardstick:
    """Samples the host's speed on a timer while the ``with`` block runs.

    Main thread only (that is where Python runs signal handlers).
    Children started inside the block inherit neither the timer nor any
    pending signal, so pool workers and the daemon are undisturbed.
    """

    def __init__(self) -> None:
        #: (``perf_counter`` when taken, CPU seconds it cost, speed).
        self.samples: List[Tuple[float, float, float]] = []

    def _sample(self, signum, frame) -> None:
        # Timed on the thread's CPU clock: when pool workers keep every
        # core busy, wall time would count how long this thread waited
        # for one, which is not the host's speed.
        taken = time.perf_counter()
        start = time.thread_time()
        _lanes()
        cost = time.thread_time() - start
        self.samples.append((taken, cost, REFERENCE_S / cost))

    def __enter__(self) -> "Yardstick":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def between(self, start: float, end: float) -> Tuple[float, float]:
        """(yardstick CPU seconds, mean host speed) of the samples taken
        in ``[start, end]``.

        An interval too short to hold a sample takes the mean speed of
        the whole run so far (1.0 when there is no sample at all).
        """
        inside = self.samples[
            bisect.bisect_left(self.samples, start, key=_TAKEN) : bisect.bisect_left(
                self.samples, end, key=_TAKEN
            )
        ]
        own = sum(cost for _, cost, _ in inside)
        speeds = [speed for _, _, speed in inside or self.samples]
        return own, (sum(speeds) / len(speeds) if speeds else 1.0)
