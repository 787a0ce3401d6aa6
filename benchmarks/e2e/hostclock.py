"""Timings corrected for how fast the shared host runs at the moment.

A small shared host slows as a whole, by up to half, in phases of
seconds to minutes, longer than a unit of work and often longer than a
run.  Medians within a run cannot remove a phase that covers the whole
run.  So each timed unit of work is bracketed by a fixed reference, and
its time is divided by the host's slowdown: the mean of the two
reference times around it over the reference's time on a quiet host.
The reference is part of the benchmark, so a change to the program
cannot change it; a program that is truly slower still reads slower.

The reference has to slow the way the work does.  For work in one
process, such as ``simulate``, it is :func:`reference_loop`, pure-Python
dict work.  For the RESP workload, whose requests cross two processes
and the loopback device, it is a round trip to the benchmark's own echo
server (see ``workloads.EchoReference``).  Measured on the 2-CPU host
where the baseline was recorded: over 30 s windows of four minutes, the
raw median time of one ``simulate`` call ranged over 11.5% while its
ratio to the adjacent dict loop ranged over 1.3%.  Over twelve 18 s runs
of depth-1 RESP requests in a noisy phase, the interquartile range of
the median latency was 20% raw, 11% over the dict loop and 3.6% over the
echo round trip (p99: 36%, 12%, 7.4%; requests per second: 22%, 5.0%,
2.5%).
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, List

#: Seconds :func:`reference_loop` takes on the recording host (2-CPU
#: Intel Xeon VM, CPython 3.11) in a quiet phase.  Corrected timings read
#: as if the host had run at that speed throughout.
REFERENCE_S = 0.025


def reference_loop() -> int:
    """Fixed CPU work: dict stores and lookups on a table small enough
    to stay in cache."""
    table = {}
    total = 0
    for i in range(150_000):
        table[i & 8191] = i
        total += table.get((i * 7) & 8191, 0)
    return total


def time_reference_loop() -> float:
    """Seconds one :func:`reference_loop` takes now."""
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


class HostClock:
    """Measures the host's slowdown around each timed unit of work.

    ``time_reference`` times one run of the reference and
    ``reference_s`` is what it takes on a quiet host.  Divide a unit's
    raw seconds by :meth:`slowdown` to get its seconds at that speed.
    """

    def __init__(self,
                 time_reference: Callable[[], float] = time_reference_loop,
                 reference_s: float = REFERENCE_S) -> None:
        self._time_reference = time_reference
        self._reference_s = reference_s
        self.slowdowns: List[float] = []
        self._last = time_reference()

    def slowdown(self) -> float:
        """The host's slowdown during the work that just ended.

        Call it right after the timed work: it times the reference
        again, and the mean of that and the previous reference time,
        over ``reference_s``, is the slowdown."""
        now = self._time_reference()
        slowdown = (self._last + now) / 2 / self._reference_s
        self._last = now
        self.slowdowns.append(slowdown)
        return slowdown

    def median_slowdown(self) -> float:
        return statistics.median(self.slowdowns) if self.slowdowns else 1.0
