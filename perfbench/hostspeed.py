"""The host's speed, sampled while the benchmark runs.

On a shared virtual machine the same work takes from 1x to about 1.8x the
CPU time, switching within seconds and drifting over minutes with the load
other guests put on the host.  CPU-time figures of one run therefore
differ from those of the next by tens of percent, whatever the program does.

``HostSpeed.sampling()`` arms a CPU-time interval timer (``ITIMER_PROF``);
on each tick the signal handler runs a fixed pure-Python reference loop and
times it.  The mean loop time over a stretch of the run tells how fast the
host ran the interpreter in that stretch, and ``scale(first, last)`` =
``REFERENCE_NS`` / (mean time of samples ``first`` to ``last``) converts the
CPU time of work done while they were taken to CPU time at the reference
speed: the speed at which one reference loop takes ``REFERENCE_NS``.  Work
that spans fewer than ``WINDOW`` samples is scaled by the last ``WINDOW``.
The loop's own time is counted in ``busy_ns``, so callers subtract it from
what they time.

Times are thread CPU time (``tracing.clock_ns``).
"""

from __future__ import annotations

import contextlib
import math
import signal

from tracing import clock_ns

INTERVAL_S = 0.01
WINDOW = 20
REFERENCE_ITERATIONS = 200
# Fixes the unit only: one loop took about this long on the 2-vCPU Xeon
# virtual machine the benchmark was built on, in its usual (slower) state.
REFERENCE_NS = 250_000

# Set-up time (a fresh interpreter importing flowcalc) does not track the
# reference loop: its CPU time moves with less than half of the loop's.  Its
# yardstick is a fresh interpreter importing a fixed set of standard-library
# modules, which took about REFERENCE_START_S on that machine.
REFERENCE_START = ("import argparse, csv, decimal, email.parser, fractions, http.client, json,"
                   " unittest, xml.dom.minidom")
REFERENCE_START_S = 0.17

_KEYS = tuple(f"k{i}" for i in range(64))
_TABLE = {key: i / 64 for i, key in enumerate(_KEYS)}


def reference_loop(n: int = REFERENCE_ITERATIONS) -> float:
    """Fixed interpreter work like flowcalc's scalar paths: dict lookups,
    float arithmetic, ``math.exp`` and ``%.17g`` formatting.  It creates no
    container, so it never triggers the cyclic garbage collector."""
    acc = 0.0
    for i in range(n):
        acc += math.exp(-(_TABLE[_KEYS[i & 63]] + acc * 1e-9))
        acc += len("%.17g" % acc) * 1e-12
    return acc


class HostSpeed:
    """Reference-loop samples taken on a CPU-time timer."""

    def __init__(self) -> None:
        self.busy_ns = 0
        self._busy_after = [0]  # busy_ns after each sample

    @property
    def samples(self) -> int:
        return len(self._busy_after) - 1

    def _sample(self, signum=None, frame=None) -> None:
        start = clock_ns()
        reference_loop()
        self.busy_ns += clock_ns() - start
        self._busy_after.append(self.busy_ns)

    @contextlib.contextmanager
    def sampling(self):
        """Take ``WINDOW`` samples at once, then one every ``INTERVAL_S`` of
        process CPU time."""
        for _ in range(WINDOW):
            self._sample()
        previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)

    def mean_ns(self) -> float:
        return self.busy_ns / self.samples

    def scale(self, first: int, last: int) -> float:
        """Factor from CPU time spent while samples ``first`` to ``last``
        were taken to CPU time at the reference speed."""
        n = min(max(last - first, WINDOW), last)
        return REFERENCE_NS * n / (self._busy_after[last] - self._busy_after[last - n])
