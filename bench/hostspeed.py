"""Host speed probe: a fixed pure-Python loop timed while the measured calls run.

On a shared host the speed of a core changes by 1.5-2x for spells of seconds
to minutes, as other tenants come and go, and the same call then takes 1.5-2x
as long. A run that happens to fall in a slow spell reads slower than one in
a fast spell, by more than any bound a benchmark could keep. So while a pass
runs, a timer signal interrupts it every PROBE_INTERVAL seconds to time a
fixed loop that depends on no package code. Each stretch of a call between
two probes is scaled by REF_PROBE_S over the mean time of those two probes:
the call's time at the host speed at which the loop takes REF_PROBE_S. The
probes' own time is left out of every call, and the raw wall times are
printed beside the scaled ones. A probe runs inside whatever trace span is
open, so the per-layer times of a traced pass include about 2% of probes.
"""

from __future__ import annotations

import bisect
import signal
import time
from contextlib import contextmanager

PROBE_ITERATIONS = 20_000
# Seconds the probe takes in a fast spell of a 2-vCPU cloud VM with Python 3.11;
# only a unit: the scaled times are in seconds at this probe speed.
REF_PROBE_S = 0.0020
PROBE_INTERVAL = 0.1  # seconds between two probes


def _step(x: float, k: int) -> float:
    return x * 0.5 + k


def probe() -> float:
    """Seconds one run of the fixed loop takes now.

    Floats and small ints only, so the loop allocates no object the garbage
    collector tracks and takes the same time whatever the heap holds.
    """
    t0 = time.perf_counter()
    x = 0.0
    for k in range(PROBE_ITERATIONS):
        x = _step(x, k & 7)
        if x > 1e6:
            x -= 1e6
    return time.perf_counter() - t0


class SpeedLog:
    """Probes the host speed on a timer and scales the calls recorded meanwhile."""

    def __init__(self):
        self.starts = []  # perf_counter at the start of each probe
        self.ends = []  # perf_counter at the end of each probe
        self.calls = []  # (name, start, end) of each measured call
        self._busy = False

    def _probe(self, *_):
        if self._busy:  # a late signal during a probe
            return
        self._busy = True
        start = time.perf_counter()
        probe()
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self._busy = False

    @contextmanager
    def running(self):
        """Probe now, every PROBE_INTERVAL seconds while the block runs, and at its end."""
        self._probe()
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            self._probe()

    def record(self, name: str, start: float, end: float):
        self.calls.append((name, start, end))

    def _stretches(self, start, end):
        """(seconds, mean probe seconds) of each stretch of [start, end] between probes."""
        k = max(bisect.bisect_right(self.ends, start) - 1, 0)
        while k + 1 < len(self.starts) and self.ends[k] < end:
            overlap = min(end, self.starts[k + 1]) - max(start, self.ends[k])
            if overlap > 0:
                yield overlap, (self.ends[k] - self.starts[k]
                                + self.ends[k + 1] - self.starts[k + 1]) / 2
            k += 1

    def totals(self):
        """(raw, scaled): name -> summed seconds of its calls without the probes, wall and
        at the reference probe speed. Call once the `running` block has ended."""
        raw, scaled = {}, {}
        for name, start, end in self.calls:
            for seconds, speed in self._stretches(start, end):
                raw[name] = raw.get(name, 0.0) + seconds
                scaled[name] = scaled.get(name, 0.0) + seconds * REF_PROBE_S / speed
        return raw, scaled
