"""The host's speed during a run, read from a fixed reference loop.

The shared hosts this benchmark runs on change speed by 20-50% in phases
that last seconds to minutes, more than the benchmark's bounds, and
interpreted Python work slows with them. So the benchmark times a fixed
reference loop between operations, all through the run, and scales each
batch and per-operation sample by ``REFERENCE_S`` over the median loop time
around it: the time on a host where the loop takes ``REFERENCE_S``. Scaling
each sample by the loop times near it, rather than the run by one figure,
keeps a phase change in the middle of a run from mixing fast and slow
samples. The unscaled figures are printed in the run's detail line.

The loop shares no object with the program and runs with the garbage
collector off after a warm-up pass, so neither the program's code nor the
size of its heap changes how long the loop takes; only the host does. Work
done mostly in C (JSON decoding, unmarshalling) follows the host's phases
less closely than the loop does, so scaling adds noise to it.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import time

REFERENCE_S = 0.0013  # about the loop's time on a quiet 2-vCPU VM
INTERVAL_S = 0.2     # at most one loop per this much run time
WINDOW_S = 1.0       # loop samples this close to a timed sample scale it
NEAREST = 5          # or the nearest ones, if fewer are that close


class HostSpeed:
    def __init__(self) -> None:
        rng = random.Random(0)
        self._table = {f"key-{i}": i for i in range(4096)}
        self._keys = [f"key-{rng.randrange(4096)}" for _ in range(3000)]
        self._floats = [rng.random() for _ in range(3000)]
        self.samples: list[float] = []  # loop seconds
        self.times: list[float] = []    # clock reading at the end of each
        self.interval_s = INTERVAL_S
        self._last = -float("inf")

    def _loop(self) -> int:
        """Dict lookups, integer arithmetic, a sort and string work."""
        total = 0
        for key in self._keys:
            total += self._table[key]
        for i in range(3000):
            total += i * i % 7
        sorted(self._floats)
        total += len("-".join(self._keys[:750]).split("-"))
        return total

    def sample(self) -> float:
        """Time the loop once; returns the seconds spent, loop included."""
        begin = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._loop()  # warm the caches the program's work has evicted
            start = time.perf_counter()
            self._loop()
            end = time.perf_counter()
            self.samples.append(end - start)
            self.times.append(end)
        finally:
            if enabled:
                gc.enable()
        self._last = time.perf_counter()
        return self._last - begin

    def tick(self) -> float:
        """Sample if ``interval_s`` has passed since the last sample; returns
        the seconds spent (0.0 when it did not sample)."""
        if time.perf_counter() - self._last < self.interval_s:
            return 0.0
        return self.sample()

    def scaled(self, seconds: float, end: float) -> float:
        """A timed sample of ``seconds`` that ended at clock reading ``end``,
        scaled by the median of the loop samples taken during it or within
        ``WINDOW_S`` of it (the ``NEAREST`` ones, if fewer)."""
        lo = bisect.bisect_left(self.times, end - seconds - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        near = self.samples[lo:hi]
        if len(near) < NEAREST:
            middle = end - seconds / 2
            order = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - middle))
            near = [self.samples[i] for i in order[:NEAREST]]
        return seconds * REFERENCE_S / statistics.median(near)
