"""Machine-speed samples that scale the reported times.

On a shared virtual machine the speed can flip between states up to 1.8x
apart from one second to the next (measured on a 2-vCPU Intel Xeon guest).
Raw wall times then spread across runs more than any bound worth setting.
So the run also times a fixed pure-Python loop that uses no oscmlab code,
between solver calls and at least every SAMPLE_EVERY_S, and reports each
call at the reference speed:

    reported = wall * REFERENCE_S / mean(loop time just before, just after)

A change to oscmlab moves the wall times and leaves the loop alone, so it
moves the reported figures by the same share. On that guest the scaling
cut the run-to-run spread of a 90 ms solve from 39% to 2%. It does not
help where the calls wait on memory rather than the interpreter, so a
workload can turn it off (workloads.Workload.scaled). Raw wall times are
kept in the run report.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from time import perf_counter

# About the loop time on the reference machine (Intel Xeon, 2 vCPUs,
# Python 3.11.7) in its faster state.
REFERENCE_S = 0.004
SAMPLE_EVERY_S = 0.1


def reference_loop() -> int:
    table, total = {}, 0
    for i in range(20_000):
        table[i & 1023] = i
        total += table.get((i * 7) & 1023, 0) % 13
    return total


class Speedometer:
    """Loop samples over a run; with scaled=False they are only recorded."""

    def __init__(self, scaled=True):
        self.scaled = scaled
        self.starts, self.ends = [], []
        reference_loop()  # the first run in a process is slow; not a sample

    def sample(self):
        start = perf_counter()
        reference_loop()
        self.starts.append(start)
        self.ends.append(perf_counter())

    def tick(self):
        """Sample when SAMPLE_EVERY_S has passed since the last sample."""
        if not self.ends or perf_counter() - self.ends[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self, start, end) -> float:
        """REFERENCE_S over the loop time of the samples on either side of
        [start, end]; one side alone at the ends of the run."""
        if not self.scaled:
            return 1.0
        before = bisect_right(self.ends, start) - 1
        after = bisect_left(self.starts, end)
        near = [i for i in (before, after) if 0 <= i < len(self.starts)]
        loop_s = sum(self.ends[i] - self.starts[i] for i in near) / len(near)
        return REFERENCE_S / loop_s

    def scale(self, start, seconds):
        return seconds * self.factor(start, start + seconds)

    @property
    def loop_seconds(self):
        return [e - s for s, e in zip(self.starts, self.ends)]
