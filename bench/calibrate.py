"""The machine's speed, measured by a fixed reference kernel between calls.

On a shared virtual machine the same pure-Python code runs up to twice as
slow from one second to the next, and whole runs differ by 20% or more.
Two things cause it.  The host takes the CPU away for tens of
milliseconds at a time (steal time in /proc/stat); CLOCK, the process's CPU
time, leaves that out where wall time does not.  And the code runs slower
while other tenants share the core and its caches; that shows in CPU time
too.  For the second, the benchmark times a fixed kernel of its own, about
1 ms of pure Python (breadth-first searches and a small tuple enumeration,
no library code), interleaved with the workload: once for every
PROBE_EVERY_S of call time, so the kernel samples the machine at the same
moments as the calls it accompanies.  Each call's time is reported scaled
by REFERENCE_S over the kernel's mean time in the runs around it
(`local_scales`): the CPU time the call would have taken on a machine that
runs the kernel in REFERENCE_S.  The unscaled times, and the wall time of
the loop, are kept in the results file.

A library change cannot change the kernel, which only reads the benchmark's
own data; garbage collection is off while it runs.  CPU time counts every
thread of the process but not other processes: work moved into child
processes would not be timed, and run.py warns when a run has any.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from collections import deque

# The clock of every end-to-end time: CPU time of the whole process.
CLOCK = time.process_time

# The kernel's time the reported times are scaled to: about its mean on the
# 2-vCPU x86-64 virtual machine the baseline was taken on.
REFERENCE_S = 1.0e-3
# One kernel run per this much call time.
PROBE_EVERY_S = 0.02
# Kernel runs after each timed set-up, at least.
MIN_PROBES = 5
# Kernel runs a call's scale is taken from, at least: about 1 s of calls.
NEIGHBOURS = 100


def _kernel_graph(n: int = 40, p: float = 0.15, seed: int = 7) -> dict[int, set[int]]:
    rng = random.Random(seed)
    adj: dict[int, set[int]] = {u: set() for u in range(n)}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].add(v)
                adj[v].add(u)
    return adj


_ADJ = _kernel_graph()


def kernel() -> int:
    """Breadth-first search from every vertex of a fixed graph, then an
    enumeration of small lattice points; returns a checksum."""
    total = 0
    for s in _ADJ:
        dist = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in _ADJ[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        total += sum(dist.values())
    points = [(a, b, c) for a in range(8) for b in range(8) for c in range(8) if (a + b + c) % 3 == 0]
    return total + len(points)


CHECKSUM = kernel()


def timed_kernel() -> float:
    clock = CLOCK
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        got = kernel()
        dt = clock() - t0
    finally:
        if enabled:
            gc.enable()
    if got != CHECKSUM:
        raise AssertionError(f"reference kernel returned {got}, not {CHECKSUM}")
    return dt


class Probe:
    """Kernel times taken alongside some timed work."""

    def __init__(self, every: float = PROBE_EVERY_S) -> None:
        self.every = every
        self.owed = 0.0
        self.times: list[float] = []

    def after(self, spent: float, at_least: int = 0) -> tuple[int, int]:
        """Run the kernel once for every `every` seconds of work timed since
        the last kernel run, and at least `at_least` times.  Returns the
        range of `times` these runs fill."""
        self.owed += spent
        runs = max(int(self.owed / self.every), at_least)
        self.owed = max(0.0, self.owed - runs * self.every)
        first = len(self.times)
        for _ in range(runs):
            self.times.append(timed_kernel())
        return first, len(self.times)

    def scale(self) -> float:
        """REFERENCE_S over the kernel's mean time: multiply a time measured
        alongside these runs by it."""
        if not self.times:
            self.times.append(timed_kernel())
        return REFERENCE_S / statistics.fmean(self.times)

    def local_scales(self, ranges: list[tuple[int, int]], neighbours: int = NEIGHBOURS) -> list[float]:
        """The scale of each call, given the ranges `after` returned for
        it: REFERENCE_S over the kernel's mean time in the runs from
        `neighbours` / 2 before the call's own runs to the end of those, or
        to `neighbours` runs in all if that reaches further.  A long call
        is scaled mostly by the runs it was owed, made right after it; a
        short one by those of the second or so around it."""
        if not self.times:
            self.times.append(timed_kernel())
        prefix = [0.0]
        for t in self.times:
            prefix.append(prefix[-1] + t)
        last = len(self.times)
        out = []
        for first, end in ranges:
            lo = min(max(0, first - neighbours // 2), last - 1)
            hi = max(end, min(last, lo + neighbours), lo + 1)
            out.append(REFERENCE_S * (hi - lo) / (prefix[hi] - prefix[lo]))
        return out
