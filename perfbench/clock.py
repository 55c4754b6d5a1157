"""A host clock normalized to the machine's momentary speed.

The machines this benchmark runs on are shared: for tens of seconds at a
time, a neighbour's load can make the same Python code run 1.5-2x slower,
which no amount of repetition inside a ten-second run averages away. So
while a :class:`NormalizedClock` runs, an interval timer interrupts the
main thread every :data:`PROBE_PERIOD_S` and times a fixed probe kernel
(see :func:`probe_kernel`). Each wall-time slice between probes is scaled by
``REFERENCE_PROBE_S / probe time`` and the probes' own time is removed:

    normalized seconds = sum over slices of slice x reference / probe

so a reading is "seconds on a machine where the probe takes
:data:`REFERENCE_PROBE_S`". A faster program lowers it; a slower phase of
the machine does not raise it. Raw wall seconds are kept alongside.
"""

from __future__ import annotations

import ast
import heapq
import signal
import statistics
import time
from typing import List, Tuple

import numpy as np

PROBE_PERIOD_S = 0.04
#: probe time on the reference machine, a shared 2-vCPU Xeon VM, in a
#: quiet phase (see README.md)
REFERENCE_PROBE_S = 0.001
#: probes per side of the running median that smooths the speed samples
SMOOTHING = 2

# The probe imitates the program's three kinds of host work, in code of
# its own, so a faster program never makes the probe faster: per-triangle
# numpy rasterization against a depth buffer, generators stepped through
# a heap (the DES), and an AST walk (the lint). A neighbour slows each
# kind by a different factor; imitating them tracks the program within a
# few percent where a plain interpreter loop misses half the slowdown.
_TRIANGLES = np.array(
    [[[10.2, 12.7], [31.5, 15.1], [18.9, 33.3]],
     [[100.4, 40.2], [112.8, 58.6], [95.1, 61.7]],
     [[300.5, 200.5], [318.2, 206.9], [305.3, 221.4]],
     [[500.7, 400.1], [509.9, 431.2], [488.6, 420.8]]] * 2)
_DEPTH = np.ones((480, 640), dtype=np.float32)
_TREE = ast.parse("""
def transfer(self, src, dst, num_bytes, category, gate=None):
    if src == dst:
        raise ValueError("transfer to self")
    self.stats.add_traffic(src, category, num_bytes)
    req = self.egress[src].request()
    try:
        yield req
        if gate is not None and not gate.processed:
            yield gate
        for hop in self.path(src, dst):
            yield self.sim.timeout(num_bytes / self.bandwidth + hop.latency)
    finally:
        self.egress[src].withdraw(req)
""")


def _ticks(count: int):
    yield from range(count)


def probe_kernel() -> float:
    """About 0.7 ms of fixed work on an idle reference machine."""
    acc = 0.0
    for tri in _TRIANGLES:
        v0, v1, v2 = tri[0], tri[1], tri[2]
        x0 = max(int(np.floor(min(v0[0], v1[0], v2[0]))), 0)
        x1 = min(int(np.ceil(max(v0[0], v1[0], v2[0]))), 640)
        y0 = max(int(np.floor(min(v0[1], v1[1], v2[1]))), 0)
        y1 = min(int(np.ceil(max(v0[1], v1[1], v2[1]))), 480)
        gx, gy = np.meshgrid(np.arange(x0, x1, dtype=np.float32) + 0.5,
                             np.arange(y0, y1, dtype=np.float32) + 0.5)
        inside = ((v1[0] - v0[0]) * (gy - v0[1])
                  - (v1[1] - v0[1]) * (gx - v0[0])) > 0
        ys, xs = np.nonzero(inside)
        ys += y0
        xs += x0
        depth = _DEPTH[ys, xs]
        _DEPTH[ys, xs] = np.minimum(depth, 1.0)
        acc += float(depth.sum())
    queue = [(i % 5, i, _ticks(4)) for i in range(30)]
    heapq.heapify(queue)
    while queue:
        when, seq, gen = heapq.heappop(queue)
        try:
            heapq.heappush(queue, (when + next(gen), seq, gen))
        except StopIteration:
            acc += when
    for _ in range(3):
        for node in ast.walk(_TREE):
            acc += isinstance(node, ast.Name)
    return acc


class NormalizedClock:
    """Context manager: ``raw_s`` and ``normalized_s`` of its body."""

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.normalized_s = 0.0
        self.probes: List[Tuple[float, float]] = []  # (start, duration)

    def _on_timer(self, _signum, _frame) -> None:
        start = time.perf_counter()
        probe_kernel()
        self.probes.append((start, time.perf_counter() - start))

    def __enter__(self) -> "NormalizedClock":
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        self._on_timer(None, None)  # a first sample at the start
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self._on_timer(None, None)  # and one at the end
        self.raw_s = end - self.start
        self.normalized_s = self._integrate(end)

    def _integrate(self, end: float) -> float:
        durations = [d for _, d in self.probes]
        smoothed = [
            statistics.median(durations[max(0, i - SMOOTHING):
                                        i + SMOOTHING + 1])
            for i in range(len(durations))]
        # slice i is the work between probe i and probe i + 1; the first
        # probe ran just before the body, the last just after it
        slice_starts = [self.start] + [s + d for s, d in self.probes[1:-1]]
        slice_ends = [s for s, _ in self.probes[1:-1]] + [end]
        total = 0.0
        for i, (begin, finish) in enumerate(zip(slice_starts, slice_ends)):
            probe_s = (smoothed[i] + smoothed[i + 1]) / 2
            total += (finish - begin) * REFERENCE_PROBE_S / probe_s
        return total
