"""The machine's current speed, gauged with a fixed pure-Python reference load.

The shared host this benchmark was built on changes speed by itself: the
same scenario's CPU time moved between 200 and 345 ms within seven minutes,
in spells lasting tens of seconds, with nothing else running in the
guest.  Its wall time read the same, so CPU time cannot hide that: the
instructions themselves ran slower.  An untraced run therefore gauges the
speed with :func:`reference_load` several times in each slice and scales
every sample the slice produced by ``NOMINAL_S / mean(gauges)``.  A reported
time is then the CPU time the call would have taken at the nominal
speed.  The reference load is the benchmark's own code, so no change to
the program moves it: it allocates almost nothing and runs with the
cyclic garbage collector off, so the size of the program's heap cannot
reach it either.
"""

from __future__ import annotations

import gc
import heapq
from statistics import fmean
from time import process_time
from typing import List, Sequence

#: Events of one reference load: about a tenth of a second.
EVENTS = 60_000
#: CPU seconds of one reference load at the nominal speed: about the
#: median of 200 loads on a 2-vCPU Xeon (Sapphire Rapids) KVM guest.
NOMINAL_S = 0.085


class _Station:
    __slots__ = ("queue", "sent")

    def __init__(self) -> None:
        self.queue: List[int] = []
        self.sent = 0


def reference_load(events: int = EVENTS) -> float:
    """Run a small discrete-event loop of the simulator's kind; its CPU seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = process_time()
        stations = [_Station() for _ in range(16)]
        heap = [(0.0, 0, 0)]
        state, seen = 12345, {}
        for serial in range(1, events):
            now, _, target = heapq.heappop(heap)
            station = stations[target]
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            station.queue.append(state)
            if len(station.queue) > 8:
                station.queue.pop(0)
                station.sent += 1
            seen[state & 255] = seen.get(state & 255, 0) + 1
            heapq.heappush(heap, (now + (state % 1000) * 1e-6, serial, state % 16))
            if len(heap) < 64:
                heapq.heappush(heap, (now + 1e-3, serial, target))
        return process_time() - started
    finally:
        if enabled:
            gc.enable()


def scale(gauges: Sequence[float]) -> float:
    """The factor that turns CPU time measured among ``gauges`` into nominal CPU time."""
    return NOMINAL_S / fmean(gauges)
