"""CPU clocks, sample statistics, the tail rule, peak memory and the failure ledger.

Every time the benchmark reports is CPU time: the CPU seconds the timed
call cost in this process and, for a request to the server, in the server
too.  The loop is closed and runs one thing at a time, and no timed
interval sleeps, polls or waits on a disk, so on an idle machine CPU time
is the interval's wall time.  On a busy one it leaves out the time the
scheduler gives to other processes.  The untraced run also scales its
times to a nominal machine speed (``reference.py``).
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from pathlib import Path
from time import process_time
from typing import Callable, Dict, List, Sequence, Tuple

#: A reported tail must have at least this many samples above it.
TAIL_BEYOND = 10


class TailError(ValueError):
    """Raised when a tail is asked of too few samples to support it."""


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise ValueError("median of no samples")
    return float(statistics.median(samples))


def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile)``.  With ``n`` sorted samples the value
    at index ``n - 1 - TAIL_BEYOND`` has exactly ``TAIL_BEYOND`` samples
    above it; its percentile is reported as ``100 * (n - TAIL_BEYOND) / n``.
    """
    n = len(samples)
    if n < TAIL_BEYOND + 1:
        raise TailError(
            f"a tail needs at least {TAIL_BEYOND + 1} samples "
            f"({TAIL_BEYOND} beyond it); got {n}"
        )
    ordered = sorted(samples)
    return float(ordered[n - 1 - TAIL_BEYOND]), 100.0 * (n - TAIL_BEYOND) / n


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set size of a live child process, from ``/proc``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def process_cpu_s(pid: int) -> float:
    """CPU seconds the live process ``pid`` has used so far, all its threads together.

    Linux names another process's CPU clock ``MAKE_PROCESS_CPUCLOCK(pid,
    CPUCLOCK_SCHED)``, which is ``(~pid << 3) | 2``; it reads to the
    nanosecond, like this process's own ``process_time``.
    """
    return time.clock_gettime((~pid << 3) | 2)


class CpuClock:
    """CPU seconds of this process plus those of the live processes ``pids``.

    In a closed loop only one of them works at a time, so the clock's
    advance over a request is what the request cost, client and server.
    """

    def __init__(self, *pids: int) -> None:
        self.pids = pids

    def __call__(self) -> float:
        return process_time() + sum(process_cpu_s(pid) for pid in self.pids)


def timed(function: Callable, samples: List[float]) -> Callable:
    """``function`` wrapped to append each call's CPU time, in ms, to ``samples``."""

    def wrapper(*args, **kwargs):
        started = process_time()
        try:
            return function(*args, **kwargs)
        finally:
            samples.append((process_time() - started) * 1e3)

    return wrapper


def canonical(document: object) -> str:
    """The sorted-key JSON text two payloads must share to be byte-identical."""
    return json.dumps(document, sort_keys=True)


class Recorder:
    """Operations attempted and failed, correctness checks, and metrics.

    Every timed or checked operation calls :meth:`attempt`; a non-2xx
    answer, an exception or an output mismatch calls :meth:`fail` with a
    message that names it.  Any failure makes the run incorrect.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.notes: List[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        return not self.failures

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def check(self, ok: bool, message: str) -> bool:
        """Count one checked operation; record ``message`` when it fails."""
        self.attempt()
        if not ok:
            self.fail(message)
        return ok

    def note(self, message: str) -> None:
        self.notes.append(message)

    def metric(self, name: str, value: float, unit: str) -> None:
        if name in self.metrics:
            raise ValueError(f"metric {name!r} reported twice")
        self.metrics[name] = (float(value), unit)

    def p50(self, name: str, samples: Sequence[float], unit: str = "ms") -> None:
        self.metric(name, median(samples), unit)
        self.note(f"{name}: median of {len(samples)} samples")

    def tail(self, name: str, samples: Sequence[float], unit: str = "ms") -> None:
        value, percentile = tail(samples)
        self.metric(name, value, unit)
        self.note(f"{name}: p{percentile:.1f} of {len(samples)} samples "
                  f"({TAIL_BEYOND} beyond it)")

    def summary(self) -> Dict[str, object]:
        """The result object the command prints as its last line."""
        return {
            "correct": self.correct,
            "attempted": max(self.attempted, 1),
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }
