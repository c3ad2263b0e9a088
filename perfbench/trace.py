"""Per-layer attribution for the traced run: cProfile, tracemalloc, counts.

The layers are the program's packages under ``repro/``.  cProfile self
time is grouped by the package of each function's file; C builtins
(``heapq``, numpy, list methods) go to ``native`` and everything else
(stdlib and third-party Python, ``repro``'s top-level modules,
``metrics``, ``mobility``) to ``other``.  Memory retained at the end of a
run is grouped the same way from a tracemalloc snapshot, taken in a pass
of its own because tracemalloc distorts timing.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import pstats
import tracemalloc
from pathlib import Path, PurePath
from time import process_time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments import ScenarioConfig, ScenarioResult, run_scenario
from repro.topology import WirelessNetwork

#: Packages reported as layers, in the order the report lists them.
LAYERS = ("sim", "phy", "mac", "core", "routing", "transport", "traffic",
          "topology", "experiments")
SELF_TIME_GROUPS = LAYERS + ("native", "other")

#: Functions whose call counts are work counters: (package, function name).
SLOT_TICK = ("mac", "_slot_elapsed")
TRANSMISSION = ("phy", "start_transmission")


def layer_of(filename: str) -> str:
    """The layer a profiled function's file belongs to."""
    if filename == "~":
        return "native"
    parts = PurePath(filename).parts
    for index in range(len(parts) - 2, -1, -1):
        if parts[index] == "repro":
            package = parts[index + 1]
            return package if package in LAYERS else "other"
    return "other"


def profile(configs: Sequence[ScenarioConfig]) -> Tuple[float, List[ScenarioResult], Dict]:
    """Run ``configs`` under cProfile; host CPU seconds, results and per-layer figures."""
    profiler = cProfile.Profile()
    started = process_time()
    profiler.enable()
    results = [run_scenario(config) for config in configs]
    profiler.disable()
    host_s = process_time() - started
    self_s = {group: 0.0 for group in SELF_TIME_GROUPS}
    calls = {SLOT_TICK: 0, TRANSMISSION: 0}
    for (filename, _line, function), (_cc, ncalls, tottime, _ct, _callers) in (
        pstats.Stats(profiler).stats.items()
    ):
        layer = layer_of(filename)
        self_s[layer] += tottime
        if (layer, function) in calls:
            calls[(layer, function)] += ncalls
    return host_s, results, {"self_s": self_s, "slot_ticks": calls[SLOT_TICK],
                             "transmissions": calls[TRANSMISSION]}


def retained_kb(config: ScenarioConfig) -> Dict[str, float]:
    """Memory still allocated per layer when ``config``'s run ends.

    The snapshot is taken as ``WirelessNetwork.run_seconds`` returns for
    the last time, while the network built by ``run_scenario`` is alive.
    """
    original = WirelessNetwork.run_seconds
    snapshots: List[tracemalloc.Snapshot] = []

    def run_seconds(network, duration_s):
        original(network, duration_s)
        snapshots[:] = [tracemalloc.take_snapshot()]

    WirelessNetwork.run_seconds = run_seconds
    tracemalloc.start()
    try:
        run_scenario(config)
    finally:
        tracemalloc.stop()
        WirelessNetwork.run_seconds = original
    totals = {layer: 0.0 for layer in LAYERS}
    for stat in snapshots[0].statistics("filename"):
        layer = layer_of(stat.traceback[0].filename)
        if layer in totals:
            totals[layer] += stat.size / 1024.0
    return totals


def sources_digest(root: Path) -> str:
    """Hash of the program's and the benchmark's sources.

    Counts are compared only between runs of the same program measured by
    the same benchmark.
    """
    digest = hashlib.sha256()
    for path in sorted([*(root / "src").rglob("*.py"), *(root / "perfbench").rglob("*.py")]):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def compare_counts(record: Path, counts: Dict[str, float]) -> Optional[List[str]]:
    """Compare ``counts`` with those of the previous traced run stored in ``record``.

    Returns None on the first run, after storing ``counts`` in ``record``;
    otherwise the description of every count that differs (empty when all
    repeat exactly).
    """
    if not record.exists():
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(counts, sort_keys=True))
        return None
    previous = json.loads(record.read_text())
    return [
        f"{name}: {previous.get(name)!r} then {value!r}"
        for name, value in sorted(counts.items())
        if previous.get(name) != value
    ]
