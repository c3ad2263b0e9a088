"""One run of one workload: set-up, service, simulation and warm-cache phases.

The untraced run (``trace=False``) reports the end-to-end metrics; the
traced run (``trace=True``) repeats the phases at fixed sizes with
wrappers and profilers around them and reports the per-layer metrics.
Both check the program's outputs and count every operation attempted and
failed.  No timed interval contains a sleep or a poll, and every time is
CPU time (``measure.py`` says why).
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from time import process_time
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments import ResultCache, ScenarioConfig, SweepRunner, config_digest, run_scenario

from perfbench import reference
from perfbench import trace as tracing
from perfbench.measure import Recorder, canonical, median, self_peak_rss_mb, timed
from perfbench.service import ServicePhase, child_env, prefill
from perfbench.workloads import NOMINAL_SECONDS, Workload

#: Names and units of the untraced run's metrics (``BENCHMARK.json`` end_to_end).
END_TO_END = {
    "host_s_per_sim_s": "s/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "warm_result_p50_ms": "ms",
    "submit_p50_ms": "ms",
    "submit_tail_ms": "ms",
    "turnaround_p50_ms": "ms",
    "turnaround_tail_ms": "ms",
    "metrics_p50_ms": "ms",
}

#: Names and units of the traced run's metrics (``BENCHMARK.json`` per_layer).
PER_LAYER = {
    **{f"{group}.self_s_per_sim_s": "s/s" for group in tracing.SELF_TIME_GROUPS},
    "sim.events_per_sim_s": "1/s",
    "mac.slot_ticks_per_sim_s": "1/s",
    "phy.transmissions_per_sim_s": "1/s",
    **{f"{layer}.retained_kb": "kB" for layer in tracing.LAYERS},
    "experiments.digest_ms": "ms",
    "experiments.cache_store_ms": "ms",
    "experiments.cache_load_ms": "ms",
    "experiments.cache_hits": "count",
    "experiments.cache_misses": "count",
    "service.store.queue_depth_ms": "ms",
    "service.store.counts_ms": "ms",
    "service.queue.claim_ms": "ms",
    "service.worker.run_once_ms": "ms",
    "service.records_read_per_submit": "count",
    "service.records_read_per_claim": "count",
    "service.records_read_per_metrics": "count",
    "service.app.handler_ms": "ms",
    "service.http_status_p50_ms": "ms",
    "service.http_result_p50_ms": "ms",
    "setup.import_s": "s",
    "setup.build_network_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

#: Counts that must repeat exactly between traced runs of one program and seed.
DETERMINISTIC = (
    "sim.events_per_sim_s",
    "mac.slot_ticks_per_sim_s",
    "phy.transmissions_per_sim_s",
    "experiments.cache_hits",
    "experiments.cache_misses",
    "service.records_read_per_submit",
    "service.records_read_per_claim",
    "service.records_read_per_metrics",
)


@dataclass
class Run:
    """Where one run works and what it was asked for."""

    workload: Workload
    seed: int
    seconds: float
    trace: bool
    root: Path
    work: Path
    tamper: Optional[Callable] = None

    def scaled(self, count: int, minimum: int) -> int:
        return max(minimum, round(count * self.seconds / NOMINAL_SECONDS))


def probe_setup(run: Run) -> Dict[str, float]:
    """CPU seconds of one fresh interpreter from spawn until its network is built."""
    command = [sys.executable, "-m", "perfbench.setup_probe", run.workload.name, str(run.seed)]
    process = subprocess.Popen(command, cwd=run.root, env=child_env(run.root),
                               stdout=subprocess.PIPE, text=True)
    try:
        line = process.stdout.readline()
    finally:
        process.stdout.close()
        process.wait()
    if process.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe exited {process.returncode}")
    report = json.loads(line)
    return {"setup_s": report.pop("ready_s"), **report}


class ColdPass:
    """Simulation rounds through ``SweepRunner(jobs=1)`` against a fresh cache.

    ``SweepRunner`` runs with one job: two pool workers on two shared
    cores would time the scheduler, so sweep fan-out is left out.
    """

    def __init__(self, rec: Recorder, cache_root: Path,
                 store_ms: Optional[List[float]] = None) -> None:
        self.rec = rec
        self.cache = ResultCache(cache_root)
        if store_ms is not None:
            self.cache.store = timed(self.cache.store, store_ms)
        self.runner = SweepRunner(jobs=1, cache=self.cache)
        self.configs: List[ScenarioConfig] = []
        self.results: List[Dict[str, object]] = []
        self.host_s = 0.0

    @staticmethod
    def warm_up(config: ScenarioConfig) -> None:
        """Pay lazy set-up (imports inside the stack, first RNG streams) untimed."""
        run_scenario(replace(config, duration_s=0.05))

    def run_round(self, configs: Sequence[ScenarioConfig]) -> Optional[float]:
        """Simulate one round; its host CPU seconds per simulated second, None if it failed."""
        host_s, results = 0.0, []
        for config in configs:
            self.rec.attempt()
            started = process_time()
            try:
                result = self.runner.run_one(config)
            except Exception as exc:  # noqa: BLE001 - every failed run is counted
                self.rec.fail(f"simulating seed {config.seed}: {type(exc).__name__}: {exc}")
                return None
            host_s += process_time() - started
            results.append(result.to_dict())
        self.configs.extend(configs)
        self.results.extend(results)
        self.host_s += host_s
        return host_s / sum(config.duration_s for config in configs)

    def check_repeat(self) -> None:
        """Running the first config again must give a byte-identical result."""
        again = run_scenario(self.configs[0]).to_dict()
        self.rec.check(canonical(again) == canonical(self.results[0]),
                       "a repeated config gave a different result")


class WarmFetch:
    """``SweepRunner.run_one`` reads of cold results from the warm cache."""

    def __init__(self, rec: Recorder, cache_root: Path,
                 load_ms: Optional[List[float]] = None) -> None:
        self.rec = rec
        self.cache = ResultCache(cache_root)
        if load_ms is not None:
            self.cache.load = timed(self.cache.load, load_ms)
        self.runner = SweepRunner(jobs=1, cache=self.cache)
        self.samples: List[float] = []

    def fetch(self, configs: Sequence[ScenarioConfig], cold: Sequence[Dict[str, object]],
              times: int) -> None:
        for _ in range(times):
            for config, expected in zip(configs, cold):
                self.rec.attempt()
                started = process_time()
                try:
                    result = self.runner.run_one(config)
                except Exception as exc:  # noqa: BLE001 - every failed fetch is counted
                    self.rec.fail(f"warm fetch of seed {config.seed}: {type(exc).__name__}: {exc}")
                    continue
                self.samples.append((process_time() - started) * 1e3)
                if result.to_dict() != expected:
                    self.rec.fail(f"warm fetch of seed {config.seed} differs from its cold result")

    def check_hits(self) -> None:
        self.rec.check(self.cache.misses == 0,
                       f"{self.cache.misses} warm fetch(es) missed the cache")


def _service(run: Run, rec: Recorder) -> ServicePhase:
    phase = ServicePhase(rec, run.root, run.work, run.seed, tamper=run.tamper)
    prefill(phase.store, run.seed, run.workload.history)
    return phase


def untraced(run: Run, rec: Recorder) -> None:
    """Interleaved slices, so every metric's samples span the whole run.

    The machine's speed is gauged between the phases of each slice, and the
    samples the slice produced are scaled to the nominal speed
    (``reference.py``).  Warm fetches follow each gauge, so that their
    samples, each a fraction of a millisecond, are spread over the slice.
    """
    wl = run.workload
    slices = run.scaled(wl.slices, 3)
    rounds = wl.rounds(run.seed, slices * wl.rounds_per_slice)
    cold = ColdPass(rec, run.work / "cold-cache")
    warm = WarmFetch(rec, run.work / "cold-cache")
    setup_s, host_samples = [], []
    phase = _service(run, rec)
    series = [setup_s, host_samples, warm.samples, *phase.samples.values()]
    gauged, scales, gauges = [], [], []
    per_round = len(rounds[0])

    def gauge() -> None:
        """Gauge the machine's speed, then read the latest round back from the warm cache."""
        gauges.append(reference.reference_load())
        if cold.configs:
            warm.fetch(cold.configs[-per_round:], cold.results[-per_round:], wl.fetches)

    phase.start()
    try:
        phase.warm_up()
        cold.warm_up(rounds[0][0])
        for index in range(slices):
            marks = [len(samples) for samples in series]
            gauges.clear()
            gauge()
            setup_s.append(phase.time_server_start() if wl.setup_is_server
                           else probe_setup(run)["setup_s"])
            gauge()
            for configs in rounds[index * wl.rounds_per_slice:(index + 1) * wl.rounds_per_slice]:
                sample = cold.run_round(configs)
                if sample is not None:
                    host_samples.append(sample)
                gauge()
            for first in range(0, wl.cycles_per_slice, 2):
                phase.run_cycles(min(2, wl.cycles_per_slice - first))
                gauge()
            scales.append(reference.scale(gauges))
            gauged.extend(gauges)
            for samples, mark in zip(series, marks):
                samples[mark:] = [value * scales[-1] for value in samples[mark:]]
        server_rss = phase.server.peak_rss_mb()
    finally:
        phase.stop()
    phase.check_sampled()
    cold.check_repeat()
    warm.check_hits()

    rec.note(f"speed: {len(gauged)} reference loads took {min(gauged) * 1e3:.1f} to "
             f"{max(gauged) * 1e3:.1f} ms (nominal {reference.NOMINAL_S * 1e3:.1f} ms); "
             f"slices scaled by {min(scales):.3f} to {max(scales):.3f}")
    rec.p50("host_s_per_sim_s", host_samples, "s/s")
    rec.p50("setup_s", setup_s, "s")
    rec.metric("peak_rss_mb", server_rss if wl.setup_is_server else self_peak_rss_mb(), "MB")
    rec.p50("warm_result_p50_ms", warm.samples)
    rec.p50("submit_p50_ms", phase.samples["submit"])
    rec.tail("submit_tail_ms", phase.samples["submit"])
    rec.p50("turnaround_p50_ms", phase.samples["turnaround"])
    rec.tail("turnaround_tail_ms", phase.samples["turnaround"])
    rec.p50("metrics_p50_ms", phase.samples["metrics"])


def traced(run: Run, rec: Recorder) -> None:
    """Fixed-size phases in sequence, with wrappers, cProfile and tracemalloc."""
    wl = run.workload
    setups = [probe_setup(run) for _ in range(3)]
    phase = _service(run, rec)
    phase.start()
    try:
        phase.warm_up()
        phase.run_cycles(wl.trace_cycles)
        probes = phase.probe(wl.probe_cycles)
    finally:
        phase.stop()
    phase.check_sampled()

    rounds = wl.rounds(run.seed, wl.trace_rounds)
    store_ms: List[float] = []
    load_ms: List[float] = []
    cold = ColdPass(rec, run.work / "cold-cache", store_ms=store_ms)
    warm = WarmFetch(rec, run.work / "cold-cache", load_ms=load_ms)
    cold.warm_up(rounds[0][0])
    for configs in rounds:
        cold.run_round(configs)
    warm.fetch(cold.configs, cold.results, wl.trace_fetches)
    cold.check_repeat()
    warm.check_hits()
    digest_ms = []
    for config in cold.configs:
        started = process_time()
        config_digest(config)
        digest_ms.append((process_time() - started) * 1e3)

    profiled_s, results, figures = tracing.profile(cold.configs)
    for result, expected in zip(results, cold.results):
        rec.check(result.to_dict() == expected, "a profiled run differs from its cold result")
    retained = tracing.retained_kb(cold.configs[0])

    sim_s = sum(config.duration_s for config in cold.configs)
    for group, seconds in figures["self_s"].items():
        rec.metric(f"{group}.self_s_per_sim_s", seconds / sim_s, "s/s")
    events = sum(result["events_processed"] for result in cold.results)
    rec.metric("sim.events_per_sim_s", events / sim_s, "1/s")
    rec.metric("mac.slot_ticks_per_sim_s", figures["slot_ticks"] / sim_s, "1/s")
    rec.metric("phy.transmissions_per_sim_s", figures["transmissions"] / sim_s, "1/s")
    for layer, kb in retained.items():
        rec.metric(f"{layer}.retained_kb", kb, "kB")
    rec.metric("experiments.digest_ms", median(digest_ms), "ms")
    rec.metric("experiments.cache_store_ms", median(store_ms), "ms")
    rec.metric("experiments.cache_load_ms", median(load_ms), "ms")
    rec.metric("experiments.cache_hits", cold.cache.hits + warm.cache.hits, "count")
    rec.metric("experiments.cache_misses", cold.cache.misses + warm.cache.misses, "count")
    for name, value in probes.items():
        rec.metric(name, value, PER_LAYER[name])
    rec.metric("service.http_status_p50_ms", median(phase.samples["status"]), "ms")
    rec.metric("service.http_result_p50_ms", median(phase.samples["result"]), "ms")
    rec.metric("setup.import_s", median([s["import_s"] for s in setups]), "s")
    rec.metric("setup.build_network_ms", median([s["build_network_ms"] for s in setups]), "ms")
    rec.metric("trace.overhead_ratio", profiled_s / cold.host_s, "ratio")

    counts = {name: rec.metrics[name][0] for name in DETERMINISTIC}
    record = (run.work.parent / "trace-counts"
              / f"{tracing.sources_digest(run.root)}-{wl.name}-{run.seed}.json")
    differing = tracing.compare_counts(record, counts)
    if differing is None:
        rec.note("trace: deterministic counts recorded; the next traced run of this "
                 "program, workload and seed must repeat them")
    elif differing:
        rec.fail("trace: deterministic counts differ from the previous traced run: "
                 + "; ".join(differing))
    else:
        rec.note("trace: deterministic counts repeat the previous traced run")


def execute(run: Run) -> Recorder:
    """Run one workload; returns the recorder holding metrics and failures."""
    rec = Recorder()
    (traced if run.trace else untraced)(run, rec)
    expected = PER_LAYER if run.trace else END_TO_END
    missing = sorted(set(expected) - set(rec.metrics))
    extra = sorted(set(rec.metrics) - set(expected))
    if missing or extra:
        raise RuntimeError(f"metric set mismatch: missing {missing}, unexpected {extra}")
    for name, (_value, unit) in rec.metrics.items():
        if unit != expected[name]:
            raise RuntimeError(f"metric {name} reported in {unit}, declared in {expected[name]}")
    return rec
