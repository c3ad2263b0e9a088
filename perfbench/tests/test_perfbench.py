"""Tests of the benchmark itself: metrics emitted, tail rule, failures counted.

Runs are shrunk (short scenarios, a small job history, few cycles) so the
whole file takes seconds; the shapes of the runs are the benchmark's own.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import bench, reference
from perfbench.measure import TAIL_BEYOND, Recorder, TailError, process_cpu_s, tail
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def shrunk(name: str):
    workload = WORKLOADS[name]

    def rounds(seed, count):
        return [[replace(config, duration_s=0.05) for config in configs]
                for configs in workload.rounds(seed, count)]

    return replace(workload, rounds=rounds, history=min(workload.history, 30), fetches=2,
                   cycles_per_slice=4,
                   trace_rounds=1, trace_fetches=2, trace_cycles=4, probe_cycles=2)


def execute(tmp_path: Path, name: str, trace: bool = False, tamper=None, work: str = "run"):
    return bench.execute(bench.Run(
        workload=shrunk(name), seed=3, seconds=1.0, trace=trace, root=ROOT,
        work=tmp_path / work, tamper=tamper,
    ))


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_declares_what_the_runs_emit():
    document = declared()
    assert [w["name"] for w in document["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in document["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in document["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_smoke_emits_every_end_to_end_metric_with_its_unit(tmp_path, name):
    rec = execute(tmp_path, name)
    assert rec.correct, rec.failures
    summary = rec.summary()
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == bench.END_TO_END
    assert all(v["value"] > 0 for v in summary["metrics"].values())
    assert summary["attempted"] > 0 and summary["failed"] == 0


def test_traced_smoke_emits_every_per_layer_metric_and_counts_repeat(tmp_path):
    first = execute(tmp_path, "mesh-ripple", trace=True, work="a")
    assert first.correct, first.failures
    assert {k: v["unit"] for k, v in first.summary()["metrics"].items()} == bench.PER_LAYER
    assert first.metrics["core.self_s_per_sim_s"][0] > 0
    second = execute(tmp_path, "mesh-ripple", trace=True, work="b")
    assert second.correct, second.failures
    assert any("counts repeat" in note for note in second.notes)
    for name in bench.DETERMINISTIC:
        assert first.metrics[name] == second.metrics[name]


def test_tail_needs_ten_samples_beyond_it():
    with pytest.raises(TailError):
        tail([1.0] * TAIL_BEYOND)
    samples = [float(value) for value in range(30)]
    value, percentile = tail(samples)
    assert sum(1 for sample in samples if sample > value) == TAIL_BEYOND
    assert percentile == pytest.approx(100.0 * 20 / 30)
    with pytest.raises(TailError):
        Recorder().tail("turnaround_tail_ms", samples[:TAIL_BEYOND])


def test_speed_scaling_turns_gauged_cpu_time_into_nominal_cpu_time():
    assert reference.scale([reference.NOMINAL_S] * 3) == pytest.approx(1.0)
    # A machine running at half speed took twice as long: its times are halved.
    assert reference.scale([2 * reference.NOMINAL_S] * 2) == pytest.approx(0.5)


def test_the_reference_load_runs_without_the_garbage_collector_and_restores_it():
    import gc

    assert gc.isenabled()
    assert reference.reference_load(1_000) > 0
    assert gc.isenabled()


def test_the_cpu_clock_reads_a_child_process():
    busy = ("import time\nt = time.process_time()\n"
            "while time.process_time() - t < 0.2: pass\nprint(flush=True)\ntime.sleep(60)")
    child = subprocess.Popen([sys.executable, "-c", busy], stdout=subprocess.PIPE)
    try:
        child.stdout.readline()
        assert process_cpu_s(child.pid) >= 0.2
    finally:
        child.kill()
        child.wait()
        child.stdout.close()


def _first_timed_job_only(action):
    """Apply ``action`` to the first timed job (the untimed warm-up job comes before it)."""
    calls = []

    def tamper(store, cache, job_id, digest):
        calls.append(job_id)
        if len(calls) == 2:
            action(store, cache, job_id, digest)

    return tamper


def test_a_corrupted_result_is_counted_and_fails_the_run(tmp_path):
    def corrupt(store, cache, job_id, digest):
        path = cache.path_for(digest)
        payload = json.loads(path.read_text())
        payload["events_processed"] += 1
        path.write_text(json.dumps(payload, sort_keys=True))

    rec = execute(tmp_path, "line-dcf", tamper=_first_timed_job_only(corrupt))
    assert not rec.correct
    assert rec.failed == 1
    assert "differs from a local run" in rec.failures[0]
    assert rec.summary()["failed"] == 1


def test_a_failed_job_is_counted_and_fails_the_run(tmp_path):
    def fail(store, cache, job_id, digest):
        record = store.get(job_id)
        record.state = "failed"
        record.error = "injected"
        store.update(record)

    rec = execute(tmp_path, "line-dcf", tamper=_first_timed_job_only(fail))
    assert not rec.correct
    assert rec.failed == 1
    assert "ended 'failed'" in rec.failures[0]


def test_without_the_program_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "line-dcf", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert not (tmp_path / ".perfbench-work").exists()
