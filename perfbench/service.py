"""The service phase: a ``repro.service serve`` subprocess driven by one client.

One closed-loop :class:`~repro.service.ServiceClient` (one connection per
request, one request in flight) runs each cycle in this order:

1. ``POST /jobs`` for a fresh job;
2. drain it with an in-process ``Worker.run_once()`` (never
   ``run_forever`` or ``ServiceClient.wait``, whose poll sleeps would be
   timed);
3. ``GET /jobs/{id}``, which must answer ``done``;
4. ``GET /results/{digest}``;
5. every ``RESUBMIT_EVERY`` cycles, resubmit the config just finished (it
   is born ``done``);
6. scrape ``/metrics``.

The server has no workers of its own, so nothing else touches the store
while a cycle runs, and a cycle's times are the CPU time it cost the
client (the worker included) and the server together.  The traced run adds in-process cycles through
``SimulationService.route`` over the same store, with ``JobStore.get``
counted, to split HTTP time from handler time and store reads.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path
from time import process_time
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments import ResultCache, config_digest, run_scenario
from repro.service import JobStore, ServiceClient, Worker
from repro.service.app import SimulationService

from perfbench import workloads
from perfbench.measure import (CpuClock, Recorder, canonical, median, pid_peak_rss_mb,
                               process_cpu_s, timed)

#: Jobs whose result payload is compared byte for byte with a local run.
SAMPLED_JOBS = 2
#: Cycles per cached resubmit.
RESUBMIT_EVERY = 4

_URL = re.compile(r"http://[^\s]+:\d+")


def prefill(store: JobStore, seed: int, count: int) -> None:
    """Write ``count`` finished jobs, as a long-lived service would hold."""
    for index in range(count):
        config = workloads.spec_config(workloads.history_spec(seed, index))
        store.submit(config.to_dict(), digest=config_digest(config), state="done")


def child_env(root: Path) -> Dict[str, str]:
    """The environment of a child interpreter that imports ``repro`` and ``perfbench``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return env


class ServerProcess:
    """``python -m repro.service serve`` on an ephemeral port, no workers."""

    def __init__(self, root: Path, store_dir: Path, log_path: Path) -> None:
        self.root = root
        self.store_dir = store_dir
        self.log_path = log_path
        self.process: Optional[subprocess.Popen] = None
        self.client: Optional[ServiceClient] = None

    def start(self) -> float:
        """Start the server; returns its CPU seconds until its first ``/healthz`` answer."""
        command = [
            sys.executable, "-m", "repro.service", "serve",
            "--store", str(self.store_dir), "--port", "0",
        ]
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                command, cwd=self.root, env=child_env(self.root),
                stdout=subprocess.PIPE, stderr=log, text=True,
            )
        # The server prints its address once it is bound and listening, so
        # the health check below connects at once: no poll, no sleep.
        line = self.process.stdout.readline()
        match = _URL.search(line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not report its address: {line!r}")
        self.client = ServiceClient(match.group(0), timeout_s=60.0)
        health = self.client.healthz()
        ready = process_cpu_s(self.process.pid)
        if health.get("status") != "ok":
            self.stop()
            raise RuntimeError(f"server unhealthy: {health}")
        return ready

    def peak_rss_mb(self) -> float:
        return pid_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        if self.process is None:
            return
        process, self.process = self.process, None
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stdout.close()


def _counting(function: Callable, tally: List[int]) -> Callable:
    def counted(*args, **kwargs):
        tally[0] += 1
        return function(*args, **kwargs)

    return counted


class ServicePhase:
    """Store, in-process worker and server of one run's service phase.

    ``tamper(store, cache, job_id, digest)``, when given, is called after
    each job is drained and before its status is read; the benchmark's own
    tests use it to corrupt a result or fail a job and check that the run
    counts it.
    """

    def __init__(self, rec: Recorder, root: Path, work: Path, seed: int,
                 tamper: Optional[Callable] = None) -> None:
        self.rec = rec
        self.seed = seed
        self.tamper = tamper
        self.store = JobStore(work / "store")
        self.cache = ResultCache(self.store.cache_dir)
        self.worker = Worker(self.store, cache=self.cache)
        self.server = ServerProcess(root, work / "store", work / "server.log")
        #: Client plus server CPU seconds; the server's pid is known once it runs.
        self.clock = CpuClock()
        self.next_job = 0
        self.cycles_run = 0
        self.sampled: List[Tuple[int, Dict[str, object]]] = []
        self.samples: Dict[str, List[float]] = {
            name: [] for name in ("submit", "turnaround", "status", "result", "metrics")
        }

    # ------------------------------------------------------------------
    def start(self) -> None:
        self.server.start()
        self.clock = CpuClock(self.server.process.pid)

    def stop(self) -> None:
        self.server.stop()

    def time_server_start(self) -> float:
        """CPU seconds a second server on the same store takes to answer ``/healthz``."""
        extra = ServerProcess(self.server.root, self.server.store_dir, self.server.log_path)
        try:
            return extra.start()
        finally:
            extra.stop()

    # ------------------------------------------------------------------
    def _fresh_job(self) -> Dict[str, object]:
        document = workloads.job_spec(self.seed, self.next_job)
        self.next_job += 1
        return document

    def cycle(self, resubmit: bool, keep: bool) -> Optional[Dict[str, object]]:
        """One closed-loop cycle; returns the result payload on success."""
        rec, client = self.rec, self.server.client
        document = self._fresh_job()
        expected = workloads.spec_config(document).to_dict()
        rec.attempt()
        started = self.clock()
        try:
            submitted = client.submit(document)
            submit_done = self.clock()
            record = self.worker.run_once()
            if record is None or record.job_id != submitted["job_id"]:
                rec.fail(f"drain did not run job {submitted['job_id']}: {record}")
                return None
            if self.tamper is not None:
                self.tamper(self.store, self.cache, record.job_id, record.digest)
            status_start = self.clock()
            job = client.job(str(submitted["job_id"]))
            status_done = self.clock()
            if job.get("state") != "done":
                rec.fail(f"job {job.get('job_id')} ended {job.get('state')!r}: {job.get('error')}")
                return None
            payload = client.result(str(job["digest"]))
            result_done = self.clock()
        except Exception as exc:  # noqa: BLE001 - every failed request is counted
            rec.fail(f"service cycle {self.next_job - 1}: {type(exc).__name__}: {exc}")
            return None
        if not rec.check(payload.get("config") == expected,
                         f"result of job {job['job_id']} is not its config's result"):
            return None
        if keep:
            self.samples["submit"].append((submit_done - started) * 1e3)
            self.samples["turnaround"].append((status_done - started) * 1e3)
            self.samples["status"].append((status_done - status_start) * 1e3)
            self.samples["result"].append((result_done - status_done) * 1e3)
        if resubmit:
            self._resubmit(document, keep)
        self._scrape(keep)
        return payload

    def _resubmit(self, document: Dict[str, object], keep: bool) -> None:
        rec, client = self.rec, self.server.client
        rec.attempt()
        try:
            started = self.clock()
            again = client.submit(document)
            submitted = self.clock()
        except Exception as exc:  # noqa: BLE001 - every failed request is counted
            rec.fail(f"cached resubmit: {type(exc).__name__}: {exc}")
            return
        rec.check(again.get("state") == "done",
                  f"cached resubmit was born {again.get('state')!r}, not 'done'")
        if keep:
            self.samples["submit"].append((submitted - started) * 1e3)

    def _scrape(self, keep: bool) -> None:
        rec, client = self.rec, self.server.client
        rec.attempt()
        try:
            started = self.clock()
            metrics = client.metrics()
            scraped = self.clock()
        except Exception as exc:  # noqa: BLE001 - every failed request is counted
            rec.fail(f"/metrics: {type(exc).__name__}: {exc}")
            return
        rec.check(metrics.get("queue_depth") == 0,
                  f"/metrics reports {metrics.get('queue_depth')} waiting job(s) after a drain")
        if keep:
            self.samples["metrics"].append((scraped - started) * 1e3)

    def warm_up(self) -> None:
        """One untimed cycle with a resubmit, so first-request costs stay out of the samples."""
        self.cycle(resubmit=True, keep=False)

    def run_cycles(self, cycles: int) -> None:
        """``cycles`` timed cycles; every ``RESUBMIT_EVERY``-th also resubmits.

        The first ``SAMPLED_JOBS`` timed jobs' payloads are kept for
        :meth:`check_sampled`.
        """
        for _ in range(cycles):
            index = self.next_job
            self.cycles_run += 1
            payload = self.cycle(resubmit=self.cycles_run % RESUBMIT_EVERY == 0, keep=True)
            if payload is not None and len(self.sampled) < SAMPLED_JOBS:
                self.sampled.append((index, payload))

    def check_sampled(self) -> None:
        """Sampled payloads must equal a local ``run_scenario`` of their config, byte for byte."""
        for index, payload in self.sampled:
            local = run_scenario(workloads.spec_config(workloads.job_spec(self.seed, index)))
            self.rec.check(canonical(local.to_dict()) == canonical(payload),
                           f"service result of job {index} differs from a local run")

    # ------------------------------------------------------------------
    def probe(self, cycles: int) -> Dict[str, float]:
        """In-process cycles with ``JobStore.get`` counted (traced run only)."""
        rec = self.rec
        service = SimulationService(self.store, self.cache)
        reads = [0]
        self.store.get = _counting(self.store.get, reads)
        claims: List[float] = []
        self.worker.queue.claim = timed(self.worker.queue.claim, claims)
        times: Dict[str, List[float]] = {
            "handler": [], "run_once": [], "queue_depth": [], "counts": []}
        per = {"submit": 0, "claim": 0, "metrics": 0}
        try:
            for _ in range(cycles):
                body = json.dumps({"spec": self._fresh_job()}).encode("utf-8")
                before = reads[0]
                started = process_time()
                status, payload = service.route("POST", "/jobs", body)
                times["handler"].append((process_time() - started) * 1e3)
                per["submit"] += reads[0] - before
                rec.check(status == 202, f"in-process submit answered {status}: {payload}")

                before = reads[0]
                started = process_time()
                record = self.worker.run_once()
                times["run_once"].append((process_time() - started) * 1e3)
                per["claim"] += reads[0] - before
                rec.check(record is not None and record.state == "done",
                          f"in-process job ended {getattr(record, 'state', None)!r}")

                before = reads[0]
                status, payload = service.route("GET", "/metrics")
                per["metrics"] += reads[0] - before
                rec.check(status == 200, f"in-process /metrics answered {status}")

                started = process_time()
                self.store.queue_depth()
                times["queue_depth"].append((process_time() - started) * 1e3)
                started = process_time()
                self.store.counts()
                times["counts"].append((process_time() - started) * 1e3)
        finally:
            del self.store.get, self.worker.queue.claim
        return {
            "service.store.queue_depth_ms": median(times["queue_depth"]),
            "service.store.counts_ms": median(times["counts"]),
            "service.queue.claim_ms": median(claims),
            "service.worker.run_once_ms": median(times["run_once"]),
            "service.app.handler_ms": median(times["handler"]),
            "service.records_read_per_submit": per["submit"] / cycles,
            "service.records_read_per_claim": per["claim"] / cycles,
            "service.records_read_per_metrics": per["metrics"] / cycles,
        }
