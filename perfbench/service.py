"""The service-closed workload: ``bingo-sim serve`` under closed-loop load.

Set-up compiles the job pool's traces into the run's private cache, then
starts the daemon ``setups`` times, each with an empty result cache and
state dir; ``setup_s`` is the median time from spawn until ``/healthz``
answers, and the last daemon serves the run.  Client threads (at most
``nproc``, and ``--workers`` matches) take the next spec of the seeded
sequence, POST it, and poll its record every ``POLL_S`` until it is
terminal; they stop taking specs once ``seconds`` have passed.  A
background calibrator samples host speed every ``CALIBRATE_S``, and job
times are rescaled by the samples taken during each job.

Every result is checked against ``execute_job(job_from_wire(spec))`` run
in this process, and every repeat of a spec must return the first
result.  With ``trace`` the run is split: half the time untraced, then a
fresh daemon replays the same prefix of the sequence with spans.
"""

from __future__ import annotations

import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from perfbench import layers, measure, workloads as wl
from perfbench.measure import Outcome, metric

#: client poll period: well below the latency it measures, and below the
#: client library's default jittered 0.25 s that would quantize it
POLL_S = 0.005
CALIBRATE_S = 0.1
JOB_TIMEOUT_S = 120.0
CLIENTS = max(1, min(2, os.cpu_count() or 1))
#: distinct specs re-run in this process for the executor and engine layers
LAYER_POINTS = 6
TERMINAL = ("done", "failed", "cancelled")


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Daemon:
    """One ``bingo-sim serve`` process with its own state and result cache."""

    def __init__(self, run_dir: Path, tag: str) -> None:
        from repro.serve import ServiceClient

        self.url = f"http://127.0.0.1:{_free_port()}"
        self.log = open(run_dir / f"serve-{tag}.log", "w")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--host", "127.0.0.1", "--port", self.url.rsplit(":", 1)[1],
             "--workers", str(CLIENTS),
             "--state-dir", str(run_dir / f"state-{tag}"),
             "--cache-dir", str(run_dir / f"results-{tag}"), "--quiet"],
            env=measure.src_env(run_dir / "cache"),
            stdout=self.log, stderr=subprocess.STDOUT,
        )
        self.client = ServiceClient(self.url, timeout=JOB_TIMEOUT_S)
        try:
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        #: host seconds from spawn until /healthz answers
        self.setup_s = time.perf_counter() - start

    def _wait_healthy(self) -> None:
        from repro.serve import ServiceUnavailable

        deadline = time.monotonic() + 60.0
        while True:
            try:
                self.client.health()
                return
            except ServiceUnavailable:
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError(
                        f"bingo-sim serve did not come up (exit {self.proc.poll()})"
                    ) from None
                time.sleep(0.002)

    def wait(self, job_id: str) -> Dict[str, object]:
        deadline = time.monotonic() + JOB_TIMEOUT_S
        while True:
            record = self.client.status(job_id)
            if record["state"] in TERMINAL:
                return record
            if time.monotonic() > deadline:
                raise TimeoutError(f"job {job_id} still {record['state']}")
            time.sleep(POLL_S)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


class Sample:
    def __init__(self, position: int) -> None:
        self.position = position
        self.start = 0.0
        self.end = 0.0
        self.record: Optional[Dict[str, object]] = None
        self.error = ""
        self.deduped = False


def closed_loop(daemon: Daemon, specs, seconds: Optional[float], limit: int,
                spans: Optional[measure.Spans] = None):
    """Clients submit ``specs`` in order until ``seconds`` pass (with
    ``seconds=None``: until ``limit`` specs are taken).  Returns the
    samples in sequence order and the phase's start and end."""
    from repro.serve import ServiceError

    lock = threading.Lock()
    positions = iter(range(min(limit, len(specs))))
    samples: List[Sample] = []
    clock = time.perf_counter
    start = clock()
    wall_offset = time.time() - clock()  # the server stamps wall-clock time

    def one(sample: Sample) -> None:
        job_id = f"p{sample.position}"
        sample.start = clock()
        try:
            if spans is None:
                answer = daemon.client.submit(specs[sample.position])
                sample.record = daemon.wait(answer["id"])
            else:
                with spans.span("job", job_id):
                    with spans.span("serve.submit", job_id):
                        answer = daemon.client.submit(specs[sample.position])
                    with spans.span("serve.poll", job_id):
                        sample.record = daemon.wait(answer["id"])
            sample.deduped = bool(answer.get("deduped"))
        except (ServiceError, TimeoutError, OSError) as exc:
            sample.error = f"{type(exc).__name__}: {exc}"
        sample.end = clock()
        record = sample.record
        if record is not None and record["state"] != "done":
            sample.error = f"job {record['state']}: {record.get('error')}"
        if spans is not None and not sample.error:
            parent = next(r["id"] for r in reversed(spans.records)
                          if r["name"] == "job" and r["job"] == job_id)
            sub, sta, fin = (record[k] - wall_offset for k in
                             ("submitted_at", "started_at", "finished_at"))
            spans.add("serve.queue_wait", sub, sta, parent, job_id)
            spans.add("serve.run", sta, fin, parent, job_id)

    def client() -> None:
        while seconds is None or clock() - start < seconds:
            with lock:
                position = next(positions, None)
                if position is None:
                    return
                sample = Sample(position)
                samples.append(sample)
            one(sample)

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    samples.sort(key=lambda s: s.position)
    return samples, start, clock()


def _key(spec) -> str:
    return json.dumps(spec, sort_keys=True)


def check(specs, samples: List[Sample]) -> List[str]:
    """Service results against ``execute_job(job_from_wire(spec))``, and
    every repeat against the first result of its spec."""
    from repro.serve.jobs import job_from_wire
    from repro.sim.executor import Executor, JobFailure

    first: Dict[str, Dict[str, object]] = {}
    mismatches = []
    for s in samples:
        if s.error:
            continue
        key = _key(specs[s.position])
        if key not in first:
            first[key] = s.record["result"]
        elif s.record["result"] != first[key]:
            mismatches.append(f"repeat at position {s.position} differs")
    keys = sorted(first)
    reference = Executor(workers=CLIENTS).run_jobs(
        [job_from_wire(json.loads(k)) for k in keys], return_failures=True)
    for key, ref in zip(keys, reference):
        if isinstance(ref, JobFailure):
            mismatches.append(f"reference run failed: {ref.message}")
        elif json.loads(json.dumps(ref.to_dict())) != first[key]:
            mismatches.append(f"service result differs from execute_job: {key}")
    return mismatches


def _warm_up(daemon: Daemon, specs) -> None:
    """One untimed job outside the sequence (a prefetcher the pool never
    uses), so the daemon's lazy imports finish before timing."""
    daemon.wait(daemon.client.submit(dict(specs[0], prefetcher="nextline"))["id"])


def _trace_files(cache: Path) -> int:
    return sum(1 for _ in (cache / "traces").glob("*/*.trc"))


def run(seed: int, seconds: float, trace: bool, run_dir: Path,
        size: wl.Size = wl.FULL, mutate=None) -> Outcome:
    from repro.serve.jobs import job_from_wire
    from repro.sim.compile import compile_workload
    from repro.workloads.registry import make_workload

    specs = wl.service_jobs(seed, size)
    traces = wl.traces(specs)
    calibrator = measure.Calibrator()
    t0 = time.perf_counter()
    for name, trace_seed, n in traces:
        compile_workload(make_workload(name, seed=trace_seed, scale=wl.SCALE),
                         records_per_core=n, scale=wl.SCALE)
    trace_compile_s = time.perf_counter() - t0
    trace_files = _trace_files(run_dir / "cache")

    setups = 1 if trace else size.setups
    daemons: List[Daemon] = []
    try:
        for k in range(setups):
            if daemons:
                daemons[-1].stop()
            daemons.append(Daemon(run_dir, f"setup{k}"))
        daemon = daemons[-1]
        _warm_up(daemon, specs)
        before = daemon.client.metrics()
        sampler = measure.TreeRssSampler(daemon.proc.pid).start()
        calibrator.start(CALIBRATE_S)
        try:
            samples, start, end = closed_loop(
                daemon, specs, seconds / 2 if trace else seconds, len(specs))
        finally:
            calibrator.stop()
            peak_rss = sampler.stop()
        # jobs the daemon simulated to completion: result-cache and dedup
        # hits excluded
        after = daemon.client.metrics()
        executed = sum(
            sign * (_counter(after, "executor_totals", name)
                    - _counter(before, "executor_totals", name))
            for sign, name in ((1, "executed"), (-1, "failures")))
        daemon.stop()
        if mutate is not None:
            mutate(samples)
        mismatches = check(specs, samples)

        attempted = len(samples)
        errors = [s for s in samples if s.error]
        done = [s for s in samples if not s.error]
        ref_ms = [calibrator.normalized(s.start, s.end) * 1000.0 for s in done]
        ref_s = calibrator.normalized(start, end)
        notes: Dict[str, object] = {
            "samples": attempted,
            "samples_beyond_p90": sum(1 for v in ref_ms if v > measure.p90(ref_ms)),
            "host_seconds": end - start,
            "host_job_p50_ms": measure.median([(s.end - s.start) * 1000.0 for s in done]),
            "setup_s": [d.setup_s for d in daemons],
            "deduped": sum(s.deduped for s in samples),
            "executed": executed,
            "mismatches": mismatches,
            "errors": sorted({s.error for s in errors}),
        }
        if not trace:
            failed = len(errors) + len(mismatches)
            cores = job_from_wire(specs[0]).system.num_cores
            simulated = executed * cores * size.service_instructions
            metrics = measure.end_to_end(
                simulated, len(done), ref_s, ref_ms,
                measure.median([d.setup_s for d in daemons]), peak_rss,
                failed, attempted)
            return Outcome(not mismatches, attempted, failed, metrics, notes)

        # -- traced replay of the same prefix on a fresh daemon -------------
        spans = measure.Spans()
        daemons.append(Daemon(run_dir, "traced"))
        traced = daemons[-1]
        _warm_up(traced, specs)
        m0 = traced.client.metrics()
        calibrator.start(CALIBRATE_S)
        try:
            tsamples, tstart, tend = closed_loop(traced, specs, None, attempted, spans)
        finally:
            calibrator.stop()
        m1 = traced.client.metrics()
        traced.stop()
        by_position = {s.position: s for s in samples}
        for s in tsamples:
            ref = by_position[s.position]
            if s.error or ref.error or s.record["result"] != ref.record["result"]:
                mismatches.append(f"traced run at position {s.position} differs")
        notes["spans"] = spans

        out = layers.empty()
        out.update(_serve_metrics(tsamples, m0, m1))
        warm = measure.run_probe(traces, wl.SCALE, run_dir / "cache")
        new_files = _trace_files(run_dir / "cache") - trace_files
        executed = (_counter(m1, "executor_totals", "executed")
                    - _counter(m0, "executor_totals", "executed"))
        out["compile.trace_compile_s"] = metric(trace_compile_s / len(traces), "s")
        out["compile.trace_load_ms"] = metric(warm["compile_s"] * 1000.0 / len(traces), "ms")
        out["compile.hits"] = metric(executed - new_files, "count")
        out["compile.misses"] = metric(new_files, "count")
        for tier in layers.TIERS:
            out[f"engine.tier.{tier}"] = metric(
                _counter(m1, "engine_tiers", tier) - _counter(m0, "engine_tiers", tier),
                "count")
        out.update(_in_process_layers(specs, tsamples, run_dir, calibrator, mismatches))
        out["trace.overhead_ratio"] = metric(
            calibrator.normalized(tstart, tend) / ref_s * attempted / len(tsamples) - 1.0,
            "ratio")
        failed = len(errors) + len(mismatches)
        return Outcome(not mismatches, attempted + len(tsamples), failed, out, notes)
    finally:
        for d in daemons:
            d.stop()


def _counter(metrics: Dict[str, object], *path: str) -> float:
    node = metrics
    for key in path:
        node = node.get(key, 0) if isinstance(node, dict) else 0
    return node if isinstance(node, (int, float)) else 0


def _serve_metrics(samples: List[Sample], m0, m1) -> Dict[str, Dict[str, object]]:
    """Stage times from the service's own record stamps, and its counters."""
    waits, runs, client = [], [], []
    for s in samples:
        if s.error:
            continue
        r = s.record
        waits.append((r["started_at"] - r["submitted_at"]) * 1000.0)
        runs.append((r["finished_at"] - r["started_at"]) * 1000.0)
        client.append((s.end - s.start) * 1000.0
                      - (r["finished_at"] - r["submitted_at"]) * 1000.0)
    return {
        "serve.queue_wait_ms_p50": metric(measure.median(waits), "ms"),
        "serve.run_ms_p50": metric(measure.median(runs), "ms"),
        "serve.client_ms_p50": metric(measure.median(client), "ms"),
        "serve.result_cache_hits": metric(
            _counter(m1, "executor_totals", "cache_hits")
            - _counter(m0, "executor_totals", "cache_hits"), "count"),
        "serve.dedup_hits": metric(
            _counter(m1, "counters", "dedup_hits")
            - _counter(m0, "counters", "dedup_hits"), "count"),
    }


def _in_process_layers(specs, samples: List[Sample], run_dir: Path,
                       calibrator: measure.Calibrator,
                       mismatches: List[str]) -> Dict[str, Dict[str, object]]:
    """Executor, engine and prefetcher layers for a seeded sample of the
    served specs, measured in this process: the daemon's disposable job
    processes cannot be observed from outside."""
    from repro.serve.jobs import job_from_wire
    from repro.sim.engine import engine_tier_counters
    from repro.sim.executor import Executor, ResultCache, execute_job
    from repro.sim.results import SimResult

    served = {_key(specs[s.position]): s.record["result"]
              for s in samples if not s.error}
    keys = random.Random("layers").sample(sorted(served), min(LAYER_POINTS, len(served)))
    jobs = [job_from_wire(json.loads(k)) for k in keys]

    executor = Executor(workers=1)
    store = ResultCache(run_dir / "bench-results")
    guard, loads, stores = [], [], []
    for job in jobs:
        result = execute_job(job)  # warms the trace memo and imports
        plain = layers.median_time(lambda: execute_job(job), 3, calibrator)
        guarded = layers.median_time(lambda: executor.run_job_guarded(job), 3, calibrator)
        guard.append((guarded - plain) * 1000.0)
        t0 = time.perf_counter()
        store.store(job, result)
        t1 = time.perf_counter()
        store.load(job)
        t2 = time.perf_counter()
        stores.append((t1 - t0) * 1000.0)
        loads.append((t2 - t1) * 1000.0)
    out = {
        "executor.guard_overhead_ms": metric(measure.median(guard), "ref-ms"),
        "executor.cache_load_ms": metric(measure.median(loads), "ms"),
        "executor.cache_store_ms": metric(measure.median(stores), "ms"),
    }

    tiers0 = engine_tier_counters()
    for job in jobs:
        execute_job(job)
    tiers1 = engine_tier_counters()
    spans = measure.Spans()
    timer = measure.AccessTimer()
    run_one = layers.traced_runner(jobs, spans, timer)
    for index, key in enumerate(keys):
        if json.loads(json.dumps(run_one(index).to_dict())) != served[key]:
            mismatches.append(f"instrumented engine run differs: {key}")
    untraced_tiers = layers.tier_delta(tiers0, tiers1)
    traced_tiers = layers.tier_delta(tiers1, engine_tier_counters())
    if traced_tiers != untraced_tiers:
        mismatches.append(f"instrumented engine runs took tiers {traced_tiers}, "
                          f"execute_job {untraced_tiers}")
    out.update(layers.engine_metrics(spans, timer, sum(map(layers.instructions, jobs))))
    out.update(layers.profile_shares(jobs))
    out.update(layers.sim_stats([SimResult.from_dict(r) for r in served.values()]))
    return out
