"""Per-layer metrics shared by the workloads: their names and units, the
instrumented engine path, cProfile shares and simulated statistics."""

from __future__ import annotations

import cProfile
import time
from typing import Dict, List

from perfbench import measure
from perfbench.measure import metric

#: every per-layer metric with its unit.  A traced run prints all of
#: them; one whose layer the workload's measured process does not
#: exercise reads 0 (workloads.LAYER_TARGETS says where each applies).
UNITS: Dict[str, str] = {
    "serve.queue_wait_ms_p50": "ms",
    "serve.run_ms_p50": "ms",
    "serve.client_ms_p50": "ms",
    "serve.result_cache_hits": "count",
    "serve.dedup_hits": "count",
    "executor.guard_overhead_ms": "ref-ms",
    "executor.cache_load_ms": "ms",
    "executor.cache_store_ms": "ms",
    "compile.trace_compile_s": "s",
    "compile.trace_load_ms": "ms",
    "compile.hits": "count",
    "compile.misses": "count",
    "engine.run_s": "s",
    "engine.ns_per_instr": "ns",
    "engine.tier.vectorized": "count",
    "engine.tier.compiled": "count",
    "engine.tier.general": "count",
    "engine.tier.demoted": "count",
    "prefetcher.on_access_calls": "count",
    "prefetcher.on_access_s": "s",
    "prefetcher.share": "ratio",
    "prefetcher.subtract_s": "ref-s",
    "prefetcher.subtract_share": "ratio",
    "prefetcher.accuracy": "ratio",
    "memsys.l1_misses": "count",
    "memsys.llc_mpki": "1/kinstr",
    "memsys.dram_accesses": "count",
    "memsys.share": "ratio",
    "memsys.replacement_subtract_s": "ref-s",
    "obs.timeline_samples": "count",
    "obs.overhead_ratio": "ratio",
    **{f"layer.{name}.self_share": "ratio" for name in measure.GROUP_NAMES},
    "trace.overhead_ratio": "ratio",
}
TIERS = ("vectorized", "compiled", "general", "demoted")


def empty() -> Dict[str, Dict[str, object]]:
    return {name: metric(0.0, unit) for name, unit in UNITS.items()}


def instructions(job) -> int:
    """Instructions a job simulates: every core, warm-up included."""
    return job.system.num_cores * job.params.instructions_per_core


def build_engine(job, workload=None, **extra):
    """The engine ``execute_job`` builds for ``job``, with ``extra``
    keyword arguments (``prefetchers=``, ``sink=``) added.  The workload
    comes from the executor's own helper, and the job's engine switches
    pass through."""
    from repro.sim.engine import SimulationEngine
    from repro.sim.executor import _job_workload

    return SimulationEngine(
        workload=_job_workload(job) if workload is None else workload,
        prefetcher=job.prefetcher,
        system=job.system,
        params=job.params,
        prefetcher_kwargs=dict(job.prefetcher_kwargs) or None,
        train_at=job.train_at,
        obs=job.obs,
        vectorized=job.vectorized,
        replacement=job.replacement,
        **extra,
    )


def reference_run(job):
    """``job`` on the reference engine loop under a strict
    ``InvariantChecker``, as ``execute_job_checked`` runs it, except that
    the checker's structural sweep runs once after the run instead of
    every few thousand events.  The sweep's ``MshrFile.occupancy`` call
    expires lagging cores' MSHR entries at the hierarchy's latest time,
    which changes later merge and stall outcomes; a run with only the
    final sweep is the unperturbed reference.  Counter invariants are
    still checked on every demand event.  Benchmark jobs write no event
    trace, so the checker is the engine's only sink."""
    from repro.check.invariants import InvariantChecker

    checker = InvariantChecker(interval=1 << 62, strict=True)
    engine = build_engine(job, sink=checker)
    checker.attach(engine.hierarchy)
    result = engine.run()
    checker.finalize()
    return result


def traced_runner(jobs, spans: measure.Spans, timer: measure.AccessTimer):
    """Runs job ``i`` as ``execute_job`` does, with a span around each
    layer call and ``on_access`` timed on the prefetcher instances handed
    to the engine through ``prefetchers=``, so the traced run takes the
    same path as the untraced one (callers compare
    ``engine_tier_counters`` deltas to make sure)."""
    from repro.prefetchers.registry import make_prefetcher
    from repro.sim.executor import _job_workload

    counter = iter(range(1 << 62))

    def run_one(index: int):
        job = jobs[index]
        job_id = f"j{next(counter)}"
        with spans.span("job", job_id):
            with spans.span("compile.load", job_id):
                workload = _job_workload(job)
            with spans.span("engine.build", job_id):
                kwargs = dict(job.prefetcher_kwargs)
                prefetchers = None
                if job.prefetcher != "none":
                    prefetchers = [
                        timer.wrap(make_prefetcher(
                            job.prefetcher, job.system.address_map, **kwargs))
                        for _ in range(job.system.num_cores)
                    ]
                engine = build_engine(job, workload, prefetchers=prefetchers)
            with spans.span("engine.run", job_id):
                return engine.run()

    return run_one


def tier_delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    """Non-zero per-tier run counts between two ``engine_tier_counters``
    snapshots."""
    return {k: after.get(k, 0) - before.get(k, 0) for k in after
            if after.get(k, 0) != before.get(k, 0)}


def engine_metrics(spans: measure.Spans, timer: measure.AccessTimer,
                   simulated: int) -> Dict[str, Dict[str, object]]:
    engine_s = spans.total("engine.run")
    return {
        "engine.run_s": metric(engine_s, "s"),
        "engine.ns_per_instr": metric(engine_s / simulated * 1e9 if simulated else 0.0, "ns"),
        "prefetcher.on_access_calls": metric(timer.calls, "count"),
        "prefetcher.on_access_s": metric(timer.seconds, "s"),
        "prefetcher.share": metric(timer.seconds / engine_s if engine_s else 0.0, "ratio"),
    }


def profile_shares(jobs) -> Dict[str, Dict[str, object]]:
    """cProfile self time by layer group over ``jobs`` run through
    ``Executor(workers=1)``; ``memsys.share`` is relative to the
    cumulative time of ``SimulationEngine.run``."""
    from repro.sim.executor import Executor

    executor = Executor(workers=1)
    profile = cProfile.Profile()
    profile.enable()
    try:
        for job in jobs:
            executor.run_job(job)
    finally:
        profile.disable()
    groups = measure.profile_groups(profile)
    total = sum(groups[name] for name in measure.GROUP_NAMES) or 1.0
    out = {
        f"layer.{name}.self_share": metric(groups[name] / total, "ratio")
        for name in measure.GROUP_NAMES
    }
    engine_run = groups["engine_run_cum"]
    out["memsys.share"] = metric(
        groups["memsys"] / engine_run if engine_run else 0.0, "ratio")
    return out


def sim_stats(results) -> Dict[str, Dict[str, object]]:
    """Simulated statistics of the results, as per-job means."""
    n = len(results) or 1
    issued = sum(r.prefetches_issued for r in results)
    l1_misses = sum(
        stats["misses"]
        for r in results
        for name, stats in r.raw_stats["memsys"].items()
        if name.startswith("l1d")
    )
    return {
        "prefetcher.accuracy": metric(
            sum(r.covered for r in results) / issued if issued else 0.0, "ratio"),
        "memsys.l1_misses": metric(l1_misses / n, "count"),
        "memsys.llc_mpki": metric(sum(r.mpki for r in results) / n, "1/kinstr"),
        "memsys.dram_accesses": metric(sum(r.dram_reads for r in results) / n, "count"),
        "obs.timeline_samples": metric(sum(len(r.timeline) for r in results) / n, "count"),
    }


def median_time(run, reps: int, calibrator: measure.Calibrator) -> float:
    """Median calibrated seconds of ``reps`` calls of ``run``."""
    times: List[float] = []
    calibrator.sample()
    for _ in range(reps):
        t0 = time.perf_counter()
        run()
        t1 = time.perf_counter()
        calibrator.sample()
        times.append(calibrator.normalized(t0, t1))
    return measure.median(times)
