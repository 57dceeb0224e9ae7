"""The in-process workloads: sweep-prefetch, sweep-missdense and
observed-timeline.

One run: set-up probes in fresh interpreters (imports plus a cold
compile of one trace into an empty cache; ``setup_s`` is the median of
their host wall times), an untimed warm-up that compiles every trace and
touches every code path, then whole passes over the workload's points
through ``Executor(workers=1)`` without a result cache, as many as
``workloads.passes`` gives for ``seconds``.  A calibration sample is taken between jobs, and
every job time is rescaled by the samples on either side of it (see
``measure.Calibrator``).

Outputs are checked afterwards: every repeat of a point must equal its
first run (in the warm-up or the timed phase), and a seeded sample must
pass ``Executor(check=True)`` and equal the same spec run untimed on the
reference loop (see ``check``).

With ``trace`` the timed phase gets half the time, and the same jobs are
then replayed with spans around each layer call and timed prefetchers;
the replay must reproduce the untraced results exactly, through the same
engine tiers.  Profiling and subtraction runs then give the per-layer
metrics.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from perfbench import layers, measure, workloads as wl
from perfbench.measure import Outcome, metric

#: points profiled or re-run for subtraction, and repetitions of each
SUBTRACT_POINTS = 6
SUBTRACT_REPS = 3


@dataclass
class Sample:
    index: int
    seconds: float  # host seconds
    ref: float  # calibrated seconds
    result: object  # SimResult, or None when the job raised
    error: str = ""


def _same(a, b) -> bool:
    return a is not None and b is not None and a.to_dict() == b.to_dict()


def timed(order: List[int], passes: int, run_one,
          calibrator: measure.Calibrator) -> List[Sample]:
    """Run the points in ``order`` in ``passes`` whole passes.  Whole
    passes keep the mix of points the same in every run."""
    samples: List[Sample] = []
    clock = time.perf_counter
    calibrator.sample()
    for _ in range(passes):
        for index in order:
            t0 = clock()
            try:
                result, error = run_one(index), ""
            except Exception as exc:  # a failed job is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            t1 = clock()
            calibrator.sample()
            samples.append(Sample(index, t1 - t0, calibrator.normalized(t0, t1),
                                  result, error))
    return samples


def check(workload: str, seed: int, jobs, warm: Dict[int, object],
          samples: List[Sample], points: int) -> Tuple[List[str], int]:
    """Repeats against first runs (the warm-up's, where it ran the
    point), and a seeded sample of points against ``Executor(check=True)``
    (strict invariants on the reference loop; a violation raises).

    ``check=True`` can disagree with a correct run because its periodic
    structural sweep perturbs the simulation (see
    ``layers.reference_run``).  A sampled point whose checked result
    differs is therefore compared with the unperturbed reference run,
    and a mismatch is only counted when that differs too.  The number of
    points the sweep perturbed is returned next to the mismatches."""
    from repro.sim.executor import Executor

    mismatches: List[str] = []
    first: Dict[int, object] = dict(warm)
    for s in samples:
        if s.result is None:
            continue
        if s.index not in first:
            first[s.index] = s.result
        elif not _same(first[s.index], s.result):
            mismatches.append(f"repeat of point {s.index} differs")
    checker = Executor(workers=1, check=True)
    perturbed = 0
    rng = random.Random(f"check:{workload}:{seed}")
    for index in rng.sample(sorted(first), min(points, len(first))):
        try:
            checked = checker.run_job(jobs[index])
        except Exception as exc:  # an invariant violation, among others
            mismatches.append(f"point {index} failed under Executor(check=True): "
                              f"{type(exc).__name__}: {exc}")
            continue
        if _same(checked, first[index]):
            continue
        if _same(layers.reference_run(jobs[index]), first[index]):
            perturbed += 1
        else:
            mismatches.append(f"point {index} differs from the reference loop")
    return mismatches, perturbed


def run(workload: str, seed: int, seconds: float, trace: bool, run_dir: Path,
        size: wl.Size = wl.FULL,
        mutate: Optional[Callable[[List[Sample]], None]] = None) -> Outcome:
    from repro.serve.jobs import job_from_wire
    from repro.sim.compile import compile_counters
    from repro.sim.engine import engine_tier_counters
    from repro.sim.executor import Executor

    specs = wl.points(workload, seed, size)
    jobs = [job_from_wire(spec) for spec in specs]
    traces = wl.traces(specs)
    calibrator = measure.Calibrator()

    # set-up: a fresh interpreter imports the simulator and compiles one
    # trace into an empty cache; the run's own cache is filled by the
    # untimed warm-up
    repeats = 1 if trace else size.setups
    probes = [
        measure.run_probe([traces[k % len(traces)]], wl.SCALE, run_dir / f"setup{k}")
        for k in range(repeats)
    ]

    executor = Executor(workers=1)
    warm = {index: executor.run_job(jobs[index]) for index in wl.warm_cover(specs)}

    tiers0, compiles0 = engine_tier_counters(), compile_counters()
    cpu0 = time.thread_time()
    samples = timed(list(range(len(jobs))),
                    wl.passes(workload, seconds / 2 if trace else seconds),
                    lambda i: executor.run_job(jobs[i]), calibrator)
    cpu_s = time.thread_time() - cpu0
    peak_rss = measure.self_peak_rss_mb()
    tiers1, compiles1 = engine_tier_counters(), compile_counters()
    if mutate is not None:
        mutate(samples)

    mismatches, perturbed = check(workload, seed, jobs, warm, samples,
                                  size.check_points)
    errors = [s for s in samples if s.result is None]
    attempted = len(samples)
    simulated = sum(layers.instructions(jobs[s.index])
                    for s in samples if s.result is not None)
    ref_ms = [s.ref * 1000.0 for s in samples]
    host_s = sum(s.seconds for s in samples)
    ref_s = sum(s.ref for s in samples)
    notes: Dict[str, object] = {
        "samples": attempted,
        "samples_beyond_p90": sum(1 for v in ref_ms if v > measure.p90(ref_ms)),
        "host_seconds": host_s,
        # well below host_seconds when the host took the core away
        "host_cpu_seconds": cpu_s,
        "host_sim_kips": simulated / host_s / 1000.0,
        "host_job_p50_ms": measure.median([s.seconds * 1000.0 for s in samples]),
        "setup_probes": probes,
        "mismatches": mismatches,
        # sampled points where Executor(check=True) disagreed with the
        # run and the unperturbed reference loop agreed with it
        "checked_points_perturbed": perturbed,
        "errors": sorted({s.error for s in errors}),
    }

    if not trace:
        failed = len(errors) + len(mismatches)
        metrics = measure.end_to_end(
            simulated, attempted - len(errors), ref_s, ref_ms,
            measure.median([p["wall_s"] for p in probes]), peak_rss,
            failed, attempted)
        return Outcome(not mismatches, attempted, failed, metrics, notes)

    # -- traced replay of the same jobs, in the same order --------------------
    spans = measure.Spans()
    timer = measure.AccessTimer()
    tiers2 = engine_tier_counters()
    replay = timed([s.index for s in samples], 1,
                   layers.traced_runner(jobs, spans, timer), calibrator)
    for s, r in zip(samples, replay):
        if r.error or not _same(r.result, s.result):
            mismatches.append(f"traced run of point {s.index} differs")
    untraced_tiers = layers.tier_delta(tiers0, tiers1)
    traced_tiers = layers.tier_delta(tiers2, engine_tier_counters())
    if traced_tiers != untraced_tiers:
        mismatches.append(f"traced run took engine tiers {traced_tiers}, "
                          f"untraced {untraced_tiers}")
    notes["spans"] = spans

    out = layers.empty()
    out.update(layers.engine_metrics(spans, timer, simulated))
    out.update(layers.sim_stats([s.result for s in samples if s.result is not None]))
    loaded = measure.run_probe(traces, wl.SCALE, run_dir / "cache")
    out["compile.trace_compile_s"] = metric(probes[0]["compile_s"], "s")
    out["compile.trace_load_ms"] = metric(loaded["compile_s"] * 1000.0 / len(traces), "ms")
    for key, name in (("hits", "trace_compile_hits"), ("misses", "trace_compile_misses")):
        out[f"compile.{key}"] = metric(compiles1[name] - compiles0[name], "count")
    for tier in layers.TIERS:
        out[f"engine.tier.{tier}"] = metric(tiers1[tier] - tiers0[tier], "count")
    out.update(_subtractions(workload, specs, samples, calibrator))
    rng = random.Random(f"profile:{workload}:{seed}")
    profiled = rng.sample(range(len(jobs)), min(SUBTRACT_POINTS, len(jobs)))
    out.update(layers.profile_shares([jobs[i] for i in profiled]))
    out["trace.overhead_ratio"] = metric(
        sum(r.ref for r in replay) / ref_s - 1.0, "ratio")
    failed = len(errors) + len(mismatches)
    return Outcome(not mismatches, attempted + len(replay), failed, out, notes)


def _subtractions(workload: str, specs, samples: List[Sample],
                  calibrator: measure.Calibrator) -> Dict[str, Dict[str, object]]:
    """Layer costs by subtraction, which shares no per-call bias with
    cProfile: a point minus the same point without its prefetcher
    (or its timeline), and ``lru-interface`` minus ``lru``."""
    from repro.serve.jobs import job_from_wire
    from repro.sim.executor import Executor

    executor = Executor(workers=1)
    by_point: Dict[int, List[float]] = {}
    for s in samples:
        by_point.setdefault(s.index, []).append(s.ref)
    point_s = {i: measure.median(v) for i, v in by_point.items()}
    rng = random.Random(f"subtract:{workload}")

    def without(key: str, value, indices) -> (List[int], List[float]):
        chosen = rng.sample(indices, min(SUBTRACT_POINTS, len(indices)))
        bare = []
        for i in chosen:
            spec = {k: v for k, v in specs[i].items() if k != key}
            if value is not None:
                spec[key] = value
            job = job_from_wire(spec)
            bare.append(layers.median_time(
                lambda: executor.run_job(job), SUBTRACT_REPS, calibrator))
        return chosen, bare

    out: Dict[str, Dict[str, object]] = {}
    with_pf = [i for i in sorted(point_s) if specs[i]["prefetcher"] != "none"]
    if with_pf:
        chosen, bare = without("prefetcher", "none", with_pf)
        diffs = [point_s[i] - b for i, b in zip(chosen, bare)]
        out["prefetcher.subtract_s"] = metric(measure.median(diffs), "ref-s")
        out["prefetcher.subtract_share"] = metric(
            sum(diffs) / sum(point_s[i] for i in chosen), "ratio")
    observed = [i for i in sorted(point_s) if specs[i].get("obs")]
    if observed:
        chosen, bare = without("obs", None, observed)
        out["obs.overhead_ratio"] = metric(
            sum(point_s[i] for i in chosen) / sum(bare), "ratio")
    lru = {(specs[i]["workload"], specs[i]["seed"]): point_s[i]
           for i in point_s if specs[i].get("replacement") == "lru"}
    diffs = [point_s[i] - lru[(specs[i]["workload"], specs[i]["seed"])]
             for i in point_s if specs[i].get("replacement") == "lru-interface"
             and (specs[i]["workload"], specs[i]["seed"]) in lru]
    if diffs:
        out["memsys.replacement_subtract_s"] = metric(measure.median(diffs), "ref-s")
    return out
