"""Seeded job lists for the benchmark's four workloads.

Every job is a service wire spec (``repro.serve.jobs.job_to_wire``'s
format): in-process workloads turn it into a ``SimJob`` with
``job_from_wire``, the service workload POSTs it unchanged.  Jobs are
therefore built only from ``SimJob.build`` defaults, and no spec names an
engine tier or the trace-compile switch.

This module imports nothing from ``repro``, so the job lists can be
generated (and their determinism tested) without the simulator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: The scaled-down experiment hierarchy and working sets every figure uses.
SCALE = 0.125
SYSTEM = "experiment"

TABLE2 = (
    "data_serving", "sat_solver", "streaming", "zeus", "em3d",
    "mix1", "mix2", "mix3", "mix4", "mix5",
)
PAPER_PREFETCHERS = ("bingo", "sms", "spp", "bop", "ampm", "vldp")
MISS_DENSE = ("zipf", "oscillate", "phase_shift", "mix3")
POLICIES = ("lru", "lru-interface", "arc")
TIMELINE_WORKLOADS = ("streaming", "em3d", "mix1", "mix3")
TIMELINE_PREFETCHERS = ("bingo", "sms", "spp")
SERVICE_WORKLOADS = ("streaming", "em3d", "mix1", "data_serving")
SERVICE_PREFETCHERS = ("none", "bingo", "sms", "spp")
#: trace seeds per service workload: a small pool, so trace-cache hits
#: are the common case
SERVICE_TRACE_SEEDS = 2
#: one service submission in this many repeats an earlier spec exactly
REPEAT_EVERY = 5
#: a repeat copies a spec at least this many positions back, so with two
#: closed-loop clients it has been taken before and usually completed
#: (a repeat of a spec still in flight is deduplicated instead)
REPEAT_MIN_LAG = 2

WORKLOADS: Dict[str, str] = {
    "sweep-prefetch": (
        "Table II x six prefetchers on native LRU in-process: the "
        "prefetcher layer (on_access, table probes, hashing) does most "
        "of the work"
    ),
    "sweep-missdense": (
        "miss-dense stress traces plus mix3 with no prefetcher under "
        "lru, lru-interface and arc: memsys and the vector miss path do "
        "the work"
    ),
    "service-closed": (
        "bingo-sim serve with two closed-loop HTTP clients on short "
        "jobs: per-job service and executor overhead, not simulation, "
        "sets latency"
    ),
    "observed-timeline": (
        "a subset of sweep-prefetch points with an interval timeline, "
        "which today forces the reference engine loop and repro.obs"
    ),
}


@dataclass(frozen=True)
class Size:
    """Run lengths of one benchmark size (instructions per core)."""

    instructions: int
    warmup: int
    service_instructions: int
    timeline_interval: int
    service_jobs: int
    #: set-up repetitions whose median is ``setup_s``
    setups: int
    #: in-process points re-run through ``Executor(check=True)``
    check_points: int
    #: points of a pass (in-process) kept; None keeps the whole pass
    max_points: Optional[int] = None


#: In-process points run 20k instructions per core (4k of them warm-up),
#: a fifth of a ``SimJob.build`` default job: enough for several
#: vector-tier chunks per core, so per-run fixed costs do not dominate,
#: while a pass of the largest workload still fits in one run.
#: Service jobs are short (5k) on purpose: that workload measures
#: per-job overhead, not simulation.
FULL = Size(
    instructions=20_000,
    warmup=4_000,
    service_instructions=5_000,
    timeline_interval=2_000,
    service_jobs=2000,
    setups=5,
    check_points=3,
)
#: the self-tests' smoke size: every code path, a second or two each
TINY = Size(
    instructions=600,
    warmup=100,
    service_instructions=400,
    timeline_interval=400,
    service_jobs=400,
    setups=1,
    check_points=1,
    max_points=3,
)


#: host seconds of one pass of each in-process workload at FULL size
#: (2-vCPU host, median of ten runs).  A run makes the whole number of
#: passes nearest to its ``--seconds`` on that host; the count is fixed
#: per workload, so a host slow phase cannot change how many samples a
#: run takes (and with them its percentiles).
PASS_SECONDS = {
    "sweep-prefetch": 14.0,
    "sweep-missdense": 6.8,
    "observed-timeline": 7.9,
}


def passes(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def _spec(workload: str, prefetcher: str, seed: int, instructions: int,
          warmup: int, **extra) -> Dict[str, object]:
    spec: Dict[str, object] = {
        "workload": workload,
        "prefetcher": prefetcher,
        "instructions": instructions,
        "warmup": warmup,
        "seed": seed,
        "scale": SCALE,
        "system": SYSTEM,
    }
    spec.update(extra)
    return spec


def _trace_seeds(rng: random.Random, names) -> Dict[str, int]:
    return {name: rng.randrange(1, 2**31) for name in names}


def points(workload: str, seed: int, size: Size = FULL) -> List[Dict[str, object]]:
    """One pass of an in-process workload, in seeded order.

    The seed picks each trace's generator seed and the order of the
    pass; the set of (workload, prefetcher, policy) points is fixed, so
    every seed measures the same mix.
    """
    rng = random.Random(f"{workload}:{seed}")
    n, w = size.instructions, size.warmup
    if workload == "sweep-prefetch":
        seeds = _trace_seeds(rng, TABLE2)
        specs = [
            _spec(name, pf, seeds[name], n, w)
            for name in TABLE2 for pf in PAPER_PREFETCHERS
        ]
    elif workload == "sweep-missdense":
        seeds = _trace_seeds(rng, MISS_DENSE)
        specs = [
            _spec(name, "none", seeds[name], n, w, replacement=policy)
            for name in MISS_DENSE for policy in POLICIES
        ]
    elif workload == "observed-timeline":
        seeds = _trace_seeds(rng, TIMELINE_WORKLOADS)
        specs = [
            _spec(name, pf, seeds[name], n, w,
                  obs={"timeline_interval": size.timeline_interval})
            for name in TIMELINE_WORKLOADS for pf in TIMELINE_PREFETCHERS
        ]
    else:
        raise ValueError(f"{workload!r} is not an in-process workload")
    rng.shuffle(specs)
    return specs[: size.max_points]


def service_jobs(seed: int, size: Size = FULL) -> List[Dict[str, object]]:
    """The service workload's submission sequence, in order.

    Every ``REPEAT_EVERY``-th position repeats an earlier spec exactly
    (at least ``REPEAT_MIN_LAG`` positions back), which the service
    answers from its result cache or deduplicates onto the in-flight
    run.  Fresh specs cycle through seeded permutations of every
    (workload, prefetcher) pair, so any prefix of the sequence has the
    same mix; each draws a trace seed from a small pool and a warm-up
    length unique within the sequence (the warm-up does not change the
    trace, so fresh specs share compiled traces).
    """
    rng = random.Random(f"service-closed:{seed}")
    seeds = {
        name: [rng.randrange(1, 2**31) for _ in range(SERVICE_TRACE_SEEDS)]
        for name in SERVICE_WORKLOADS
    }
    pairs = [(w, p) for w in SERVICE_WORKLOADS for p in SERVICE_PREFETCHERS]
    n = size.service_instructions
    seen = set()
    cycle: List[Tuple[str, str]] = []
    jobs: List[Dict[str, object]] = []
    while len(jobs) < size.service_jobs:
        if len(jobs) % REPEAT_EVERY == REPEAT_EVERY - 1:
            jobs.append(dict(rng.choice(jobs[: len(jobs) - REPEAT_MIN_LAG + 1])))
            continue
        if not cycle:
            cycle = rng.sample(pairs, len(pairs))
        name, prefetcher = cycle.pop()
        identity = (name, prefetcher, rng.choice(seeds[name]), rng.randrange(1, n))
        while identity in seen:
            identity = identity[:3] + (rng.randrange(1, n),)
        seen.add(identity)
        jobs.append(_spec(name, prefetcher, identity[2], n, identity[3]))
    return jobs


def warm_cover(specs) -> List[int]:
    """Indices of a few specs that together touch every trace and every
    (prefetcher, policy, observability) variant of ``specs``: running
    them once maps each trace and imports each code path before timing."""
    def variant(spec):
        return (spec["prefetcher"], spec.get("replacement"), bool(spec.get("obs")))

    seen_traces, seen_variants, chosen = set(), set(), []
    for index, spec in enumerate(specs):
        trace = (spec["workload"], spec["seed"])
        if trace not in seen_traces or variant(spec) not in seen_variants:
            chosen.append(index)
            seen_traces.add(trace)
            seen_variants.add(variant(spec))
    return chosen


def traces(specs) -> List[Tuple[str, int, int]]:
    """The distinct ``(workload, seed, instructions)`` traces of ``specs``."""
    return sorted(
        {(s["workload"], s["seed"], s["instructions"]) for s in specs}
    )


#: Per-layer metrics and the end-to-end metric (and workload) each should
#: move.  Printed in every run's provenance line; a layer metric reads 0
#: on a workload whose measured process does not exercise that layer.
LAYER_TARGETS: Dict[str, str] = {
    "serve.*": "job_p50_ms/job_p90_ms and jobs_per_s on service-closed",
    "executor.*": "job_p50_ms on service-closed",
    "compile.*": "setup_s on all workloads; job_p90_ms on service-closed",
    "engine.*": "sim_kips on all in-process workloads",
    "prefetcher.*": "sim_kips on sweep-prefetch (about 0 on sweep-missdense)",
    "memsys.*": "sim_kips on sweep-missdense",
    "obs.*": "sim_kips on observed-timeline",
    "layer.*.self_share": "cross-check of the subtraction metrics",
    "trace.overhead_ratio": "none: the traced run's own cost",
}
