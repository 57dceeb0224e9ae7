"""The trace-driven multi-core simulation loop.

The engine advances the core with the smallest local clock (a 4-entry
heap), pulling the next instruction from that core's workload stream and
routing memory operations through the shared hierarchy — so cross-core
interleaving at the LLC and DRAM follows simulated time, not round-robin
instruction count.

Runs have a warm-up window (caches, history tables, and translation fill
up) followed by a measurement window; all reported counters are deltas
over the measurement window, mirroring the paper's SimFlex methodology
(40 K warm-up / 160 K measured per checkpoint — our defaults scale the
same 20/80 split).
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.common.config import SystemConfig
from repro.common.stats import StatGroup
from repro.cpu.core import CoreTimingModel
from repro.memsys.hierarchy import MemoryHierarchy
from repro.memsys.replacement import TraceOracle, available_replacements
from repro.obs.config import ObservabilityConfig
from repro.obs.sinks import NULL_SINK, TraceSink, build_sink
from repro.obs.timeline import TimelineRecorder
from repro.prefetchers.base import Prefetcher
from repro.prefetchers.registry import make_prefetcher
from repro.sim.compile.workload import CompiledWorkload
from repro.sim.results import CoreResult, SimResult

#: Version of the vector tier (``repro.sim.vector``).
#: Bump when a change to its drain walk or barrier handling could change
#: a result; the executor folds it into result-cache digests.
#: v2: batched miss path (misspath.py) + drain mode + per-reason demotion.
#: v3: interval-timeline sampling at barriers; stretch rewind on demotion.
#: v4: every core starts in drain mode; the demotion handoff is gone.
VECTOR_VERSION = 4

#: Process-local counts of which engine tier each ``run()`` selected:
#: ``vectorized`` (the fast tier) or ``general`` (the reference loop).
#: ``compiled`` and ``demoted`` name tiers that no longer exist and stay
#: 0; they are kept because the benchmark's ``perfbench/layers.TIERS``
#: reads them.  Diagnostics only — deliberately *not* routed into
#: ``SimResult`` or ``raw_stats``, which must stay byte-identical across
#: tiers.  A job run in a disposable child process
#: (``Executor.run_job_guarded``) adds its child's counts here.
_TIER_RUNS = {
    "vectorized": 0,
    "compiled": 0,
    "general": 0,
    "demoted": 0,
}
#: service slots fold their jobs' counts in from several threads
_TIER_LOCK = threading.Lock()


def engine_tier_counters() -> Dict[str, int]:
    """Snapshot of per-tier run counts (this process only)."""
    return dict(_TIER_RUNS)


def add_tier_runs(runs: Dict[str, int]) -> None:
    """Add per-tier run counts (a run here, or a child process's runs)."""
    with _TIER_LOCK:
        for tier, count in runs.items():
            _TIER_RUNS[tier] += count


@dataclass(frozen=True)
class SimulationParams:
    """How long to run: per-core instruction budgets."""

    instructions_per_core: int = 100_000
    warmup_instructions: int = 20_000

    def __post_init__(self) -> None:
        if self.instructions_per_core <= 0:
            raise ValueError("instructions_per_core must be positive")
        if not 0 <= self.warmup_instructions < self.instructions_per_core:
            raise ValueError(
                "warmup_instructions must be in [0, instructions_per_core)"
            )


class SimulationEngine:
    """One workload × one prefetcher configuration × one system."""

    def __init__(
        self,
        workload,
        prefetcher: str = "none",
        system: Optional[SystemConfig] = None,
        params: Optional[SimulationParams] = None,
        prefetcher_kwargs: Optional[dict] = None,
        prefetchers: Optional[Sequence[Prefetcher]] = None,
        train_at: str = "llc",
        obs: Optional[ObservabilityConfig] = None,
        sink: Optional[TraceSink] = None,
        vectorized: bool = True,
        replacement: str = "lru",
    ) -> None:
        """``obs`` selects what the run records (trace file, timeline);
        ``sink`` overrides the trace destination with a ready-made
        :class:`~repro.obs.sinks.TraceSink` (ring buffers, recorders).
        A sink built *here* from ``obs.trace_path`` is owned by the
        engine and closed when :meth:`run` returns.  ``vectorized``
        is the fast/reference switch: it permits the vector tier when
        the run qualifies (see :meth:`_vector_path_eligible`);
        off, or on a run that does not qualify, the reference loop runs.
        Results are identical either way.  ``replacement`` selects the
        LLC policy from :mod:`repro.memsys.replacement`; ``"opt"`` needs
        next-use knowledge and therefore a compiled workload to
        pre-scan."""
        self.workload = workload
        self.vectorized = vectorized
        if replacement not in available_replacements():
            raise ValueError(
                f"unknown replacement policy {replacement!r}; "
                f"available: {available_replacements()}"
            )
        self.replacement = replacement
        self.system = system if system is not None else SystemConfig()
        self.params = params if params is not None else SimulationParams()
        self.prefetcher_name = prefetcher
        self.obs = obs if obs is not None else ObservabilityConfig()
        self._owns_sink = False
        if sink is None:
            sink = build_sink(self.obs)
            self._owns_sink = sink is not None
        self.sink = sink if sink is not None else NULL_SINK

        if workload.num_cores != self.system.num_cores:
            raise ValueError(
                f"workload {workload.name!r} defines {workload.num_cores} core "
                f"streams but the system has {self.system.num_cores} cores"
            )

        if prefetchers is not None:
            if len(prefetchers) != self.system.num_cores:
                raise ValueError("one prefetcher instance per core is required")
            self.prefetchers = list(prefetchers)
        elif prefetcher == "none":
            self.prefetchers = []
        else:
            kwargs = prefetcher_kwargs or {}
            self.prefetchers = [
                make_prefetcher(prefetcher, self.system.address_map, **kwargs)
                for _ in range(self.system.num_cores)
            ]

        oracle = None
        if replacement == "opt":
            if not isinstance(workload, CompiledWorkload):
                raise ValueError(
                    "replacement='opt' needs the packed trace arenas to "
                    "pre-scan next-use distances; run with a compiled "
                    "workload (compile=True / --compiled)"
                )
            oracle = TraceOracle(workload, self.system)

        self.stats = StatGroup("run")
        self.hierarchy = MemoryHierarchy(
            self.system,
            self.prefetchers,
            stats=self.stats.child("memsys"),
            train_at=train_at,
            sink=self.sink,
            replacement=replacement,
            replacement_oracle=oracle,
        )
        self.cores = [
            CoreTimingModel(self.system.core, stats=self.stats.child(f"core{i}"))
            for i in range(self.system.num_cores)
        ]

        # Interval timeline: sample the LLC/DRAM counters and per-core
        # progress every N retired instructions (across all cores).
        memsys = self.stats.child("memsys")
        self.timeline: Optional[TimelineRecorder] = (
            TimelineRecorder(
                self.obs.timeline_interval,
                llc_stats=memsys.child("llc"),
                dram_stats=memsys.child("dram"),
            )
            if self.obs.timeline_interval
            else None
        )
        #: retired-instruction position of the next timeline sample; every
        #: tier advances it as it samples, so both phases continue one
        #: cadence
        self._next_sample = self.obs.timeline_interval

    # -- phases -----------------------------------------------------------
    def _run_until(self, streams, budget_per_core: int) -> None:
        """Advance every core to ``budget_per_core`` retired instructions.

        Cores are interleaved by their *dispatch* clock, not their retire
        clock: memory requests carry dispatch-time timestamps into the
        shared DRAM model, so processing cores in dispatch order keeps
        those timestamps (nearly) monotonic and the channel-queue
        accounting honest.  Ordering by retire time would let a core that
        just absorbed a long miss stamp its next, independent request far
        in the past relative to other cores' traffic.
        """
        heap = [
            (core.next_issue_time(), core_id)
            for core_id, core in enumerate(self.cores)
            if core.instructions < budget_per_core
        ]
        heapq.heapify(heap)
        recorder = self.timeline  # None when the timeline is disabled
        retired = sum(core.instructions for core in self.cores)
        while heap:
            _, core_id = heapq.heappop(heap)
            core = self.cores[core_id]
            record = next(streams[core_id])
            if record.is_mem:
                issue = core.load_issue_time(record.depends_on_prev_load)
                result = self.hierarchy.access(
                    core_id, record.pc, record.address, issue, record.is_write
                )
                core.retire_memory(
                    issue, result.latency, is_load=not record.is_write
                )
            else:
                core.retire_compute()
            if recorder is not None:
                retired += 1
                if retired >= self._next_sample:
                    recorder.sample(
                        retired,
                        [(core.instructions, core.time) for core in self.cores],
                    )
                    self._next_sample += recorder.interval
            if core.instructions < budget_per_core:
                heapq.heappush(heap, (core.next_issue_time(), core_id))

    def _vector_path_eligible(self) -> bool:
        """True when the vector tier may replace the reference loop
        (:meth:`_run_until`).

        The tier replays packed arenas, so the workload must be compiled
        and cover the run's budget.  It skips per-record sink guards, so
        it only engages when the sink is provably inert: the module-level
        ``NULL_SINK`` (an interval timeline does not disqualify it — the
        tier takes byte-identical samples itself, see ``VectorReplay``).
        It retires L1 hits in its own walk, so prefetchers (if any) must
        observe the **LLC**: ``train_at="l1"`` stays eligible only for the
        no-prefetcher baseline, where the L1 eviction hook is inert.
        Everything else — ``vectorized=False`` included — runs the
        reference loop, byte-for-byte.
        """
        return (
            self.vectorized
            and isinstance(self.workload, CompiledWorkload)
            and self.sink is NULL_SINK
            and self.workload.records_per_core
            >= self.params.instructions_per_core
            and (not self.prefetchers or self.hierarchy.train_at == "llc")
        )

    # -- the full run -----------------------------------------------------------
    def run(self) -> SimResult:
        # A sink built here from ``obs.trace_path`` is entered as a
        # context manager: however the run ends — normally, by exception,
        # or by KeyboardInterrupt — the trace file is flushed and closed,
        # never left truncated at the OS buffer boundary.
        if self._owns_sink:
            with self.sink:
                return self._run()
        return self._run()

    def _run(self) -> SimResult:
        params = self.params
        if self._vector_path_eligible():
            from repro.sim.vector import VectorReplay

            advance = VectorReplay(self).advance
            add_tier_runs({"vectorized": 1})
        else:
            add_tier_runs({"general": 1})
            streams = {
                core_id: self.workload.core_stream(core_id)
                for core_id in range(self.system.num_cores)
            }

            def advance(budget: int) -> None:
                self._run_until(streams, budget)

        if params.warmup_instructions:
            advance(params.warmup_instructions)
        snapshot = self.stats.snapshot()
        core_marks = [(core.instructions, core.time) for core in self.cores]

        advance(params.instructions_per_core)
        self.hierarchy.finalize()
        final = self.stats.snapshot()

        recorder = self.timeline
        if recorder is not None:
            # Close the last (possibly partial) interval so the
            # timeline's deltas sum to the whole-run totals.
            retired = sum(core.instructions for core in self.cores)
            if retired > recorder.last_instructions():
                recorder.sample(
                    retired, [(core.instructions, core.time) for core in self.cores]
                )
            timeline = list(recorder.samples)
        else:
            timeline = []

        result = self._build_result(snapshot, final, core_marks)
        result.timeline = timeline
        return result

    # -- result assembly -----------------------------------------------------------
    def _delta(self, snapshot: Dict[str, float], final: Dict[str, float],
               key: str) -> int:
        return int(final.get(key, 0) - snapshot.get(key, 0))

    def _build_result(
        self,
        snapshot: Dict[str, float],
        final: Dict[str, float],
        core_marks: List[tuple],
    ) -> SimResult:
        cores = []
        for core, (warm_instr, warm_time) in zip(self.cores, core_marks):
            cores.append(
                CoreResult(
                    instructions=core.instructions - warm_instr,
                    cycles=core.time - warm_time,
                )
            )
        llc = "run.memsys.llc."
        dram = "run.memsys.dram."
        # Every core carries an identical copy of the prefetcher metadata,
        # and Fig. 9 charges the *per-core* budget, so read the first
        # instance; the "none" baseline has no prefetchers and costs 0.
        storage = self.prefetchers[0].storage_bits if self.prefetchers else 0
        pf_prefix = "run.memsys.prefetcher."
        pf_counters = {
            key[key.rindex(".") + 1 :]: final[key] - snapshot.get(key, 0)
            for key in final
            if key.startswith(pf_prefix)
        }
        return SimResult(
            workload=self.workload.name,
            prefetcher=self.prefetcher_name,
            cores=cores,
            demand_accesses=self._delta(snapshot, final, llc + "demand_accesses"),
            demand_hits=self._delta(snapshot, final, llc + "demand_hits"),
            demand_misses=self._delta(snapshot, final, llc + "demand_misses"),
            covered=self._delta(snapshot, final, llc + "covered"),
            late_covered=self._delta(snapshot, final, llc + "late_covered"),
            prefetches_issued=self._delta(
                snapshot, final, llc + "prefetches_issued"
            ),
            redundant_prefetches=self._delta(
                snapshot, final, llc + "redundant_prefetches"
            ),
            overpredictions=self._delta(snapshot, final, llc + "overpredictions"),
            prefetch_unused_at_end=int(
                final.get(llc + "prefetch_unused_at_end", 0)
            ),
            dram_reads=self._delta(snapshot, final, dram + "reads"),
            dram_row_hits=self._delta(snapshot, final, dram + "row_hits"),
            prefetcher_storage_bits=storage,
            prefetcher_counters=pf_counters,
            raw_stats=self.stats.as_dict(),
        )
