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

#: Version of the specialised compiled-trace inner loop.  Bump on any
#: change to ``_run_until_compiled`` (or the state it mirrors from
#: ``CoreTimingModel``): the executor folds it into result-cache digests
#: so entries produced by an older fast path are never served.
#: v2: samples interval timelines in segments (timeline runs no longer
#: fall back to the general loop).
FASTPATH_VERSION = 2

#: Version of the vectorized batch-replay tier (``repro.sim.vector``).
#: Bump on any change to its kernels or barrier handling; the executor
#: folds it into result-cache digests alongside ``FASTPATH_VERSION``.
#: v2: batched miss path (misspath.py) + drain mode + per-reason demotion.
#: v3: interval-timeline sampling at barriers; stretch rewind on demotion.
VECTOR_VERSION = 3

#: Process-local counts of which engine tier each ``run()`` selected.
#: ``demoted`` counts vectorized runs that handed off to the compiled
#: loop mid-run.  The one reason left, ``demoted_ineligible_policy``
#: (see ``VectorReplay._should_demote``), is an LLC replacement-policy
#: interface or Belady oracle keeping the miss path in fallback mode on
#: a miss-dense trace, so it always equals ``demoted``.
#: Diagnostics only — deliberately *not* routed into ``SimResult`` or
#: ``raw_stats``, which must stay byte-identical across tiers.
_TIER_RUNS = {
    "vectorized": 0,
    "compiled": 0,
    "general": 0,
    "demoted": 0,
    "demoted_ineligible_policy": 0,
}


def engine_tier_counters() -> Dict[str, int]:
    """Snapshot of per-tier run counts (this process only)."""
    return dict(_TIER_RUNS)


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
        permits the NumPy batch-replay tier when the run qualifies
        (see :meth:`_vector_path_eligible`); results are identical
        either way.  ``replacement`` selects the LLC policy from
        :mod:`repro.memsys.replacement`; ``"opt"`` needs next-use
        knowledge and therefore a compiled workload to pre-scan."""
        self.workload = workload
        self.vectorized = vectorized
        if replacement not in available_replacements():
            raise ValueError(
                f"unknown replacement policy {replacement!r}; "
                f"available: {available_replacements()}"
            )
        self.replacement = replacement
        #: fixed chunk size for the vectorized tier (tests); None = adaptive
        self._vector_chunk: Optional[int] = None
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
        #: tier advances it as it samples, so phases and a mid-run tier
        #: handoff continue one cadence
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

    def _fast_path_eligible(self) -> bool:
        """True when the specialised compiled-trace loop may replace
        :meth:`_run_until`.

        The fast path skips per-record sink guards, so it only engages
        when the sink is provably inert: the module-level ``NULL_SINK``.
        An interval timeline does not disqualify it — the fast tiers
        take byte-identical samples themselves (see
        :meth:`_run_until_compiled` and ``VectorReplay``).  A trace sink,
        or a trace compiled shorter than the run, falls back to the
        general loop, byte-for-byte.
        """
        return (
            isinstance(self.workload, CompiledWorkload)
            and self.sink is NULL_SINK
            and self.workload.records_per_core
            >= self.params.instructions_per_core
        )

    def _vector_path_eligible(self) -> bool:
        """True when the NumPy batch-replay tier may run this simulation.

        Requires everything :meth:`_fast_path_eligible` does (so a
        timeline run qualifies, and only trace sinks force the generator
        loop), and that the prefetchers (if any) observe the **LLC** — the
        vector tier batches L1 hits, so an L1-training prefetcher would
        miss its input stream.  ``train_at="l1"`` stays eligible only for
        the no-prefetcher baseline, where the L1 eviction hook is inert.
        """
        if not (self.vectorized and self._fast_path_eligible()):
            return False
        return not self.prefetchers or self.hierarchy.train_at == "llc"

    def _run_until_compiled(self, arenas, cursors, budget_per_core: int) -> None:
        """:meth:`_run_until`, specialised for packed compiled traces.

        Replays the packed pc/address/flag words directly — no
        ``TraceRecord`` allocation, no generator frames — and inlines
        :class:`~repro.cpu.core.CoreTimingModel`'s dispatch/retire
        arithmetic over local mirrors of its state (written back on
        exit, before any snapshot can observe them).  Every float is
        produced by the same operations in the same order as the
        general loop, so results are bit-identical; the equivalence
        suite (``tests/sim/test_compile.py``) holds this to
        field-for-field ``SimResult`` equality.

        The heap pops exactly ``remaining`` records, so the loop runs in
        segments of a known pop count: the whole phase when the timeline
        is off, otherwise up to the next sample position, where the
        global retired count equals the generator loop's and the sample
        reads the mirrors.  Records already retired past ``_next_sample``
        on entry (a vector-tier handoff) are sampled before the first pop.
        """
        cores = self.cores
        access = self.hierarchy.access
        heappush = heapq.heappush
        heappop = heapq.heappop
        # local mirrors of per-core CoreTimingModel state
        counts = [core._count for core in cores]
        last_dispatch = [core._last_dispatch for core in cores]
        last_retire = [core._last_retire for core in cores]
        last_load_complete = [core._last_load_complete for core in cores]
        rings = [core._retire_ring for core in cores]
        robs = [core._rob for core in cores]
        intervals = [core._dispatch_interval for core in cores]
        pcs = [arena.pcs for arena in arenas]
        addresses = [arena.addresses for arena in arenas]
        flags = [arena.flags for arena in arenas]

        heap = []
        for core_id in range(len(cores)):
            count = counts[core_id]
            if count < budget_per_core:
                dispatch = last_dispatch[core_id] + intervals[core_id]
                if count >= robs[core_id]:
                    ready = rings[core_id][count % robs[core_id]]
                    if ready > dispatch:
                        dispatch = ready
                heap.append((dispatch, core_id))
        heapq.heapify(heap)
        recorder = self.timeline
        remaining = sum(
            budget_per_core - count for count in counts if count < budget_per_core
        )
        retired = sum(counts)

        try:
            while True:
                if recorder is not None:
                    while retired >= self._next_sample:
                        recorder.sample(retired, list(zip(counts, last_retire)))
                        self._next_sample += recorder.interval
                    segment = min(remaining, self._next_sample - retired)
                else:
                    segment = remaining
                if not segment:
                    break
                remaining -= segment
                retired += segment
                for _ in range(segment):
                    _, core_id = heappop(heap)
                    index = cursors[core_id]
                    cursors[core_id] = index + 1
                    count = counts[core_id]
                    ring = rings[core_id]
                    rob = robs[core_id]
                    # next_issue_time()
                    dispatch = last_dispatch[core_id] + intervals[core_id]
                    if count >= rob:
                        ready = ring[count % rob]
                        if ready > dispatch:
                            dispatch = ready
                    bits = flags[core_id][index]
                    if bits:  # memory instruction
                        issue = dispatch
                        if bits & 4:  # depends_on_prev_load
                            arrived = last_load_complete[core_id]
                            if arrived > issue:
                                issue = arrived
                        result = access(
                            core_id,
                            pcs[core_id][index],
                            addresses[core_id][index],
                            issue,
                            bool(bits & 2),  # is_write
                        )
                        complete = issue + result.latency
                        if not bits & 2:
                            last_load_complete[core_id] = complete
                    else:
                        complete = dispatch + 1.0  # CoreTimingModel.ALU_LATENCY
                    retire = last_retire[core_id]
                    if complete > retire:
                        retire = complete
                    ring[count % rob] = retire
                    count += 1
                    counts[core_id] = count
                    last_dispatch[core_id] = dispatch
                    last_retire[core_id] = retire
                    if count < budget_per_core:
                        dispatch = dispatch + intervals[core_id]
                        if count >= rob:
                            ready = ring[count % rob]
                            if ready > dispatch:
                                dispatch = ready
                        heappush(heap, (dispatch, core_id))
        finally:
            # write the mirrors back so snapshots/results see the same
            # state the general loop would have left (even on error)
            for core_id, core in enumerate(cores):
                core._count = counts[core_id]
                core._last_dispatch = last_dispatch[core_id]
                core._last_retire = last_retire[core_id]
                core._last_load_complete = last_load_complete[core_id]
                core._stat_instructions.value = counts[core_id]
                core._stat_cycles.value = last_retire[core_id]

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

            replay = VectorReplay(self, chunk_records=self._vector_chunk)
            advance = replay.advance
            _TIER_RUNS["vectorized"] += 1
        elif self._fast_path_eligible():
            _TIER_RUNS["compiled"] += 1
            arenas = [
                self.workload.packed(core_id)
                for core_id in range(self.system.num_cores)
            ]
            cursors = [0] * self.system.num_cores

            def advance(budget: int) -> None:
                self._run_until_compiled(arenas, cursors, budget)

        else:
            _TIER_RUNS["general"] += 1
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
