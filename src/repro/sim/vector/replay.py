"""NumPy batch replay over packed trace arenas: the vectorized tier.

The reference loop (:meth:`SimulationEngine._run_until`) interleaves
cores by a dispatch-time heap and walks records one at a time.  This
module replays the same traces from their packed arenas with the same
global semantics, and is the engine's only fast tier.  It batches
everything that does not touch shared state:

* **Barrier decomposition.**  Only L1 *misses* reach shared machinery
  (per-core MSHRs keyed by call order, the shared LLC/DRAM, the
  translator's shared frame PRNG, ``hierarchy._now``).  L1 hits and
  compute instructions touch nothing but their core's private timing
  state and additive stat counters, so they commute with every other
  core's work.  The driver therefore runs each core up to its next miss
  (the "barrier"), then executes pending barriers one at a time in
  global ``(dispatch, core_id)`` order — exactly the order the scalar
  heap pops them, because per-core dispatch times strictly increase and
  heap ties break by core id.  When a core's next barrier dispatches
  strictly before every other pending barrier, it is executed inline
  without a heap round-trip (the pop would return it anyway).

* **Array L1s.**  Each core's L1D lives in preallocated tag/valid
  arrays plus an LRU *stamp* per way holding the instruction index of
  the block's last touch.  Per-instruction indices are unique, so
  ``argmin(stamp)`` reproduces the ``OrderedDict`` LRU victim exactly;
  hit touches commit with an ordered scatter (later touches of a block
  overwrite earlier ones, so the surviving stamp is the latest).

* **Bit-exact timing kernels.**  Dispatch chains use sequential
  ``np.add.accumulate`` (same float additions, same order, as the
  scalar loop); ROB readiness is handled by *anchored retry* — assume
  the pure chain, find the first position where the retire ring binds,
  commit the exact prefix, anchor that one instruction on the exact
  ring value, and retry.  Dependent-load serialisation is fixed up by
  a short scalar pass over just the dependent positions.  Every float
  the kernels produce is the result of the same operations in the same
  order as the scalar loop, so ``SimResult``\\ s match field for field.

* **A batched miss path** (:mod:`repro.sim.vector.misspath`).  Each
  classified chunk's known-block barriers are pre-resolved in one
  NumPy pass — MSHR no-merge gate, DRAM routes, and (without
  prefetchers) generation-guarded LLC membership verdicts — and the
  barriers themselves run through an inlined service routine instead
  of the full ``MemoryHierarchy.access`` call chain.  Members whose
  verdicts are invalidated by cross-core ordering hazards re-resolve
  against the live structures, so outcomes stay exact.

* **A scalar drain mode, where every core starts.**  Batching only
  pays when stretches between barriers are long; on miss-dense traces
  (the ``mix*`` workloads run ~74 % L1 miss rates under cold caches)
  chunk classification, reclassification, and the per-barrier tail
  scan are pure overhead.  Each core therefore *drains* its records
  scalar — frame lookups are still batched per window
  (:func:`repro.sim.vector.classify.resolve_blocks`), but records walk
  a plain-Python loop against a residency dict, the reference loop's
  arithmetic minus its heap and per-record hierarchy calls — and its
  barriers go through the same inlined miss path.  Every core starts
  in drain mode, since every run starts cold and miss-dense; each
  tracks its recent records-per-barrier, and hysteresis
  (:data:`DRAIN_ENTER` / :data:`DRAIN_EXIT`) moves it to batch mode
  once its stretches lengthen, and back when they shorten.  LLC
  policy-interface and Belady-oracle runs (the miss path's
  ``fallback`` mode) take the same walk.

* **Timeline samples without a generator loop.**  Barriers execute in
  global ``(dispatch, core_id)`` order and the LLC/DRAM counters a
  sample reads change only inside a barrier, so just before barrier
  *K* executes the generator loop has retired exactly the instructions
  keyed below *K*.  Only a parked core's latest *stretch* (what it
  replayed past its last executed barrier) can hold keys above *K*.
  Timeline runs save each stretch's start state; when the consumed
  total could have crossed the next sample, the stretch's dispatch keys
  and retire times are recovered by re-running its timing arithmetic
  (every record in a stretch is an L1 hit or compute), and the sample
  is cut at the exact global position.  None of this runs without a
  timeline.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from typing import List, Optional

import numpy as np

from repro.sim.vector.classify import (
    CLS_MISS,
    Chunk,
    _block_of,
    classify_chunk,
    reclassify_set,
    reclassify_vpage,
    resolve_blocks,
)
from repro.sim.vector.misspath import MissPath

#: starting / bounding chunk sizes (records) for adaptive chunking
DEFAULT_CHUNK = 4096
MIN_CHUNK = 256
MAX_CHUNK = 32768
#: barriers per chunk the adaptive sizing steers toward
TARGET_BARRIERS = 8
#: stretches at or below this length run the scalar-lean kernel
SCALAR_CUTOFF = 24
#: cap on one anchored-retry attempt, bounding per-violation rework
ATTEMPT_MAX = 4096
#: a violation this close to the attempt start counts as "early"; two
#: in a row switch the stretch to the scalar kernel for one ROB window
EARLY_VIOLATION = 16

#: drain-mode hysteresis, in mean records between barriers: a core
#: below ENTER switches its batching off; above EXIT switches it back.
#: Measured batch break-even on a 1-CPU host is ~100 records/barrier
#: (below that, per-stretch NumPy call overhead plus chunk
#: (re)classification outweigh what batching saves).
DRAIN_ENTER = 96
DRAIN_EXIT = 192
#: records between drain/batch mode decisions, and the drain window
#: (records whose frame lookups are batched per ``resolve_blocks`` call)
DECIDE_MIN = 1024
DRAIN_WINDOW = 4096

#: sentinel: a draining core switched back to batch mode mid-call
_SWITCH = object()


class _CoreState:
    """Private replay state of one core: trace views, timing, array L1."""

    __slots__ = (
        "core_id",
        "pcs",
        "addrs",
        "flags",
        "count",
        "ring",
        "rob",
        "interval",
        "last_dispatch",
        "last_retire",
        "last_llc",
        "tags",
        "valid",
        "valid_count",
        "stamp",
        "resident",
        "chunk",
        "chunk_records",
        "pend_hits",
        "barriers",
        "drain",
        "stamp_list",
        "ring_list",
        "blk",
        "vp",
        "fl",
        "win_base",
        "win_end",
        "dec_count",
        "dec_barriers",
        "bufd",
        "bufr",
        "bufc",
        "bufg",
        "bufb",
        "stretch",
    )

    def __init__(self, core_id, arena, core, sets, ways) -> None:
        self.core_id = core_id
        records = arena.records
        self.pcs = np.frombuffer(arena.pcs, dtype=np.uint64, count=records)
        self.addrs = np.frombuffer(
            arena.addresses, dtype=np.uint64, count=records
        )
        self.flags = np.frombuffer(arena.flags, dtype=np.uint8, count=records)
        self.count = core._count
        self.rob = core._rob
        self.interval = core._dispatch_interval
        self.ring = np.array(core._retire_ring, dtype=np.float64)
        self.last_dispatch = core._last_dispatch
        self.last_retire = core._last_retire
        self.last_llc = core._last_load_complete
        self.tags = np.zeros((sets, ways), dtype=np.uint64)
        self.valid = np.zeros((sets, ways), dtype=bool)
        self.valid_count = [0] * sets
        self.stamp = np.zeros(sets * ways, dtype=np.int64)
        # block -> flat stamp slot, maintained alongside the tag arrays;
        # the drain walker's residency probe (caches start empty when the
        # replay is constructed, so empty is exact)
        self.resident = {}
        self.chunk: Optional[Chunk] = None
        self.chunk_records = DEFAULT_CHUNK
        self.pend_hits = 0
        self.barriers = 0
        # drain mode, where every core starts (runs begin cold and
        # miss-dense): Python-list twins of stamp/ring (authoritative
        # while draining; synced at mode switches) plus the current
        # window's resolved blocks/pages/flags (win_end == count forces
        # the first window's prep)
        self.drain = True
        self.stamp_list = self.stamp.tolist()
        self.ring_list = self.ring.tolist()
        self.blk = None
        self.vp = None
        self.fl = None
        self.win_base = self.count
        self.win_end = self.count
        self.dec_count = self.count
        self.dec_barriers = 0
        # scratch buffers for the attempt kernels (never observable)
        self.bufd = np.empty(ATTEMPT_MAX + 1, dtype=np.float64)
        self.bufr = np.empty(ATTEMPT_MAX + 1, dtype=np.float64)
        self.bufc = np.empty(ATTEMPT_MAX, dtype=np.float64)
        self.bufg = np.empty(ATTEMPT_MAX, dtype=np.float64)
        self.bufb = np.empty(ATTEMPT_MAX, dtype=bool)
        # the latest stretch (timeline runs only; see _Stretch)
        self.stretch: Optional[_Stretch] = None


class _Stretch:
    """A core's latest stretch, for timeline sampling.

    The stretch is everything the core replayed past its last executed
    barrier (or past the start of the phase), led by that barrier when
    there is one.  ``base`` counts the core's instructions before it;
    ``before`` is the core's retire clock at ``base``.  ``state`` is the
    timing state at ``start`` (after the lead), from which ``keys`` (the
    dispatch key of each instruction) and ``retires`` (the retire clock
    after it) are recovered on demand.
    """

    __slots__ = ("base", "before", "start", "state", "keys", "retires")

    def __init__(self, cs: _CoreState, before: Optional[float]) -> None:
        lead = before is not None
        self.start = cs.count
        self.base = cs.count - lead
        self.before = before if lead else cs.last_retire
        ring = cs.ring_list[:] if cs.drain else cs.ring.tolist()
        self.state = (cs.last_dispatch, cs.last_retire, cs.last_llc, ring)
        self.keys = [cs.last_dispatch] if lead else []
        self.retires = [cs.last_retire] if lead else []


class VectorReplay:
    """Batch-replays a compiled workload against the engine's hierarchy."""

    def __init__(self, engine) -> None:
        self.engine = engine
        h = engine.hierarchy
        self.h = h
        amap = h.address_map
        self.page_bits = amap.page_bits
        self.block_bits = amap.block_bits
        self.block_mask = amap.block_size - 1
        l1cfg = h.config.l1d
        self.hit_lat = l1cfg.hit_latency
        self.ways = l1cfg.ways
        self.set_mask = np.uint64(l1cfg.sets - 1)
        chunk_records = engine._vector_chunk
        self.fixed_chunk = chunk_records
        self.cores: List[_CoreState] = []
        for core_id, core in enumerate(engine.cores):
            arena = engine.workload.packed(core_id)
            cs = _CoreState(core_id, arena, core, l1cfg.sets, l1cfg.ways)
            if chunk_records is not None:
                cs.chunk_records = max(1, chunk_records)
            if engine._vector_batch_start:
                self._sync_to_batch(cs)
            self.cores.append(cs)
        # whether a full-ring window (m >= rob) can ever bind mid-attempt:
        # within-attempt completes trail the chain by at most max(hit, ALU)
        # latency, and the chain advances rob*interval per ROB turn
        rob = self.cores[0].rob if self.cores else 0
        interval = self.cores[0].interval if self.cores else 0.0
        self.rob_slack = rob * interval >= max(self.hit_lat, 1.0) + 1.0
        self.misspath = MissPath(self)
        self.recorder = engine.timeline

    # -- the driver -------------------------------------------------------
    def advance(self, budget_per_core: int) -> None:
        """Advance every core to ``budget_per_core`` retired instructions."""
        recorder = self.recorder
        try:
            pending = []
            for cs in self.cores:
                if recorder is not None:
                    cs.stretch = _Stretch(cs, None)
                dispatch = self._run_to_barrier(cs, budget_per_core)
                if dispatch is not None:
                    pending.append((dispatch, cs.core_id))
            heapq.heapify(pending)
            while pending:
                dispatch, core_id = heapq.heappop(pending)
                cs = self.cores[core_id]
                while True:
                    if recorder is not None:
                        self._take_samples(cs, dispatch)
                        before = cs.last_retire
                    if cs.drain:
                        self._execute_barrier_drain(cs)
                    else:
                        self._execute_barrier(cs)
                    if recorder is not None:
                        cs.stretch = _Stretch(cs, before)
                    dispatch = self._run_to_barrier(cs, budget_per_core)
                    if dispatch is None:
                        break
                    if pending and (dispatch, core_id) >= pending[0]:
                        heapq.heappush(pending, (dispatch, core_id))
                        break
                    # same-core continuation: this barrier dispatches
                    # strictly before every pending one (tuples with
                    # distinct core ids never tie), so the heap would
                    # pop it right back — execute it inline instead
            if recorder is not None:
                self._take_samples(None, None)
        finally:
            self._writeback()

    # -- timeline sampling (timeline runs only) ---------------------------
    def _take_samples(self, ex: Optional[_CoreState], dispatch) -> None:
        """Take every sample due before barrier ``(dispatch, ex)`` runs.

        ``ex`` is the core about to execute it, or None at the end of
        the phase, where everything consumed has retired.  Each core's
        instructions keyed below the barrier are its ``base`` plus the
        matching prefix of its stretch.
        """
        engine = self.engine
        if sum(cs.count for cs in self.cores) < engine._next_sample:
            return
        below = []
        for cs in self.cores:
            if ex is None or cs is ex:
                below.append(cs.count)
            else:
                st = self._recovered(cs)
                find = bisect_right if cs.core_id < ex.core_id else bisect_left
                below.append(st.base + find(st.keys, dispatch))
        due = sum(below)
        recorder = self.recorder
        while engine._next_sample <= due:
            position = engine._next_sample
            recorder.sample(position, self._cut(position, below))
            engine._next_sample += recorder.interval

    def _cut(self, position: int, below: List[int]):
        """Per-core ``(count, retire)`` once ``position`` instructions
        have retired globally: find the stretch instruction of that rank
        among the keys counted in ``below``.  Everything outside the
        stretches ranks lower, so its rank within the stretches is
        ``position`` minus the bases."""
        stretches = [self._recovered(cs) for cs in self.cores]
        limits = [n - st.base for n, st in zip(below, stretches)]
        rank = position - sum(st.base for st in stretches)
        for core_id, st in enumerate(stretches):
            lo, hi = 0, limits[core_id]
            while lo < hi:
                mid = (lo + hi) // 2
                key = st.keys[mid]
                taken = [
                    mid + 1 if other == core_id
                    else (bisect_right if other < core_id else bisect_left)(
                        o.keys, key, 0, limits[other]
                    )
                    for other, o in enumerate(stretches)
                ]
                total = sum(taken)
                if total < rank:
                    lo = mid + 1
                elif total > rank:
                    hi = mid
                else:
                    return [
                        (o.base + n, o.retires[n - 1] if n else o.before)
                        for o, n in zip(stretches, taken)
                    ]
        raise AssertionError(f"no instruction retires at position {position}")

    def _recovered(self, cs: _CoreState) -> _Stretch:
        """The core's stretch with keys/retires recovered to ``cs.count``.

        Every record in a stretch is an L1 hit or compute, so the drain
        walker's arithmetic, from the saved start state, reproduces the
        exact floats the kernels produced.
        """
        st = cs.stretch
        if st.base + len(st.keys) == cs.count:
            return st
        last_dispatch, last_retire, last_llc, ring = st.state
        ring = ring[:]
        lead = st.start - st.base
        keys = st.keys[:lead]
        retires = st.retires[:lead]
        rob = cs.rob
        interval = cs.interval
        lat = self.hit_lat
        i = st.start
        for bits in cs.flags[st.start : cs.count].tolist():
            dispatch = last_dispatch + interval
            if i >= rob:
                ready = ring[i % rob]
                if ready > dispatch:
                    dispatch = ready
            if bits & 1:
                issue = dispatch
                if bits & 4 and last_llc > issue:
                    issue = last_llc
                complete = issue + lat
                if not bits & 2:
                    last_llc = complete
            else:
                complete = dispatch + 1.0  # CoreTimingModel.ALU_LATENCY
            if complete > last_retire:
                last_retire = complete
            ring[i % rob] = last_retire
            keys.append(dispatch)
            retires.append(last_retire)
            last_dispatch = dispatch
            i += 1
        st.keys = keys
        st.retires = retires
        return st

    def _next_dispatch(self, cs: _CoreState) -> float:
        dispatch = cs.last_dispatch + cs.interval
        if cs.count >= cs.rob:
            ring = cs.ring_list if cs.drain else cs.ring
            ready = ring[cs.count % cs.rob]
            if ready > dispatch:
                dispatch = ready
        return float(dispatch)

    # -- drain/batch mode selection ---------------------------------------
    def _decide_mode(self, cs: _CoreState) -> None:
        """Hysteresis over the core's recent records-per-barrier."""
        rec = cs.count - cs.dec_count
        if rec < DECIDE_MIN:
            return
        bar = cs.barriers - cs.dec_barriers
        cs.dec_count = cs.count
        cs.dec_barriers = cs.barriers
        stretch = rec / bar if bar else float("inf")
        if cs.drain:
            if stretch >= DRAIN_EXIT:
                self._sync_to_batch(cs)
        elif stretch <= DRAIN_ENTER:
            self._sync_to_drain(cs)

    def _sync_to_drain(self, cs: _CoreState) -> None:
        cs.stamp_list = cs.stamp.tolist()
        cs.ring_list = cs.ring.tolist()
        cs.drain = True
        cs.chunk = None
        cs.win_end = cs.count  # force window prep

    def _sync_to_batch(self, cs: _CoreState) -> None:
        cs.stamp[:] = cs.stamp_list
        cs.ring[:] = cs.ring_list
        cs.drain = False
        cs.chunk = None

    # -- running a core to its next barrier -------------------------------
    def _run_to_barrier(
        self, cs: _CoreState, budget: int
    ) -> Optional[float]:
        """Advance the core to its next barrier (or the budget).

        Returns the barrier's exact dispatch time for the global order
        heap, or None when the core has retired its budget first.
        """
        while True:
            if cs.count >= budget:
                return None
            if cs.drain:
                r = self._drain_to_barrier(cs, budget)
                if r is not _SWITCH:
                    return r
                continue
            chunk = cs.chunk
            if chunk is None or cs.count >= chunk.end:
                self._decide_mode(cs)
                if cs.drain:
                    continue
                chunk = self._load_chunk(cs, budget)
            rel = cs.count - chunk.start
            tail = chunk.kind[rel:] >= CLS_MISS
            first = int(np.argmax(tail))
            if not tail[first]:
                if chunk.end > cs.count:
                    self._time_stretch(cs, chunk, cs.count, chunk.end)
                continue
            bpos = chunk.start + rel + first
            if bpos > cs.count:
                self._time_stretch(cs, chunk, cs.count, bpos)
            if bpos >= budget:
                return None
            return self._next_dispatch(cs)

    def _load_chunk(self, cs: _CoreState, budget: int) -> Chunk:
        start = cs.count
        end = min(start + cs.chunk_records, budget)
        chunk = classify_chunk(
            start,
            end,
            cs.addrs,
            cs.flags,
            self.h.translator.mapping_view(),
            cs.core_id,
            cs.tags,
            cs.valid,
            self.page_bits,
            self.block_bits,
            self.set_mask,
            self.ways,
            self.hit_lat,
        )
        cs.chunk = chunk
        self.misspath.prepare_chunk(cs, chunk)
        if self.fixed_chunk is None:
            barriers = int((chunk.kind >= CLS_MISS).sum())
            if barriers > 2 * TARGET_BARRIERS:
                cs.chunk_records = max(MIN_CHUNK, cs.chunk_records // 2)
            elif barriers < TARGET_BARRIERS // 2:
                cs.chunk_records = min(MAX_CHUNK, cs.chunk_records * 2)
        return chunk

    # -- drain mode --------------------------------------------------------
    def _prep_window(self, cs: _CoreState, budget: int) -> None:
        base = cs.count
        end = min(base + DRAIN_WINDOW, budget)
        blk, vp = resolve_blocks(
            base,
            end,
            cs.addrs,
            cs.flags,
            self.h.translator.mapping_view(),
            cs.core_id,
            self.page_bits,
            self.block_bits,
        )
        cs.win_base = base
        cs.win_end = end
        cs.blk = blk.tolist()
        cs.vp = vp
        cs.fl = cs.flags[base:end].tolist()

    def _drain_to_barrier(self, cs: _CoreState, budget: int):
        """Scalar-walk a draining core to its next barrier.

        The reference loop's per-record arithmetic verbatim — Python
        floats through the same operations in the same order — with
        residency decided by the ``resident`` dict and frame lookups
        pre-batched per window.  Returns the barrier's dispatch time,
        None at the budget, or :data:`_SWITCH` if the core left drain
        mode at a window boundary.
        """
        while True:
            if cs.count >= budget:
                return None
            if cs.count >= cs.win_end:
                self._decide_mode(cs)
                if not cs.drain:
                    return _SWITCH
                self._prep_window(cs, budget)
            i = cs.count
            base = cs.win_base
            end = cs.win_end
            fl = cs.fl
            bl = cs.blk
            resident = cs.resident
            stamp_list = cs.stamp_list
            ring_list = cs.ring_list
            rob = cs.rob
            interval = cs.interval
            lat = self.hit_lat
            last_dispatch = cs.last_dispatch
            last_retire = cs.last_retire
            last_llc = cs.last_llc
            pend = 0
            barrier = False
            while i < end:
                dispatch = last_dispatch + interval
                if i >= rob:
                    ready = ring_list[i % rob]
                    if ready > dispatch:
                        dispatch = ready
                bits = fl[i - base]
                if bits & 1:
                    slot = resident.get(bl[i - base], -1)
                    if slot < 0:
                        barrier = True
                        break
                    issue = dispatch
                    if bits & 4 and last_llc > issue:
                        issue = last_llc
                    complete = issue + lat
                    if not bits & 2:
                        last_llc = complete
                    stamp_list[slot] = i
                    pend += 1
                else:
                    complete = dispatch + 1.0  # CoreTimingModel.ALU_LATENCY
                if complete > last_retire:
                    last_retire = complete
                ring_list[i % rob] = last_retire
                i += 1
                last_dispatch = dispatch
            cs.count = i
            cs.last_dispatch = float(last_dispatch)
            cs.last_retire = float(last_retire)
            cs.last_llc = float(last_llc)
            cs.pend_hits += pend
            if barrier:
                # the barrier record is NOT consumed; its dispatch is
                # recomputed identically by _next_dispatch for the heap
                return float(dispatch)

    def _patch_window(self, cs: _CoreState, j: int, vpage: int, frame: int):
        """Resolve a just-mapped page's remaining window records."""
        tail = cs.vp[j + 1 :]
        idx = np.nonzero(tail == np.uint64(vpage))[0]
        if idx.size == 0:
            return
        va = cs.addrs[cs.win_base + j + 1 : cs.win_end][idx]
        blk = _block_of(
            np.uint64(frame), va, self.page_bits, self.block_bits
        ).astype(np.int64)
        bl = cs.blk
        off = j + 1
        for k, b in zip(idx.tolist(), blk.tolist()):
            bl[off + k] = b

    def _execute_barrier_drain(self, cs: _CoreState) -> None:
        """One drain-mode barrier against the shared miss path."""
        h = self.h
        index = cs.count
        j = index - cs.win_base
        bits = cs.fl[j]
        is_write = bool(bits & 2)
        core_id = cs.core_id

        dispatch = self._next_dispatch(cs)
        issue = dispatch
        if bits & 4 and cs.last_llc > issue:
            issue = cs.last_llc
        now = issue

        vaddr = int(cs.addrs[index])
        block = cs.blk[j]
        if block < 0:
            # first touch: the real translator allocates (preserving the
            # shared PRNG's draw order), then the page's remaining window
            # records resolve in place
            paddr0 = h.translator.translate(core_id, vaddr)
            block = paddr0 >> self.block_bits
            self._patch_window(
                cs, j, vaddr >> self.page_bits, paddr0 >> self.page_bits
            )
            slot = cs.resident.get(block, -1)
            if slot >= 0:
                # already resident (page mapped but unresolved when the
                # window was prepped): an ordinary L1 hit, replayed at
                # barrier granularity — touches no shared state
                complete = now + self.hit_lat
                if not is_write:
                    cs.last_llc = float(complete)
                cs.stamp_list[slot] = index
                cs.pend_hits += 1
                self._retire_barrier(cs, index, dispatch, complete)
                return
        set_index = block & int(self.set_mask)

        h._l1_accesses[core_id].value += 1
        h._l1_misses[core_id].value += 1
        latency, filled = self.misspath.service(
            cs, index, block, vaddr, now, is_write, None, None
        )
        if filled:
            self._fill(cs, block, set_index, index)
        complete = now + latency
        if not is_write:
            cs.last_llc = float(complete)
        self._retire_barrier(cs, index, dispatch, complete)
        cs.barriers += 1

    def _retire_barrier(self, cs, index, dispatch, complete) -> None:
        retire = cs.last_retire
        if complete > retire:
            retire = complete
        if cs.drain:
            cs.ring_list[index % cs.rob] = retire
        else:
            cs.ring[index % cs.rob] = retire
        cs.count = index + 1
        cs.last_dispatch = dispatch
        cs.last_retire = float(retire)

    # -- hit/compute stretches --------------------------------------------
    def _time_stretch(
        self, cs: _CoreState, chunk: Chunk, start: int, stop: int
    ) -> None:
        """Replay records ``[start, stop)`` — all L1 hits or compute."""
        rel0 = start - chunk.start
        rel1 = stop - chunk.start
        hid = np.nonzero(chunk.hitv[rel0:rel1])[0]
        if hid.size:
            # ordered LRU touches: later touches of a slot overwrite
            # earlier ones, leaving each block's *latest* index
            cs.stamp[chunk.slots[rel0:rel1][hid]] = start + hid
            cs.pend_hits += int(hid.size)
        if stop - start <= SCALAR_CUTOFF:
            self._time_scalar(cs, chunk, rel0, rel1)
        else:
            self._time_vector(cs, chunk, rel0, rel1)

    def _time_scalar(self, cs, chunk, rel0: int, rel1: int) -> None:
        """Scalar-lean kernel: the reference loop's arithmetic, verbatim."""
        mm = chunk.hitv[rel0:rel1].tolist()
        dd = chunk.depv[rel0:rel1].tolist()
        ll = chunk.loadv[rel0:rel1].tolist()
        ring = cs.ring
        rob = cs.rob
        interval = cs.interval
        lat = self.hit_lat
        count = cs.count
        last_dispatch = cs.last_dispatch
        last_retire = cs.last_retire
        last_llc = cs.last_llc
        for j in range(rel1 - rel0):
            dispatch = last_dispatch + interval
            if count >= rob:
                ready = ring[count % rob]
                if ready > dispatch:
                    dispatch = ready
            if mm[j]:
                issue = dispatch
                if dd[j] and last_llc > issue:
                    issue = last_llc
                complete = issue + lat
                if ll[j]:
                    last_llc = complete
            else:
                complete = dispatch + 1.0  # CoreTimingModel.ALU_LATENCY
            if complete > last_retire:
                last_retire = complete
            ring[count % rob] = last_retire
            count += 1
            last_dispatch = dispatch
        cs.count = count
        cs.last_dispatch = float(last_dispatch)
        cs.last_retire = float(last_retire)
        cs.last_llc = float(last_llc)

    def _time_vector(self, cs, chunk, rel0: int, rel1: int) -> None:
        """Anchored-retry batch kernel over a classified stretch."""
        ring = cs.ring
        rob = cs.rob
        interval = cs.interval
        lat = self.hit_lat
        n = rel1 - rel0
        a = 0
        consec_early = 0
        while a < n:
            rem = n - a
            if rem <= SCALAR_CUTOFF:
                self._time_scalar(cs, chunk, rel0 + a, rel1)
                return
            if consec_early >= 2:
                # ROB-bound drain: the ring binds nearly every record, so
                # vector attempts degenerate — run one window scalar.
                b = min(n, a + rob)
                self._time_scalar(cs, chunk, rel0 + a, rel0 + b)
                a = b
                consec_early = 0
                continue
            m = min(rem, ATTEMPT_MAX)
            A = cs.count  # absolute index of the attempt's first record
            r = rel0 + a
            # candidate dispatch chain (no ROB binding): sequential adds
            buf = cs.bufd[: m + 1]
            buf[0] = cs.last_dispatch
            buf[1:] = interval
            np.add.accumulate(buf, out=buf)
            dseg = buf[1:]
            # completes under the chain: dispatch + per-record latency
            comp = np.add(dseg, chunk.addlat[r : r + m], out=cs.bufc[:m])
            deppos = None
            lidx = None
            if chunk.any_dep:
                deppos = np.nonzero(chunk.depv[r : r + m])[0]
            if deppos is not None and deppos.size:
                # scalar fix-up over just the dependent positions: a
                # dependent access issues no earlier than the previous
                # load's completion, and the pull propagates in place
                lidx = np.nonzero(chunk.loadv[r : r + m])[0]
                nb = np.searchsorted(lidx, deppos)
                li = lidx.tolist()
                for p, o in zip(deppos.tolist(), nb.tolist()):
                    prev = comp[li[o - 1]] if o else cs.last_llc
                    if prev > dseg[p]:
                        comp[p] = prev + lat

            rbuf = cs.bufr[: m + 1]
            rbuf[0] = cs.last_retire
            rbuf[1:] = comp
            np.maximum.accumulate(rbuf, out=rbuf)
            retire = rbuf[1:]

            # constant-time readiness test (see module docstring): ring
            # values are monotone in write order, so the window max is
            # its last slot — one compare against the chain's minimum
            d0 = float(buf[1])
            if m < rob:
                clean = float(ring[(A + m - 1) % rob]) <= d0
            else:
                clean = (
                    self.rob_slack
                    and cs.last_retire <= d0
                    and (deppos is None or deppos.size == 0)
                )
            if clean:
                v = m
            else:
                # exact search: gather the window (at most two
                # contiguous ring segments), find the first violation
                ready = cs.bufg[:m]
                w = m if m < rob else rob
                s0 = A % rob
                k = rob - s0
                if w <= k:
                    ready[:w] = ring[s0 : s0 + w]
                else:
                    ready[:k] = ring[s0:]
                    ready[k:w] = ring[: w - k]
                if m > rob:
                    ready[rob:] = retire[: m - rob]
                viol = np.greater(ready, dseg, out=cs.bufb[:m])
                v = int(np.argmax(viol))
                if not viol[v]:
                    v = m

            if v:  # commit the exact prefix [0, v)
                w2 = v if v < rob else rob
                seg = retire[v - w2 : v]
                s0 = (A + v - w2) % rob
                k = rob - s0
                if w2 <= k:
                    ring[s0 : s0 + w2] = seg
                else:
                    ring[s0:] = seg[:k]
                    ring[: w2 - k] = seg[k:]
                cs.last_dispatch = float(dseg[v - 1])
                cs.last_retire = float(retire[v - 1])
                if lidx is None:
                    lidx = np.nonzero(chunk.loadv[r : r + m])[0]
                nl = int(np.searchsorted(lidx, v))
                if nl:
                    cs.last_llc = float(comp[lidx[nl - 1]])
                cs.count += v
            if v == m:
                consec_early = 0
                a += m
                continue
            # anchor the violating record on the exact ring value
            p = r + v
            self._scalar_one(
                cs,
                float(ready[v]),
                bool(chunk.hitv[p]),
                bool(chunk.depv[p]),
                bool(chunk.loadv[p]),
            )
            consec_early = consec_early + 1 if v < EARLY_VIOLATION else 0
            a += v + 1

    def _scalar_one(self, cs, dispatch, is_mem, is_dep, is_load) -> None:
        """Retire one record whose dispatch time is already exact."""
        if is_mem:
            issue = dispatch
            if is_dep and cs.last_llc > issue:
                issue = cs.last_llc
            complete = issue + self.hit_lat
            if is_load:
                cs.last_llc = float(complete)
        else:
            complete = dispatch + 1.0
        retire = cs.last_retire
        if complete > retire:
            retire = complete
        cs.ring[cs.count % cs.rob] = retire
        cs.count += 1
        cs.last_dispatch = dispatch
        cs.last_retire = float(retire)

    # -- barriers ---------------------------------------------------------
    def _execute_barrier(self, cs: _CoreState) -> None:
        """One batch-mode L1 miss against the shared miss path.

        The head and tail are :meth:`MemoryHierarchy.access` verbatim
        with the array L1 standing in for the ``Cache`` object; the
        shared middle is the inlined service in
        :mod:`repro.sim.vector.misspath`, consuming this chunk's
        precomputed miss plan where the record has an entry — so the
        LLC, DRAM, prefetchers, and the translator's PRNG see
        byte-identical call streams in byte-identical global order.
        """
        h = self.h
        chunk = cs.chunk
        index = cs.count
        rel = index - chunk.start
        kind = int(chunk.kind[rel])
        bits = int(cs.flags[index])
        is_write = bool(bits & 2)
        core_id = cs.core_id

        dispatch = self._next_dispatch(cs)
        issue = dispatch
        if bits & 4 and cs.last_llc > issue:
            issue = cs.last_llc
        now = issue

        pe = None
        if kind == CLS_MISS:
            block = int(chunk.block[rel])
            set_index = int(chunk.setidx[rel])
            vaddr = int(cs.addrs[index])
            vpage = frame = None
            mp = chunk.mp
            if mp is not None:
                # advance the plan cursor past members reclassified to
                # hits; consume this record's entry if it kept one
                cur = mp.cur
                pos = mp.pos
                n = mp.n
                while cur < n and pos[cur] < rel:
                    cur += 1
                if cur < n and pos[cur] == rel:
                    pe = cur
                    cur += 1
                mp.cur = cur
        else:  # CLS_UNKNOWN: first touch — the real translator allocates
            vaddr = int(cs.addrs[index])
            paddr0 = h.translator.translate(core_id, vaddr)
            block = paddr0 >> self.block_bits
            set_index = block & int(self.set_mask)
            vpage = vaddr >> self.page_bits
            frame = paddr0 >> self.page_bits
            mp = chunk.mp

        h._l1_accesses[core_id].value += 1
        h._l1_misses[core_id].value += 1
        latency, filled = self.misspath.service(
            cs, index, block, vaddr, now, is_write, mp, pe
        )
        if filled:
            self._fill(cs, block, set_index, index)

        complete = now + latency
        if not is_write:
            cs.last_llc = float(complete)
        self._retire_barrier(cs, index, dispatch, complete)
        cs.barriers += 1

        if cs.count < chunk.end:
            if frame is not None:
                reclassify_vpage(
                    chunk,
                    cs.count,
                    vpage,
                    frame,
                    cs.addrs,
                    cs.tags,
                    cs.valid,
                    self.page_bits,
                    self.block_bits,
                    self.set_mask,
                    self.ways,
                    self.hit_lat,
                )
            if filled:
                reclassify_set(
                    chunk,
                    cs.count,
                    set_index,
                    cs.tags,
                    cs.valid,
                    self.ways,
                    self.hit_lat,
                )

    def _fill(self, cs: _CoreState, block: int, set_index: int, index: int):
        """Array-L1 fill: LRU victim by stamp, mirroring ``Cache.fill``."""
        l1 = self.h.l1ds[cs.core_id]
        ways = self.ways
        filled = cs.valid_count[set_index]
        base = set_index * ways
        if filled == ways:
            if cs.drain:
                sl = cs.stamp_list
                way = 0
                best = sl[base]
                for w in range(1, ways):
                    v = sl[base + w]
                    if v < best:
                        best = v
                        way = w
            else:
                way = int(np.argmin(cs.stamp[base : base + ways]))
            del cs.resident[int(cs.tags[set_index, way])]
            l1._evictions.value += 1
        else:
            # valid bits never clear, so ways fill strictly in index
            # order and the first free way is the current fill count
            way = filled
            cs.valid_count[set_index] = filled + 1
            cs.valid[set_index, way] = True
        cs.tags[set_index, way] = block
        if cs.drain:
            cs.stamp_list[base + way] = index
        else:
            cs.stamp[base + way] = index
        cs.resident[block] = base + way
        l1._fills.value += 1

    # -- state writeback --------------------------------------------------
    def _writeback(self) -> None:
        """Mirror replay state back into the real objects.

        Runs at the end of every :meth:`advance` (even on error), before
        any snapshot can observe the cores: identical post-state to the
        reference loop.
        """
        h = self.h
        for cs, core in zip(self.cores, self.engine.cores):
            core._count = cs.count
            core._last_dispatch = float(cs.last_dispatch)
            core._last_retire = float(cs.last_retire)
            core._last_load_complete = float(cs.last_llc)
            ring = cs.ring_list if cs.drain else cs.ring.tolist()
            core._retire_ring[:] = ring
            core._stat_instructions.value = cs.count
            core._stat_cycles.value = float(cs.last_retire)
            if cs.pend_hits:
                h._l1_accesses[cs.core_id].value += cs.pend_hits
                h._l1_hits[cs.core_id].value += cs.pend_hits
                cs.pend_hits = 0
