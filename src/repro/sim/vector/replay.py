"""The vector tier: a drain walk over packed trace arenas.

The reference loop (:meth:`SimulationEngine._run_until`) interleaves
cores by a dispatch-time heap and walks records one at a time through
the hierarchy.  This module replays the same traces from their packed
arenas with the same global semantics, and is the engine's only fast
tier:

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

* **The drain walk.**  Each core walks its records in a plain-Python
  loop: the reference loop's per-record arithmetic, Python floats
  through the same operations in the same order, minus its heap and
  its per-record hierarchy calls.  The core's L1D is a pair of flat
  lists — the resident block and an LRU *stamp* (the instruction index
  of the block's last touch) per way — plus a residency dict from block
  to way.  Instruction indices are unique, so the smallest stamp in a
  set is the ``OrderedDict`` LRU victim.  Frame lookups are batched per
  window of :data:`DRAIN_WINDOW` records
  (:func:`repro.sim.vector.classify.resolve_blocks`); a first-touch
  barrier resolves its page's remaining window records in place.

* **An inlined miss path** (:mod:`repro.sim.vector.misspath`).  Each
  barrier runs through an inlined service routine instead of the full
  ``MemoryHierarchy.access`` call chain, so the LLC, DRAM, prefetchers
  and the translator's PRNG see byte-identical call streams in
  byte-identical global order.

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

from repro.sim.vector.classify import _block_of, resolve_blocks
from repro.sim.vector.misspath import MissPath

#: records whose frame lookups are batched per ``resolve_blocks`` call
DRAIN_WINDOW = 4096


class _CoreState:
    """Private replay state of one core: trace views, timing, list L1."""

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
        "valid_count",
        "stamp",
        "resident",
        "pend_hits",
        "blk",
        "vp",
        "fl",
        "win_base",
        "win_end",
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
        self.ring = list(core._retire_ring)
        self.last_dispatch = core._last_dispatch
        self.last_retire = core._last_retire
        self.last_llc = core._last_load_complete
        # the L1D, one slot per (set, way): resident block and LRU stamp
        self.tags = [0] * (sets * ways)
        self.stamp = [0] * (sets * ways)
        self.valid_count = [0] * sets
        # block -> slot, the walker's residency probe (caches start empty
        # when the replay is constructed, so empty is exact)
        self.resident = {}
        self.pend_hits = 0
        # the current window's resolved blocks/pages/flags (win_end ==
        # count forces the first window's prep)
        self.blk = None
        self.vp = None
        self.fl = None
        self.win_base = self.count
        self.win_end = self.count
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
        self.state = (cs.last_dispatch, cs.last_retire, cs.last_llc, cs.ring[:])
        self.keys = [cs.last_dispatch] if lead else []
        self.retires = [cs.last_retire] if lead else []


class VectorReplay:
    """Replays a compiled workload against the engine's hierarchy."""

    def __init__(self, engine) -> None:
        self.engine = engine
        h = engine.hierarchy
        self.h = h
        amap = h.address_map
        self.page_bits = amap.page_bits
        self.block_bits = amap.block_bits
        l1cfg = h.config.l1d
        self.hit_lat = l1cfg.hit_latency
        self.ways = l1cfg.ways
        self.set_mask = l1cfg.sets - 1
        self.cores = [
            _CoreState(
                core_id,
                engine.workload.packed(core_id),
                core,
                l1cfg.sets,
                l1cfg.ways,
            )
            for core_id, core in enumerate(engine.cores)
        ]
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
                dispatch = self._drain_to_barrier(cs, budget_per_core)
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
                    self._execute_barrier_drain(cs)
                    if recorder is not None:
                        cs.stretch = _Stretch(cs, before)
                    dispatch = self._drain_to_barrier(cs, budget_per_core)
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
        exact floats the walk produced.
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
            ready = cs.ring[cs.count % cs.rob]
            if ready > dispatch:
                dispatch = ready
        return dispatch

    # -- the drain walk ---------------------------------------------------
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

    def _drain_to_barrier(self, cs: _CoreState, budget: int) -> Optional[float]:
        """Walk the core to its next barrier (or the budget).

        The reference loop's per-record arithmetic verbatim — Python
        floats through the same operations in the same order — with
        residency decided by the ``resident`` dict and frame lookups
        pre-batched per window.  Returns the barrier's exact dispatch
        time for the global order heap, or None when the core has
        retired its budget first.
        """
        while True:
            if cs.count >= budget:
                return None
            if cs.count >= cs.win_end:
                self._prep_window(cs, budget)
            i = cs.count
            base = cs.win_base
            end = cs.win_end
            fl = cs.fl
            bl = cs.blk
            resident = cs.resident
            stamp = cs.stamp
            ring = cs.ring
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
                    ready = ring[i % rob]
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
                    stamp[slot] = i
                    pend += 1
                else:
                    complete = dispatch + 1.0  # CoreTimingModel.ALU_LATENCY
                if complete > last_retire:
                    last_retire = complete
                ring[i % rob] = last_retire
                i += 1
                last_dispatch = dispatch
            cs.count = i
            cs.last_dispatch = last_dispatch
            cs.last_retire = last_retire
            cs.last_llc = last_llc
            cs.pend_hits += pend
            if barrier:
                # the barrier record is NOT consumed; its dispatch is
                # recomputed identically by _next_dispatch when it runs
                return dispatch

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
        """One barrier (an L1 miss) against the shared miss path."""
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
                    cs.last_llc = complete
                cs.stamp[slot] = index
                cs.pend_hits += 1
                self._retire_barrier(cs, index, dispatch, complete)
                return

        h._l1_accesses[core_id].value += 1
        h._l1_misses[core_id].value += 1
        latency, filled = self.misspath.service(
            cs, index, block, vaddr, now, is_write
        )
        if filled:
            self._fill(cs, block, block & self.set_mask, index)
        complete = now + latency
        if not is_write:
            cs.last_llc = complete
        self._retire_barrier(cs, index, dispatch, complete)

    def _retire_barrier(self, cs, index, dispatch, complete) -> None:
        retire = cs.last_retire
        if complete > retire:
            retire = complete
        cs.ring[index % cs.rob] = retire
        cs.count = index + 1
        cs.last_dispatch = dispatch
        cs.last_retire = retire

    def _fill(self, cs: _CoreState, block: int, set_index: int, index: int):
        """L1 fill: LRU victim by stamp, mirroring ``Cache.fill``."""
        l1 = self.h.l1ds[cs.core_id]
        ways = self.ways
        filled = cs.valid_count[set_index]
        base = set_index * ways
        if filled == ways:
            stamps = cs.stamp[base : base + ways]
            slot = base + stamps.index(min(stamps))
            del cs.resident[cs.tags[slot]]
            l1._evictions.value += 1
        else:
            # ways fill strictly in index order and never empty, so the
            # first free way is the current fill count
            slot = base + filled
            cs.valid_count[set_index] = filled + 1
        cs.tags[slot] = block
        cs.stamp[slot] = index
        cs.resident[block] = slot
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
            core._last_dispatch = cs.last_dispatch
            core._last_retire = cs.last_retire
            core._last_load_complete = cs.last_llc
            core._retire_ring[:] = cs.ring
            core._stat_instructions.value = cs.count
            core._stat_cycles.value = cs.last_retire
            if cs.pend_hits:
                h._l1_accesses[cs.core_id].value += cs.pend_hits
                h._l1_hits[cs.core_id].value += cs.pend_hits
                cs.pend_hits = 0
