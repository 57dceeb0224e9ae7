"""Batched shared miss path: array-mirrored LLC/MSHR/DRAM barrier service.

PR 6's vector tier batches everything *between* L1 misses but drains the
misses themselves one scalar ``hierarchy.access`` call at a time — on the
Table II matrix that shared scalar path is the Amdahl term that forced 63
of 70 bench points to demote.  This module vectorizes the miss path
itself, in three cooperating pieces:

* **An LLC array mirror** (native-LRU only, same restriction as the
  array L1s): tag/valid arrays refreshed lazily per set from
  :meth:`Cache.export_set`, with a batched set-indexed tag-membership
  pass that splits a chunk's barrier batch into LLC-hits vs LLC-misses
  in one NumPy call.  Verdicts are guarded by per-set generation
  counters: any fill to a set bumps its generation, and a member whose
  set changed since classification is a *hazard* — it falls back to the
  live ``OrderedDict`` probe (the scalar drain), so outcomes are exact
  whatever interleaving the barrier heap produces.

* **A batched MSHR gate**: vectorized in-flight block matching
  (``np.isin`` against :meth:`MshrFile.inflight_blocks`) plus an
  intra-chunk uniqueness test.  A member whose block was not in flight
  at classification time and is unique among the chunk's known-block
  barriers provably cannot merge — per-core MSHRs only gain blocks
  through this core's own barriers, and first-touch barriers allocate
  fresh frames whose blocks collide with nothing — so the scalar merge
  probe is skipped for it.  Members that *might* merge keep the exact
  scalar probe; occupancy-mutating reservations always run scalar.

* **Vectorized DRAM routing for the LLC-miss residue**: channel / bank /
  row per member via a bit-exact NumPy SplitMix64 (:func:`mix64_np`) —
  the pure, order-independent part of ``DramModel.access``.  The
  *stateful* part (channel busy clocks, open rows) is shared across
  cores and mutated in live barrier order, so it is read live at
  execution; precomputing row verdicts against a speculative bank
  schedule cannot be made sound under cross-core interleaving (a
  generation match does not prove *which* accesses intervened), and a
  wrong open-row guess silently corrupts timing.  Routing is where the
  per-miss Python cost actually was.

Execution runs in one of three modes, chosen once per run:

* ``mirror`` — no prefetchers, native LRU, no replacement oracle: the
  full battery above, since demand fills (all issued here) are the only
  LLC mutations and the mirror sees every one.
* ``lean`` — prefetchers training at the LLC over native LRU: the MSHR
  gate and DRAM routes apply, but prefetch fills mutate the LLC outside
  any batch window, so membership verdicts are skipped and the LLC is
  probed live.  The whole miss sequence (MSHR → LLC → DRAM → train) is
  inlined over hoisted counter cells — no ``AccessResult`` allocation,
  no method dispatch, no repeated lazy-expiry passes.
* ``fallback`` — a replacement-policy interface or Belady oracle is
  active: the MSHR head is inlined and the LLC/DRAM section goes
  through the real ``MemoryHierarchy._llc_access`` (policies observe
  every touch, so there is nothing sound to batch).

Every float here is produced by the same operations in the same order
as ``MemoryHierarchy.access`` — byte-identical ``SimResult``\\ s across
all three engine tiers remain the hard invariant, enforced by
``bingo-sim check --vectorized`` and the hypothesis property suite.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

import numpy as np

from repro.common.hashing import mix64
from repro.memsys.cache import BlockState
from repro.prefetchers.base import AccessInfo
from repro.sim.vector.classify import CLS_MISS

#: execution modes (see module docstring)
MODE_MIRROR = "mirror"
MODE_LEAN = "lean"
MODE_FALLBACK = "fallback"

_U64 = np.uint64


def mix64_np(v):
    """SplitMix64 finalizer over a uint64 array.

    Bit-exact with :func:`repro.common.hashing.mix64`: NumPy uint64
    multiplication wraps mod 2**64, which is exactly the scalar
    version's ``& ((1 << 64) - 1)``.
    """
    v = np.asarray(v, dtype=np.uint64)
    with np.errstate(over="ignore"):
        v = (v ^ (v >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        v = (v ^ (v >> _U64(27))) * _U64(0x94D049BB133111EB)
        return v ^ (v >> _U64(31))


class MissPlan:
    """Per-chunk precomputed barrier batch: the output of one batched
    classification pass, consumed in record order by the executor.

    Parallel Python lists (converted once from the NumPy pass) indexed
    by *plan ordinal*; ``pos`` holds chunk-relative record positions in
    strictly increasing order.  ``hit``/``gen`` are None outside mirror
    mode.  A planned member whose record is reclassified to an L1 hit is
    simply skipped by the cursor; a record reclassified *into* a miss
    has no plan entry and runs fully scalar.
    """

    __slots__ = ("pos", "nomerge", "ch", "bank", "row", "hit", "gen", "cur", "n")


class MissPath:
    """Services the vector tier's barriers against the shared level."""

    def __init__(self, replay) -> None:
        h = replay.h
        self.h = h
        cfg = h.config
        self.block_bits = h.address_map.block_bits
        self.block_mask = h.address_map.block_size - 1
        self.l1_hit = cfg.l1d.hit_latency
        self.llc = h.llc
        self.llc_sets = h.llc._sets
        self.llc_set_mask = h.llc._set_mask
        self.llc_hit = cfg.llc.hit_latency
        self.mshrs = h.l1_mshrs
        self.prefetchers = h.prefetchers
        self._issue_prefetches = h._issue_prefetches

        # hoisted stat cells: the shared LLC set (already cells on the
        # hierarchy) plus per-core MSHR cells the inline head needs
        self.c_demand_accesses = h._c_demand_accesses
        self.c_demand_writes = h._c_demand_writes
        self.c_demand_hits = h._c_demand_hits
        self.c_demand_misses = h._c_demand_misses
        self.c_covered = h._c_covered
        self.c_prefetch_hits = h._c_prefetch_hits
        self.c_late_covered = h._c_late_covered
        # MSHR stats go through StatGroup.add like the originals: the
        # counters must stay lazily created, or raw_stats would grow
        # zero-valued keys the scalar tiers never materialize
        self.mshr_stats = [m.stats for m in h.l1_mshrs]

        # DRAM timing scalars + live shared structures (timing_view is
        # the export hook; busy/open_row stay live-mutable references)
        dv = h.dram.timing_view()
        self.d_channels = dv["channels"]
        self.d_banks = dv["banks_per_channel"]
        self.d_rowsz = dv["row_size_bytes"]
        self.d_hit = dv["hit_cycles"]
        self.d_miss = dv["miss_cycles"]
        self.d_occ = dv["occupancy_cycles"]
        self.d_busy = dv["channel_busy"]
        self.d_open = dv["open_row"]
        self.c_reads = h.dram._reads
        self.c_row_hits = h.dram._row_hits
        self.c_row_misses = h.dram._row_misses
        self.c_queued = h.dram._queued
        self.c_queue_cycles = h.dram._queue_cycles

        native = h.llc.policy is None and h._oracle_observe is None
        if not native:
            self.mode = MODE_FALLBACK
        elif h.prefetchers:
            self.mode = MODE_LEAN
        else:
            self.mode = MODE_MIRROR
        if self.mode == MODE_MIRROR:
            llc_cfg = cfg.llc
            self.m_tags = np.zeros((llc_cfg.sets, llc_cfg.ways), dtype=np.uint64)
            self.m_valid = np.zeros((llc_cfg.sets, llc_cfg.ways), dtype=bool)
            self.set_gen: List[int] = [0] * llc_cfg.sets
            self.set_dirty: List[bool] = [True] * llc_cfg.sets
            self.service = self._service_mirror
        elif self.mode == MODE_LEAN:
            self.service = self._service_lean
        else:
            self.service = self._service_fallback

    # -- batched classification -------------------------------------------
    def prepare_chunk(self, cs, chunk) -> None:
        """Pre-resolve a classified chunk's known-block barriers.

        One batched pass: MSHR no-merge mask, DRAM routes, and (mirror
        mode) LLC membership verdicts stamped with the current set
        generations.  ``CLS_UNKNOWN`` barriers (first-touch pages) have
        no block yet and always run scalar.
        """
        chunk.mp = None
        if self.mode == MODE_FALLBACK:
            return
        mi = np.nonzero(chunk.kind == CLS_MISS)[0]
        if mi.size == 0:
            return
        blocks = chunk.block[mi]

        # batched MSHR gate (see module docstring for the soundness
        # argument: absent-now + unique-in-chunk => cannot merge)
        uniq, inverse, counts = np.unique(
            blocks, return_inverse=True, return_counts=True
        )
        nomerge = counts[inverse] == 1
        inflight = self.mshrs[cs.core_id].inflight_blocks()
        if inflight:
            nomerge &= ~np.isin(
                blocks, np.array(inflight, dtype=np.uint64)
            )

        # vectorized DRAM routes: the pure function of the block address
        baddr = blocks << _U64(self.block_bits)
        row = baddr // _U64(self.d_rowsz)
        hsh = mix64_np(row)
        ch = hsh % _U64(self.d_channels)
        bank = (hsh >> _U64(8)) % _U64(self.d_banks)

        mp = MissPlan()
        mp.pos = mi.tolist()
        mp.nomerge = nomerge.tolist()
        mp.ch = ch.tolist()
        mp.bank = bank.tolist()
        mp.row = row.tolist()
        mp.cur = 0
        mp.n = len(mp.pos)

        if self.mode == MODE_MIRROR:
            si = (blocks & _U64(self.llc_set_mask)).astype(np.int64)
            self._refresh_sets(np.unique(si))
            rows_t = self.m_tags[si]
            hit = ((rows_t == blocks[:, None]) & self.m_valid[si]).any(axis=1)
            sg = self.set_gen
            mp.hit = hit.tolist()
            mp.gen = [sg[s] for s in si.tolist()]
        else:
            mp.hit = None
            mp.gen = None
        chunk.mp = mp

    def _refresh_sets(self, sets) -> None:
        """Lazily rebuild mirror rows for sets dirtied since last use."""
        dirty = self.set_dirty
        tags = self.m_tags
        valid = self.m_valid
        export = self.llc.export_set
        for s in sets.tolist():
            if dirty[s]:
                resident = export(s)
                n = len(resident)
                valid[s, :] = False
                if n:
                    valid[s, :n] = True
                    tags[s, :n] = resident
                dirty[s] = False

    # -- the three service variants ---------------------------------------
    # Each returns (total_latency, filled): the exact latency the scalar
    # ``MemoryHierarchy.access`` miss tail would return, and whether the
    # caller must fill its array L1 (False on an MSHR merge).

    def _mshr_head(self, mshr, block, now, probe):
        """Inline expiry + (optional) merge probe; None means no merge."""
        inflight = mshr._inflight
        if now > mshr._clock:
            mshr._clock = now
        mh = mshr._heap
        if mh and mh[0][0] <= now:
            pop = heapq.heappop
            starts = mshr._starts
            while mh and mh[0][0] <= now:
                t, b = pop(mh)
                if inflight.get(b) == t:
                    del inflight[b]
                    starts.pop(b, None)
        if probe:
            t = inflight.get(block)
            if t is not None and t > now:
                return t
        return None

    def _mshr_reserve(self, mshr, core_id, now):
        """Inline ``MshrFile.reserve`` (post-expiry): stall-adjusted start."""
        inflight = mshr._inflight
        overflow = len(inflight) - mshr.entries + 1
        if overflow <= 0:
            return now
        start = heapq.nsmallest(overflow, inflight.values())[-1]
        self.mshr_stats[core_id].add("stalls")
        return max(now, start)

    def _mshr_commit(self, mshr, core_id, block, finish, start):
        """Inline ``MshrFile.commit`` keeping the pending-start heap."""
        mshr._inflight[block] = finish
        if start > mshr._clock:
            mshr._starts[block] = start
            heapq.heappush(mshr._pending, (start, block))
        else:
            mshr._starts.pop(block, None)
        heapq.heappush(mshr._heap, (finish, block))
        self.mshr_stats[core_id].add("allocations")

    def _service_lean(self, cs, index, block, vaddr, now, is_write, mp, pe):
        h = self.h
        core_id = cs.core_id
        mshr = self.mshrs[core_id]
        probe = pe is None or not mp.nomerge[pe]
        merged = self._mshr_head(mshr, block, now, probe)
        if merged is not None:
            self.mshr_stats[core_id].add("merges")
            return (merged - now) + self.l1_hit, False
        start = self._mshr_reserve(mshr, core_id, now)
        now2 = start + self.l1_hit

        # ---- _llc_access, inlined (native LRU, no oracle, null sink) ----
        self.c_demand_accesses.value += 1
        if now2 > h._now:
            h._now = now2
        if is_write:
            self.c_demand_writes.value += 1
        entries = self.llc_sets[block & self.llc_set_mask]
        state = entries.get(block)
        hit = state is not None
        if hit:
            entries.move_to_end(block)
            wait = max(0.0, state.ready_time - now2)
            if state.prefetched and not state.used:
                state.used = True
                self.c_covered.value += 1
                self.c_prefetch_hits.value += 1
                if wait > 0:
                    self.c_late_covered.value += 1
                self.prefetchers[state.core_id].on_prefetch_used(block)
            else:
                self.c_demand_hits.value += 1
            lat2 = self.llc_hit + wait
            if is_write:
                state.dirty = True
        else:
            self.c_demand_misses.value += 1
            lat2 = self.llc_hit + self._dram_access(now2 + self.llc_hit, block, mp, pe)
            fill_state = BlockState(core_id=core_id, ready_time=now2 + lat2)
            fill_state.used = True
            fill_state.dirty = is_write
            self.llc.fill(block, fill_state)

        # ---- train / trigger the prefetcher (LLC placement) ----
        pf = self.prefetchers[core_id]
        info = AccessInfo(
            pc=int(cs.pcs[index]),
            address=(block << self.block_bits) | (vaddr & self.block_mask),
            block=block,
            hit=hit,
            time=now2,
            core_id=core_id,
            is_write=is_write,
        )
        requests = pf.clamp_degree(pf.on_access(info))
        if requests:
            self._issue_prefetches(pf, core_id, block, requests, now2 + self.llc_hit)

        total = (now2 - now) + self.l1_hit + lat2
        self._mshr_commit(mshr, core_id, block, now + total, start)
        return total, True

    def _service_mirror(self, cs, index, block, vaddr, now, is_write, mp, pe):
        h = self.h
        core_id = cs.core_id
        mshr = self.mshrs[core_id]
        probe = pe is None or not mp.nomerge[pe]
        merged = self._mshr_head(mshr, block, now, probe)
        if merged is not None:
            self.mshr_stats[core_id].add("merges")
            return (merged - now) + self.l1_hit, False
        start = self._mshr_reserve(mshr, core_id, now)
        now2 = start + self.l1_hit

        self.c_demand_accesses.value += 1
        if now2 > h._now:
            h._now = now2
        if is_write:
            self.c_demand_writes.value += 1
        si = block & self.llc_set_mask
        # conflict detection: trust the batched verdict only while the
        # set's generation is unchanged; a same-set fill since
        # classification demotes this member to the live (scalar) probe
        if pe is not None and mp.gen[pe] == self.set_gen[si]:
            state = None if not mp.hit[pe] else self.llc_sets[si].get(block)
        else:
            state = self.llc_sets[si].get(block)
        if state is not None:
            entries = self.llc_sets[si]
            entries.move_to_end(block)
            wait = max(0.0, state.ready_time - now2)
            if state.prefetched and not state.used:
                # unreachable without prefetchers; kept for exactness
                state.used = True
                self.c_covered.value += 1
                self.c_prefetch_hits.value += 1
                if wait > 0:
                    self.c_late_covered.value += 1
            else:
                self.c_demand_hits.value += 1
            lat2 = self.llc_hit + wait
            if is_write:
                state.dirty = True
        else:
            self.c_demand_misses.value += 1
            lat2 = self.llc_hit + self._dram_access(now2 + self.llc_hit, block, mp, pe)
            fill_state = BlockState(core_id=core_id, ready_time=now2 + lat2)
            fill_state.used = True
            fill_state.dirty = is_write
            self.llc.fill(block, fill_state)
            self.set_gen[si] += 1
            self.set_dirty[si] = True

        total = (now2 - now) + self.l1_hit + lat2
        self._mshr_commit(mshr, core_id, block, now + total, start)
        return total, True

    def _service_fallback(self, cs, index, block, vaddr, now, is_write, mp, pe):
        """Policy-interface / oracle runs: real ``_llc_access`` per miss."""
        h = self.h
        core_id = cs.core_id
        mshr = self.mshrs[core_id]
        merged = self._mshr_head(mshr, block, now, True)
        if merged is not None:
            self.mshr_stats[core_id].add("merges")
            return (merged - now) + self.l1_hit, False
        start = self._mshr_reserve(mshr, core_id, now)
        now2 = start + self.l1_hit
        paddr = (block << self.block_bits) | (vaddr & self.block_mask)
        result = h._llc_access(
            core_id, int(cs.pcs[index]), paddr, block, now2, is_write
        )
        total = (now2 - now) + self.l1_hit + result.latency
        self._mshr_commit(mshr, core_id, block, now + total, start)
        return total, True

    # -- shared DRAM residue ----------------------------------------------
    def _dram_access(self, t_arr, block, mp, pe):
        """Inline ``DramModel.access``; routes may come precomputed.

        The channel-busy and open-row state is read and advanced live,
        in barrier order — exactly the scalar float sequence.
        """
        if pe is not None:
            ch = mp.ch[pe]
            bank = mp.bank[pe]
            row = mp.row[pe]
        else:
            row = (block << self.block_bits) // self.d_rowsz
            hsh = mix64(row)
            ch = hsh % self.d_channels
            bank = (hsh >> 8) % self.d_banks
        busy = self.d_busy[ch]
        startd = t_arr if t_arr >= busy else busy  # max(now, busy)
        queue_delay = startd - t_arr
        orow = self.d_open[ch]
        if orow.get(bank) == row:
            service = self.d_hit
            self.c_row_hits.value += 1
        else:
            service = self.d_miss
            orow[bank] = row
            self.c_row_misses.value += 1
        self.d_busy[ch] = startd + self.d_occ
        self.c_reads.value += 1
        if queue_delay > 0:
            self.c_queued.value += 1
            self.c_queue_cycles.value += queue_delay
        return queue_delay + service
