"""Miss Status Holding Registers.

An MSHR file bounds the number of outstanding misses a cache can have in
flight (Table I: 8 entries at the L1).  In our latency-based model it has
two jobs: *merging* (a second miss to a block already in flight piggybacks
on the first) and *back-pressure* (a miss issued while all entries are busy
stalls until the oldest outstanding miss completes).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

from repro.common.stats import StatGroup


class MshrFile:
    """Tracks outstanding misses as ``block -> completion_time``.

    Times are core cycles (floats are accepted; ordering is what matters).
    Entries whose completion time has passed are garbage-collected lazily
    on each call, so the structure never grows beyond the live misses plus
    at most the stalled reservations issued against them.

    A stalled reservation (:meth:`reserve` on a full file) never removes
    the blocking entries: they remain visible to :meth:`lookup`/:meth:`merge`
    until their real completion times, exactly like hardware, where a
    stalled miss waits in the queue while the oldest outstanding miss
    finishes its fill.
    """

    def __init__(self, entries: int, stats: Optional[StatGroup] = None) -> None:
        if entries <= 0:
            raise ValueError(f"MSHR entries must be positive, got {entries}")
        self.entries = entries
        self.stats = stats if stats is not None else StatGroup("mshr")
        self._inflight: Dict[int, float] = {}
        self._starts: Dict[int, float] = {}
        self._heap: List[tuple] = []  # (completion_time, block)
        # Stalled reservations only: (start_time, block) ordered by start.
        # ``_starts`` holds the authoritative value; heap entries whose
        # start no longer matches it are stale and skipped on pop.
        self._pending: List[tuple] = []
        # High-water mark of ``now``; ``_expire`` is already destructive
        # under non-monotone time, so the clock bakes in the same
        # assumption rather than adding a new one.
        self._clock = float("-inf")

    def _expire(self, now: float) -> None:
        if now > self._clock:
            self._clock = now
        while self._heap and self._heap[0][0] <= now:
            time, block = heapq.heappop(self._heap)
            # Stale heap entries (block re-registered later) are skipped.
            if self._inflight.get(block) == time:
                del self._inflight[block]
                self._starts.pop(block, None)

    def outstanding(self, now: float) -> int:
        """Number of misses still in flight at ``now``."""
        self._expire(now)
        return len(self._inflight)

    def occupancy(self, now: float) -> int:
        """Entries actually *occupied* at ``now``: started but not finished.

        Differs from :meth:`outstanding` only while a stalled reservation
        is waiting for its slot: the stalled miss is registered (so later
        accesses can merge with it) but does not hold an entry until its
        start time.  The invariant checker asserts this never exceeds
        ``entries``, through the side-effect-free :meth:`peek_occupancy`.
        """
        self._expire(now)
        # Amortized O(1): ``_starts`` holds exactly the live misses whose
        # entry claim is still in the future, so occupancy is a size
        # subtraction once starts that have passed are popped.  (After
        # ``_expire`` every in-flight finish is > now, so the old
        # per-entry finish check is vacuous.)
        pending = self._pending
        starts = self._starts
        while pending and pending[0][0] <= now:
            start, block = heapq.heappop(pending)
            if starts.get(block) == start:
                del starts[block]
        return len(self._inflight) - len(starts)

    def peek_occupancy(self, now: float) -> int:
        """:meth:`occupancy` as a pure query: expires and pops nothing.

        :meth:`occupancy` garbage-collects finished entries and advances
        the file's clock, and when ``now`` runs ahead of the owning core
        that changes its later merge and stall outcomes.  Observers that
        must not change the run they watch (the invariant checker) use
        this O(live entries) scan of the same definition instead.
        """
        starts = self._starts
        return sum(
            1
            for block, finish in self._inflight.items()
            if finish > now and starts.get(block, now) <= now
        )

    def lookup(self, block: int, now: float) -> Optional[float]:
        """Completion time of an in-flight miss to ``block``, if any."""
        self._expire(now)
        time = self._inflight.get(block)
        if time is not None and time > now:
            return time
        return None

    def reserve(self, now: float) -> float:
        """Find the earliest time a new miss can issue.

        If the file is full at ``now``, the miss stalls until enough of
        the oldest outstanding misses retire to free an entry; the
        returned time is when the request actually leaves the cache.  The
        blocking entries are *not* removed — their completions are still
        in the future, and later accesses must keep merging with them
        (they expire on their own once ``now`` passes their completion).
        """
        self._expire(now)
        overflow = len(self._inflight) - self.entries + 1
        if overflow <= 0:
            return now
        # Stalled requests are served FIFO, so the ``overflow``-th
        # completion among the live misses is when this one gets a slot.
        start = heapq.nsmallest(overflow, self._inflight.values())[-1]
        self.stats.add("stalls")
        return max(now, start)

    def commit(self, block: int, finish: float, start: Optional[float] = None) -> None:
        """Register an issued miss that will complete at ``finish``.

        ``start`` is when the miss actually claims its entry (the value
        :meth:`reserve` returned); omitted, the entry is treated as
        occupied from registration, which is exact for unstalled misses.
        """
        self._inflight[block] = finish
        if start is not None and start > self._clock:
            # Only stalled reservations have a future start; unstalled
            # commits (start <= clock) are occupied at once and never
            # touch the pending heap.
            self._starts[block] = start
            heapq.heappush(self._pending, (start, block))
        else:
            self._starts.pop(block, None)
        heapq.heappush(self._heap, (finish, block))
        self.stats.add("allocations")

    def allocate(self, block: int, now: float, completion: float) -> float:
        """Reserve an entry for a new miss; returns the *stall-adjusted* start.

        Convenience wrapper over :meth:`reserve` + :meth:`commit` for
        callers whose downstream latency is already known: the completion
        time is shifted by any stall the reservation incurred.
        """
        start = self.reserve(now)
        self.commit(block, completion + (start - now), start=start)
        return start

    def merge(self, block: int, now: float) -> Optional[float]:
        """Merge with an in-flight miss; returns its completion time or None."""
        time = self.lookup(block, now)
        if time is not None:
            self.stats.add("merges")
        return time
