"""A generic set-associative LRU table.

Nearly every prefetcher structure in the paper — Bingo's filter,
accumulation and history tables, SMS's history table, SPP's signature
table, VLDP's delta tables — is a set-associative array of
``(tag, payload)`` entries with LRU replacement.
:class:`SetAssociativeTable` implements that once, with eviction callbacks
so owners can commit state (e.g. Bingo moves an accumulation-table entry
into the history table when it is evicted).
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, List, Optional, Tuple, TypeVar

from repro.common.hashing import fold

P = TypeVar("P")


class SetAssociativeTable(Generic[P]):
    """Set-associative ``tag -> payload`` storage with LRU replacement.

    Keys are arbitrary ints; the set index is a fold of the key unless the
    caller supplies an explicit index (Bingo indexes by a *different* event
    than it tags with, which is the whole storage trick of the paper — see
    :class:`repro.core.history.BingoHistoryTable`).

    Each set is one dict whose order runs least- to most-recently used:
    a touch re-inserts the tag at the end, and a fill into a full set
    evicts the first tag.  Split index/tag schemes (the history table)
    can legally hold the same tag in several sets.  Payloads must not be
    None, which the lookups return for "absent".

    Parameters
    ----------
    sets, ways:
        Geometry; ``sets`` must be a power of two.
    on_evict:
        Optional callback ``(tag, payload) -> None`` invoked whenever a
        valid entry is displaced or explicitly invalidated.
    """

    def __init__(
        self,
        sets: int,
        ways: int,
        on_evict: Optional[Callable[[int, P], None]] = None,
    ) -> None:
        if sets <= 0 or sets & (sets - 1):
            raise ValueError(f"sets must be a positive power of two, got {sets}")
        if ways <= 0:
            raise ValueError(f"ways must be positive, got {ways}")
        self.sets = sets
        self.ways = ways
        self.index_bits = sets.bit_length() - 1
        self.on_evict = on_evict
        self._sets: List[Dict[int, P]] = [{} for _ in range(sets)]
        # fold() walks the 64-bit hash in index_bits-wide steps — ~20
        # Python-loop iterations for a small table.  Keys recur heavily
        # (spatial locality), so memoise the fold per table.
        self._fold_memo: dict = {}

    # -- geometry -------------------------------------------------------------
    def __len__(self) -> int:
        return sum(map(len, self._sets))

    @property
    def capacity(self) -> int:
        return self.sets * self.ways

    def set_index(self, key: int) -> int:
        """Default set index: hash-fold of the key (memoised)."""
        if not self.index_bits:
            return 0
        memo = self._fold_memo
        idx = memo.get(key)
        if idx is None:
            idx = fold(key, self.index_bits)
            if len(memo) >= 1 << 20:  # bound the memo on huge key spaces
                memo.clear()
            memo[key] = idx
        return idx

    # -- lookups ---------------------------------------------------------------
    def lookup(
        self, key: int, index: Optional[int] = None, touch: bool = True
    ) -> Optional[P]:
        """Return the payload tagged exactly ``key``, or None.

        ``index`` overrides the set index (for split index/tag schemes);
        ``touch`` controls whether the hit updates recency.
        """
        entries = self._sets[self.set_index(key) if index is None else index]
        if not touch:
            return entries.get(key)
        payload = entries.pop(key, None)
        if payload is not None:
            entries[key] = payload
        return payload

    def scan_set(self, index: int) -> List[Tuple[int, P]]:
        """All entries of a set as ``(tag, payload)``, least recent first."""
        return list(self._sets[index].items())

    # -- updates ----------------------------------------------------------------
    def insert(self, key: int, payload: P, index: Optional[int] = None) -> None:
        """Insert or overwrite the entry tagged ``key``, making it MRU.

        A fill into a full set first evicts the LRU entry and reports it
        through ``on_evict``.
        """
        entries = self._sets[self.set_index(key) if index is None else index]
        if entries.pop(key, None) is None and len(entries) >= self.ways:
            old_tag = next(iter(entries))
            old = entries.pop(old_tag)
            if self.on_evict is not None:
                self.on_evict(old_tag, old)
        entries[key] = payload

    def invalidate(self, key: int, index: Optional[int] = None) -> Optional[P]:
        """Remove the entry tagged ``key``; returns its payload if present.

        The eviction callback fires for explicit invalidations too, since
        owners use it to commit in-flight state.
        """
        payload = self.pop(key, index)
        if payload is not None and self.on_evict is not None:
            self.on_evict(key, payload)
        return payload

    def pop(self, key: int, index: Optional[int] = None) -> Optional[P]:
        """Remove the entry tagged ``key`` *without* firing ``on_evict``."""
        entries = self._sets[self.set_index(key) if index is None else index]
        return entries.pop(key, None)

    def items(self) -> List[Tuple[int, P]]:
        """All ``(tag, payload)`` pairs, set-major, least recent first."""
        return [item for entries in self._sets for item in entries.items()]

    def clear(self) -> None:
        """Drop all entries without firing eviction callbacks."""
        for entries in self._sets:
            entries.clear()
