"""Bingo's unified history table (Fig. 5): dual lookup, voting, storage."""

import pytest

from repro.common.bitvec import Footprint
from repro.core.events import EventKind
from repro.core.history import BingoHistoryTable


def fp(*offsets) -> Footprint:
    return Footprint.from_offsets(32, offsets)


def small_table(**kwargs) -> BingoHistoryTable:
    defaults = dict(entries=64, ways=4, blocks_per_region=32)
    defaults.update(kwargs)
    return BingoHistoryTable(**defaults)


class TestLongEventLookup:
    def test_exact_match_wins(self):
        table = small_table()
        table.insert(pc=1, block=100, offset=4, footprint=fp(4, 5))
        match = table.lookup(pc=1, block=100, offset=4)
        assert match is not None
        assert match.matched is EventKind.PC_ADDRESS
        assert match.footprint == fp(4, 5)

    def test_miss_with_no_entries(self):
        assert small_table().lookup(pc=1, block=100, offset=4) is None

    def test_long_match_preferred_over_short(self):
        """Same (pc, offset), different blocks: the exact block's footprint
        wins over a vote across short matches."""
        table = small_table()
        table.insert(pc=1, block=100, offset=4, footprint=fp(4, 5))
        table.insert(pc=1, block=200, offset=4, footprint=fp(4, 9))
        match = table.lookup(pc=1, block=200, offset=4)
        assert match.matched is EventKind.PC_ADDRESS
        assert match.footprint == fp(4, 9)


class TestShortEventLookup:
    def test_falls_back_to_pc_offset(self):
        table = small_table()
        table.insert(pc=1, block=100, offset=4, footprint=fp(4, 5))
        match = table.lookup(pc=1, block=999, offset=4)  # unseen block
        assert match is not None
        assert match.matched is EventKind.PC_OFFSET
        assert match.footprint == fp(4, 5)

    def test_short_match_requires_same_pc_and_offset(self):
        table = small_table()
        table.insert(pc=1, block=100, offset=4, footprint=fp(4, 5))
        assert table.lookup(pc=2, block=999, offset=4) is None
        assert table.lookup(pc=1, block=999, offset=5) is None

    def test_vote_across_multiple_matches(self):
        """Blocks below the vote threshold are excluded (majority vote)."""
        table = small_table(vote_threshold=0.5, ways=4)
        table.insert(pc=1, block=100, offset=0, footprint=fp(0, 1, 2))
        table.insert(pc=1, block=200, offset=0, footprint=fp(0, 1, 9))
        table.insert(pc=1, block=300, offset=0, footprint=fp(0, 1))
        match = table.lookup(pc=1, block=999, offset=0)
        assert match.matched is EventKind.PC_OFFSET
        assert match.num_matches == 3
        # 0 and 1 appear in 3/3; 2 and 9 appear in 1/3 < 50 %.
        assert match.footprint == fp(0, 1)

    def test_default_20_percent_threshold_unions_two(self):
        table = small_table()  # 0.20: 1 of 2 votes suffices
        table.insert(pc=1, block=100, offset=0, footprint=fp(0, 1, 2))
        table.insert(pc=1, block=200, offset=0, footprint=fp(0, 1, 9))
        match = table.lookup(pc=1, block=999, offset=0)
        assert match.footprint == fp(0, 1, 2, 9)

    def test_most_recent_policy(self):
        table = small_table(short_match_policy="most_recent")
        table.insert(pc=1, block=100, offset=0, footprint=fp(0, 2))
        table.insert(pc=1, block=200, offset=0, footprint=fp(0, 9))
        match = table.lookup(pc=1, block=999, offset=0)
        assert match.footprint == fp(0, 9)  # the newer entry

    def test_most_recent_means_most_recently_touched(self):
        """A long-event hit refreshes recency, so "most recent" is the last
        entry touched, not the last one inserted."""
        table = small_table(short_match_policy="most_recent")
        table.insert(pc=1, block=100, offset=0, footprint=fp(0, 2))
        table.insert(pc=1, block=200, offset=0, footprint=fp(0, 9))
        assert table.lookup(pc=1, block=100, offset=0).matched is (
            EventKind.PC_ADDRESS
        )
        match = table.lookup(pc=1, block=999, offset=0)
        assert match.matched is EventKind.PC_OFFSET
        assert match.num_matches == 2
        assert match.footprint == fp(0, 2)

    def test_events_of_one_trigger_share_a_set(self):
        """The design invariant: both lookups probe the same set, so a
        short match never requires a second index computation."""
        table = small_table()
        for block in range(200, 232):
            table.insert(pc=7, block=block, offset=3, footprint=fp(3))
        # Regardless of how many entries were inserted/evicted, a short
        # lookup still finds at most ways-many candidates - all in one set.
        match = table.lookup(pc=7, block=9999, offset=3)
        assert match is not None
        assert match.num_matches <= table.ways


class TestValidation:
    def test_rejects_misaligned_entries_ways(self):
        with pytest.raises(ValueError):
            BingoHistoryTable(entries=100, ways=16)

    def test_rejects_bad_policy(self):
        with pytest.raises(ValueError):
            small_table(short_match_policy="newest")

    def test_rejects_wrong_footprint_width(self):
        table = small_table()
        with pytest.raises(ValueError):
            table.insert(pc=1, block=1, offset=0, footprint=Footprint(16))


class TestStorage:
    def test_default_configuration_costs_about_119_kib(self):
        """Section VI-A: 16 K entries -> ~119 KB total metadata."""
        table = BingoHistoryTable()
        kib = table.storage_bits / 8 / 1024
        assert 110 <= kib <= 125

    def test_insert_updates_length(self):
        table = small_table()
        table.insert(pc=1, block=100, offset=4, footprint=fp(4))
        table.insert(pc=1, block=101, offset=4, footprint=fp(4))
        assert len(table) == 2

    def test_reinsert_same_trigger_replaces(self):
        table = small_table()
        table.insert(pc=1, block=100, offset=4, footprint=fp(4))
        table.insert(pc=1, block=100, offset=4, footprint=fp(4, 6))
        assert len(table) == 1
        assert table.lookup(pc=1, block=100, offset=4).footprint == fp(4, 6)

    def test_footprints_are_copied_on_insert_and_lookup(self):
        table = small_table()
        original = fp(4)
        table.insert(pc=1, block=100, offset=4, footprint=original)
        original.set(9)  # caller mutation must not leak in
        got = table.lookup(pc=1, block=100, offset=4).footprint
        assert got == fp(4)
        got.set(10)  # nor out
        assert table.lookup(pc=1, block=100, offset=4).footprint == fp(4)
