"""The table's built-in LRU replacement: victim order and recency order."""

from repro.common.table import SetAssociativeTable


class TestLru:
    def test_lru_order(self):
        evicted = []
        table = SetAssociativeTable(
            sets=1, ways=3, on_evict=lambda t, p: evicted.append(t)
        )
        for key in range(3):
            table.insert(key, key)
        table.insert(3, 3)
        assert evicted == [0]  # least recently used
        table.lookup(1)
        table.insert(4, 4)
        assert evicted == [0, 2]

    def test_recency_rank(self):
        table = SetAssociativeTable(sets=1, ways=3)
        for key in range(3):
            table.insert(key, key)
        order = [tag for tag, _p in table.scan_set(0)]
        assert order[-1] == 2  # MRU
        assert order[0] == 0  # LRU
