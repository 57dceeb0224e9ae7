"""HashRing + sharded cache: stability, routing, store discipline."""

import hashlib
import json

import pytest

from repro.serve.cluster.ring import REPLICAS, HashRing, ring_hash
from repro.serve.cluster.shard import (
    ShardStore,
    ShardedResultCache,
    valid_digest,
)


def digest_of(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


DIGESTS = [digest_of(f"key-{i}") for i in range(400)]


class TestRingHash:
    def test_deterministic_across_instances(self):
        a = HashRing(["n1", "n2", "n3"])
        b = HashRing(["n3", "n1", "n2"])  # insertion order must not matter
        for digest in DIGESTS[:50]:
            assert a.owner(digest) == b.owner(digest)

    def test_hash_is_stable(self):
        # pin the construction: a silent change to ring_hash would move
        # every shard assignment in a deployed cluster
        assert ring_hash("n1#0") == int.from_bytes(
            hashlib.sha256(b"n1#0").digest()[:8], "big"
        )


class TestMembership:
    def test_add_remove_roundtrip(self):
        ring = HashRing()
        assert ring.add("n1")
        assert not ring.add("n1")  # already present
        assert "n1" in ring and len(ring) == 1
        assert len(ring.points()) == REPLICAS
        assert ring.remove("n1")
        assert not ring.remove("n1")
        assert ring.owner(DIGESTS[0]) is None

    def test_empty_node_rejected(self):
        with pytest.raises(ValueError):
            HashRing().add("")

    def test_adding_a_node_only_moves_keys_to_it(self):
        ring = HashRing(["n1", "n2"])
        before = {d: ring.owner(d) for d in DIGESTS}
        ring.add("n3")
        moved = 0
        for d in DIGESTS:
            after = ring.owner(d)
            if after != before[d]:
                assert after == "n3"  # stability: only the new node gains
                moved += 1
        # ~1/3 of keys should move, and definitely not all of them
        assert 0 < moved < len(DIGESTS) // 2

    def test_removing_a_node_only_moves_its_keys(self):
        ring = HashRing(["n1", "n2", "n3"])
        before = {d: ring.owner(d) for d in DIGESTS}
        ring.remove("n2")
        for d in DIGESTS:
            if before[d] != "n2":
                assert ring.owner(d) == before[d]
            else:
                assert ring.owner(d) in ("n1", "n3")

    def test_distribution_roughly_balanced(self):
        ring = HashRing(["n1", "n2", "n3"])
        counts = {"n1": 0, "n2": 0, "n3": 0}
        for d in DIGESTS:
            counts[ring.owner(d)] += 1
        # virtual nodes keep the max/min ratio modest on a small cluster
        assert max(counts.values()) < 3 * min(counts.values())

    def test_owners_distinct_successors(self):
        ring = HashRing(["n1", "n2", "n3"])
        owners = ring.owners(DIGESTS[0], 3)
        assert len(owners) == 3
        assert len(set(owners)) == 3
        assert owners[0] == ring.owner(DIGESTS[0])
        assert ring.owners(DIGESTS[0], 10) == owners  # only 3 exist


class TestValidDigest:
    def test_accepts_sha256_hex(self):
        assert valid_digest(digest_of("x"))

    @pytest.mark.parametrize(
        "bad", ["", "abc", "x" * 64, digest_of("x")[:-1], 42, None]
    )
    def test_rejects_everything_else(self, bad):
        assert not valid_digest(bad)


class TestShardStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ShardStore(tmp_path)
        digest = digest_of("a")
        store.put(digest, {"ipc": 1.5})
        assert store.get(digest) == {"ipc": 1.5}

    def test_missing_is_miss(self, tmp_path):
        assert ShardStore(tmp_path).get(digest_of("nope")) is None

    def test_corrupt_entry_deleted_and_missed(self, tmp_path):
        store = ShardStore(tmp_path)
        digest = digest_of("a")
        path = store.put(digest, {"ipc": 1.5})
        path.write_text("{torn")
        assert store.get(digest) is None
        assert not path.exists()

    def test_schema_mismatch_is_miss(self, tmp_path):
        store = ShardStore(tmp_path)
        digest = digest_of("a")
        path = store.put(digest, {"ipc": 1.5})
        entry = json.loads(path.read_text())
        entry["schema"] = -1
        path.write_text(json.dumps(entry))
        assert store.get(digest) is None


class TestShardedResultCache:
    def test_routes_to_ring_owner(self, tmp_path):
        cache = ShardedResultCache(tmp_path)
        cache.add_node("n1")
        cache.add_node("n2")
        for d in DIGESTS[:20]:
            cache.put(d, {"d": d})
        for d in DIGESTS[:20]:
            owner = cache.ring.owner(d)
            assert (tmp_path / owner / d[:2] / f"{d}.json").exists()
            assert cache.get(d) == {"d": d}

    def test_entries_survive_a_node_joining(self, tmp_path):
        """Regression: a joining node takes over digests whose entries
        still live on their old owner's shard; they must stay readable."""
        cache = ShardedResultCache(tmp_path)
        cache.add_node("n1")
        for d in DIGESTS[:20]:
            cache.put(d, {"d": d})
        cache.add_node("n2")
        assert any(cache.ring.owner(d) == "n2" for d in DIGESTS[:20])
        for d in DIGESTS[:20]:
            assert cache.get(d) == {"d": d}

    def test_empty_ring_degrades(self, tmp_path):
        cache = ShardedResultCache(tmp_path)
        assert cache.get(DIGESTS[0]) is None
        assert cache.put(DIGESTS[0], {}) is False

    def test_add_node_idempotent(self, tmp_path):
        cache = ShardedResultCache(tmp_path)
        assert cache.add_node("n1")
        assert not cache.add_node("n1")

    def test_snapshot(self, tmp_path):
        cache = ShardedResultCache(tmp_path)
        cache.add_node("n1")
        snap = cache.snapshot()
        assert snap["nodes"] == ["n1"]
        assert snap["size"] == 1
        assert snap["points"] == snap["replicas"] == REPLICAS
