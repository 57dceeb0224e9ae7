"""The digest-sharded result cache and its cache handles.

Three layers, all speaking the same digest-addressed contract:

* :class:`ShardStore` — one node's slice of the cache: a raw
  digest-keyed JSON store with the same atomic-write / torn-file=miss
  discipline as :class:`~repro.sim.executor.ResultCache`, but keyed by
  an externally supplied digest (the frontend routes by digest; it
  must not need the ``SimJob`` to locate an entry).
* :class:`ShardedResultCache` — the frontend's view: a
  :class:`~repro.serve.cluster.ring.HashRing` over per-node stores.
  ``get``/``put`` consistent-hash the digest to its owning shard, so
  capacity scales with membership and the assignment is stable across
  membership changes.  Stores are pluggable via ``store_factory`` —
  the default materialises node-local directories under the frontend's
  cache root (one process per box in the smoke test shares a
  filesystem); a true remote store plugs in behind the same two
  methods.
* :class:`ClusterCacheClient` / :class:`TieredCache` — the *worker*
  side: cache handles duck-typed to ``ResultCache``'s ``load``/
  ``store`` so :meth:`~repro.sim.executor.Executor.run_job_guarded`
  accepts them as lease-scoped overrides.  ``TieredCache`` chains the
  worker's local disk in front of the cluster ring: a local hit never
  touches the network, a remote hit backfills the local tier, and a
  store populates both — which is exactly why a job re-run on *any*
  node dedupes.

Cache traffic is best-effort by design: an unreachable frontend turns
``load`` into a miss and ``store`` into a no-op, never into a failed
job.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.sim.executor import CACHE_SCHEMA, SimJob
from repro.sim.results import SimResult
from repro.serve.cluster.ring import REPLICAS, HashRing

#: sanity bound on digests accepted over the wire (sha256 hex)
DIGEST_HEX_LENGTH = 64


def valid_digest(digest: str) -> bool:
    """True for a well-formed sha256 hex digest (the only key shape the
    shard routes; anything else is a 400, not a file path)."""
    if not isinstance(digest, str) or len(digest) != DIGEST_HEX_LENGTH:
        return False
    try:
        int(digest, 16)
    except ValueError:
        return False
    return True


class ShardStore:
    """One node's digest-keyed slice of the sharded result cache."""

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)

    def path_for(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.json"

    def get(self, digest: str) -> Optional[Dict[str, Any]]:
        """The stored result dict, or ``None``.  Corrupt entries are
        deleted and read as misses, mirroring ``ResultCache.load``."""
        path = self.path_for(digest)
        try:
            handle = open(path, "r", encoding="utf-8")
        except OSError:
            return None
        try:
            with handle:
                entry = json.load(handle)
            if (
                entry.get("schema") != CACHE_SCHEMA
                or entry.get("digest") != digest
                or not isinstance(entry.get("result"), dict)
            ):
                raise ValueError("schema mismatch or missing result")
            return entry["result"]
        except (OSError, ValueError, TypeError, KeyError, EOFError):
            try:
                os.unlink(path)
            except OSError:
                pass
            return None

    def put(self, digest: str, result: Dict[str, Any]) -> Path:
        path = self.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {"schema": CACHE_SCHEMA, "digest": digest, "result": result}
        fd, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=".tmp-shard-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(entry, handle)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path


class ShardedResultCache:
    """Consistent-hash routing of digests across node-local stores.

    Thread-safe: membership changes (worker registrations) race cache
    traffic from lease handler threads.
    """

    def __init__(
        self,
        root: os.PathLike,
        replicas: int = REPLICAS,
        store_factory: Optional[Callable[[str], Any]] = None,
    ) -> None:
        self.root = Path(root)
        self.ring = HashRing(replicas=replicas)
        self._stores: Dict[str, Any] = {}
        self._factory = store_factory or (
            lambda node: ShardStore(self.root / node)
        )
        self._lock = threading.Lock()

    # -- membership ---------------------------------------------------------
    def add_node(self, node: str) -> bool:
        """Attach ``node``'s shard; returns False when already present.

        Shards are never detached on node death: the entries they hold
        stay valid (digests fold the code version), and a node that
        re-registers after a crash resumes serving its slice.
        """
        with self._lock:
            if not self.ring.add(node):
                return False
            self._stores[node] = self._factory(node)
            return True

    def nodes(self) -> List[str]:
        with self._lock:
            return self.ring.nodes()

    # -- traffic ------------------------------------------------------------
    def _store_for(self, digest: str):
        with self._lock:
            owner = self.ring.owner(digest)
            return self._stores.get(owner) if owner is not None else None

    def get(self, digest: str) -> Optional[Dict[str, Any]]:
        """The entry from the digest's owning shard, else from any other.

        A node that joins takes over part of its neighbours' slices, but
        shards are never rebalanced, so an entry written before the join
        stays with its old owner; digests fold the code version, so any
        shard's entry for the digest is valid.
        """
        with self._lock:
            owner = self.ring.owner(digest)
            # the owner first: it holds every entry written since it joined
            stores = sorted(
                self._stores.items(), key=lambda item: item[0] != owner
            )
        for _, store in stores:
            entry = store.get(digest)
            if entry is not None:
                return entry
        return None

    def put(self, digest: str, result: Dict[str, Any]) -> bool:
        """Route ``result`` to its owning shard; False on an empty ring."""
        store = self._store_for(digest)
        if store is None:
            return False
        store.put(digest, result)
        return True

    # -- introspection ------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "nodes": self.ring.nodes(),
                "size": len(self.ring),
                "replicas": self.ring.replicas,
                "points": len(self.ring.points()),
            }


class ClusterCacheClient:
    """``ResultCache``-shaped handle over ``/cluster/cache/<digest>``.

    ``client`` is a :class:`~repro.serve.client.ServiceClient` (or
    anything with its ``cache_get``/``cache_put`` methods).  Transport
    and server errors degrade to miss/no-op — the cache must never turn
    a runnable job into a failed one.
    """

    def __init__(self, client) -> None:
        self.client = client

    def load(self, job: SimJob) -> Optional[SimResult]:
        try:
            result = self.client.cache_get(job.digest())
        except Exception:
            return None
        if not isinstance(result, dict):
            return None
        try:
            return SimResult.from_dict(result)
        except (ValueError, TypeError, KeyError):
            return None

    def store(self, job: SimJob, result: SimResult) -> None:
        try:
            self.client.cache_put(job.digest(), result.to_dict())
        except Exception:
            pass


class TieredCache:
    """Local-disk tier in front of the cluster shard ring.

    The lease-scoped cache handle a worker hands to
    :meth:`~repro.sim.executor.Executor.run_job_guarded`: ``load``
    probes the worker-local store first, then the ring (backfilling the
    local tier on a remote hit); ``store`` populates both, so the next
    identical job anywhere in the cluster — not just on this node —
    short-circuits to a cache read.
    """

    def __init__(self, local, remote) -> None:
        self.local = local
        self.remote = remote

    def load(self, job: SimJob) -> Optional[SimResult]:
        if self.local is not None:
            hit = self.local.load(job)
            if hit is not None:
                return hit
        if self.remote is not None:
            hit = self.remote.load(job)
            if hit is not None and self.local is not None:
                self.local.store(job, hit)
            return hit
        return None

    def store(self, job: SimJob, result: SimResult) -> None:
        if self.local is not None:
            self.local.store(job, result)
        if self.remote is not None:
            self.remote.store(job, result)
