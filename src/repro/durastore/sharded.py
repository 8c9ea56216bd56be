"""Consistent-hash sharding over pluggable backends.

The paper's Vinz funnels every fiber blob through one NFS filer
(Section 4.2); Netherite's answer — partition the state space and give
each partition its own store — is what :class:`ShardedStore` builds.
Keys map to backends via a consistent-hash ring (virtual nodes per
shard), so adding or removing a shard moves only ~1/N of the keys; the
:meth:`add_shard` / :meth:`remove_shard` rebalance path migrates
exactly those keys and reports what it moved.

It is a drop-in :class:`~repro.bluebox.store.SharedStore`: the cost
model, statistics and fault hooks are inherited, with per-shard stats
and a shard-outage fault consultation layered on.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Any, Dict, List, Optional, Sequence

from ..bluebox.store import SharedStore, StoreError
from .backend import MemoryBackend, StoreBackend, memory_backends

#: virtual ring points per shard — enough that key distribution is even
#: within a few percent for realistic shard counts
VNODES = 64


def _hash64(data: str) -> int:
    return int.from_bytes(
        hashlib.md5(data.encode("utf-8")).digest()[:8], "big")


class ShardStats:
    """Per-shard IO accounting."""

    __slots__ = ("reads", "writes", "deletes", "bytes_read",
                 "bytes_written", "io_seconds")

    def __init__(self):
        self.reads = 0
        self.writes = 0
        self.deletes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.io_seconds = 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {s: getattr(self, s) for s in self.__slots__}


class ShardedStore(SharedStore):
    """A SharedStore whose key space is consistent-hashed over
    N :class:`~repro.durastore.backend.StoreBackend` planes."""

    def __init__(self, backends: Optional[Sequence[StoreBackend]] = None,
                 shards: int = 4, **kwargs):
        super().__init__(**kwargs)
        if backends is None:
            backends = memory_backends(shards)
        if not backends:
            raise ValueError("a sharded store needs at least one backend")
        self.backends: Dict[str, StoreBackend] = {}
        self.shard_stats: Dict[str, ShardStats] = {}
        self._ring: List[int] = []
        self._ring_shards: List[str] = []
        for backend in backends:
            self._admit(backend)
        self._rebuild_ring()
        # rebalance accounting (cumulative across add/remove calls)
        self.rebalances = 0
        self.rebalance_moved_keys = 0
        self.rebalance_moved_bytes = 0

    # ------------------------------------------------------------------
    # ring construction and lookup
    # ------------------------------------------------------------------

    def _admit(self, backend: StoreBackend) -> None:
        if backend.name in self.backends:
            raise ValueError(f"duplicate shard name {backend.name!r}")
        self.backends[backend.name] = backend
        self.shard_stats[backend.name] = ShardStats()

    def _rebuild_ring(self) -> None:
        points = []
        for name in self.backends:
            for replica in range(VNODES):
                points.append((_hash64(f"{name}#{replica}"), name))
        points.sort()
        self._ring = [p[0] for p in points]
        self._ring_shards = [p[1] for p in points]
        #: key -> shard memo of ring lookups, valid for this ring only.
        #: Filled when a key is stored and emptied when it is removed,
        #: so it holds at most the live keys
        self._placement: Dict[str, str] = {}

    def _ring_lookup(self, key: str) -> str:
        index = bisect_right(self._ring, _hash64(key)) % len(self._ring)
        return self._ring_shards[index]

    def shard_for(self, key: str) -> str:
        """The shard name ``key`` lives on under the current ring."""
        shard = self._placement.get(key)
        return shard if shard is not None else self._ring_lookup(key)

    def shard_names(self) -> List[str]:
        return sorted(self.backends)

    # ------------------------------------------------------------------
    # storage primitives routed through the ring
    # ------------------------------------------------------------------

    def _backend(self, key: str) -> StoreBackend:
        return self.backends[self.shard_for(key)]

    def _consult_shard(self, key: str, write: bool) -> None:
        """Shard-outage faults: a downed shard rejects all its IO."""
        if self.injector is not None:
            on_shard_op = getattr(self.injector, "on_shard_op", None)
            if on_shard_op is not None:
                try:
                    on_shard_op(self.shard_for(key), key, write)
                except StoreError:
                    self.faulted_ops += 1
                    raise

    def _get(self, key: str) -> Optional[bytes]:
        return self._backend(key).get(key)

    def _put(self, key: str, data: bytes) -> None:
        shard = self._placement.get(key)
        if shard is None:
            shard = self._placement[key] = self._ring_lookup(key)
        self.backends[shard].put(key, data)

    def _remove(self, key: str) -> None:
        shard = self._placement.pop(key, None)
        if shard is None:
            shard = self._ring_lookup(key)
        self.backends[shard].remove(key)

    def _contains(self, key: str) -> bool:
        return self._backend(key).contains(key)

    def _wipe(self) -> None:
        """Empty every backend (crash recovery rebuilds from here)."""
        for backend in self.backends.values():
            for key in backend.keys():
                backend.remove(key)
        self._placement.clear()

    def _key_list(self) -> List[str]:
        out: List[str] = []
        for backend in self.backends.values():
            out.extend(backend.keys())
        return out

    # ------------------------------------------------------------------
    # public API overrides: shard consultation + per-shard stats
    # ------------------------------------------------------------------

    def write(self, key: str, data: bytes) -> float:
        self._consult_shard(key, write=True)
        cost = super().write(key, data)
        stats = self.shard_stats[self.shard_for(key)]
        stats.writes += 1
        stats.bytes_written += len(data)
        stats.io_seconds += cost
        return cost

    def read(self, key: str) -> bytes:
        self._consult_shard(key, write=False)
        data = super().read(key)
        stats = self.shard_stats[self.shard_for(key)]
        stats.reads += 1
        stats.bytes_read += len(data)
        stats.io_seconds += self.cost(len(data))
        return data

    def delete(self, key: str) -> float:
        shard = self.shard_for(key)
        self._consult_shard(key, write=True)
        cost = super().delete(key)
        stats = self.shard_stats[shard]
        stats.deletes += 1
        stats.io_seconds += cost
        return cost

    # ------------------------------------------------------------------
    # rebalancing
    # ------------------------------------------------------------------

    def add_shard(self, backend: StoreBackend) -> Dict[str, Any]:
        """Admit a new backend and migrate the keys that now hash to it."""
        self._admit(backend)
        return self._rebalance(f"add:{backend.name}")

    def remove_shard(self, name: str) -> Dict[str, Any]:
        """Retire a backend, migrating its keys to the survivors."""
        if name not in self.backends:
            raise KeyError(name)
        if len(self.backends) == 1:
            raise ValueError("cannot remove the last shard")
        retired = self.backends.pop(name)
        self.shard_stats.pop(name)
        self._rebuild_ring()
        # everything the retired plane held must move
        moved_keys = 0
        moved_bytes = 0
        for key in retired.keys():
            data = retired.get(key)
            retired.remove(key)
            if data is not None:
                self._put(key, data)
                moved_keys += 1
                moved_bytes += len(data)
        report = self._finish_rebalance(f"remove:{name}", moved_keys,
                                        moved_bytes)
        return report

    def _rebalance(self, reason: str) -> Dict[str, Any]:
        """Move every key whose ring placement changed."""
        self._rebuild_ring()
        moved_keys = 0
        moved_bytes = 0
        for backend in list(self.backends.values()):
            for key in backend.keys():
                target = self._placement[key] = self._ring_lookup(key)
                if target != backend.name:
                    data = backend.get(key)
                    backend.remove(key)
                    if data is not None:
                        self.backends[target].put(key, data)
                        moved_keys += 1
                        moved_bytes += len(data)
        return self._finish_rebalance(reason, moved_keys, moved_bytes)

    def _finish_rebalance(self, reason: str, moved_keys: int,
                          moved_bytes: int) -> Dict[str, Any]:
        self.rebalances += 1
        self.rebalance_moved_keys += moved_keys
        self.rebalance_moved_bytes += moved_bytes
        total = sum(len(b.keys()) for b in self.backends.values())
        return {
            "reason": reason,
            "moved_keys": moved_keys,
            "moved_bytes": moved_bytes,
            "total_keys": total,
            "moved_fraction": (moved_keys / total) if total else 0.0,
            "shards": self.shard_names(),
        }

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def key_distribution(self) -> Dict[str, int]:
        """Keys per shard — how even the ring spread is."""
        return {name: len(backend.keys())
                for name, backend in sorted(self.backends.items())}

    def stats_snapshot(self) -> Dict[str, Any]:
        snap = super().stats_snapshot()
        snap["shards"] = {name: stats.snapshot()
                          for name, stats in sorted(self.shard_stats.items())}
        snap["key_distribution"] = self.key_distribution()
        snap["rebalances"] = self.rebalances
        snap["rebalance_moved_keys"] = self.rebalance_moved_keys
        return snap
