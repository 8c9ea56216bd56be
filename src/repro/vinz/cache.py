"""The per-node fiber cache (paper Section 4.2).

"Reconstituting a fiber from its persisted state is still relatively
slow and so a cache of recently seen fibers is maintained in memory on
each instance.  Because Vinz executes no control over where a fiber
will be asked to run (leaving that in the hands of the message queue),
the cache is only somewhat effective.  Empirical measurements show
cache hit rates of about 18% and 66% for mutable and immutable data,
respectively."

The split the paper measures maps onto two caches:

* **mutable** — the fiber's continuation, re-versioned at every
  suspend; a hit requires this node to have run *that exact version*,
  so random queue placement keeps the rate low.  Continuations never
  change, so a hit stays safe to resume after an aborted window;
* **immutable** — per-task data that never changes after Start (the
  task's parameters/environment); a hit only requires this node to have
  seen *any* fiber of the task before, so the rate is much higher.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Generic, Hashable, Optional, Tuple, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

#: cache-miss sentinel: distinguishes "not cached" from "cached None".
#: A task whose immutable environment is legitimately ``None`` must be
#: a cache *hit* — treating it as a miss re-fetches from the store on
#: every delivery and skews the hit-rate statistics.
MISS = object()


class LruCache(Generic[K, V]):
    """A small LRU cache with hit/miss statistics."""

    #: class-level alias for callers: ``cache.get(k, LruCache.MISS)``
    MISS = MISS

    def __init__(self, capacity: int = 256):
        self.capacity = capacity
        self._data: "OrderedDict[K, V]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: K, default: Any = None) -> Optional[V]:
        """The cached value, or ``default`` on a miss.  Pass
        :data:`MISS` as the default when cached ``None`` values must be
        distinguishable from absence."""
        if key in self._data:
            self._data.move_to_end(key)
            self.hits += 1
            return self._data[key]
        self.misses += 1
        return default

    def __contains__(self, key: K) -> bool:
        """Presence test; does not touch LRU order or statistics."""
        return key in self._data

    def put(self, key: K, value: V) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)

    def invalidate(self, key: K) -> None:
        self._data.pop(key, None)

    def clear(self) -> None:
        self._data.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._data)


class FiberCache:
    """One node's in-memory cache of recently seen fibers.

    Keys: mutable entries by ``(fiber_id, version)``; immutable entries
    by ``task_id``.  The cluster wipes a node's memory on failure, which
    correctly loses the cache.
    """

    #: module-level miss sentinel, re-exported for callers
    MISS = MISS

    def __init__(self, mutable_capacity: int = 256,
                 immutable_capacity: int = 1024):
        self.mutable: LruCache[Tuple[str, int], Any] = LruCache(mutable_capacity)
        self.immutable: LruCache[str, Any] = LruCache(immutable_capacity)

    def get_continuation(self, fiber_id: str, version: int,
                         default: Any = None) -> Optional[Any]:
        return self.mutable.get((fiber_id, version), default)

    def put_continuation(self, fiber_id: str, version: int, state: Any) -> None:
        self.mutable.put((fiber_id, version), state)

    def evict_continuation(self, fiber_id: str, version: int) -> None:
        """Drop a cached continuation (abort rollback: the version is
        being rolled back, so a retry re-reaching it must not resume
        from the aborted window's state)."""
        self.mutable.invalidate((fiber_id, version))

    def get_task_env(self, task_id: str, default: Any = None) -> Optional[Any]:
        return self.immutable.get(task_id, default)

    def put_task_env(self, task_id: str, env: Any) -> None:
        self.immutable.put(task_id, env)

    @classmethod
    def for_node(cls, node, **kwargs) -> "FiberCache":
        """Get/create the cache living in a cluster node's memory."""
        cache = node.memory.get("fiber-cache")
        if cache is None:
            cache = cls(**kwargs)
            node.memory["fiber-cache"] = cache
        return cache
