"""Consistent-hash sharding: placement, stats, rebalance, outages."""

import pytest

from repro.bluebox.store import StoreError, StoreWriteError
from repro.durastore import MemoryBackend, ShardedStore, memory_backends
from repro.faults import SHARD_OUTAGE, FaultPlan, ShardFault
from repro.faults.injector import FaultInjector


def filled(shards=4, keys=200):
    store = ShardedStore(shards=shards)
    for i in range(keys):
        store.write(f"fiber-state/f{i}", b"x" * (10 + i % 7))
    return store


def test_placement_is_stable_and_total():
    store = filled()
    for key in store.keys():
        shard = store.shard_for(key)
        assert store.shard_for(key) == shard
        assert store.backends[shard].contains(key)
    assert sum(store.key_distribution().values()) == 200


def test_distribution_is_roughly_even():
    dist = filled(shards=4, keys=400).key_distribution()
    assert len(dist) == 4
    assert min(dist.values()) > 0
    # 64 vnodes/shard keeps the spread within a small factor
    assert max(dist.values()) < 4 * min(dist.values())


def test_reads_route_and_count_per_shard():
    store = filled(keys=50)
    for i in range(50):
        store.read(f"fiber-state/f{i}")
    snap = store.stats_snapshot()
    assert sum(s["reads"] for s in snap["shards"].values()) == 50
    assert sum(s["writes"] for s in snap["shards"].values()) == 50
    assert snap["kind"] == "ShardedStore"


def test_delete_counts_per_shard_and_charges():
    store = filled(keys=10)
    shard = store.shard_for("fiber-state/f0")
    cost = store.delete("fiber-state/f0")
    assert cost == pytest.approx(store.op_latency)
    assert store.shard_stats[shard].deletes == 1
    assert not store.exists("fiber-state/f0")


def test_add_shard_moves_a_fraction():
    store = filled(shards=4, keys=400)
    report = store.add_shard(MemoryBackend("shard-4"))
    # consistent hashing: only ~1/N of keys move to the newcomer
    assert 0 < report["moved_keys"] < 200
    assert report["total_keys"] == 400
    assert report["shards"] == [f"shard-{i}" for i in range(5)]
    # every key still readable at its new home
    for key in store.keys():
        assert store.backends[store.shard_for(key)].contains(key)
    assert sum(store.key_distribution().values()) == 400


def test_remove_shard_migrates_everything_off():
    store = filled(shards=4, keys=300)
    victim_keys = set(store.backends["shard-2"].keys())
    report = store.remove_shard("shard-2")
    assert report["moved_keys"] == len(victim_keys)
    assert "shard-2" not in store.backends
    for key in victim_keys:
        assert store.read(key) is not None
    assert sum(store.key_distribution().values()) == 300


def _ring_lookup(store, key):
    """A placement computed from the ring alone, bypassing the memo."""
    from bisect import bisect_right

    from repro.durastore.sharded import _hash64

    index = bisect_right(store._ring, _hash64(key)) % len(store._ring)
    return store._ring_shards[index]


def test_rebalance_drops_the_placement_cache():
    store = filled(shards=4, keys=300)
    keys = store.keys()
    before = {key: store.shard_for(key) for key in keys}  # memoised
    store.add_shard(MemoryBackend("shard-4"))
    assert any(store.shard_for(key) != before[key] for key in keys)
    for key in keys:
        assert store.shard_for(key) == _ring_lookup(store, key)
        assert store.read(key) is not None
    store.remove_shard("shard-1")
    for key in keys:
        assert store.shard_for(key) == _ring_lookup(store, key)
        assert store.shard_for(key) != "shard-1"
        assert store.read(key) is not None


def test_placement_cache_holds_only_live_keys():
    store = ShardedStore(shards=4)
    for i in range(200):
        store.write(f"k{i}", b"v")
    for i in range(150):
        store.delete(f"k{i}")
    store.exists("never-written")
    with pytest.raises(StoreError):
        store.read("k0")
    live = set(store.keys())
    assert len(live) == 50
    assert set(store._placement) == live
    for key in live:
        assert store.shard_for(key) == _ring_lookup(store, key)


def test_durable_deletes_and_recovery_drop_placement_entries():
    from repro.durastore import DurableStore

    store = DurableStore(shards=4)
    for i in range(40):
        store.write(f"a{i}", b"v")  # auto-committed
    store.begin_window()
    for i in range(40):
        store.write(f"w{i}", b"v")
    for i in range(30):
        store.delete(f"w{i}")  # windowed delete
    store.commit_batch(store.seal_window())
    for i in range(20):
        store.delete(f"a{i}")  # auto-committed delete
    live = set(store.keys())
    assert len(live) == 30
    assert set(store._placement) == live
    store.recover()
    assert set(store.keys()) == live
    assert set(store._placement) == live


def test_remove_last_shard_refused():
    store = ShardedStore(shards=1)
    with pytest.raises(ValueError):
        store.remove_shard("shard-0")
    with pytest.raises(KeyError):
        store.remove_shard("no-such-shard")


def test_duplicate_shard_name_refused():
    store = ShardedStore(shards=2)
    with pytest.raises(ValueError):
        store.add_shard(MemoryBackend("shard-1"))


def test_backends_can_be_supplied_explicitly():
    store = ShardedStore(backends=[MemoryBackend("east"),
                                   MemoryBackend("west")])
    store.write("k", b"v")
    assert store.shard_names() == ["east", "west"]
    assert store.read("k") == b"v"


class _Env:
    """The minimal environment FaultInjector.install needs."""

    def __init__(self, store):
        self.store = store
        self.cluster = None


def test_shard_outage_vetoes_io_in_window():
    store = ShardedStore(shards=2)
    plan = FaultPlan([ShardFault(shard="shard-0", nth=1, count=3)])
    injector = FaultInjector(7, plan)
    store.injector = injector

    hit = vetoed = 0
    for i in range(40):
        key = f"k{i}"
        if store.shard_for(key) != "shard-0":
            continue
        hit += 1
        if hit > 3:
            break
        with pytest.raises(StoreWriteError):
            store.write(key, b"v")
        vetoed += 1
    assert vetoed == 3
    assert store.faulted_ops == 3
    assert injector.injected[SHARD_OUTAGE] == 3
    # the other shard never faulted
    other = next(k for k in (f"k{i}" for i in range(100))
                 if store.shard_for(k) == "shard-1")
    store.write(other, b"v")
