"""Tests for the request queue and cross-tenant batch scheduler."""

import pytest

from repro.exceptions import ServiceError
from repro.service import BatchScheduler, DecodedBlockCache, RequestQueue, ServiceRequest
from repro.store import DnaVolume, ObjectStore, VolumeConfig
from repro.workloads.objects import synthetic_object


def small_store(**overrides) -> ObjectStore:
    config = VolumeConfig(
        partition_leaf_count=overrides.pop("partition_leaf_count", 64),
        stripe_blocks=overrides.pop("stripe_blocks", 4),
        stripe_width=overrides.pop("stripe_width", 3),
        **overrides,
    )
    return ObjectStore(DnaVolume(config=config))


def request(rid, name, *, tenant="t0", offset=0, length=None, arrival=0.0):
    return ServiceRequest(
        request_id=rid,
        tenant=tenant,
        object_name=name,
        offset=offset,
        length=length,
        arrival_hours=arrival,
    )


class TestRequestQueue:
    def test_fifo_drain(self):
        queue = RequestQueue()
        first = request(0, "a", arrival=1.0)
        second = request(1, "b", arrival=2.0)
        queue.push(first)
        queue.push(second)
        assert len(queue) == 2
        assert queue.drain_op("read") == [first, second]
        assert len(queue) == 0


class TestBatchScheduler:
    def test_empty_batch_rejected(self):
        with pytest.raises(ServiceError):
            BatchScheduler(small_store()).schedule([])

    def test_cross_tenant_overlap_deduplicates(self):
        """Two tenants reading overlapping ranges share one merged access."""
        store = small_store()
        block_size = store.volume.block_size
        store.put("obj", synthetic_object(block_size * 4, seed=1))
        scheduler = BatchScheduler(store)
        alice = request(0, "obj", tenant="alice", offset=0, length=3 * block_size)
        bob = request(1, "obj", tenant="bob", offset=block_size, length=3 * block_size)
        batch = scheduler.schedule([alice, bob], batch_id=7)
        # Individually the requests need 3 blocks each; merged they need 4.
        solo = sum(
            len(scheduler.request_blocks(r)) for r in (alice, bob)
        )
        assert solo == 6
        assert batch.requested_block_count == 4
        assert batch.amplified_block_count == 4
        assert batch.plan.object_name == "batch-00007"
        # One partition (4 blocks fit one stripe) -> one merged reaction.
        assert batch.reaction_count == 1

    def test_identical_requests_collapse_entirely(self):
        store = small_store()
        store.put("obj", synthetic_object(1000, seed=2))
        scheduler = BatchScheduler(store)
        requests = [
            request(i, "obj", tenant=f"tenant-{i}") for i in range(5)
        ]
        batch = scheduler.schedule(requests, batch_id=0)
        solo_plan = store.read_plan("obj")
        assert batch.amplified_block_count == solo_plan.block_count
        assert batch.reaction_count == solo_plan.reaction_count

    def test_batch_spanning_objects_and_partitions(self):
        store = small_store(stripe_blocks=2)
        block_size = store.volume.block_size
        store.put("a", synthetic_object(block_size * 6, seed=3))
        store.put("b", synthetic_object(block_size * 6, seed=4))
        scheduler = BatchScheduler(store)
        batch = scheduler.schedule(
            [request(0, "a"), request(1, "b")], batch_id=1
        )
        assert batch.requested_block_count == 12
        assert batch.amplified_block_count == 12
        assert len(batch.plan.partitions()) == 3

    def test_cached_blocks_are_subtracted_from_the_plan(self):
        store = small_store()
        block_size = store.volume.block_size
        store.put("obj", synthetic_object(block_size * 4, seed=5))
        scheduler = BatchScheduler(store)
        cache = DecodedBlockCache(capacity_bytes=block_size * 8)
        # Warm the first two blocks through the store's cache read path.
        store.get("obj", offset=0, length=2 * block_size, block_cache=cache)
        batch = scheduler.schedule([request(0, "obj")], cache=cache, batch_id=0)
        assert batch.requested_block_count == 4
        assert len(batch.cached_blocks) == 2
        assert batch.amplified_block_count == 2

    def test_fully_cached_batch_needs_no_wetlab(self):
        store = small_store()
        store.put("obj", synthetic_object(500, seed=6))
        cache = DecodedBlockCache(capacity_bytes=4096)
        store.get("obj", block_cache=cache)
        batch = BatchScheduler(store).schedule(
            [request(0, "obj")], cache=cache, batch_id=0
        )
        assert batch.amplified_block_count == 0
        assert batch.reaction_count == 0

    def test_pinned_payloads_survive_eviction(self):
        """Cache-hit blocks are pinned at schedule time, so evictions

        during the in-flight cycle cannot unserve the batch."""
        store = small_store()
        block_size = store.volume.block_size
        data = synthetic_object(block_size * 2, seed=7)
        store.put("obj", data)
        cache = DecodedBlockCache(capacity_bytes=block_size * 2)
        store.get("obj", block_cache=cache)
        batch = BatchScheduler(store).schedule(
            [request(0, "obj")], cache=cache, batch_id=0
        )
        assert batch.amplified_block_count == 0
        assert len(batch.pinned_payloads) == 2
        # Evict everything the batch depended on mid-flight.
        cache.clear()
        from repro.service import PinnedCacheView

        view = PinnedCacheView(cache, batch.pinned_payloads)
        assert store.get("obj", block_cache=view) == data
        # Pinned serves bypass the cache: no new misses, no refills.
        assert len(cache) == 0
