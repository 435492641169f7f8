"""MemoryTracker and BufferPool unit tests."""

import threading

import numpy as np
import pytest

from repro.ucp.memory import BufferPool, MemoryTracker
from repro.ucp.netsim import CostModel, VirtualClock


class TestMemoryTracker:
    def test_allocate_returns_zeroed_buffer(self):
        t = MemoryTracker()
        buf = t.allocate(64)
        assert buf.shape == (64,)
        assert (buf == 0).all()

    def test_charges_clock_when_given(self):
        t = MemoryTracker()
        clock = VirtualClock()
        model = CostModel()
        t.allocate(1 << 20, clock, model)
        assert clock.now == pytest.approx(model.alloc_time(1 << 20))

    def test_no_charge_without_clock(self):
        t = MemoryTracker()
        t.allocate(1024)  # must not raise

    def test_release_by_buffer_or_size(self):
        t = MemoryTracker()
        buf = t.allocate(100)
        t.allocate(50)
        t.release(buf)
        assert t.snapshot()["live_bytes"] == 50
        t.release(50)
        assert t.snapshot()["live_bytes"] == 0

    def test_release_never_negative(self):
        t = MemoryTracker()
        t.release(1000)
        assert t.snapshot()["live_bytes"] == 0

    def test_reset(self):
        t = MemoryTracker()
        t.allocate(10)
        t.recycle(t.acquire(10))
        t.reset()
        snap = t.snapshot()
        pool = snap.pop("pool")
        assert snap == {"live_bytes": 0, "peak_bytes": 0,
                        "total_allocated": 0, "allocation_count": 0}
        assert pool["hits"] == pool["misses"] == 0
        assert pool["pooled_buffers"] == pool["outstanding"] == 0

    def test_thread_safety_of_counters(self):
        t = MemoryTracker()

        def worker():
            for _ in range(200):
                t.allocate(10)
                t.release(10)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        snap = t.snapshot()
        assert snap["live_bytes"] == 0
        assert snap["allocation_count"] == 1600
        assert snap["total_allocated"] == 16000


class TestBufferPool:
    def test_class_size_rounding(self):
        assert BufferPool.class_size(1) == 64
        assert BufferPool.class_size(64) == 64
        assert BufferPool.class_size(65) == 128
        assert BufferPool.class_size(8192) == 8192
        assert BufferPool.class_size(8193) == 16384

    def test_acquire_release_reuses_backing(self):
        p = BufferPool()
        a = p.acquire(100)
        assert a.shape == (100,)
        root = a.base
        assert p.release(a)
        b = p.acquire(90)  # same 128-byte class
        assert b.base is root
        assert p.hits == 1 and p.misses == 1

    def test_zero_byte_acquire(self):
        p = BufferPool()
        assert p.acquire(0).shape == (0,)
        assert p.misses == 0  # not a pool transaction

    def test_release_resolves_view_chains(self):
        p = BufferPool()
        a = p.acquire(100)
        assert p.release(a[10:50][5:])  # view of a view
        assert p.snapshot()["pooled_buffers"] == 1

    def test_double_release_is_noop(self):
        p = BufferPool()
        a = p.acquire(32)
        assert p.release(a)
        assert not p.release(a)
        assert p.snapshot()["pooled_buffers"] == 1

    def test_foreign_release_is_noop(self):
        p = BufferPool()
        assert not p.release(np.zeros(64, dtype=np.uint8))
        assert not p.release("not a buffer")
        assert p.snapshot()["pooled_buffers"] == 0

    def test_per_class_cap_drops_excess(self):
        p = BufferPool(max_per_class=2)
        bufs = [p.acquire(64) for _ in range(4)]
        for b in bufs:
            assert p.release(b)
        snap = p.snapshot()
        assert snap["pooled_buffers"] == 2
        assert snap["dropped"] == 2

    def test_oversize_class_never_pooled(self):
        p = BufferPool(max_pooled_class=1024)
        a = p.acquire(4096)
        assert p.release(a)
        snap = p.snapshot()
        assert snap["pooled_buffers"] == 0
        assert snap["dropped"] == 1

    @pytest.mark.parametrize("way", ["release", "reclaim"])
    def test_release_and_reclaim_keep_and_drop_alike(self, way):
        """Handing buffers back one by one or reclaiming them at teardown
        leaves the same snapshot: the per-class cap and the oversize
        class decide both, and a buffer already back counts once."""
        p = BufferPool(max_per_class=2, max_pooled_class=1024)
        bufs = [p.acquire(64) for _ in range(4)] + [p.acquire(4096)]
        assert p.release(bufs[0])
        if way == "reclaim":
            assert p.reclaim() == 4
        else:
            assert all(p.release(b) for b in bufs[1:])
        assert p.snapshot() == {
            "hits": 0, "misses": 5, "returned": 5, "dropped": 3,
            "outstanding": 0, "pooled_buffers": 2, "pooled_bytes": 128}
        assert p.reclaim() == 0

    def test_outstanding_tracking(self):
        p = BufferPool()
        a = p.acquire(10)
        b = p.acquire(10)
        assert p.snapshot()["outstanding"] == 2
        p.release(a)
        assert p.snapshot()["outstanding"] == 1
        p.clear()
        assert p.snapshot()["outstanding"] == 0
        del b

    def test_acquire_charges_like_allocate(self):
        """Pool hits and misses must be invisible to the cost model."""
        t = MemoryTracker()
        clock, model = VirtualClock(), CostModel()
        t.recycle(t.acquire(1 << 20))  # prime the pool
        before = clock.now
        t.acquire(1 << 20, clock, model)  # pool hit
        assert clock.now - before == pytest.approx(model.alloc_time(1 << 20))
        snap = t.snapshot()
        assert snap["allocation_count"] == 2
        assert snap["total_allocated"] == 2 << 20
        assert snap["pool"]["hits"] == 1
