"""Job-boundary hygiene: reset_for_job, leak attribution, the warm bank."""

import numpy as np
import pytest

from repro.errors import MemoryQuotaError, PoolLeakError
from repro.serve import WarmSetBank
from repro.ucp.memory import BufferPool, MemoryTracker


class TestPoolReset:
    def test_balanced_pool_keeps_free_lists(self):
        pool = BufferPool()
        bufs = [pool.acquire(1024) for _ in range(3)]
        for b in bufs:
            pool.release(b)
        warm = pool.reset_for_job("job-1")
        assert warm["pooled_buffers"] == 3
        snap = pool.snapshot()
        assert snap["hits"] == snap["misses"] == 0  # counters re-armed
        assert snap["outstanding"] == 0
        # The next job is served from cache.
        pool.acquire(1024)
        assert pool.snapshot()["hits"] == 1

    def test_leak_is_attributed_to_the_job(self):
        pool = BufferPool()
        kept = pool.acquire(4096)
        with pytest.raises(PoolLeakError) as ei:
            pool.reset_for_job("leaky-job#7")
        assert ei.value.job == "leaky-job#7"
        assert ei.value.outstanding == 1
        assert ei.value.leaked_bytes == 4096
        assert "leaky-job#7" in str(ei.value)
        del kept

    def test_zero_byte_acquire_is_not_outstanding(self):
        pool = BufferPool()
        pool.acquire(0)
        pool.reset_for_job("empty")  # must not raise


class TestTrackerReset:
    def test_reset_rearms_accounting_and_ceiling(self):
        tracker = MemoryTracker()
        tracker.byte_ceiling = 1 << 20
        buf = tracker.acquire(2048)
        tracker.recycle(buf)
        tracker.reset_for_job("job-1")
        assert tracker.live_bytes == 0
        assert tracker.peak_bytes == 0
        assert tracker.allocation_count == 0
        assert tracker.byte_ceiling is None

    def test_ceiling_refuses_before_booking(self):
        tracker = MemoryTracker()
        tracker.byte_ceiling = 1024
        tracker.acquire(512)
        with pytest.raises(MemoryQuotaError) as ei:
            tracker.acquire(1024)
        assert ei.value.ceiling == 1024
        assert ei.value.live_bytes == 512
        assert ei.value.requested == 1024
        # The refused allocation booked nothing and took nothing.
        assert tracker.live_bytes == 512
        assert tracker.pool.snapshot()["outstanding"] == 1

    def test_tracker_reset_propagates_pool_leak(self):
        tracker = MemoryTracker()
        tracker.acquire(64)
        with pytest.raises(PoolLeakError):
            tracker.reset_for_job("leaker")


class TestWarmSetBank:
    def test_checkout_warm_hit_after_checkin(self):
        bank = WarmSetBank()
        trackers = bank.checkout(2)
        assert bank.created == 1
        assert bank.checkin(trackers, job="a") is None
        again = bank.checkout(2)
        assert again is trackers
        assert bank.warm_hits == 1
        bank.checkin(again, job="b")

    def test_sizes_do_not_mix(self):
        bank = WarmSetBank()
        two = bank.checkout(2)
        bank.checkin(two, job="a")
        four = bank.checkout(4)
        assert len(four) == 4
        assert four is not two

    def test_dirty_checkin_retires(self):
        bank = WarmSetBank()
        trackers = bank.checkout(2)
        assert bank.checkin(trackers, job="t", dirty=True) is None
        assert bank.retired == 1
        assert bank.checkout(2) is not trackers

    def test_leaky_checkin_retires_and_reports(self):
        bank = WarmSetBank()
        trackers = bank.checkout(2)
        trackers[0].acquire(128)
        leak = bank.checkin(trackers, job="leaky")
        assert isinstance(leak, PoolLeakError)
        assert leak.job == "leaky"
        assert bank.retired == 1
        assert bank.snapshot()["banked_sets"] == {}

    def test_bank_bounds_sets_per_size(self):
        bank = WarmSetBank(max_sets_per_size=1)
        a, b = bank.checkout(2), bank.checkout(2)
        bank.checkin(a, job="a")
        bank.checkin(b, job="b")
        assert bank.snapshot()["banked_sets"] == {2: 1}
        assert bank.retired == 1


class TestPlanCacheConcurrency:
    def test_concurrent_compiles_converge_to_one_plan(self):
        """Racing pack_plan calls on equal layouts — each thread builds its
        own datatype — must all return the same object (first insert
        wins), with the losers counted."""
        import threading

        from repro.core.typecache import (clear_plan_cache, pack_plan,
                                          plan_cache_info)
        from repro.types import struct_simple_datatype

        clear_plan_cache()
        plans = [None] * 8
        barrier = threading.Barrier(8)

        def worker(i):
            dtype = struct_simple_datatype()
            barrier.wait()
            plans[i] = pack_plan(dtype, 4)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(p is plans[0] for p in plans)
        info = plan_cache_info()
        assert info["size"] == 1
        # Every thread either hit or missed; every miss either won the
        # single insert or was counted as a duplicate compile.
        assert info["hits"] + info["misses"] == 8
        assert info["misses"] == 1 + info["compile_races"]
        clear_plan_cache()
