"""Per-job quotas: virtual-time budget, memory ceiling, wall timeout."""

import time

import pytest

from repro.errors import MemoryQuotaError, TimeBudgetExceeded
from repro.serve import (QUOTA, RETRYABLE, JobService, JobSpec, JobStatus,
                         QuotaPolicy, RetryPolicy)
from repro.serve.workloads import (deadlock_job, pingpong_job, spin_job,
                                   struct_pingpong_job)
from repro.ucp.netsim import BudgetedClock

from tests.conftest import require_transport_capability
from tests.serve.test_parked import PARKED
from tests.transport.conftest import require_backend


class TestBudgetedClock:
    def test_charge_is_applied_before_raise(self):
        clock = BudgetedClock(budget=1.0)
        clock.advance(0.9)
        with pytest.raises(TimeBudgetExceeded):
            clock.advance(0.5)
        assert clock.now == pytest.approx(1.4)

    def test_merge_also_enforces(self):
        clock = BudgetedClock(budget=1.0)
        with pytest.raises(TimeBudgetExceeded):
            clock.merge(2.0)

    def test_exactly_at_budget_is_fine(self):
        clock = BudgetedClock(budget=1.0)
        assert clock.advance(1.0) == 1.0

    def test_non_positive_budget_rejected(self):
        with pytest.raises(ValueError):
            BudgetedClock(budget=0.0)


class TestTimeBudget:
    def test_budget_trip_fails_job_as_quota(self):
        with JobService(slots=1, max_queue=4) as svc:
            h = svc.submit(JobSpec(
                fn=spin_job(iters=100000), name="budgeted",
                quota=QuotaPolicy(wall_timeout=60.0, time_budget=1e-4)))
            assert h.wait(60)
            assert h.status == JobStatus.FAILED
            assert h.error_class == QUOTA
            assert isinstance(h.error, TimeBudgetExceeded)
            assert svc.metrics.get("failed_quota") == 1

    def test_budget_trip_leaves_pools_balanced(self):
        with JobService(slots=1, max_queue=4) as svc:
            h = svc.submit(JobSpec(
                fn=spin_job(iters=100000), name="budgeted",
                quota=QuotaPolicy(wall_timeout=60.0, time_budget=1e-4)))
            h.wait(60)
            after = svc.submit(JobSpec(fn=pingpong_job(iters=2),
                                       name="after"))
            assert after.wait(30)
            assert after.status == JobStatus.COMPLETED
        report = svc.report()
        assert report["jobs"]["pool_leaks"] == 0
        assert report["pool_bank"]["banked_outstanding"] == 0

    def test_generous_budget_does_not_fire(self):
        with JobService(slots=1, max_queue=4) as svc:
            h = svc.submit(JobSpec(
                fn=pingpong_job(iters=2), name="roomy",
                quota=QuotaPolicy(wall_timeout=30.0, time_budget=10.0)))
            assert h.wait(30)
            assert h.status == JobStatus.COMPLETED


class TestMemoryCeiling:
    def test_ceiling_breach_fails_job_as_quota(self):
        # The struct workload packs through MemoryTracker.acquire, which
        # is where the ceiling is enforced; 512 elements need far more
        # than 256 transient bytes.
        with JobService(slots=1, max_queue=4) as svc:
            h = svc.submit(JobSpec(
                fn=struct_pingpong_job(iters=2, count=512), name="hungry",
                quota=QuotaPolicy(wall_timeout=30.0, max_pool_bytes=256)))
            assert h.wait(60)
            assert h.status == JobStatus.FAILED
            assert h.error_class == QUOTA
            assert isinstance(h.error, MemoryQuotaError)

    def test_ceiling_cleared_between_jobs(self):
        with JobService(slots=1, max_queue=4) as svc:
            h = svc.submit(JobSpec(
                fn=struct_pingpong_job(iters=2, count=512), name="hungry",
                quota=QuotaPolicy(wall_timeout=30.0, max_pool_bytes=256)))
            h.wait(60)
            # Same workload, no ceiling: must succeed on the same (warm,
            # re-armed) trackers — the previous job's quota must not stick.
            h2 = svc.submit(JobSpec(fn=struct_pingpong_job(iters=2,
                                                           count=512),
                                    name="free"))
            assert h2.wait(60)
            assert h2.status == JobStatus.COMPLETED


class TestWallTimeout:
    @pytest.mark.parametrize("transport", ["inproc", "asyncio", "shm"])
    def test_deadlocked_job_cancels_cleanly(self, transport):
        """A job killed at the wall-clock boundary reaches a terminal
        state with QUOTA classification on every backend (capability
        skips where the platform can't run the backend)."""
        require_backend(transport)
        with JobService(slots=1, max_queue=4, transport=transport) as svc:
            h = svc.submit(JobSpec(
                fn=deadlock_job(), name="deadlock", transport=transport,
                quota=QuotaPolicy(wall_timeout=1.0),
                retry=RetryPolicy(max_retries=0)))
            assert h.wait(90), "timeout never fired"
            assert h.status == JobStatus.FAILED
            assert h.error_class == QUOTA
            assert isinstance(h.error, TimeoutError)

    def test_timed_out_trackers_are_retired_not_reused(self):
        """Abandoned rank threads may still touch their pools, so the
        warm set of a timed-out job must never be banked again."""
        require_transport_capability("shared_address_space")
        with JobService(slots=1, max_queue=4) as svc:
            h = svc.submit(JobSpec(
                fn=deadlock_job(tag=91), name="deadlock",
                quota=QuotaPolicy(wall_timeout=0.5),
                retry=RetryPolicy(max_retries=0)))
            assert h.wait(60)
            assert h.status == JobStatus.FAILED
            assert svc.metrics.get("pools_retired") == 1
            assert svc.bank.retired >= 1
            # The next job gets a fresh set and completes normally.
            h2 = svc.submit(JobSpec(fn=pingpong_job(iters=1),
                                    name="after"))
            assert h2.wait(30)
            assert h2.status == JobStatus.COMPLETED


class TestRankEntry:
    @pytest.mark.parametrize("transport", ["inproc", "asyncio", "shm"])
    def test_quotas_and_armed_kill_at_rank_entry(self, transport):
        """Budget, ceiling and a kill armed while queued mean the same on
        every backend: they are installed where each rank starts."""
        require_backend(transport)

        def overrun(comm):
            if comm.rank == 0:
                time.sleep(0.05)            # let rank 1 park
                comm.clock.advance(1.0)
            else:
                PARKED["probe"](comm)

        with JobService(slots=1, max_queue=4, transport=transport) as svc:
            start = time.monotonic()
            h = svc.submit(JobSpec(
                fn=overrun, name="budget", transport=transport,
                quota=QuotaPolicy(wall_timeout=30.0, time_budget=1e-3),
                retry=RetryPolicy(max_retries=0)))
            assert h.wait(30)
            assert time.monotonic() - start < 2.0
            assert (h.status, h.error_class) == (JobStatus.FAILED, QUOTA)
            assert isinstance(h.error, TimeBudgetExceeded)

            h = svc.submit(JobSpec(
                fn=struct_pingpong_job(iters=2, count=512), name="ceiling",
                transport=transport,
                quota=QuotaPolicy(wall_timeout=30.0, max_pool_bytes=256),
                retry=RetryPolicy(max_retries=0)))
            assert h.wait(30)
            assert (h.status, h.error_class) == (JobStatus.FAILED, QUOTA)
            assert isinstance(h.error, MemoryQuotaError)

            blocker = svc.submit(JobSpec(fn=spin_job(iters=1000),
                                         name="blocker", transport=transport))
            h = svc.submit(JobSpec(
                fn=spin_job(iters=1000), name="doomed", transport=transport,
                quota=QuotaPolicy(wall_timeout=30.0),
                retry=RetryPolicy(max_retries=0)))
            assert h.kill("armed")          # queued behind the blocker
            assert h.wait(30)
            assert blocker.wait(30)
            assert (h.status, h.error_class) == (JobStatus.DEAD_LETTERED,
                                                 RETRYABLE)
