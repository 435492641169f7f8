"""Retry engine: classification, backoff, budget exhaustion, dead letters."""

import pytest

from repro.errors import (MemoryQuotaError, ProcFailedError, RankCrashError,
                          RuntimeAbort, TimeBudgetExceeded)
from repro.serve import (DETERMINISTIC, QUOTA, RETRYABLE, SAME_FAULTS,
                         JobService, JobSpec, JobStatus, QuotaPolicy,
                         RetryPolicy, classify_failure)
from repro.serve.workloads import failing_job, pingpong_job
from tests.conftest import require_transport_capability

CRASH = {"seed": 3, "crash": {1: 5e-6}}


class TestClassification:
    def test_proc_failed_family_is_retryable(self):
        assert classify_failure(ProcFailedError("gone", [1]))[0] == RETRYABLE
        assert classify_failure(RankCrashError(1, 5e-6))[0] == RETRYABLE

    def test_quota_errors_are_quota(self):
        assert classify_failure(TimeBudgetExceeded(1.0, 2.0))[0] == QUOTA
        assert classify_failure(MemoryQuotaError(10, 5, 20))[0] == QUOTA
        assert classify_failure(TimeoutError("wall"))[0] == QUOTA

    def test_user_errors_are_deterministic(self):
        assert classify_failure(ValueError("bug"))[0] == DETERMINISTIC

    def test_abort_precedence_deterministic_beats_retryable(self):
        """A ValueError on rank 0 makes peers' MPI_ERR_PROC_FAILED
        collateral: retrying would replay the ValueError."""
        abort = RuntimeAbort({0: ValueError("bug"),
                              1: ProcFailedError("peer died", [0])})
        cls, root = classify_failure(abort)
        assert cls == DETERMINISTIC
        assert isinstance(root, ValueError)

    def test_abort_precedence_quota_beats_retryable(self):
        abort = RuntimeAbort({0: TimeBudgetExceeded(1.0, 1.5),
                              1: ProcFailedError("peer died", [0])})
        cls, root = classify_failure(abort)
        assert cls == QUOTA
        assert isinstance(root, TimeBudgetExceeded)

    def test_abort_all_retryable_stays_retryable(self):
        abort = RuntimeAbort({0: ProcFailedError("gone", [1])})
        assert classify_failure(abort)[0] == RETRYABLE

    def test_tie_break_is_lowest_rank(self):
        abort = RuntimeAbort({2: ValueError("late"), 0: KeyError("early")})
        _, root = classify_failure(abort)
        assert isinstance(root, KeyError)


class TestBackoffDeterminism:
    def test_delay_is_pure_function(self):
        p = RetryPolicy(seed=11)
        assert p.delay_for(0, "job#1") == p.delay_for(0, "job#1")
        assert p.delay_for(0, "job#1") != p.delay_for(0, "job#2")

    def test_exponential_with_cap(self):
        p = RetryPolicy(base_delay=0.01, max_delay=0.04, jitter=0.0)
        assert p.delay_for(0, "k") == pytest.approx(0.01)
        assert p.delay_for(1, "k") == pytest.approx(0.02)
        assert p.delay_for(2, "k") == pytest.approx(0.04)
        assert p.delay_for(5, "k") == pytest.approx(0.04)  # capped

    def test_jitter_bounds(self):
        p = RetryPolicy(base_delay=0.01, max_delay=0.01, jitter=0.5)
        for a in range(4):
            d = p.delay_for(a, "k")
            assert 0.01 <= d <= 0.015


class TestRetryPaths:
    def test_transient_crash_retries_to_success(self):
        """SAME_FAULTS=None: the crash happened once; the retry runs on a
        pristine fabric and completes."""
        with JobService(slots=1, max_queue=4) as svc:
            h = svc.submit(JobSpec(
                fn=pingpong_job(iters=16), name="transient",
                faults=CRASH, reliability=True, retry_faults=None,
                retry=RetryPolicy(max_retries=2, base_delay=1e-4)))
            assert h.wait(60)
            assert h.status == JobStatus.COMPLETED
            assert h.attempts == 2
            assert svc.metrics.get("retries") == 1

    def test_budget_exhaustion_dead_letters_with_last_error(self):
        """SAME_FAULTS: every retry replays the crash; the job lands in
        the dead-letter list with the last ULFM error attached."""
        with JobService(slots=1, max_queue=4) as svc:
            h = svc.submit(JobSpec(
                fn=pingpong_job(iters=16), name="doomed",
                faults=CRASH, reliability=True, retry_faults=SAME_FAULTS,
                retry=RetryPolicy(max_retries=2, base_delay=1e-4)))
            assert h.wait(60)
            assert h.status == JobStatus.DEAD_LETTERED
            assert h.attempts == 3  # initial + 2 retries
            assert h.error_class == RETRYABLE
            assert isinstance(h.error, ProcFailedError)
            assert svc.metrics.get("dead_lettered") == 1
            assert svc.metrics.get("retries") == 2
            assert h in svc.dead_letters
            row = svc.report()["dead_letters"][0]
            assert row["name"] == "doomed"
            assert "ProcFailedError" in row["error"]

    def test_deterministic_failure_never_retries(self):
        with JobService(slots=1, max_queue=4) as svc:
            h = svc.submit(JobSpec(
                fn=failing_job(), name="bug",
                quota=QuotaPolicy(wall_timeout=2.0),
                retry=RetryPolicy(max_retries=5, base_delay=1e-4)))
            assert h.wait(60)
            assert h.status == JobStatus.FAILED
            assert h.attempts == 1
            assert h.error_class == DETERMINISTIC
            assert isinstance(h.error, ValueError)
            assert svc.metrics.get("retries") == 0

    def test_zero_retry_budget_dead_letters_immediately(self):
        with JobService(slots=1, max_queue=4) as svc:
            h = svc.submit(JobSpec(
                fn=pingpong_job(iters=16), name="no-budget",
                faults=CRASH, reliability=True,
                retry=RetryPolicy(max_retries=0)))
            assert h.wait(60)
            assert h.status == JobStatus.DEAD_LETTERED
            assert h.attempts == 1


class TestKill:
    def test_kill_takes_down_running_job(self):
        require_transport_capability("shared_address_space")
        import time
        with JobService(slots=1, max_queue=4) as svc:
            h = svc.submit(JobSpec(
                fn=pingpong_job(iters=200000), name="victim",
                reliability=True, retry=RetryPolicy(max_retries=0),
                quota=QuotaPolicy(wall_timeout=120.0)))
            deadline = time.monotonic() + 30
            while h.status != JobStatus.RUNNING:
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.002)
            time.sleep(0.02)
            assert h.kill("test kill")
            assert h.wait(60)
            assert h.status == JobStatus.DEAD_LETTERED
            assert h.error_class == RETRYABLE

    def test_kill_on_terminal_job_is_refused(self):
        with JobService(slots=1, max_queue=4) as svc:
            h = svc.submit(JobSpec(fn=pingpong_job(iters=1), name="quick"))
            assert h.wait(30)
            assert h.status == JobStatus.COMPLETED
            assert h.kill("too late") is False

    def test_armed_kill_fires_at_start(self):
        """A kill requested while the job is still queued lands at the
        entry of the attempt's ranks, on every backend."""
        with JobService(slots=1, max_queue=8) as svc:
            blocker = svc.submit(JobSpec(fn=pingpong_job(iters=2000),
                                         name="blocker"))
            h = svc.submit(JobSpec(
                fn=pingpong_job(iters=2000), name="doomed",
                retry=RetryPolicy(max_retries=0)))
            assert h.kill("pre-emptive")  # queued: armed, not delivered
            assert h.wait(120)
            assert h.status == JobStatus.DEAD_LETTERED
            blocker.wait(120)
