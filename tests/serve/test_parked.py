"""A kill or a budget trip reaches a rank wherever it is parked.

Every blocking call parks in ``Worker.park``, so what releases a blocked
``recv`` releases a blocked ``probe``/``mprobe``/``waitany`` too — the
receive paths of the paper's Python baselines (``repro.serial.strategies``)
block in ``mprobe``.
"""

import time

import numpy as np
import pytest

from repro.errors import DeadlockError, ProcFailedError, TimeBudgetExceeded
from repro.mpi import ERRORS_RETURN, Request, run
from repro.serial.strategies import STRATEGIES, get_strategy
from repro.serve import (DETERMINISTIC, QUOTA, RETRYABLE, JobService,
                         JobSpec, JobStatus, QuotaPolicy, RetryPolicy)
from repro.serve.workloads import pingpong_job
from tests.conftest import require_transport_capability

PARKED = {
    "probe": lambda comm: comm.probe(1 - comm.rank, 7),
    "mprobe": lambda comm: comm.mprobe(1 - comm.rank, 7),
    "waitany": lambda comm: Request.waitany(
        [comm.irecv(np.zeros(8, np.uint8), 1 - comm.rank, 7)]),
}


def _slot_is_back(svc):
    after = svc.submit(JobSpec(fn=pingpong_job(iters=2), name="after"))
    assert after.wait(30)
    assert after.status == JobStatus.COMPLETED


@pytest.mark.parametrize("call", PARKED)
def test_kill_releases_parked_rank(call):
    """Both ranks park for good (head to head, nothing watching for
    deadlock); only the kill ends the job, and long before its 30 s —
    with and without the reliability protocol: every fabric has the
    detector the kill aborts through."""
    require_transport_capability("shared_address_space")
    for reliability in (None, True):
        with JobService(slots=1, max_queue=4) as svc:
            h = svc.submit(JobSpec(
                fn=PARKED[call], name=f"parked-in-{call}",
                reliability=reliability,
                retry=RetryPolicy(max_retries=0),
                quota=QuotaPolicy(wall_timeout=30.0)))
            deadline = time.monotonic() + 30
            while h.status != JobStatus.RUNNING:
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.002)
            time.sleep(0.05)                # let both ranks park
            killed = time.monotonic()
            assert h.kill("test kill"), reliability
            assert h.wait(30)
            assert time.monotonic() - killed < 2.0
            assert h.status == JobStatus.DEAD_LETTERED
            assert h.error_class == RETRYABLE
            assert isinstance(h.error, ProcFailedError)
            assert "job killed" in str(h.error)
            _slot_is_back(svc)


def _budget_trip(call):
    """Rank 0 runs out of virtual time while rank 1 is parked on it."""

    def fn(comm):
        assert comm.worker.fabric.injector is None
        if comm.rank == 0:
            time.sleep(0.05)                # let rank 1 park
            comm.clock.advance(1.0)
        else:
            PARKED[call](comm)

    return fn


def _budget_job(call, sanitize):
    """Submit :func:`_budget_trip` under a 1 ms budget; the job must fail
    ``quota`` with rank 0's ``TimeBudgetExceeded`` as root cause, well
    within its wall timeout."""
    with JobService(slots=1, max_queue=4) as svc:
        start = time.monotonic()
        h = svc.submit(JobSpec(
            fn=_budget_trip(call), name=f"budget-vs-{call}",
            sanitize=sanitize,
            quota=QuotaPolicy(wall_timeout=30.0, time_budget=1e-3)))
        assert h.wait(30)
        assert time.monotonic() - start < 2.0
        assert h.status == JobStatus.FAILED
        assert h.error_class == QUOTA
        assert isinstance(h.error, TimeBudgetExceeded)
        _slot_is_back(svc)


@pytest.mark.parametrize("call", PARKED)
def test_budget_trip_releases_parked_peer(call):
    """Rank 0 runs out of virtual time; rank 1, parked on it, follows —
    on a pristine fabric: a budget buys no fault machinery."""
    _budget_job(call, sanitize=False)


@pytest.mark.parametrize("call", PARKED)
def test_sanitized_budget_trip_still_fails_quota(call):
    """Sanitized, the parked rank 1 ends in the sanitizer's
    ``DeadlockError`` (RPD440, a wait on a rank that already finished).
    That rank failed in the same abort, so the verdict is collateral and
    the job still fails ``quota``, not ``deterministic``."""
    require_transport_capability("shared_address_space")
    _budget_job(call, sanitize=True)


@pytest.mark.parametrize("call", PARKED)
def test_a_wait_on_a_returned_peer_stays_deterministic(call):
    """The same RPD440 verdict on a peer that *returned* is a real
    deadlock: the job fails ``deterministic`` with the sanitizer's error
    as root cause, naming the rank it waited on."""
    require_transport_capability("shared_address_space")

    def fn(comm):
        if comm.rank == 1:
            PARKED[call](comm)

    with JobService(slots=1, max_queue=4) as svc:
        h = svc.submit(JobSpec(fn=fn, name=f"returned-vs-{call}",
                               sanitize=True,
                               quota=QuotaPolicy(wall_timeout=30.0)))
        assert h.wait(30)
        assert h.status == JobStatus.FAILED
        assert h.error_class == DETERMINISTIC
        assert isinstance(h.error, DeadlockError)
        assert h.error.waited_on == (0,)
        _slot_is_back(svc)


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_strategy_receive_survives_crashed_sender(strategy):
    """The three object-receive paths against a plan that crashes the
    sender before it sends: ``MPI_ERR_PROC_FAILED`` in bounded time, not the
    job's wall timeout (basic and oob pickle block in ``mprobe``)."""
    def fn(comm):
        comm.set_errhandler(ERRORS_RETURN)
        if comm.rank == 0:
            comm.clock.advance(2.0)
            get_strategy(strategy).send(comm, {"x": np.arange(64)}, 1, 3)
            return "sent"
        try:
            return get_strategy(strategy).recv(comm, 0, 3)
        except ProcFailedError as exc:
            return exc.failed_ranks

    start = time.monotonic()
    res = run(fn, nprocs=2, timeout=30, faults={"crash": {0: 1.0}})
    assert time.monotonic() - start < 2.0
    assert res.crashed == [0]
    assert res.results[1] == (0,)
