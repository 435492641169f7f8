"""Acceptance: the analyze-corpus ring deadlock is caught in bounded time.

``tests/analyze/fixtures/programs/ring_deadlock.py`` is the static
linter's RPD304 fixture; run for real over the rendezvous threshold it
actually deadlocks, and the sanitizer must report RPD440 with the
wait-for cycle and a per-rank stack — long before the job timeout.
"""

import importlib.util
import os
import time

import numpy as np
import pytest

from repro.errors import RuntimeAbort
from repro.mpi import Request, run
from repro.types import make_struct_simple, struct_simple_datatype
from repro.ucp.transport.remote import ACK, RemoteTransportMixin
from tests.transport.conftest import require_backend

FIXTURE = os.path.abspath(os.path.join(
    os.path.dirname(__file__), os.pardir, "analyze", "fixtures",
    "programs", "ring_deadlock.py"))


def _load_ring_step():
    spec = importlib.util.spec_from_file_location("_ring_deadlock", FIXTURE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.ring_step


class TestRingDeadlockAcceptance:
    def test_rpd440_with_cycle_and_stacks_in_bounded_time(self):
        ring_step = _load_ring_step()

        def fn(comm):
            outbox = np.full(8192, float(comm.rank))  # 64 KiB: rendezvous
            inbox = np.empty(8192)
            ring_step(comm, outbox, inbox)

        start = time.monotonic()
        try:
            run(fn, nprocs=3, sanitize=True, timeout=120.0)
            raise AssertionError("ring did not deadlock")
        except RuntimeAbort as exc:
            elapsed = time.monotonic() - start
            rep = exc.sanitizer_report
        # Bounded time: detection latency, not the 120 s job timeout.
        assert elapsed < 10.0, f"took {elapsed:.1f}s"
        assert rep is not None and rep.aborted
        (diag,) = rep.by_code("RPD440")
        msg = diag.message
        assert "rank 0 -> rank 1 -> rank 2 -> rank 0" in msg
        # Per-rank detail: every rank's blocking op, virtual-clock stamp,
        # and a stack that reaches the user's frame in the fixture.
        for r in range(3):
            assert f"rank {r}: send of 8192 x double" in msg
        assert "virtual t=" in msg
        assert "ring_deadlock.py" in msg and "in ring_step" in msg
        # Every blocked rank raised a DeadlockError, not a timeout.
        assert rep.failures
        assert all("Deadlock" in f for f in rep.failures.values())

    def test_sized_under_eager_limit_completes(self):
        ring_step = _load_ring_step()

        def fn(comm):
            outbox = np.full(8, float(comm.rank))  # eager: no deadlock
            inbox = np.empty(8)
            ring_step(comm, outbox, inbox)
            return float(inbox[0])

        result = run(fn, nprocs=3, sanitize=True, timeout=60.0)
        assert result.sanitizer_report.clean
        assert result.results == [2.0, 0.0, 1.0]


# ---------------------------------------------------------------------------
# a claimed send waits on the transport, not on a rank
# ---------------------------------------------------------------------------

#: Seconds every acknowledgement frame waits before it resolves its sender.
ACK_DELAY = 0.1


@pytest.fixture
def late_acks(monkeypatch):
    """Delay every acknowledgement frame of the remote plane: a rendezvous
    sender then stays parked for ``ACK_DELAY`` after its receiver claimed
    and landed the message — the window a ping-pong used to misread as a
    deadlock (RPD440 "waiting on rank(s) that already finished")."""
    require_backend("asyncio")
    deliver = RemoteTransportMixin.deliver_frame

    def late(self, recv_worker, src_rank, frame):
        if frame[0] == ACK:
            time.sleep(ACK_DELAY)
        return deliver(self, recv_worker, src_rank, frame)

    monkeypatch.setattr(RemoteTransportMixin, "deliver_frame", late)


def _exchange(make, count, dtype=None):
    """Rank 0 sends then receives, rank 1 receives then sends back: both
    messages rendezvous."""
    kw = {} if dtype is None else {"datatype": dtype, "count": count}

    def fn(comm):
        buf = make(count)
        if comm.rank == 0:
            comm.send(buf, 1, 1, **kw)
            buf[...] = make(count)[::-1]
            comm.recv(buf, 1, 2, **kw)
        else:
            buf[...] = 0
            comm.recv(buf, 0, 1, **kw)
            comm.send(buf, 0, 2, **kw)
        return buf

    return fn


class TestClaimedSendIsNotStuck:
    def test_late_ack_ping_pong_is_clean(self, late_acks):
        """800 KB of float64 each way: rank 0 returns while rank 1's send
        back still waits for its acknowledgement."""
        res = run(_exchange(lambda n: np.arange(n, dtype=np.float64),
                            100_000),
                  nprocs=2, transport="asyncio", sanitize=True, timeout=60)
        assert res.sanitizer_report.clean, res.sanitizer_report.format_text()
        np.testing.assert_array_equal(res.results[0], np.arange(100_000.0))

    def test_late_ack_send_recv_against_recv_send_is_clean(self, late_acks):
        """1.2 MB of struct-simple: rank 0's claimed send and rank 1's send
        back would read as the cycle rank 0 -> rank 1 -> rank 0."""
        res = run(_exchange(make_struct_simple, 60_000,
                            struct_simple_datatype()),
                  nprocs=2, transport="asyncio", sanitize=True, timeout=60)
        assert res.sanitizer_report.clean, res.sanitizer_report.format_text()
        assert np.array_equal(res.results[0], make_struct_simple(60_000))

    def test_late_ack_waitany_over_claimed_sends_is_clean(self, late_acks):
        """``Request.waitany`` parks once for several sends: a claimed one
        among them ends the wait too, so rank 1 finishing is no verdict."""
        def fn(comm):
            buf = np.arange(100_000, dtype=np.float64)
            if comm.rank == 0:
                reqs = [comm.isend(buf, 1, tag) for tag in (1, 2)]
                while not all(r.test() for r in reqs):
                    Request.waitany(reqs)
                Request.waitall(reqs)
            else:
                for tag in (1, 2):
                    comm.recv(buf, 0, tag)

        res = run(fn, nprocs=2, transport="asyncio", sanitize=True,
                  timeout=60)
        assert res.sanitizer_report.clean, res.sanitizer_report.format_text()

    def test_unreceived_send_is_still_a_deadlock(self, late_acks):
        """A send no receive claims before its peer finished is RPD440."""
        def fn(comm):
            if comm.rank == 0:
                comm.send(np.zeros(150_000), 1, 3)

        start = time.monotonic()
        try:
            run(fn, nprocs=2, transport="asyncio", sanitize=True,
                timeout=60)
            raise AssertionError("the unreceived send completed")
        except RuntimeAbort as exc:
            rep = exc.sanitizer_report
        assert time.monotonic() - start < 10.0
        (diag,) = rep.by_code("RPD440")
        assert "waiting on rank(s) that already finished: 1" in diag.message
