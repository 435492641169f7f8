"""Idempotent MPI_Cancel: a second cancel must be a no-op.

The hazard the model checker's RPD703 ownership invariant guards against:
the first cancel returns the request's pool buffers, the pool hands them
to a new owner, and a stale second cancel would recycle them *again* —
stealing the buffer out from under the new owner.  These tests pin the
contract at the Request layer and end-to-end through the buffer pool.
"""

import numpy as np

from repro.mpi.requests import Request
from repro.mpi.runtime import run

from ..conftest import require_transport_capability


class _StubTransportReq:
    """Transport request whose cancel always wins."""

    def __init__(self):
        self.cancel_calls = 0

    def cancel(self):
        self.cancel_calls += 1
        return True


class TestRequestLayer:
    def test_second_cancel_is_noop(self):
        req = Request(_StubTransportReq())
        assert req.cancel() is True
        assert req.cancel() is False
        assert req._req.cancel_calls == 1  # transport asked exactly once

    def test_on_cancel_hook_runs_exactly_once(self):
        calls = []
        req = Request(_StubTransportReq(), on_cancel=lambda: calls.append(1))
        assert req.cancel() is True
        req.cancel()
        req.cancel()
        assert calls == [1]
        assert req._on_cancel is None  # consumed, unreachable forever

    def test_cancel_after_completion_is_noop(self):
        req = Request(_StubTransportReq())
        req._done = True
        assert req.cancel() is False
        assert req._req.cancel_calls == 0

    def test_status_reports_cancelled(self):
        req = Request(_StubTransportReq())
        req.cancel()
        st = req.wait()
        assert st.cancelled


class TestPoolOwnership:
    def test_double_cancel_does_not_steal_reacquired_buffer(self):
        """After cancel #1 recycles the staging chunk, a new send acquires
        it; cancel #2 must not hand the live buffer back to the pool."""
        require_transport_capability("cancel", "shared_address_space")

        def fn(comm):
            if comm.rank == 1:
                buf = np.zeros(512, np.int32)
                comm.recv(buf, source=0, tag=2)
                return int(buf[0]), int(buf[-1])
            dead = comm.isend(np.full(512, 7, np.int32), dest=1, tag=1)
            assert dead.cancel()
            # The pool hands the recycled staging chunk to this send.
            live = comm.isend(np.full(512, 9, np.int32), dest=1, tag=2)
            assert dead.cancel() is False  # stale cancel: no second recycle
            live.wait()
            return "sent"

        res = run(fn, nprocs=2, sanitize=True, timeout=30)
        assert res.results[1] == (9, 9)  # payload intact, not stolen
        assert res.sanitizer_report.clean
        for mem in res.memory:
            assert mem["pool"]["outstanding"] == 0

    def test_double_cancel_recv_releases_bounce_buffer_once(self):
        require_transport_capability("shared_address_space")

        def fn(comm):
            if comm.rank == 0:
                return None
            req = comm.irecv(np.zeros(64, np.uint8), source=0, tag=9)
            assert req.cancel()
            assert req.cancel() is False
            assert req.wait().cancelled
            return "ok"

        res = run(fn, nprocs=2, sanitize=True, timeout=30)
        assert res.results[1] == "ok"
        for mem in res.memory:
            assert mem["pool"]["outstanding"] == 0
