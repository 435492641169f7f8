"""MPI failure semantics on top of the faulted fabric.

Covers the error-handler split (``MPI_ERRORS_ARE_FATAL`` vs
``MPI_ERRORS_RETURN``), ``MPI_ERR_IN_STATUS`` aggregation in waitall,
``MPI_ERR_PROC_FAILED_PENDING`` on wildcard receives, request
cancellation, and graceful degradation of surviving ranks.
"""

import numpy as np
import pytest

from repro import errors
from repro.errors import (MPIError, ProcFailedError, ProcFailedPendingError,
                          RuntimeAbort)
from repro.mpi import (ANY_SOURCE, ERRORS_ARE_FATAL, ERRORS_RETURN, Request,
                       run)

from ..conftest import require_transport_capability

#: Kill the first message on the 0->1 channel; everything else flows.
FIRST_MSG_LOST = {"seed": 1, "drop": 1.0, "window": [0, 1],
                  "channels": [[0, 1]]}


class TestErrhandlerModes:
    def test_default_is_fatal(self):
        def fn(comm):
            return comm.get_errhandler()

        assert run(fn, nprocs=2).results == [ERRORS_ARE_FATAL] * 2

    def test_set_errhandler_validates(self):
        def fn(comm):
            comm.set_errhandler(ERRORS_RETURN)
            got = comm.get_errhandler()
            with pytest.raises(MPIError) as ei:
                comm.set_errhandler("MPI_ERRORS_ABORT_MAYBE")
            assert ei.value.code == errors.MPI_ERR_COMM
            return got

        assert run(fn, nprocs=2).results == [ERRORS_RETURN] * 2

    def test_fatal_lost_message_aborts_job(self):
        def fn(comm):
            data = np.arange(64, dtype=np.int32)
            if comm.rank == 0:
                comm.send(data, dest=1, tag=1)
            else:
                comm.recv(np.zeros_like(data), source=0, tag=1)

        with pytest.raises(RuntimeAbort) as ei:
            run(fn, nprocs=2, faults=FIRST_MSG_LOST, timeout=30)
        exc = ei.value.failures[1]
        assert isinstance(exc, ProcFailedError)
        assert exc.code == errors.MPI_ERR_PROC_FAILED

    def test_fatal_poisons_unrelated_waits(self):
        """ERRORS_ARE_FATAL is job-wide: an error on rank 1 must unblock
        rank 2's otherwise-never-matching receive in bounded time."""
        def fn(comm):
            if comm.rank == 0:
                comm.send(np.zeros(16, np.uint8), dest=1, tag=1)
            elif comm.rank == 1:
                comm.recv(np.zeros(16, np.uint8), source=0, tag=1)
            else:
                # Nobody ever sends tag 99; only the job abort ends this.
                comm.recv(np.zeros(16, np.uint8), source=0, tag=99)

        with pytest.raises(RuntimeAbort) as ei:
            run(fn, nprocs=3, faults=FIRST_MSG_LOST, timeout=30)
        assert set(ei.value.failures) == {1, 2}
        # Rank 2's wait turns hopeless too once rank 0 finishes; the lowest
        # blocked rank raises first (``Worker.park``), so rank 2 reports
        # rank 1's abort and never an error of its own — on every backend.
        assert "aborted" in str(ei.value.failures[2])
        assert "rank 1 (comm 0)" in str(ei.value.failures[2])
        assert "aborted" not in str(ei.value.failures[1])

    def test_errors_return_contains_failure_to_one_rank(self):
        def fn(comm):
            comm.set_errhandler(ERRORS_RETURN)
            if comm.rank == 0:
                comm.send(np.arange(32, dtype=np.int32), dest=1, tag=1)
                return "sent"
            try:
                comm.recv(np.zeros(32, np.int32), source=0, tag=1)
            except ProcFailedError as exc:
                return ("recovered", exc.code)
            return "no error"

        res = run(fn, nprocs=2, faults=FIRST_MSG_LOST, timeout=30)
        assert res.results[0] == "sent"
        assert res.results[1] == ("recovered", errors.MPI_ERR_PROC_FAILED)

    def test_retry_exhaustion_surfaces_proc_failed(self):
        def fn(comm):
            comm.set_errhandler(ERRORS_RETURN)
            # Rendezvous-sized so the *sender* also blocks on completion
            # (an eager send may correctly complete locally before the
            # retry budget dies).
            data = np.arange(96 * 1024, dtype=np.int32)
            try:
                if comm.rank == 0:
                    comm.send(data, dest=1, tag=1)
                else:
                    comm.recv(np.zeros_like(data), source=0, tag=1)
            except ProcFailedError as exc:
                return exc.code
            return "delivered?"

        res = run(fn, nprocs=2, faults={"seed": 3, "drop": 1.0},
                  reliability={"retry_limit": 2}, timeout=30)
        assert res.results == [errors.MPI_ERR_PROC_FAILED] * 2
        total = {k: sum(s[k] for s in res.reliability)
                 for k in res.reliability[0]}
        assert total["exhausted"] >= 1


class TestWaitallAggregation:
    def test_err_in_status_per_request_codes(self):
        def fn(comm):
            comm.set_errhandler(ERRORS_RETURN)
            good = np.full(16, 5, np.int32)
            if comm.rank == 0:
                comm.send(np.zeros(16, np.int32), dest=1, tag=1)  # lost
                comm.send(good, dest=1, tag=2)                    # arrives
                return None
            r1 = comm.irecv(np.zeros(16, np.int32), source=0, tag=1)
            buf = np.zeros(16, np.int32)
            r2 = comm.irecv(buf, source=0, tag=2)
            with pytest.raises(MPIError) as ei:
                Request.waitall([r1, r2])
            exc = ei.value
            assert exc.code == errors.MPI_ERR_IN_STATUS
            assert exc.statuses[0].error == errors.MPI_ERR_PROC_FAILED
            assert exc.statuses[1].error == errors.MPI_SUCCESS
            assert set(exc.errors) == {0}
            return int(buf.sum())

        res = run(fn, nprocs=2, faults=FIRST_MSG_LOST, timeout=30)
        assert res.results[1] == 80  # the clean request still delivered


class TestWildcardPending:
    def test_any_source_converts_to_pending(self):
        def fn(comm):
            if comm.rank == 0:
                # First fabric interaction hits the scheduled crash.
                comm.send(np.zeros(4, np.uint8), dest=1, tag=55)
                return "unreachable"
            comm.set_errhandler(ERRORS_RETURN)
            try:
                comm.recv(np.zeros(8, np.uint8), source=ANY_SOURCE, tag=1)
            except ProcFailedPendingError as exc:
                return exc.code
            return "matched?"

        res = run(fn, nprocs=2, faults={"crash": {0: 0.0}}, timeout=30)
        assert res.crashed == [0]
        assert res.results[1] == errors.MPI_ERR_PROC_FAILED_PENDING

    def test_named_source_raises_plain_proc_failed(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(np.zeros(4, np.uint8), dest=1, tag=55)
                return "unreachable"
            comm.set_errhandler(ERRORS_RETURN)
            try:
                comm.recv(np.zeros(8, np.uint8), source=0, tag=1)
            except ProcFailedPendingError:
                return "pending"
            except ProcFailedError as exc:
                return ("failed", tuple(exc.failed_ranks))

        res = run(fn, nprocs=2, faults={"crash": {0: 0.0}}, timeout=30)
        assert res.results[1] == ("failed", (0,))


class TestGracefulDegradation:
    def test_survivors_finish_around_a_crash(self):
        def fn(comm):
            comm.set_errhandler(ERRORS_RETURN)
            data = np.arange(256, dtype=np.int32)
            if comm.rank == 2:
                # Crashes at virtual time 0, before it can send anything.
                comm.send(data, dest=1, tag=7)
                return "unreachable"
            if comm.rank == 0:
                comm.send(data, dest=1, tag=5)
                return "sent"
            out = np.zeros_like(data)
            comm.recv(out, source=0, tag=5)
            try:
                comm.recv(np.zeros_like(data), source=2, tag=7)
            except ProcFailedError as exc:
                return (int(out.sum()), tuple(exc.failed_ranks))
            return "peer survived?"

        res = run(fn, nprocs=3, faults={"crash": {2: 0.0}}, timeout=30)
        assert res.crashed == [2]
        assert res.results[0] == "sent"
        assert res.results[1] == (int(np.arange(256).sum()), (2,))
        assert res.results[2] is None  # the crashed rank produced nothing

    def test_crash_is_not_an_application_failure(self):
        def fn(comm):
            comm.set_errhandler(ERRORS_RETURN)
            if comm.rank == 1:
                comm.send(np.zeros(8, np.uint8), dest=0, tag=1)
                return "unreachable"
            try:
                comm.recv(np.zeros(8, np.uint8), source=1, tag=1)
            except ProcFailedError:
                return "survived"

        res = run(fn, nprocs=2, faults={"crash": {1: 0.0}}, timeout=30)
        # No RuntimeAbort raised; the crash is recorded, not propagated.
        assert res.crashed == [1]
        assert res.results[0] == "survived"
        assert res.results[1] is None


class TestCancel:
    def test_cancel_unmatched_recv(self):
        require_transport_capability("shared_address_space")

        def fn(comm):
            if comm.rank == 0:
                return None
            req = comm.irecv(np.zeros(64, np.uint8), source=0, tag=9)
            assert req.cancel()
            st = req.wait()
            assert st.cancelled
            assert not req.cancel()  # already done: no effect
            return "cancelled"

        res = run(fn, nprocs=2, sanitize=True, timeout=30)
        assert res.results[1] == "cancelled"
        assert res.sanitizer_report.clean

    def test_cancel_unclaimed_send_returns_buffers(self):
        require_transport_capability("cancel", "shared_address_space")

        def fn(comm):
            if comm.rank == 1:
                return None
            req = comm.isend(np.arange(512, dtype=np.int32), dest=1, tag=9)
            req.cancel()
            st = req.wait()
            return bool(st.cancelled)

        res = run(fn, nprocs=2, sanitize=True, timeout=30)
        assert res.results[0] is True
        assert res.sanitizer_report.clean
        for mem in res.memory:
            assert mem["pool"]["outstanding"] == 0

    def test_cancel_derived_recv_recycles_bounce_buffer(self):
        require_transport_capability("shared_address_space")
        from repro.core import vector
        from repro.core.datatype import INT32

        def fn(comm):
            if comm.rank == 0:
                return None
            dt = vector(count=16, blocklength=4, stride=8, base=INT32)
            buf = np.zeros((16, 8), dtype=np.int32)
            req = comm.irecv(buf, source=0, tag=9, datatype=dt, count=1)
            assert req.cancel()
            assert req.wait().cancelled
            return "ok"

        res = run(fn, nprocs=2, sanitize=True, timeout=30)
        assert res.results[1] == "ok"
        assert res.sanitizer_report.clean
        for mem in res.memory:
            assert mem["pool"]["outstanding"] == 0

    def test_cancel_loses_race_once_matched(self):
        def fn(comm):
            data = np.full(32, 3, np.uint8)
            if comm.rank == 0:
                comm.send(data, dest=1, tag=1)
                return None
            buf = np.zeros_like(data)
            req = comm.irecv(buf, source=0, tag=1)
            st = req.wait()
            assert not req.cancel()  # completed: cancel has no effect
            assert not st.cancelled
            return int(buf.sum())

        assert run(fn, nprocs=2, timeout=30).results[1] == 96

    def test_waitall_with_cancelled_request_is_clean(self):
        require_transport_capability("shared_address_space")

        def fn(comm):
            data = np.full(16, 2, np.uint8)
            if comm.rank == 0:
                comm.send(data, dest=1, tag=1)
                return None
            buf = np.zeros_like(data)
            r1 = comm.irecv(buf, source=0, tag=1)
            r2 = comm.irecv(np.zeros_like(data), source=0, tag=44)
            assert r2.cancel()
            sts = Request.waitall([r1, r2])
            assert not sts[0].cancelled and sts[1].cancelled
            assert sts[0].error == sts[1].error == errors.MPI_SUCCESS
            return int(buf.sum())

        res = run(fn, nprocs=2, sanitize=True, timeout=30)
        assert res.results[1] == 32
        assert res.sanitizer_report.clean
