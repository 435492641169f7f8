"""Synchronous sends and user-defined reduction operators."""

import numpy as np
import pytest

from repro.mpi import run


class TestSsend:
    def test_ssend_roundtrip(self):
        def fn(comm):
            if comm.rank == 0:
                comm.ssend(np.arange(16, dtype=np.int32), dest=1, tag=1)
                return None
            buf = np.zeros(16, dtype=np.int32)
            comm.recv(buf, source=0, tag=1)
            return buf.tolist()

        assert run(fn, nprocs=2).results[1] == list(range(16))

    def test_issend_incomplete_until_receive(self):
        def fn(comm):
            if comm.rank == 0:
                req = comm.issend(np.zeros(8, dtype=np.uint8), dest=1, tag=2)
                incomplete = not req.test()   # small message, but sync mode
                comm.barrier()
                req.wait()
                return incomplete
            comm.barrier()
            comm.recv(np.zeros(8, dtype=np.uint8), source=0, tag=2)
            return None

        assert run(fn, nprocs=2).results[0] is True

    @pytest.mark.parametrize("nbytes", [16, 0], ids=["one-region", "empty"])
    def test_issend_of_degenerate_custom_type_waits_for_receive(self, nbytes):
        """A custom type that collapses to CONTIG (one region, or nothing at
        all) must still honour MPI_Ssend: no completion before the receive.
        Sleep-free: the eager "go" message orders the receive after the
        sender's ``test()``."""
        from repro.core import type_create_custom
        from repro.core.regions import Region

        payload = [np.arange(nbytes, dtype=np.uint8)] if nbytes else []
        dtype = type_create_custom(
            query_fn=lambda s, b, c: 0,
            region_count_fn=lambda s, b, c: len(payload),
            region_fn=lambda s, b, c, n: [Region(p) for p in payload])

        def fn(comm):
            if comm.rank == 0:
                req = comm.issend(object(), dest=1, tag=4, datatype=dtype)
                incomplete = not req.test()
                comm.send(np.zeros(1, dtype=np.uint8), dest=1, tag=5)
                req.wait()
                return incomplete
            comm.recv(np.zeros(1, dtype=np.uint8), source=0, tag=5)
            buf = np.zeros(nbytes, dtype=np.uint8)
            comm.recv(buf, source=0, tag=4)   # the wire form is CONTIG
            return buf.tolist()

        res = run(fn, nprocs=2).results
        assert res[0] is True
        assert res[1] == list(range(nbytes))

    def test_plain_small_send_completes_immediately(self):
        """Contrast: eager MPI_Send buffers the message locally."""
        def fn(comm):
            if comm.rank == 0:
                req = comm.isend(np.zeros(8, dtype=np.uint8), dest=1, tag=2)
                done = req.test()
                comm.barrier()
                return done
            comm.barrier()
            comm.recv(np.zeros(8, dtype=np.uint8), source=0, tag=2)
            return None

        assert run(fn, nprocs=2).results[0] is True

    def test_ssend_deadlocks_without_receiver(self):
        from repro.errors import RuntimeAbort

        def fn(comm):
            if comm.rank == 0:
                comm.ssend(np.zeros(4, dtype=np.uint8), dest=1, tag=3)
            # rank 1 never receives

        with pytest.raises(RuntimeAbort):
            run(fn, nprocs=2, timeout=0.5)


class TestEmptyCustomMessage:
    """A custom value with no packed bytes and no regions crosses as one
    0-byte CONTIG entry — the same wire form as one empty region.  The
    receiver's own region count decides which it was; no byte moves."""

    @staticmethod
    def _type(nregions, calls):
        from repro.core import type_create_custom
        from repro.core.regions import Region

        def region_fn(state, buf, count, n):
            calls.append(n)
            return [Region(np.zeros(0, dtype=np.uint8))] * n

        return type_create_custom(
            query_fn=lambda s, b, c: 0,
            region_count_fn=lambda s, b, c: nregions,
            region_fn=region_fn)

    @pytest.mark.parametrize("transport", ["inproc", "asyncio"])
    @pytest.mark.parametrize("sync", [False, True], ids=["send", "ssend"])
    @pytest.mark.parametrize("sent,counted", [(0, 0), (1, 1), (0, 1), (1, 0)])
    def test_custom_to_custom(self, transport, sync, sent, counted):
        def fn(comm):
            calls = []
            if comm.rank == 0:
                send = comm.ssend if sync else comm.send
                send(object(), dest=1, tag=4,
                     datatype=self._type(sent, calls))
                return None
            status = comm.recv(object(), source=0, tag=4,
                               datatype=self._type(counted, calls))
            return status.nbytes, calls

        nbytes, calls = run(fn, nprocs=2, transport=transport,
                            timeout=30).results[1]
        assert nbytes == 0
        # One zero-length region still lands as one region.
        assert calls == ([1] if counted else [])


class TestUserDefinedOp:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_callable_op(self, n):
        def absmax(a, b):
            return np.maximum(np.abs(a), np.abs(b))

        def fn(comm):
            mine = np.array([(-1.0) ** comm.rank * (comm.rank + 1), 0.5])
            out = np.zeros(2)
            comm.allreduce(mine, out, op=absmax)
            return out.tolist()

        res = run(fn, nprocs=n)
        assert all(r == [float(n), 0.5] for r in res.results)

    def test_reduce_callable_at_root_only(self):
        def fn(comm):
            mine = np.full(3, comm.rank + 1, dtype=np.float64)
            out = np.zeros(3)
            r = comm.reduce(mine, out, op=lambda a, b: a * b, root=0)
            return out.tolist() if r is not None else None

        res = run(fn, nprocs=4)
        assert res.results[0] == [24.0] * 3

    def test_bad_op_rejected(self):
        from repro.errors import RuntimeAbort

        def fn(comm):
            comm.allreduce(np.zeros(1), np.zeros(1), op="median")

        with pytest.raises(RuntimeAbort):
            run(fn, nprocs=2, timeout=10)
