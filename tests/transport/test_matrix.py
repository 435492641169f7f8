"""The transport conformance matrix.

One contract, every backend: byte-identical results, identical virtual
clocks, event-identical message traces.  The shapes cover each protocol
family (eager, rendezvous, derived/custom datatypes, collectives,
wildcards) plus the fault layer; ``run_matrix`` does the cross-backend
comparison against inproc.
"""

from __future__ import annotations

import numpy as np

from repro.mpi.runtime import run
from repro.types import (STRUCT_SIMPLE, DoubleVec, double_vec_custom_datatype,
                         make_struct_simple, struct_simple_custom_datatype,
                         struct_simple_datatype)

from .conftest import run_matrix


class TestProtocolShapes:
    def test_eager_pingpong(self):
        def fn(comm):
            n = 1 << 10
            if comm.rank == 0:
                comm.send(np.arange(n, dtype=np.float64), dest=1, tag=1)
                buf = np.empty(n, dtype=np.float64)
                comm.recv(buf, source=1, tag=2)
                return float(buf.sum())
            buf = np.empty(n, dtype=np.float64)
            comm.recv(buf, source=0, tag=1)
            comm.send(buf * 2, dest=0, tag=2)
            return float(buf.sum())

        run_matrix(fn, nprocs=2)

    def test_rendezvous_large_exchange(self):
        def fn(comm):
            n = 1 << 18  # well past the eager limit
            peer = 1 - comm.rank
            mine = np.full(n, comm.rank + 1, dtype=np.uint8)
            theirs = np.empty(n, dtype=np.uint8)
            rreq = comm.irecv(theirs, source=peer, tag=0)
            sreq = comm.isend(mine, dest=peer, tag=0)
            rreq.wait()
            sreq.wait()
            return int(theirs[0]), int(theirs.sum())

        run_matrix(fn, nprocs=2)

    def test_derived_and_custom_datatype_ring(self):
        def fn(comm):
            derived = struct_simple_datatype()
            custom = struct_simple_custom_datatype()
            dv_t = double_vec_custom_datatype()
            dst = (comm.rank + 1) % comm.size
            src = (comm.rank - 1) % comm.size
            s = make_struct_simple(64)
            dv = DoubleVec.uniform(10_000, 512)
            reqs = [comm.isend(s, dest=dst, tag=1, datatype=derived,
                               count=64),
                    comm.isend(s, dest=dst, tag=2, datatype=custom,
                               count=64),
                    comm.isend(dv, dest=dst, tag=3, datatype=dv_t)]
            o1 = np.zeros_like(s)
            comm.recv(o1, source=src, tag=1, datatype=derived, count=64)
            o2 = np.zeros_like(s)
            comm.recv(o2, source=src, tag=2, datatype=custom, count=64)
            o3 = DoubleVec()
            comm.recv(o3, source=src, tag=3, datatype=dv_t)
            for r in reqs:
                r.wait()
            return (float(o1["a"].sum()), float(o2["d"].sum()),
                    o3.total_bytes)

        run_matrix(fn, nprocs=3)

    def test_collectives(self):
        def fn(comm):
            x = np.full(512, comm.rank + 1.0)
            summed = np.empty_like(x)
            comm.allreduce(x, summed)
            ranks = np.empty(comm.size, dtype=np.int64)
            comm.allgather(np.array([comm.rank], dtype=np.int64), ranks)
            comm.barrier()
            root_view = comm.bcast(
                np.arange(64, dtype=np.float64) if comm.rank == 0
                else np.empty(64, dtype=np.float64), root=0)
            return (float(summed.sum()), [int(r) for r in ranks],
                    float(np.asarray(root_view).sum()))

        run_matrix(fn, nprocs=4)

    def test_wildcard_source_fifo(self):
        def fn(comm):
            # Senders take turns (rank 0 passes a token to the next one):
            # two concurrent senders would race for the wildcard receive,
            # and the arrival order is part of the compared trace.
            token = np.zeros(1, dtype=np.int64)
            if comm.rank == 0:
                got = []
                buf = np.empty(1, dtype=np.int64)
                for _ in range(comm.size - 1):
                    info = comm.recv(buf, source=-1, tag=7)
                    got.append((info.source, int(buf[0])))
                    if info.source + 1 < comm.size:
                        comm.send(token, dest=info.source + 1, tag=8)
                return got
            if comm.rank > 1:
                comm.recv(token, source=0, tag=8)
            comm.send(np.array([comm.rank * 10], dtype=np.int64),
                      dest=0, tag=7)
            return None

        run_matrix(fn, nprocs=3)

    def test_self_send(self):
        def fn(comm):
            buf = np.empty(16, dtype=np.float64)
            req = comm.isend(np.arange(16, dtype=np.float64),
                             dest=comm.rank, tag=5)
            comm.recv(buf, source=comm.rank, tag=5)
            req.wait()
            return float(buf.sum())

        run_matrix(fn, nprocs=2)


class TestFaultMatrix:
    def test_seeded_chaos_with_reliability(self):
        plan = {"seed": 42, "drop": 0.3, "corrupt": 0.1, "duplicate": 0.1,
                "window": (0, 8)}

        def fn(comm):
            n = 1 << 12
            if comm.rank == 0:
                for k in range(6):
                    comm.send(np.arange(n, dtype=np.float64) + k,
                              dest=1, tag=3 + k)
                return None
            tot = 0.0
            for k in range(6):
                buf = np.empty(n, dtype=np.float64)
                comm.recv(buf, source=0, tag=3 + k)
                tot += float(buf[-1])
            return tot

        results = run_matrix(fn, nprocs=2, faults=plan, reliability=True)
        ref = results["inproc"]
        assert ref.reliability[0]["retransmits"] > 0  # the plan did bite
        for name, got in results.items():
            assert got.reliability == ref.reliability, \
                f"{name}: reliability counters diverge"
            assert got.fault_trace == ref.fault_trace, \
                f"{name}: fault traces diverge"

    def test_crash_fault_survivor_semantics(self):
        plan = {"crash": {0: 2e-5}}

        def fn(comm):
            n = 1 << 14
            if comm.rank == 0:
                for k in range(40):
                    comm.send(np.zeros(n), dest=1, tag=k)
                return "all-sent"
            got = 0
            try:
                for k in range(40):
                    buf = np.empty(n)
                    comm.recv(buf, source=0, tag=k)
                    got += 1
            except Exception as exc:
                return (type(exc).__name__, got)
            return ("all", got)

        results = run_matrix(fn, nprocs=2, faults=plan, reliability=True)
        ref = results["inproc"]
        assert ref.crashed == [0]
        assert ref.results[1][0] == "ProcFailedError"

    def test_exhausted_retry_budget_poisons_identically(self):
        plan = {"seed": 7, "drop": 1.0, "window": (0, 1)}

        def fn(comm):
            from repro.mpi.comm import ERRORS_RETURN
            comm.set_errhandler(ERRORS_RETURN)
            n = 1 << 12
            if comm.rank == 0:
                comm.send(np.arange(n, dtype=np.float64), dest=1, tag=3)
                return None
            buf = np.empty(n, dtype=np.float64)
            try:
                comm.recv(buf, source=0, tag=3)
                return "delivered"
            except Exception as exc:
                return type(exc).__name__

        results = run_matrix(
            fn, nprocs=2, faults=plan,
            reliability={"enabled": True, "retry_limit": 2})
        ref = results["inproc"]
        assert ref.reliability[0]["exhausted"] == 1


class TestMemoryAccounting:
    def test_no_pool_leaks_on_any_backend(self, backend):
        """Every backend's teardown must return all staging: outstanding
        ends at zero, the invariant the inproc pool tests rely on."""
        def fn(comm):
            peer = 1 - comm.rank
            for n in (1 << 10, 1 << 17):
                mine = np.zeros(n, dtype=np.uint8)
                theirs = np.empty(n, dtype=np.uint8)
                rreq = comm.irecv(theirs, source=peer, tag=0)
                sreq = comm.isend(mine, dest=peer, tag=0)
                rreq.wait()
                sreq.wait()

        res = run(fn, nprocs=2, transport=backend)
        for rank, snap in enumerate(res.memory):
            assert snap["pool"]["outstanding"] == 0, \
                f"rank {rank}: staging leaked on {backend}"

    def test_shm_zero_copy_uses_arena(self):
        """Non-contiguous derived sends on shm pack into the shared arena
        (no spill), the tentpole's zero-bounce-copy claim."""
        from .conftest import require_backend
        require_backend("shm")

        def fn(comm):
            dtype = struct_simple_datatype()
            s = make_struct_simple(256)
            if comm.rank == 0:
                comm.send(s, dest=1, tag=1, datatype=dtype, count=256)
            else:
                out = np.zeros_like(s)
                comm.recv(out, source=0, tag=1, datatype=dtype, count=256)
                return float(out["a"].sum())

        res = run(fn, nprocs=2, transport="shm")
        snap = res.memory[0]["pool"]
        assert snap["arena_spills"] == 0
        assert snap["arena_used"] > 0


# Recorded at the parent commit (receive bounce buffer built and copied
# into): what is modelled must not move when the buffer stops being real.
PINGPONG_CLOCK_RANK0 = {128: 4.392106666666664e-05,
                        2048: 0.0004980650666666668}


class TestDerivedTwoPasses:
    """Derived datatypes pack into the wire chunk and unpack straight out
    of it on every backend — except an inproc rendezvous, which copies
    layout to layout — and everything modelled stays where it was."""

    @staticmethod
    def _acquires(snap):
        return snap["pool"]["hits"] + snap["pool"]["misses"]

    def _pingpong(self, backend, count, iters=4):
        def fn(comm):
            dtype = struct_simple_datatype()
            buf = make_struct_simple(count)
            for _ in range(iters):
                if comm.rank == 0:
                    comm.send(buf, 1, 31, datatype=dtype, count=count)
                    comm.recv(buf, 1, 32, datatype=dtype, count=count)
                else:
                    comm.recv(buf, 0, 31, datatype=dtype, count=count)
                    comm.send(buf, 0, 32, datatype=dtype, count=count)
            return buf.tobytes()

        return run(fn, nprocs=2, transport=backend)

    def test_one_acquire_per_message_none_to_receive(self, backend):
        for count in (128, 2048):  # eager, rendezvous
            res = self._pingpong(backend, count)
            assert res.results[0] == make_struct_simple(count).tobytes()
            # An inproc rendezvous acquires nothing: no packed stream.
            sends = 0 if backend == "inproc" and count == 2048 else 4
            for snap in res.memory:
                assert self._acquires(snap) == sends, (backend, count, snap)
                assert snap["pool"]["outstanding"] == 0

    def test_clocks_and_tracker_totals_pinned(self, backend):
        for count in (128, 2048):
            res = self._pingpong(backend, count)
            assert res.clocks[0] == PINGPONG_CLOCK_RANK0[count]
            for snap in res.memory:
                assert (snap["live_bytes"], snap["peak_bytes"],
                        snap["total_allocated"], snap["allocation_count"]) \
                    == (0, 20 * count, 8 * 20 * count, 8)

    def test_mixed_paths_match_the_reference_engine(self, backend):
        """custom -> derived: a pack-only type arrives as ONE packed entry
        and is unpacked in place; a region-bearing one (MILC: eight regions)
        goes through the UnpackCursor chunk by chunk.  derived -> contiguous
        lands the packed stream."""
        from repro.core.packing import pack_reference, unpack_reference
        from repro.ddtbench import make_workload
        n = 2000
        derived = struct_simple_datatype()
        milc = make_workload("MILC")

        def fn(comm):
            custom = struct_simple_custom_datatype()
            if comm.rank == 0:
                comm.send(make_struct_simple(n), 1, 1, datatype=custom,
                          count=n)
                comm.send(make_struct_simple(n), 1, 2, datatype=derived,
                          count=n)
                comm.send(milc.make_send_buffer(), 1, 3,
                          datatype=milc.custom_region_datatype())
                return None
            out = np.zeros(n, dtype=STRUCT_SIMPLE)
            st = comm.recv(out, 0, 1, datatype=derived, count=n)
            flat = np.zeros(20 * n, dtype=np.uint8)
            comm.recv(flat, 0, 2)
            lattice = milc.make_recv_buffer()
            st3 = comm.recv(lattice, 0, 3, datatype=milc.derived_datatype())
            return (out.tobytes(), flat.tobytes(), st.entry_lengths,
                    len(st3.entry_lengths), lattice.tobytes(),
                    comm.memory.snapshot()["pool"]["misses"])

        res = run(fn, nprocs=2, transport=backend)
        got, flat, entries, nregions, lattice, recv_acquires = res.results[1]
        packed = pack_reference(derived, make_struct_simple(n), n)
        want = np.zeros(n, dtype=STRUCT_SIMPLE)
        unpack_reference(derived, want, n, packed)
        assert entries == (20 * n,) and nregions == 8 and recv_acquires == 0
        assert got == want.tobytes()
        assert flat == packed.tobytes()
        want = milc.make_recv_buffer()
        milc.manual_unpack(milc.manual_pack(milc.make_send_buffer()), want)
        assert lattice == want.tobytes()
        assert [s["pool"]["outstanding"] for s in res.memory] == [0, 0]

    @staticmethod
    def _failed_recv(backend, send, post, **run_kwargs):
        """Rank 1 receives into a zeroed 8-element buffer through ``post``;
        returns (outcome, (outstanding, live_bytes), buffer touched) of
        rank 1 and the job's memory snapshots."""
        def fn(comm):
            from repro.mpi.comm import ERRORS_RETURN
            comm.set_errhandler(ERRORS_RETURN)
            if comm.rank == 0:
                send(comm)
                return None
            out = np.zeros(8, dtype=STRUCT_SIMPLE)
            try:
                outcome = post(comm, out)
            except Exception as exc:
                outcome = type(exc).__name__
            snap = comm.memory.snapshot()
            return (outcome, (snap["pool"]["outstanding"],
                              snap["live_bytes"]),
                    bool(out.view(np.uint8).any()))

        res = run(fn, nprocs=2, transport=backend, timeout=30, **run_kwargs)
        assert [s["pool"]["outstanding"] for s in res.memory] == [0, 0]
        return res.results[1]

    @staticmethod
    def _send8(comm):
        comm.send(make_struct_simple(8), 1, 1,
                  datatype=struct_simple_datatype(), count=8)

    def test_truncation(self, backend):
        got = self._failed_recv(
            backend, self._send8,
            lambda comm, out: comm.recv(
                out, 0, 1, datatype=struct_simple_datatype(), count=4))
        assert got == ("TruncationError", (0, 0), False)

    def test_partial_element(self, backend):
        got = self._failed_recv(
            backend,
            lambda comm: comm.send(np.arange(1, 31, dtype=np.uint8), 1, 1),
            lambda comm, out: comm.recv(
                out, 0, 1, datatype=struct_simple_datatype(), count=4))
        assert got == ("TruncationError", (0, 0), False)

    def test_cancel_of_an_unmatched_receive(self, backend):
        def post(comm, out):
            req = comm.irecv(out, 0, 77, datatype=struct_simple_datatype(),
                             count=8)
            assert req.cancel() and req.wait().cancelled
            return "cancelled"

        got = self._failed_recv(backend, lambda comm: None, post)
        assert got == ("cancelled", (0, 0), False)

    def test_poisoned_message(self, backend):
        got = self._failed_recv(
            backend, self._send8,
            lambda comm, out: comm.recv(
                out, 0, 1, datatype=struct_simple_datatype(), count=8),
            faults={"seed": 7, "drop": 1.0, "window": (0, 1)},
            reliability={"enabled": True, "retry_limit": 2})
        assert got == ("ProcFailedError", (0, 0), False)

    def test_short_and_read_only_buffers(self, backend):
        def short(comm, out):
            return comm.recv(out[:4], 0, 1,
                             datatype=struct_simple_datatype(), count=8)

        def read_only(comm, out):
            out.flags.writeable = False
            return comm.recv(out, 0, 1, datatype=struct_simple_datatype(),
                             count=8)

        for post in (short, read_only):
            got = self._failed_recv(backend, self._send8, post)
            assert got == ("MPIError", (0, 0), False)
