"""Buffer-pool behaviour through the full simulated transport.

The pool is a wall-clock optimization; these tests pin down that (a) it is
actually exercised by the hot derived-datatype paths — repeated sends must
recycle bounce buffers and fragment staging — and (b) it never changes what
the receiver sees.
"""

import numpy as np
import pytest

from repro.core.custom import type_create_custom
from repro.core.regions import Region
from repro.mpi import run
from repro.types import make_struct_simple, struct_simple_datatype
from repro.ucp.transport import TRANSPORT_NAMES, resolve_transport_name
from tests.conftest import require_transport_capability
from tests.transport.conftest import require_backend

#: Packed bytes/element is 20; this count packs to 40 KiB, above the 32 KiB
#: eager limit, so the message goes rendezvous and fragments at 8 KiB.
RNDV_COUNT = 2048
#: Packs to 2.5 KiB — comfortably eager.
EAGER_COUNT = 128


def _pingpong(iters, count):
    dtype = struct_simple_datatype()

    def main(comm):
        sbuf = make_struct_simple(count)
        rbuf = make_struct_simple(count)
        if comm.rank == 0:
            for _ in range(iters):
                comm.send(sbuf, 1, 31, datatype=dtype, count=count)
                comm.recv(rbuf, 1, 32, datatype=dtype, count=count)
            return rbuf.copy()
        for _ in range(iters):
            comm.recv(rbuf, 0, 31, datatype=dtype, count=count)
            comm.send(rbuf, 0, 32, datatype=dtype, count=count)
        return None

    return main


def _in_process() -> bool:
    """Whether the active transport (REPRO_TRANSPORT) is inproc, where a
    derived rendezvous is copied layout to layout, never packed."""
    return resolve_transport_name(None) == "inproc"


class TestPoolHitRate:
    def test_fragmented_rendezvous_run_hits_pool(self):
        """Packed rendezvous temps recycle across messages wherever a
        derived rendezvous is packed: on a fault-injected fabric, and on
        the remote backends.  A pristine in-process one is copied layout
        to layout and takes nothing from the pool."""
        for faults in (None, {}):
            result = run(_pingpong(4, RNDV_COUNT), nprocs=2, faults=faults)
            for rank in (0, 1):
                pool = result.memory[rank]["pool"]
                if faults is None and _in_process():
                    assert _acquires(pool) == 0, (rank, pool)
                    continue
                assert pool["hits"] > 0, (faults, rank, pool)
                assert pool["returned"] > 0, (faults, rank, pool)

    def test_eager_run_hits_pool(self):
        result = run(_pingpong(4, EAGER_COUNT), nprocs=2)
        for rank in (0, 1):
            pool = result.memory[rank]["pool"]
            assert pool["hits"] > 0, (rank, pool)

    def test_a_64_message_window_recycles_every_staging_buffer(self):
        """64 eager struct2k messages in flight at once, window after
        window: after the first window every staging chunk comes from the
        sender's pool (0 misses), and the pool keeps no more buffers than
        one window held.  Capped at 8 buffers per class, each window
        missed and dropped 56."""
        window, windows = 64, 6

        def main(comm):
            dtype = struct_simple_datatype()
            sbuf = make_struct_simple(EAGER_COUNT)
            rbuf = make_struct_simple(EAGER_COUNT)
            token = np.zeros(1)
            misses = []
            for _ in range(windows):
                if comm.rank == 0:
                    for _ in range(window):
                        comm.isend(sbuf, 1, 1, datatype=dtype,
                                   count=EAGER_COUNT).wait()
                    comm.send(token, 1, 2)   # the whole window is in flight
                    comm.recv(token, 1, 3)   # ... and received
                    misses.append(comm.memory.snapshot()["pool"]["misses"])
                else:
                    comm.recv(token, 0, 2)
                    for _ in range(window):
                        comm.recv(rbuf, 0, 1, datatype=dtype,
                                  count=EAGER_COUNT)
                    comm.send(token, 0, 3)
            return misses, comm.memory.snapshot()["pool"]

        misses, pool = run(main, nprocs=2).results[0]
        assert misses[0] >= window
        assert misses[1:] == [misses[0]] * (windows - 1), misses
        assert pool["dropped"] == 0 and pool["outstanding"] == 0
        assert pool["pooled_buffers"] <= misses[0]

    def test_recycling_does_not_corrupt_data(self):
        """Round-tripped payload is intact even though every bounce buffer
        and staging chunk is a dirty pooled buffer by the later iterations."""
        echoed = run(_pingpong(6, RNDV_COUNT), nprocs=2).results[0]
        expect = make_struct_simple(RNDV_COUNT)
        assert np.array_equal(echoed, expect)


def _acquires(pool):
    return pool["hits"] + pool["misses"]


def _books(comm):
    snap = comm.memory.snapshot()
    return snap["pool"]["outstanding"], snap["live_bytes"]


class TestTwoPassesNotFour:
    """A derived message is packed into its wire chunk and unpacked straight
    out of it — or, on an in-process rendezvous, copied layout to layout:
    the paper baseline's temps are accounted, never built."""

    def _one_way(self, count):
        dtype = struct_simple_datatype()

        def main(comm):
            buf = make_struct_simple(count)
            if comm.rank == 0:
                comm.send(buf, 1, 3, datatype=dtype, count=count)
                return None
            buf[:] = 0
            comm.recv(buf, 0, 3, datatype=dtype, count=count)
            return buf

        return run(main, nprocs=2, trace_messages=True)

    def test_eager_costs_one_acquire_on_the_sender_only(self):
        res = self._one_way(EAGER_COUNT)
        assert res.traces[0][0]["protocol"] == "eager"
        assert [_acquires(m["pool"]) for m in res.memory] == [1, 0]
        assert np.array_equal(res.results[1],
                              make_struct_simple(EAGER_COUNT))

    def test_rendezvous_costs_no_acquire_in_process(self):
        """In-process the receiver copies the sender's layout into its own:
        no temp on either side.  A remote backend builds the packed stream
        once, into the sender's staging."""
        res = self._one_way(RNDV_COUNT)
        assert res.traces[0][0]["protocol"] == "rndv"
        assert [_acquires(m["pool"]) for m in res.memory] == \
            ([0, 0] if _in_process() else [1, 0])
        assert np.array_equal(res.results[1], make_struct_simple(RNDV_COUNT))

    def test_modelled_bounce_buffer_is_still_booked(self):
        """Both temps of the paper's baseline stay in the books: one
        allocation per send and one per receive, each of the packed size."""
        res = self._one_way(EAGER_COUNT)
        for snap in res.memory:
            assert snap["allocation_count"] == 1
            assert snap["total_allocated"] == 20 * EAGER_COUNT
            assert snap["live_bytes"] == 0

    def test_cancelled_derived_send_balances_the_books(self):
        """An unmatched eager send holds the staging chunk its deferred
        source was built into; a rendezvous one holds only the source.
        Cancelling either gives back everything: no pool buffer, no
        booked byte."""
        require_transport_capability("cancel")
        dtype = struct_simple_datatype()

        def main(comm):
            if comm.rank == 1:
                return None
            for count in (EAGER_COUNT, RNDV_COUNT):
                req = comm.isend(make_struct_simple(count), 1, 9,
                                 datatype=dtype, count=count)
                assert req.cancel()
                assert _books(comm) == (0, 0)
            return "ok"

        assert run(main, nprocs=2, timeout=30).results[0] == "ok"


def _single_region_job(comm):
    """Three sends of the paper's simplest custom type: no packed bytes, one
    64-byte region.  It degenerates to an eager CONTIG message, which the
    receiver takes through a custom ``CallbackData`` descriptor."""
    data = np.arange(64, dtype=np.uint8)
    dtype = type_create_custom(
        query_fn=lambda s, b, c: 0,
        region_count_fn=lambda s, b, c: 1,
        region_fn=lambda s, b, c, n: [Region(b)])
    for _ in range(3):
        if comm.rank == 0:
            comm.send(data, dest=1, tag=4, datatype=dtype)
        else:
            out = np.zeros(64, dtype=np.uint8)
            comm.recv(out, source=0, tag=4, datatype=dtype)
            assert (out == data).all()


class TestHandlerReceiveReturnsStaging:
    """A custom-datatype receive hands the wire chunks back like every other
    descriptor (``Worker.deliver`` is the one release site).  On inproc the
    handler branch never did: rank 0 ended at ``outstanding 3``."""

    @pytest.mark.parametrize("transport", TRANSPORT_NAMES)
    def test_books_balance_on_every_backend(self, transport):
        require_backend(transport)
        res = run(_single_region_job, nprocs=2, transport=transport,
                  timeout=30)
        pool = res.memory[0]["pool"]
        assert pool["hits"] + pool["misses"] == 3
        assert [m["pool"]["outstanding"] for m in res.memory] == [0, 0]

    def test_the_job_completes_under_the_job_service(self):
        """Warm trackers are leak-asserted at check-in: the leak failed a
        *correct* job with ``PoolLeakError``."""
        from repro.serve import JobService, JobSpec, JobStatus
        with JobService(slots=1, max_queue=4) as svc:
            h = svc.submit(JobSpec(fn=_single_region_job, name="region"))
            assert h.wait(30)
            assert h.status == JobStatus.COMPLETED, h.error
        assert svc.report()["jobs"]["pool_leaks"] == 0


#: The region row: a custom message of an 8-byte packed header and this
#: many regions of :data:`REGION_BYTES` each.
NREGIONS = 8
REGION_BYTES = 512


def _regions_type(region_bytes=REGION_BYTES):
    """8 regions of ``region_bytes`` each behind an 8-byte packed header
    (the region count): an IOV message of the engine's pooled packed
    stream and 8 views of user memory."""
    header = np.frombuffer(np.int64(NREGIONS).tobytes(), dtype=np.uint8)

    def pack_fn(state, buf, count, offset, dst):
        dst[:8] = header
        return 8

    def unpack_fn(state, buf, count, offset, src):
        assert src.tobytes() == header.tobytes()

    def region_fn(state, buf, count, n):
        return [Region(buf[i * region_bytes:(i + 1) * region_bytes])
                for i in range(n)]

    return type_create_custom(query_fn=lambda s, b, c: 8, pack_fn=pack_fn,
                              unpack_fn=unpack_fn,
                              region_count_fn=lambda s, b, c: NREGIONS,
                              region_fn=region_fn)


def _region_job(comm):
    """Rank 0 sends the region message three times: delivered, cancelled
    (where the backend can cancel; received otherwise) and into a receive
    whose regions are half as long (the receiver's region-length error,
    which the sender's wait reports too).  Rank 0 returns its pool snapshot
    taken once the last send completed, before any teardown could reclaim
    a stranded chunk."""
    from repro.errors import MPIError
    from repro.mpi import ERRORS_RETURN
    comm.set_errhandler(ERRORS_RETURN)
    dtype = _regions_type()
    nbytes = NREGIONS * REGION_BYTES
    data = (np.arange(nbytes) % 251).astype(np.uint8)
    if comm.rank == 0:
        comm.send(data, 1, 1, datatype=dtype)
        req = comm.isend(data, 1, 2, datatype=dtype)
        cancelled = req.cancel()
        comm.send(np.array([cancelled], dtype=np.uint8), 1, 3)
        if not cancelled:
            req.wait()
        with pytest.raises(MPIError, match="region length mismatch"):
            comm.send(data, 1, 4, datatype=dtype)
        return comm.memory.pool.snapshot()
    out = np.zeros(nbytes, dtype=np.uint8)
    comm.recv(out, 0, 1, datatype=dtype)
    assert (out == data).all()
    flag = np.zeros(1, dtype=np.uint8)
    comm.recv(flag, 0, 3)
    if not flag[0]:
        comm.recv(out, 0, 2, datatype=dtype)
    with pytest.raises(MPIError, match="region length mismatch"):
        comm.recv(np.zeros(nbytes // 2, dtype=np.uint8), 0, 4,
                  datatype=_regions_type(REGION_BYTES // 2))
    return None


class TestRegionMessageBalance:
    """A region message gives back exactly what a pool handed out for it:
    the packed stream (and, on ``shm``, each region's arena staging slab)
    — never a region, a view of user memory.  Delivered, cancelled or
    refused by the receiver, every pool ends balanced."""

    @pytest.mark.parametrize("faults", [None, {}],
                             ids=["pristine", "faulted"])
    @pytest.mark.parametrize("transport", TRANSPORT_NAMES)
    def test_every_pool_balances(self, transport, faults):
        require_backend(transport)
        res = run(_region_job, nprocs=2, transport=transport, faults=faults,
                  timeout=30)
        pool = res.results[0]
        staged = pool["hits"] + pool["misses"]
        # Per region message (three, a cancelled one included): the packed
        # stream, plus one staging slab per region where the regions cross
        # a process boundary; the flag message adds its eager staging.
        per_message = 1 + (NREGIONS if transport == "shm" else 0)
        assert staged == 3 * per_message + 1
        assert pool["returned"] == staged and pool["outstanding"] == 0
        assert [m["pool"]["outstanding"] for m in res.memory] == [0, 0]
        assert res.memory[1]["pool"]["hits"] \
            + res.memory[1]["pool"]["misses"] == 0


class TestSendFailureBeforeInjection:
    """``_send_derived`` must not strand its packed temp when the send dies
    before the message exists (it did: outstanding 1, live_bytes 160)."""

    @staticmethod
    def _failing_send(sender, **run_kwargs):
        def main(comm):
            from repro.mpi.comm import ERRORS_RETURN
            comm.set_errhandler(ERRORS_RETURN)
            if comm.rank == 1:
                return None
            try:
                sender(comm)
            except BaseException as exc:
                return type(exc).__name__, str(exc), _books(comm)
            return "sent", "", _books(comm)

        return run(main, nprocs=2, timeout=30, **run_kwargs).results[0]

    def test_short_send_buffer(self):
        dtype = struct_simple_datatype()
        name, text, books = self._failing_send(
            lambda comm: comm.send(make_struct_simple(8)[:4], 1, 1,
                                   datatype=dtype, count=8))
        assert name == "MPIError" and "send buffer too small" in text
        assert books == (0, 0)

    def test_pack_raising_a_non_mpi_error(self):
        dtype = struct_simple_datatype()
        name, _, books = self._failing_send(
            lambda comm: comm.send([1, 2, 3], 1, 1, datatype=dtype, count=1))
        assert name == "TypeError"
        assert books == (0, 0)

    def test_memory_quota(self):
        dtype = struct_simple_datatype()

        def sender(comm):
            comm.memory.byte_ceiling = 100
            comm.send(make_struct_simple(8), 1, 1, datatype=dtype, count=8)

        name, _, books = self._failing_send(sender)
        assert name == "MemoryQuotaError"
        assert books == (0, 0)

    def test_rank_crash_inside_tag_send(self):
        """The fault plan's crash checkpoint fires inside ``tag_send``,
        after the temp was acquired and packed."""
        dtype = struct_simple_datatype()
        name, _, books = self._failing_send(
            lambda comm: comm.send(make_struct_simple(8), 1, 1,
                                   datatype=dtype, count=8),
            faults={"crash": {0: 1e-12}})
        assert name == "RankCrashError"
        assert books == (0, 0)


class TestMrecvDerived:
    """``MessageHandle.mrecv`` takes the engine's one derived-delivery path
    (it used to carry its own bounce-and-unpack copy)."""

    @staticmethod
    def _mrecv(send, count):
        dtype = struct_simple_datatype()

        def main(comm):
            from repro.mpi.comm import ERRORS_RETURN
            comm.set_errhandler(ERRORS_RETURN)
            if comm.rank == 0:
                send(comm)
                return None
            out = make_struct_simple(8)
            out[:] = 0
            handle, _ = comm.mprobe(0, 5)
            try:
                handle.mrecv(out, datatype=dtype, count=count)
                outcome = "ok"
            except Exception as exc:
                outcome = f"{type(exc).__name__}: {exc}"
            return outcome, _books(comm), bool(out.view(np.uint8).any())

        res = run(main, nprocs=2, timeout=30)
        return res.results[1], res.memory

    def test_roundtrip(self):
        dtype = struct_simple_datatype()
        (outcome, books, touched), _ = self._mrecv(
            lambda comm: comm.send(make_struct_simple(8), 1, 5,
                                   datatype=dtype, count=8), count=8)
        assert (outcome, books, touched) == ("ok", (0, 0), True)

    def test_truncation_leaks_nothing(self):
        dtype = struct_simple_datatype()
        (outcome, books, touched), memory = self._mrecv(
            lambda comm: comm.send(make_struct_simple(8), 1, 5,
                                   datatype=dtype, count=8), count=4)
        assert outcome.startswith("TruncationError")
        assert books == (0, 0) and not touched
        assert [m["pool"]["outstanding"] for m in memory] == [0, 0]

    def test_partial_element_raises_like_recv(self):
        (outcome, books, touched), _ = self._mrecv(
            lambda comm: comm.send(np.arange(1, 31, dtype=np.uint8), 1, 5),
            count=4)
        assert "received 30 bytes, not a whole number of 20-byte " \
            "elements" in outcome
        assert books == (0, 0) and not touched


def test_serve_struct_workload_closes_its_books():
    """``repro-serve --jobs 300 --workload struct --strict``: warm worker
    sets recycle their trackers, so one stranded buffer is a PoolLeakError
    for the next job."""
    from repro.serve.cli import build_parser, run_service_load, verify_report
    report = run_service_load(build_parser().parse_args(
        ["--jobs", "300", "--workload", "struct", "--strict"]))
    assert verify_report(report) == []
    assert report["jobs"]["completed"] == 300
    assert report["jobs"]["pool_leaks"] == 0
