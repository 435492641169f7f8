"""The exit matrix: every way a rank and a message can end, on every backend.

Exits are written once (``rank_main`` / ``quiesce`` / ``conclude_job`` for a
rank, ``Worker.deliver`` + ``Transport.release_chunks`` for a message), so
each cell must give inproc's answer on shm and asyncio: same results, same
crash accounting, same failure keys and classes — and, after every exit
that is not a wall timeout, balanced books and nothing left running.

A cell is one 2-rank job: rank 0 -> rank 1 traffic that ends in the
*message exit*, then the *rank exit*.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.custom import type_create_custom
from repro.core.regions import Region
from repro.errors import ProcFailedError, RuntimeAbort
from repro.mpi.comm import ERRORS_RETURN
from repro.mpi.runtime import run
from repro.types import make_struct_simple, struct_simple_datatype
from repro.ucp.constants import pack_tag
from repro.ucp.dtypes import IovData
from repro.ucp.memory import MemoryTracker
from repro.ucp.transport import available_transports
from repro.ucp.transport.base import PARKED

from .conftest import books, require_backend

BACKENDS = [name for name, why in available_transports().items() if not why]

TAG = 7
EAGER, RNDV = 1 << 10, 1 << 16          # bytes, either side of 32 KiB


def _name(call):
    """Run ``call``; the outcome is None or the exception's class name."""
    try:
        call()
    except Exception as exc:
        return type(exc).__name__
    return None


def _contig(nbytes):
    def traffic(comm):
        data = (np.arange(nbytes) % 251).astype(np.uint8)
        if comm.rank == 0:
            return _name(lambda: comm.send(data, 1, TAG))
        out = np.zeros(nbytes, dtype=np.uint8)
        comm.recv(out, 0, TAG)
        return bool((out == data).all())
    return traffic


def _scatter(count):
    def traffic(comm):
        dtype = struct_simple_datatype()
        data = make_struct_simple(count)
        if comm.rank == 0:
            return _name(lambda: comm.send(data, 1, TAG, datatype=dtype,
                                           count=count))
        out = np.zeros_like(data)
        comm.recv(out, 0, TAG, datatype=dtype, count=count)
        return all((out[f] == data[f]).all() for f in data.dtype.names)
    return traffic


def _iov(nbytes):
    """UCP-level IOV receive; above the eager limit the sender posts an
    IOV too (two live regions, pulled at delivery)."""
    def traffic(comm):
        data = (np.arange(nbytes) % 241).astype(np.uint8)
        tag64 = pack_tag(0, 0, TAG)
        half = nbytes // 2
        if comm.rank == 0:
            if nbytes <= EAGER:
                return _name(lambda: comm.send(data, 1, TAG))
            return _name(lambda: comm.worker.endpoint(1).tag_send(
                tag64, IovData([data[:half], data[half:]])).wait())
        out = np.zeros(nbytes, dtype=np.uint8)
        entries = [out] if nbytes <= EAGER else [out[:half], out[half:]]
        comm.worker.tag_recv(tag64, IovData(entries, writable=True)).wait()
        return bool((out == data).all())
    return traffic


def _handler(nbytes):
    """Single-region custom type: a CONTIG message (eager staging below the
    limit) received through a custom ``CallbackData`` descriptor."""
    def traffic(comm):
        data = (np.arange(nbytes) % 239).astype(np.uint8)
        dtype = type_create_custom(
            query_fn=lambda s, b, c: 0,
            region_count_fn=lambda s, b, c: 1,
            region_fn=lambda s, b, c, n: [Region(b)])
        if comm.rank == 0:
            return _name(lambda: comm.send(data, 1, TAG, datatype=dtype))
        out = np.zeros(nbytes, dtype=np.uint8)
        comm.recv(out, 0, TAG, datatype=dtype)
        return bool((out == data).all())
    return traffic


def _custom_send_fails(tag_send=None, **broken):
    """A custom send that dies after its pooled wire buffer was taken —
    inside ``pack_fn``, at the ``used`` check, in ``region_fn`` after a
    successful pack, or in ``tag_send`` itself: the buffer never became a
    message, so the send gives it back (nothing is received)."""
    def traffic(comm):
        if comm.rank == 1:
            return None
        data = (np.arange(EAGER) % 233).astype(np.uint8)

        def pack_fn(state, buf, count, offset, dst):
            dst[:] = buf[offset:offset + dst.shape[0]]
            return dst.shape[0]

        callbacks = dict(
            query_fn=lambda s, b, c: EAGER, pack_fn=pack_fn,
            region_count_fn=lambda s, b, c: 1,
            region_fn=lambda s, b, c, n: [Region(b)])
        dtype = type_create_custom(**{**callbacks, **broken})
        if tag_send is not None:  # for this one send only
            comm.worker.endpoint = lambda dst: SimpleNamespace(
                tag_send=tag_send)
        try:
            return _name(lambda: comm.send(data, 1, TAG, datatype=dtype))
        finally:
            vars(comm.worker).pop("endpoint", None)
    return traffic


def _boom(*args, **kwargs):
    raise ValueError("boom")


def _truncated(comm):
    """A rendezvous message into a buffer too small: the delivery fails,
    and fails the blocked sender with it."""
    if comm.rank == 0:
        return _name(lambda: comm.send(np.zeros(RNDV, np.uint8), 1, TAG))
    return _name(lambda: comm.recv(np.zeros(EAGER, np.uint8), 0, TAG))


def _cancelled(comm):
    """``cancel`` retracts the send on inproc and refuses on the remote
    backends (where the message then ends unclaimed): either way its
    staging goes home."""
    if comm.rank == 0:
        comm.isend(np.zeros(EAGER, np.uint8), 1, TAG).cancel()
    return None


def _lost(comm):
    """The plan drops the first datagram 0 -> 1 and there is no reliability
    protocol: when its successor on the channel has arrived, it has not."""
    if comm.rank == 0:
        comm.send(np.zeros(EAGER, np.uint8), 1, TAG)
        comm.send(np.zeros(8, np.uint8), 1, TAG + 1)
        return None
    comm.recv(np.zeros(8, np.uint8), 0, TAG + 1)
    return comm.iprobe(0, TAG) is None


def _unclaimed(comm):
    if comm.rank == 0:
        comm.send(np.zeros(EAGER, np.uint8), 1, TAG)
    return None


DROP_FIRST = {"drop": 1.0, "channels": [(0, 1)], "window": (0, 1)}

#: name -> (traffic, fault plan the message exit itself needs)
MESSAGE_EXITS = {
    "contig-eager": (_contig(EAGER), None),
    "contig-rndv": (_contig(RNDV), None),
    "scatter-eager": (_scatter(8), None),
    "scatter-rndv": (_scatter(4096), None),
    "iov-eager": (_iov(EAGER), None),
    "iov-rndv": (_iov(RNDV), None),
    "handler-eager": (_handler(64), None),
    "handler-rndv": (_handler(RNDV), None),
    "custom-pack-raises": (_custom_send_fails(pack_fn=_boom), None),
    "custom-pack-overclaims": (_custom_send_fails(
        pack_fn=lambda s, b, c, off, dst: dst.shape[0] + 1), None),
    "custom-pack-stalls": (_custom_send_fails(
        pack_fn=lambda s, b, c, off, dst: 0), None),
    "custom-region-raises": (_custom_send_fails(region_fn=_boom), None),
    "custom-tag-send-raises": (_custom_send_fails(tag_send=_boom), None),
    "truncated": (_truncated, None),
    "cancelled": (_cancelled, None),
    "lost": (_lost, DROP_FIRST),
    "unclaimed": (_unclaimed, None),
}

#: Virtual time of the scheduled crash — far beyond any traffic above; the
#: crashing rank jumps its clock past it.
CRASH_AT = 1.0


def _returns(comm):
    return None


def _raises(comm):
    if comm.rank == 1:
        raise ValueError("rank 1 gives up")


def _crashed(comm):
    """Rank 1 dies at the crash checkpoint of its next send."""
    if comm.rank == 1:
        comm.worker.clock.advance(2 * CRASH_AT)
        comm.send(np.zeros(8, np.uint8), 0, 99)


def _crashed_in_delivery(comm):
    """Rank 1 dies at the delivery checkpoint of a message it had already
    claimed with ``mprobe``; its rendezvous sender must learn of it."""
    if comm.rank == 0:
        return _name(lambda: comm.send(np.zeros(RNDV, np.uint8), 1, 98))
    comm.worker.clock.advance(2 * CRASH_AT)
    handle, _ = comm.mprobe(0, 98)
    handle.mrecv(np.zeros(RNDV, np.uint8))


def _blocked_on_raised_peer(comm):
    """Rank 0 raises while rank 1 sits in ``recv`` from it; the failure
    detector of every fabric, pristine included, ends the wait."""
    if comm.rank == 0:
        raise ValueError("rank 0 gives up")
    comm.recv(np.zeros(8, np.uint8), 0, 96)


def _peer_raised_then_compute(comm):
    """Rank 0 raises; rank 1 is busy in its own code (3 s, far past the
    job's wall timeout), where no detector reaches it."""
    if comm.rank == 0:
        raise ValueError("rank 0 gives up")
    time.sleep(3.0)


#: name -> (exit, fault plan the rank exit needs, wall timeout)
RANK_EXITS = {
    "returns": (_returns, None, 30.0),
    "raises": (_raises, None, 30.0),
    "crashed": (_crashed, {"crash": {1: CRASH_AT}}, 30.0),
    "crashed-in-delivery": (_crashed_in_delivery,
                            {"crash": {1: CRASH_AT}}, 30.0),
    "blocked-on-raised-peer": (_blocked_on_raised_peer, None, 30.0),
    "timeout-after-peer-raised": (_peer_raised_then_compute, None, 1.0),
}


@pytest.fixture
def segments(monkeypatch):
    """Names of the shared-memory segments this test's jobs create."""
    from multiprocessing import shared_memory
    names = []
    real = shared_memory.SharedMemory

    def spy(*args, **kwargs):
        segment = real(*args, **kwargs)
        names.append(segment.name)
        return segment

    monkeypatch.setattr(shared_memory, "SharedMemory", spy)
    return names


def _fabric_threads():
    return {t for t in threading.enumerate()
            if t.name.startswith(("mpi-rank-", "ucp-"))}


def _parked_threads():
    """Rank threads waiting for their next rank (they outlive the job)."""
    return {t for t in threading.enumerate() if t.name == PARKED}


def _run_cell(backend, message_exit, rank_exit):
    """One job; returns (outcome, ledger) with ``ledger`` the per-rank
    ``(pool outstanding, tracker live_bytes)`` where the backend lets the
    driver see them (always on success; on an abort only where ranks share
    the driver's trackers, else None)."""
    traffic, msg_faults = MESSAGE_EXITS[message_exit]
    ending, exit_faults, timeout = RANK_EXITS[rank_exit]
    faults = {**(msg_faults or {}), **(exit_faults or {})} or None

    def fn(comm):
        comm.set_errhandler(ERRORS_RETURN)
        first = traffic(comm)
        return first, ending(comm)

    trackers = None if backend == "shm" else [MemoryTracker(),
                                              MemoryTracker()]
    try:
        res = run(fn, nprocs=2, transport=backend, timeout=timeout,
                  faults=faults, memory_trackers=trackers)
    except RuntimeAbort as exc:
        outcome = ("abort", {r: type(e) for r, e in exc.failures.items()})
        ledger = None
        if trackers is not None:
            ledger = [(t.pool.snapshot()["outstanding"], t.live_bytes)
                      for t in trackers]
    else:
        outcome = ("ok", res.results, res.crashed)
        ledger = books(res)
    return outcome, ledger


@pytest.mark.parametrize("rank_exit", [r for r in RANK_EXITS
                                       if not r.startswith("timeout")])
@pytest.mark.parametrize("message_exit", MESSAGE_EXITS)
def test_exit_matrix(message_exit, rank_exit, segments):
    before, parked = _fabric_threads(), _parked_threads()
    reference = None
    for backend in BACKENDS:
        outcome, ledger = _run_cell(backend, message_exit, rank_exit)
        reference = reference or outcome
        assert outcome == reference, f"{backend} diverges from inproc"
        assert ledger is None or ledger == [(0, 0), (0, 0)], \
            f"{backend}: (outstanding, live_bytes) per rank = {ledger}"
        assert _fabric_threads() - before == set(), backend
        # The idle set is bounded by the peak number of concurrent ranks:
        # one 2-rank job at a time adds at most its two threads.
        assert len(_parked_threads() - parked) <= 2, backend
        assert multiprocessing.active_children() == [], backend
        assert [n for n in segments
                if os.path.exists(f"/dev/shm/{n.lstrip('/')}")] == []


@pytest.mark.parametrize("message_exit", [m for m in MESSAGE_EXITS
                                          if m.startswith("custom-")])
def test_a_failed_custom_send_completes_under_the_job_service(message_exit):
    """Warm trackers are leak-asserted at check-in: a wire buffer stranded
    by the failed send would fail the job with ``PoolLeakError``."""
    from repro.serve import JobService, JobSpec, JobStatus
    traffic, _ = MESSAGE_EXITS[message_exit]

    def fn(comm):
        comm.set_errhandler(ERRORS_RETURN)
        return traffic(comm)

    with JobService(slots=1, max_queue=4) as svc:
        handle = svc.submit(JobSpec(fn=fn, name=message_exit))
        assert handle.wait(30)
        assert handle.status == JobStatus.COMPLETED, handle.error
        assert handle.result.results[0] is not None  # the send did fail
    assert svc.report()["jobs"]["pool_leaks"] == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_raised_peer_ends_a_blocked_recv_at_once(backend, segments):
    """No fault plan, no sanitizer: the rank blocked on a peer that raised
    fails with ``ProcFailedError`` naming that peer well inside a second —
    not at the job's wall timeout — and nothing is left running."""
    before = _fabric_threads()
    start = time.monotonic()
    with pytest.raises(RuntimeAbort) as ei:
        run(_blocked_on_raised_peer, nprocs=2, transport=backend, timeout=30)
    assert time.monotonic() - start < 1.0
    failures = ei.value.failures
    assert type(failures[0]) is ValueError
    assert type(failures[1]) is ProcFailedError
    assert failures[1].failed_ranks == (0,)
    assert "depends on failed rank(s) 0" in str(failures[1])
    assert _fabric_threads() - before == set()
    assert multiprocessing.active_children() == []
    assert [n for n in segments
            if os.path.exists(f"/dev/shm/{n.lstrip('/')}")] == []


def test_wall_timeout_names_the_peer_that_already_raised():
    """The root cause survives a timeout: the rank that raised is reported
    with its error (never as "still running", never under key -1), the
    rank still busy in its own code with a ``TimeoutError`` — which is
    what the job service's dirty/QUOTA classification keys on."""
    for backend in BACKENDS:
        outcome, _ = _run_cell(backend, "contig-eager",
                               "timeout-after-peer-raised")
        assert outcome == ("abort", {0: ValueError, 1: TimeoutError}), \
            backend
    assert multiprocessing.active_children() == []


def test_a_frame_delivery_failure_is_that_ranks_failure(monkeypatch):
    """An exception escaping ``deliver_frame`` in the frame loop — run by
    the receiving rank itself — is that rank's failure on both remote
    backends: a ``RuntimeAbort`` through ``conclude_job`` (so the job
    service sees it and ``quiesce`` runs), never a thread traceback, a
    bare ``TransportError`` or an exception out of the rank's own MPI
    call."""
    from repro.ucp.transport import remote

    real = remote.RemoteTransportMixin.deliver_frame

    def flaky(self, recv_worker, src_rank, frame):
        if frame[0] == remote.ACK:
            raise RuntimeError("bad frame")
        real(self, recv_worker, src_rank, frame)

    monkeypatch.setattr(remote.RemoteTransportMixin, "deliver_frame", flaky)
    before = _fabric_threads()
    for backend in BACKENDS:
        if backend == "inproc":
            continue
        with pytest.raises(RuntimeAbort) as ei:
            run(MESSAGE_EXITS["contig-eager"][0], nprocs=2,
                transport=backend, timeout=30)
        failures = ei.value.failures
        assert set(failures) == {0} and "bad frame" in str(failures[0]), \
            backend
        assert _fabric_threads() - before == set(), backend


def test_an_exhausted_arena_still_balances_the_books(monkeypatch):
    """With no arena left, staging spills to private slabs and payloads
    ride the pipe as raw bytes; the spilled slab leaves the message at
    encode time and must go home there (it stayed outstanding)."""
    require_backend("shm")
    monkeypatch.setenv("REPRO_SHM_ARENA_MB", "0.0001")
    for exit_name in ("contig-eager", "contig-rndv", "scatter-rndv"):
        res = run(MESSAGE_EXITS[exit_name][0], nprocs=2, transport="shm",
                  timeout=30)
        assert res.results == [None, True], exit_name
        assert res.memory[0]["pool"]["arena_spills"] > 0
        assert [m["pool"]["outstanding"] for m in res.memory] == [0, 0]
