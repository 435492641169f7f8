"""What a rank that is its own progress engine must still guarantee.

On both remote backends no helper thread runs: each rank — an ``shm``
process, an ``asyncio`` thread — takes its own frames whenever it parks,
tests or probes, and reads its channels around each frame it writes.  A
flood cannot write-deadlock, a rank that only spins on non-blocking calls
still gets its messages, and frames torn across reads arrive whole.
"""

from __future__ import annotations

import pickle
import threading
import time

import numpy as np
import pytest

from repro.mpi.requests import Request
from repro.mpi.runtime import run
from repro.ucp.transport.remote import _LENGTH, _Inbound

from .conftest import require_backend

TAG = 11
#: Eager messages each rank sends before it receives any.
FLOOD = 3000
#: Bytes per flood message: eager, and more than ``PIPE_BUF`` (4 KiB), so
#: a raw-bytes frame (arena exhausted) cannot cross in one atomic write.
FLOOD_BYTES = 5000
RNDV = 1 << 16
#: Rendezvous messages per rank, and their bytes: four times a pipe's
#: default capacity.
BIG_FLOOD, BIG = 8, 1 << 18
#: Seconds a spinning rank may take before the test calls it stuck.
SPIN_LIMIT = 10.0


def _payload(rank: int, i: int, nbytes: int = FLOOD_BYTES) -> np.ndarray:
    return ((np.arange(nbytes) + 7 * i + rank) % 251).astype(np.uint8)


def _flood(comm):
    peer = 1 - comm.rank
    sends = [comm.isend(_payload(comm.rank, i), peer, TAG)
             for i in range(FLOOD)]
    out = np.empty(FLOOD_BYTES, np.uint8)
    bad = 0
    for i in range(FLOOD):
        comm.recv(out, peer, TAG)
        bad += not np.array_equal(out, _payload(peer, i))
    Request.waitall(sends)
    return bad


@pytest.mark.parametrize("backend,arena_mb", [
    ("shm", None), ("shm", "0.0001"), ("asyncio", None), ("asyncio",
                                                          "0.0001")])
def test_a_mutual_flood_completes(backend, arena_mb, monkeypatch):
    """Both ranks send 3,000 eager messages before receiving one: each
    reads its channels around every frame it writes.  With the arena
    exhausted every payload rides its frame as raw bytes."""
    require_backend(backend)
    if arena_mb is not None:
        monkeypatch.setenv("REPRO_SHM_ARENA_MB", arena_mb)
    res = run(_flood, nprocs=2, transport=backend, timeout=120)
    assert res.results == [0, 0]
    assert [m["pool"]["outstanding"] for m in res.memory] == [0, 0]
    if backend == "shm" and arena_mb is not None:
        assert all(m["pool"]["arena_spills"] > 0 for m in res.memory)


def _big_flood(comm):
    """Rendezvous messages: with the arena exhausted each one's frame
    carries its payload, far more than a pipe holds."""
    peer = 1 - comm.rank
    sends = [comm.isend(_payload(comm.rank, i, BIG), peer, TAG)
             for i in range(BIG_FLOOD)]
    out = np.empty(BIG, np.uint8)
    bad = 0
    for i in range(BIG_FLOOD):
        comm.recv(out, peer, TAG)
        bad += not np.array_equal(out, _payload(peer, i, BIG))
    Request.waitall(sends)
    return bad


def test_frames_larger_than_a_pipe_cross_both_ways(remote_backend,
                                                   monkeypatch):
    """Both ranks write a frame the channel cannot hold at once: each
    write goes out in pieces while the writer reads the other's."""
    monkeypatch.setenv("REPRO_SHM_ARENA_MB", "0.0001")
    res = run(_big_flood, nprocs=2, transport=remote_backend, timeout=60)
    assert res.results == [0, 0]
    assert [m["pool"]["outstanding"] for m in res.memory] == [0, 0]


def _spin(done) -> None:
    deadline = time.monotonic() + SPIN_LIMIT
    while not done():
        assert time.monotonic() < deadline, "no progress while spinning"


def _spin_on_recv_test(nbytes):
    def fn(comm):
        if comm.rank == 0:
            comm.send(_payload(0, 1, nbytes), 1, TAG)
            return True
        out = np.zeros(nbytes, np.uint8)
        req = comm.irecv(out, 0, TAG)
        _spin(req.test)
        req.wait()
        return bool(np.array_equal(out, _payload(0, 1, nbytes)))
    return fn


def _spin_on_send_test(comm):
    """A rendezvous sender completes on the receiver's acknowledgement,
    which only its own ``test`` reads."""
    if comm.rank == 0:
        req = comm.isend(_payload(0, 2, RNDV), 1, TAG)
        _spin(req.test)
        req.wait()
        return True
    out = np.zeros(RNDV, np.uint8)
    comm.recv(out, 0, TAG)
    return bool(np.array_equal(out, _payload(0, 2, RNDV)))


def _spin_on_iprobe(comm):
    if comm.rank == 0:
        comm.send(_payload(0, 3), 1, TAG)
        return True
    _spin(lambda: comm.iprobe(0, TAG) is not None)
    out = np.zeros(FLOOD_BYTES, np.uint8)
    comm.recv(out, 0, TAG)
    return bool(np.array_equal(out, _payload(0, 3)))


SPINNERS = {
    "recv-test-eager": _spin_on_recv_test(FLOOD_BYTES),
    "recv-test-rndv": _spin_on_recv_test(RNDV),
    "send-test-rndv": _spin_on_send_test,
    "iprobe": _spin_on_iprobe,
}


@pytest.mark.parametrize("spinner", SPINNERS)
def test_progress_without_parking(remote_backend, spinner):
    """A rank that never parks — it spins on ``Request.test`` or
    ``iprobe`` — still reads its frames."""
    res = run(SPINNERS[spinner], nprocs=2, transport=remote_backend,
              timeout=60)
    assert res.results == [True, True]
    assert [m["pool"]["outstanding"] for m in res.memory] == [0, 0]


def test_a_remote_rank_runs_no_helper_thread(remote_backend):
    """Nobody reads frames for a rank: an shm rank process runs one
    thread, and every thread alive during an asyncio job either existed
    before it or is one of its ranks (rank threads outlive their jobs, so
    the ranks may run on threads that existed before)."""
    before = set(threading.enumerate())

    def fn(comm):
        peer = 1 - comm.rank
        req = comm.isend(np.arange(4, dtype=np.int64), peer, TAG)
        comm.recv(np.zeros(4, np.int64), peer, TAG)
        req.wait()
        me = threading.current_thread()
        return threading.active_count(), (me.ident, me.name), {
            t.ident for t in set(threading.enumerate()) - before}

    res = run(fn, nprocs=2, transport=remote_backend, timeout=60)
    if remote_backend == "shm":
        assert [count for count, _, _ in res.results] == [1, 1], res.results
    else:
        ranks = dict(rank for _, rank, _ in res.results)
        assert sorted(ranks.values()) == ["mpi-rank-0", "mpi-rank-1"]
        assert all(new <= ranks.keys() for _, _, new in res.results), \
            res.results


def test_only_the_ranks_own_thread_takes_its_frames(remote_backend):
    """The sanitizer re-tests a parked rank's ``ready`` on other threads,
    and ``Request.test`` in it calls the rank's progress engine: there it
    must take nothing, although a frame waits unread."""
    def fn(comm):
        if comm.rank == 1:
            comm.send(_payload(1, 4), 0, TAG)
            return None
        time.sleep(0.2)  # the frame is in rank 0's channel by now
        foreign = []
        t = threading.Thread(
            target=lambda: foreign.append(comm.worker.progress()))
        t.start()
        t.join()
        out = np.zeros(FLOOD_BYTES, np.uint8)
        comm.recv(out, 1, TAG)
        return foreign, bool(np.array_equal(out, _payload(1, 4)))

    res = run(fn, nprocs=2, transport=remote_backend, timeout=60)
    assert res.results[0] == ([False], True)


def test_frames_torn_across_reads_arrive_whole():
    """The reader keeps a torn frame's bytes until the rest comes, however
    the stream is cut."""
    frames = [("msg", {"k": i}, [b"x" * size])
              for i, size in enumerate((0, 10, 5000, 70000, 3))]
    stream = b"".join(_LENGTH.pack(len(body)) + body for body in
                      (pickle.dumps(f, pickle.HIGHEST_PROTOCOL)
                       for f in frames))
    for cut in (1, 3, 4, 7, 4096, 65536, len(stream)):
        chan = _Inbound(0)
        got = []
        for off in range(0, len(stream), cut):
            got += chan.frames(stream[off:off + cut])
        assert got == frames, cut
        assert not chan.partial
