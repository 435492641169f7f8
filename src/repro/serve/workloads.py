"""Canned SPMD job bodies for the job service CLI, tests and chaos runs.

Everything here is a *module-level* function (specialised with
:func:`functools.partial`), never a closure: the ``shm`` backend forks one
process per rank and pickles the rank function across, and closures don't
pickle.  The same property keeps chaos-run job specs trivially
serialisable for reports.

Each builder returns a single-callable SPMD body (every rank runs it,
branching on ``comm.rank``) sized so thousands of jobs finish in seconds:
the service benchmark measures *scheduler* overhead, not pack bandwidth —
the perf corpus already covers that.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..types import make_struct_simple, struct_simple_datatype

__all__ = ["pingpong_job", "ring_job", "struct_pingpong_job",
           "failing_job", "spin_job", "deadlock_job", "WORKLOADS",
           "make_workload_job"]


def _pingpong(comm, iters: int, nbytes: int):
    """Rank 0 <-> rank 1 byte pingpong; extra ranks idle (but are wired)."""
    sbuf = np.zeros(nbytes, dtype=np.uint8)
    rbuf = np.zeros(nbytes, dtype=np.uint8)
    if comm.rank == 0:
        sbuf[:] = 7
        for _ in range(iters):
            comm.send(sbuf, 1, 11)
            comm.recv(rbuf, 1, 12)
    elif comm.rank == 1:
        for _ in range(iters):
            comm.recv(rbuf, 0, 11)
            comm.send(rbuf, 0, 12)
    return int(rbuf[0])


def _ring(comm, iters: int, nbytes: int):
    """All ranks shift a message around the ring each iteration."""
    dst = (comm.rank + 1) % comm.size
    src = (comm.rank - 1) % comm.size
    sbuf = np.full(nbytes, comm.rank % 251, dtype=np.uint8)
    rbuf = np.zeros(nbytes, dtype=np.uint8)
    for _ in range(iters):
        sreq = comm.isend(sbuf, dst, 21)
        comm.recv(rbuf, src, 21)
        sreq.wait()
    return int(rbuf[0])


def _struct_pingpong(comm, iters: int, count: int):
    """Derived-datatype pingpong: exercises the PackPlan cache across jobs.

    Every job builds its own ``struct_simple`` datatype; the cache is keyed
    by layout, so all of them share the plan the first job compiled.
    """
    dtype = struct_simple_datatype()
    sbuf = make_struct_simple(count)
    rbuf = make_struct_simple(count)
    if comm.rank == 0:
        for _ in range(iters):
            comm.send(sbuf, 1, 31, datatype=dtype, count=count)
            comm.recv(rbuf, 1, 32, datatype=dtype, count=count)
    elif comm.rank == 1:
        for _ in range(iters):
            comm.recv(rbuf, 0, 31, datatype=dtype, count=count)
            comm.send(rbuf, 0, 32, datatype=dtype, count=count)
    return None


def _failing(comm, fail_rank: int, message: str):
    """Deterministic user failure on one rank (classification fodder).

    The doomed rank hits its bug before the send it owes rank
    ``fail_rank + 1``, so that peer blocks on the missing message — the
    abort propagates through the fabric, not just thread teardown.
    """
    buf = np.zeros(8, dtype=np.uint8)
    if comm.rank == fail_rank:
        if message is not None:
            raise ValueError(message)
        comm.send(buf, (fail_rank + 1) % comm.size, 41)
    elif comm.rank == (fail_rank + 1) % comm.size:
        comm.recv(buf, fail_rank, 41)
    return None


def _deadlock(comm, tag: int):
    """Everyone receives before sending: the classic distributed deadlock.

    Exists so quota tests can drive the wall-timeout path on every
    backend — including ``shm``, whose forked ranks need a picklable
    (module-level) function.
    """
    buf = np.zeros(8, dtype=np.uint8)
    comm.recv(buf, (comm.rank + 1) % comm.size, tag)
    comm.send(buf, (comm.rank + 1) % comm.size, tag)
    return None


def _spin(comm, iters: int, nbytes: int):
    """A long pingpong loop — the kill/timeout/budget target.

    Virtual time grows with every message, so a time budget cuts it at a
    deterministic iteration; wall time grows with every real send/recv,
    giving kills a wide window to land in.
    """
    return _pingpong(comm, iters, nbytes)


def pingpong_job(iters: int = 8, nbytes: int = 1024):
    return partial(_pingpong, iters=iters, nbytes=nbytes)


def ring_job(iters: int = 4, nbytes: int = 1024):
    return partial(_ring, iters=iters, nbytes=nbytes)


def struct_pingpong_job(iters: int = 4, count: int = 64):
    return partial(_struct_pingpong, iters=iters, count=count)


def failing_job(fail_rank: int = 0, message: str = "user bug"):
    return partial(_failing, fail_rank=fail_rank, message=message)


def spin_job(iters: int = 4096, nbytes: int = 4096):
    return partial(_spin, iters=iters, nbytes=nbytes)


def deadlock_job(tag: int = 90):
    return partial(_deadlock, tag=tag)


#: Name -> builder, the CLI's ``--workload`` vocabulary.
WORKLOADS = {
    "pingpong": pingpong_job,
    "ring": ring_job,
    "struct": struct_pingpong_job,
}


def make_workload_job(name: str, **kw):
    """Instantiate a named workload (CLI entry point)."""
    try:
        builder = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; available: "
            f"{', '.join(sorted(WORKLOADS))}") from None
    return builder(**kw)
