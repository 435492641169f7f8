"""Rank threads outlive the job (``ThreadedTransport.run_job``).

On inproc and asyncio a rank that ends parks its thread until the next job
of the process takes it.  A reused thread must look like a fresh one to
the next rank: named for that rank, on the driver's CPUs, holding nothing
of the job it ran, never handed a rank while an abandoned function still
runs on it, and never inherited by a forked rank process.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from repro.errors import RuntimeAbort
from repro.mpi.runtime import run
from repro.ucp.transport.base import PARKED

from .conftest import require_backend

TAG = 5


@pytest.fixture(params=["inproc", "asyncio"])
def threaded_backend(request) -> str:
    """The backends whose ranks are threads of the driver's process."""
    require_backend(request.param)
    return request.param


def _tid(comm):
    return threading.get_native_id()


def _parked() -> set:
    return {t for t in threading.enumerate() if t.name == PARKED}


def test_consecutive_jobs_run_on_the_same_threads(threaded_backend):
    first = run(_tid, nprocs=2, transport=threaded_backend).results
    second = run(_tid, nprocs=2, transport=threaded_backend).results
    assert len(set(first)) == 2
    assert set(second) == set(first)
    assert threading.get_native_id() not in first


def test_a_rank_thread_is_named_for_its_rank_only_while_it_runs(
        threaded_backend):
    def fn(comm):
        me = threading.current_thread()
        return me, me.name

    res = run(fn, nprocs=3, transport=threaded_backend)
    assert [name for _, name in res.results] == \
        ["mpi-rank-0", "mpi-rank-1", "mpi-rank-2"]
    assert [thread.name for thread, _ in res.results] == [PARKED] * 3


def test_a_parked_thread_holds_nothing_of_its_job(threaded_backend):
    """The rank's buffers, its result and its fabric die with the job's
    result, not with the thread that ran it."""
    refs = []

    def fn(comm):
        buf = np.full(64, comm.rank, np.int64)
        peer = 1 - comm.rank
        out = np.zeros(64, np.int64)
        req = comm.isend(buf, peer, TAG)
        comm.recv(out, peer, TAG)
        req.wait()
        refs.extend((weakref.ref(buf), weakref.ref(out),
                     weakref.ref(comm.worker.fabric)))
        return out

    res = run(fn, nprocs=2, transport=threaded_backend)
    assert [int(out[0]) for out in res.results] == [1, 0]
    del res
    gc.collect()
    assert len(refs) == 6
    assert [ref() for ref in refs] == [None] * 6


def test_a_failed_rank_leaves_nothing_on_its_thread(threaded_backend):
    refs = []

    def fn(comm):
        buf = np.zeros(64)
        refs.append(weakref.ref(buf))
        if comm.rank == 1:
            raise ValueError(buf)

    with pytest.raises(RuntimeAbort):
        run(fn, nprocs=2, transport=threaded_backend, timeout=10)
    gc.collect()
    assert len(refs) == 2 and [ref() for ref in refs] == [None, None]


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs CPU affinity and two CPUs")
def test_rank_threads_take_the_drivers_cpus(threaded_backend):
    """A new thread inherits its creator's CPU set; a parked thread is
    given the driver's current one, whatever its last rank set."""
    every = os.sched_getaffinity(0)
    one = {min(every)}

    def pin_self(comm):
        os.sched_setaffinity(0, one)
        return os.sched_getaffinity(0)

    def cpus(comm):
        return os.sched_getaffinity(0)

    assert run(pin_self, nprocs=2,
               transport=threaded_backend).results == [one, one]
    assert run(cpus, nprocs=2,
               transport=threaded_backend).results == [every, every]
    os.sched_setaffinity(0, one)
    try:
        assert run(cpus, nprocs=2,
                   transport=threaded_backend).results == [one, one]
    finally:
        os.sched_setaffinity(0, every)
    assert run(cpus, nprocs=2,
               transport=threaded_backend).results == [every, every]


def test_a_timed_out_rank_keeps_its_thread_until_its_function_returns(
        threaded_backend):
    release = threading.Event()
    stuck = {}

    def fn(comm):
        if comm.rank == 1:
            stuck["tid"] = threading.get_native_id()
            release.wait(30)

    with pytest.raises(RuntimeAbort) as err:
        run(fn, nprocs=2, transport=threaded_backend, timeout=0.3)
    assert isinstance(err.value.failures[1], TimeoutError)
    try:
        for _ in range(3):
            tids = run(_tid, nprocs=2, transport=threaded_backend,
                       timeout=10).results
            assert stuck["tid"] not in tids
        thread = next(t for t in threading.enumerate()
                      if t.native_id == stuck["tid"])
        assert thread.name == "mpi-rank-1"
    finally:
        release.set()
    deadline = time.monotonic() + 10
    while thread.name != PARKED:
        assert time.monotonic() < deadline, thread.name
        time.sleep(0.01)
    # Every parked thread takes a rank of a job as large as the idle set:
    # the abandoned one is among them again.
    tids = run(_tid, nprocs=len(_parked()), transport=threaded_backend,
               timeout=10).results
    assert stuck["tid"] in tids


def test_a_rank_can_run_a_job(threaded_backend):
    def inner(comm):
        out = np.zeros(1, np.int64)
        req = comm.isend(np.full(1, comm.rank + 1, np.int64), 1 - comm.rank,
                         TAG)
        comm.recv(out, 1 - comm.rank, TAG)
        req.wait()
        return int(out[0]) + comm.rank + 1

    def outer(comm):
        return run(inner, nprocs=2, transport=threaded_backend,
                   timeout=10).results

    res = run(outer, nprocs=2, transport=threaded_backend, timeout=20)
    assert res.results == [[3, 3], [3, 3]]


def test_concurrent_drivers_share_the_idle_set(threaded_backend):
    """More drivers than cores take and return parked threads at once, with
    a short switch interval: a lost update of the idle set would hand one
    thread two ranks (a hang, or two ranks of a job on one thread) or
    grow the set beyond the peak number of concurrent ranks."""
    drivers, jobs = 4, 10
    before = _parked()
    tids, errors = [], []

    def drive():
        try:
            for _ in range(jobs):
                tids.append(run(_tid, nprocs=2, transport=threaded_backend,
                                timeout=20).results)
        except BaseException as exc:  # reported below, on the test thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=drive) for _ in range(drivers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(tids) == drivers * jobs
    assert all(len(set(job)) == 2 for job in tids)
    assert len(_parked() - before) <= 2 * drivers


def test_a_forked_rank_inherits_no_parked_thread():
    """An shm rank process is a fork of a driver with parked threads: the
    threads do not exist in the child, so an inproc job there starts its
    own — and an shm job after inproc ones is unaffected."""
    require_backend("shm")
    assert run(_tid, nprocs=2, transport="inproc").results
    assert _parked()

    def outer(comm):
        return run(_tid, nprocs=2, transport="inproc", timeout=5).results

    res = run(outer, nprocs=2, transport="shm", timeout=30)
    assert all(len(set(tids)) == 2 for tids in res.results), res.results
    assert run(_tid, nprocs=2, transport="shm", timeout=30).results
