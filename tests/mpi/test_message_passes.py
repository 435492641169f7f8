"""How many times a derived message's payload is passed over — a count,
not a time.

The plan kernels are the three :class:`repro.core.planir.IRExecutor`
methods: ``pack`` (layout to stream), ``unpack`` (stream to layout) and
``copy`` (layout to layout).  A pristine in-process rendezvous runs one
``copy`` and takes nothing from either rank's pool; wherever the packed
stream has to exist — the socket and shared-memory planes, a
fault-injected fabric, the staging chunk of an eager message — the message
still packs once, into one buffer of the sender's pool, and unpacks once.
"""

import os
from collections import Counter

import numpy as np
import pytest

from repro.core.planir import IRExecutor
from repro.mpi import run
from repro.types import make_struct_simple, struct_simple_datatype
from tests.transport.conftest import require_backend

#: 2048 struct-simple elements pack to 40 KiB: above the 32 KiB eager
#: limit, so the message goes rendezvous.
COUNT = 2048
#: 102 elements pack to 2040 bytes: an eager message.
EAGER_COUNT = 102

_KERNELS = ("pack", "unpack", "copy")
#: Kernel calls of this process, by pid (shm ranks are forked processes).
_calls: Counter = Counter()


@pytest.fixture
def counted(monkeypatch):
    """Count the plan-kernel calls made while the test runs."""
    _calls.clear()
    for name in _KERNELS:
        kernel = getattr(IRExecutor, name)

        def wrapper(self, *args, _name=name, _kernel=kernel):
            _calls[os.getpid(), _name] += 1
            return _kernel(self, *args)

        monkeypatch.setattr(IRExecutor, name, wrapper)
    return _calls


def _one_message(transport, faults=None, count=COUNT):
    """One message rank 0 -> 1 (rendezvous unless ``count`` is
    ``EAGER_COUNT``); returns (kernel calls per name over both ranks, pool
    acquisitions per rank)."""
    dtype = struct_simple_datatype()

    def main(comm):
        buf = make_struct_simple(count)
        if comm.rank == 0:
            comm.send(buf, 1, 7, datatype=dtype, count=count)
        else:
            buf[:] = 0
            comm.recv(buf, 0, 7, datatype=dtype, count=count)
            assert np.array_equal(buf, make_struct_simple(count))
        # Both sides are done here: a rendezvous send returns only after
        # the receiver's delivery, and the receive after its landing.
        return os.getpid(), dict(_calls)

    res = run(main, nprocs=2, transport=transport, faults=faults,
              trace_messages=True)
    assert res.traces[0][0]["protocol"] == (
        "eager" if count == EAGER_COUNT else "rndv")
    # Threaded backends share one counter; forked ranks each bring theirs.
    per_process = {pid: calls for pid, calls in res.results}
    total = Counter()
    for calls in per_process.values():
        for (pid, name), n in calls.items():
            total[name] += n
    acquires = [m["pool"]["hits"] + m["pool"]["misses"] for m in res.memory]
    return {name: total[name] for name in _KERNELS}, acquires


def test_inproc_rendezvous_is_one_copy_and_no_acquire(counted):
    kernels, acquires = _one_message("inproc")
    assert kernels == {"pack": 0, "unpack": 0, "copy": 1}
    assert acquires == [0, 0]


@pytest.mark.parametrize("transport", ["shm", "asyncio"])
def test_remote_planes_pack_once_and_unpack_once(counted, transport):
    require_backend(transport)
    kernels, acquires = _one_message(transport)
    assert kernels == {"pack": 1, "unpack": 1, "copy": 0}
    assert acquires == [1, 0]


@pytest.mark.parametrize("transport", ["inproc", "shm", "asyncio"])
def test_fault_injected_fabric_packs_once_and_unpacks_once(counted,
                                                           transport):
    require_backend(transport)
    kernels, acquires = _one_message(transport, faults={})
    assert kernels == {"pack": 1, "unpack": 1, "copy": 0}
    assert acquires == [1, 0]


@pytest.mark.parametrize("faults", [None, {}], ids=["pristine", "faults"])
@pytest.mark.parametrize("transport", ["inproc", "shm", "asyncio"])
def test_eager_packs_once_into_its_staging_chunk(counted, transport,
                                                  faults):
    """The engine only binds; ``copy_chunks`` builds the packed stream
    straight into the one staging chunk, which the receiver unpacks."""
    require_backend(transport)
    kernels, acquires = _one_message(transport, faults, EAGER_COUNT)
    assert kernels == {"pack": 1, "unpack": 1, "copy": 0}
    assert acquires == [1, 0]
