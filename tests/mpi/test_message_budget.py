"""The per-message Python budget of one eager message, and its latch.

An eager derived message on the in-process fabric is CPU-bound: both
ranks share one core and the round trip is the Python the two sides run
(``docs/performance.md``, "One eager message: the per-message budget").
These tests count that work with ``sys.setprofile`` on a pristine job —
one send and its receive, in both arrival orders — and hold it to the
budget: at most :data:`MAX_CALLS` Python-level calls, exactly
:data:`LOCKS` lock acquisitions and no ``threading.Event``/``Condition``
built per message.  A custom message is held to a per-region budget the
same way: what one more region adds, in Python calls and locks.  They
also pin the contract of :class:`repro.ucp.wire.Latch`, the one-shot
event that replaced those.
"""

import gc
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import FLOAT64, Region
from repro.core.custom import type_create_custom
from repro.mpi import run
from repro.types.structs import STRUCT_SIMPLE, struct_simple_datatype
from repro.ucp.context import UcpConfig, UcpContext
from repro.ucp.faults import FaultPlan
from repro.ucp.transitions import select_protocol
from repro.ucp.wire import Latch

#: Python-level calls one send plus its receive may take.
MAX_CALLS = 78
#: Lock acquisitions of one send plus its receive, by kind and by whether
#: the receive is posted first: the sender's pool (acquire, release), the
#: matcher (once per side), every latch built unset (the message's
#: completion latch, and the posted receive's when it is posted first)
#: and, for a derived message only, the tracker (booked once by the
#: sender, reserved and released by the receiver).  A bound plan takes
#: no cache lock.
LOCKS = {"derived": {False: 8, True: 9}, "contig": {False: 5, True: 6}}
_SYNC_INITS = {threading.Event.__init__.__code__,
               threading.Condition.__init__.__code__}
_DECIDE = select_protocol.__code__
_LOCK_TYPES = (type(threading.Lock()), type(threading.RLock()))


def _message_cost(dtype, count, sbuf, rbuf, posted_first):
    """(python calls, Event/Condition constructions, protocol decisions,
    lock acquisitions) of one self-send and its receive, measured after
    warm-up on a 1-rank pristine job; a protocol decision is a
    ``select_protocol`` call, a lock acquisition a ``lock.acquire`` call or
    the exit of a ``with lock`` block."""
    def one(comm):
        if posted_first:
            rreq = comm.irecv(rbuf, 0, 5, datatype=dtype, count=count)
            comm.isend(sbuf, 0, 5, datatype=dtype, count=count).wait()
            rreq.wait()
        else:
            comm.isend(sbuf, 0, 5, datatype=dtype, count=count).wait()
            comm.recv(rbuf, 0, 5, datatype=dtype, count=count)

    return _profiled(one)


def _profiled(one):
    """The cost tuple of :func:`_message_cost` for ``one(comm)``."""
    out = {}

    def main(comm):
        for _ in range(3):
            one(comm)
        calls = sync_inits = decisions = locks = 0

        def profile(frame, event, arg):
            nonlocal calls, sync_inits, decisions, locks
            if event == "call" and frame.f_code is not one.__code__:
                calls += 1
                sync_inits += frame.f_code in _SYNC_INITS
                decisions += frame.f_code is _DECIDE
            elif event == "c_call" \
                    and isinstance(getattr(arg, "__self__", None),
                                   _LOCK_TYPES) \
                    and arg.__name__ in ("acquire", "__exit__"):
                locks += 1

        # Garbage left by earlier jobs (a socket plane's pipe connections)
        # must not be finalized inside the window: its ``__del__`` calls
        # are not the message's.
        gc.collect()
        gc.disable()
        sys.setprofile(profile)
        try:
            one(comm)
        finally:
            sys.setprofile(None)
            gc.enable()
        out["cost"] = calls, sync_inits, decisions, locks

    run(main, nprocs=1, transport="inproc")
    return out["cost"]


def _struct(count):
    sbuf = np.zeros(count, dtype=STRUCT_SIMPLE)
    sbuf["d"] = np.arange(count)
    return struct_simple_datatype(), count, sbuf, \
        np.zeros(count, dtype=STRUCT_SIMPLE)


CASES = {
    "struct20": lambda: _struct(1),
    "struct2k": lambda: _struct(128),
    "float64_2k": lambda: (FLOAT64, 256, np.arange(256.0), np.zeros(256)),
}


@pytest.mark.parametrize("posted_first", [False, True],
                         ids=["unexpected", "posted"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_one_eager_message_stays_in_budget(case, posted_first):
    dtype, count, sbuf, rbuf = CASES[case]()
    calls, sync_inits, decisions, locks = _message_cost(
        dtype, count, sbuf, rbuf, posted_first)
    assert sync_inits == 0, "an Event/Condition is built per message"
    assert calls <= MAX_CALLS, f"{calls} Python calls per message"
    # The protocol table is asked once, by ``plan_send``: the engine binds
    # every derived send the same way and leaves the choice to ucp.
    assert decisions == 1, f"{decisions} protocol decisions per message"
    kind = "contig" if dtype is FLOAT64 else "derived"
    assert locks == LOCKS[kind][posted_first], \
        f"{locks} lock acquisitions per message"
    np.testing.assert_array_equal(rbuf, sbuf)


#: Python calls one more region may add to a custom message, end to end —
#: its two ``Region`` constructions (the send and the receive callback)
#: included.
CALLS_PER_REGION = 5
#: Bytes per region of the region rows.
REGION_BYTES = 4096


def _region_message_cost(nregions):
    """:func:`_message_cost` of one custom self-send of ``nregions``
    4 KiB regions, nothing packed, the receive posted first (the send is
    rendezvous-like: its wait returns once the receive ran)."""
    nbytes = nregions * REGION_BYTES
    bounds = [(i * REGION_BYTES, (i + 1) * REGION_BYTES)
              for i in range(nregions)]

    def region_fn(state, buf, count, n):
        return [Region(buf[start:stop]) for start, stop in bounds]

    dtype = type_create_custom(lambda state, buf, count: 0,
                               region_count_fn=lambda s, b, c: nregions,
                               region_fn=region_fn)
    sbuf = np.arange(nbytes, dtype=np.int64).astype(np.uint8)
    rbuf = np.zeros(nbytes, dtype=np.uint8)

    def one(comm):
        rreq = comm.irecv(rbuf, 0, 5, datatype=dtype, count=1)
        sreq = comm.isend(sbuf, 0, 5, datatype=dtype, count=1)
        rreq.wait()
        sreq.wait()

    cost = _profiled(one)
    np.testing.assert_array_equal(rbuf, sbuf)
    return cost


def test_a_region_costs_a_slice_not_an_object_walk():
    """Going from 8 to 64 regions adds at most :data:`CALLS_PER_REGION`
    Python calls per region and no lock acquisition: a message gives back
    only the chunks a pool handed out, in one go, and the engine reads
    each region's byte view once."""
    calls8, sync8, decisions8, locks8 = _region_message_cost(8)
    calls64, sync64, decisions64, locks64 = _region_message_cost(64)
    assert sync8 == sync64 == 0, "an Event/Condition is built per message"
    assert decisions8 == decisions64 == 1
    per_region = (calls64 - calls8) / (64 - 8)
    assert per_region <= CALLS_PER_REGION, \
        f"{per_region:.1f} Python calls per region ({calls8} -> {calls64})"
    assert locks64 == locks8, \
        f"{locks8} -> {locks64} lock acquisitions from 8 to 64 regions"


# ---------------------------------------------------------------------------
# the latch
# ---------------------------------------------------------------------------

def _start(fn):
    t = threading.Thread(target=fn, daemon=True)
    t.start()
    return t


def _joined(t):
    t.join(timeout=10)
    return not t.is_alive()


class TestLatch:
    def test_set_before_wait(self):
        latch = Latch()
        assert not latch.is_set()
        latch.set()
        assert latch.is_set()
        assert latch.wait() and latch.wait(0) and latch.wait(0.01)

    def test_preset(self):
        latch = Latch(preset=True)
        assert latch.is_set() and latch.wait(0)
        latch.set()                      # idempotent
        assert latch.wait(timeout=0.01)

    def test_timed_out_wait_then_a_later_set_wakes(self):
        latch = Latch()
        t0 = time.monotonic()
        assert latch.wait(0.05) is False
        assert time.monotonic() - t0 >= 0.04
        assert latch.wait(0) is False and latch.wait(-1) is False
        woke = []
        t = _start(lambda: woke.append(latch.wait(10)))
        time.sleep(0.02)
        latch.set()
        assert _joined(t) and woke == [True]

    def test_racing_setters_release_once(self):
        """8 threads race to set each of many latches while waiters are
        parked on the first: exactly one ``set`` releases each lock (a
        second release raises), and the one release wakes every waiter."""
        latches = [Latch() for _ in range(2000)]
        barrier = threading.Barrier(8)
        errors, woke = [], []

        def setter():
            try:
                barrier.wait(timeout=10)
                for latch in latches:
                    latch.set()
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            waiters = [_start(lambda: woke.append(latches[0].wait(10)))
                       for _ in range(4)]
            setters = [_start(setter) for _ in range(8)]
            assert all(_joined(t) for t in setters + waiters)
        finally:
            sys.setswitchinterval(old)
        assert errors == [] and woke == [True] * 4
        assert all(latch.is_set() and latch.wait(0) for latch in latches)

    def test_two_waiters_both_released(self):
        latch = Latch()
        woke = []
        threads = [_start(lambda: woke.append(latch.wait(10)))
                   for _ in range(2)]
        time.sleep(0.02)
        assert woke == []
        latch.set()
        assert all(_joined(t) for t in threads) and woke == [True, True]

    @pytest.mark.parametrize("faults", [None, FaultPlan()],
                             ids=["pristine", "poll-loop"])
    def test_park_wakes_on_a_latch(self, faults):
        fabric = UcpContext(UcpConfig(faults=faults)).create_fabric(2)
        assert (fabric.injector is None) == (faults is None)
        latch = Latch()
        t = threading.Timer(0.05, latch.set)
        t.start()
        t0 = time.monotonic()
        fabric.worker(0).park(latch, (1,), "test wait", timeout=10)
        assert latch.is_set() and time.monotonic() - t0 < 5
        t.join(timeout=10)
