"""How every blocking call ends, under every watcher.

Every place a rank blocks is ``Worker.park`` (``repro.ucp.context``), so
every blocking call must end the same way for the same reason: {rendezvous
send, recv, probe, mprobe, waitany, waitsome} x {pristine, ``faults={}``,
sanitizer, both} x {the peer answers, the peer returned without matching,
the plan crashed the peer, a fatal error elsewhere aborted the job, the ranks
wait for each other}.  An error must name its class and arrive in bounded
time — far inside the job's 30 s wall timeout; the rule each cell asserts is
the table in ``docs/faults.md``.
"""

import threading
import time

import numpy as np
import pytest

from repro.errors import (DeadlockError, ProcFailedError,
                          ProcFailedPendingError, RuntimeAbort,
                          TransportError)
from repro.mpi import ANY_SOURCE, Request, run

from ..conftest import require_transport_capability

RNDV = 1 << 16          # bytes: past the 32 KiB eager limit
TAG = 5
CRASH_AT = 1.0          # virtual seconds
BOUND = 2.0             # wall seconds an outcome may take
#: Kill the first message on the 0->1 channel; everything else flows.
FIRST_MSG_LOST = {"seed": 1, "drop": 1.0, "window": [0, 1],
                  "channels": [[0, 1]]}


# -- the six blocking calls: op(comm, peer, source) and the peer's answer ----

def _send(comm, peer, source):
    comm.send(np.ones(RNDV, np.uint8), peer, TAG)
    return RNDV


def _recv(comm, peer, source):
    buf = np.zeros(8, np.uint8)
    comm.recv(buf, source, TAG)
    return int(buf.sum())


def _probe(comm, peer, source):
    comm.probe(source, TAG)
    return _recv(comm, peer, source)


def _mprobe(comm, peer, source):
    handle, _ = comm.mprobe(source, TAG)
    buf = np.zeros(8, np.uint8)
    handle.mrecv(buf)
    return int(buf.sum())


def _waitany(comm, peer, source):
    buf = np.zeros(8, np.uint8)
    index, _ = Request.waitany([comm.irecv(buf, source, TAG)])
    return int(buf.sum()) + index


def _waitsome(comm, peer, source):
    buf = np.zeros(8, np.uint8)
    done = Request.waitsome([comm.irecv(buf, source, TAG)])
    return int(buf.sum()) + len(done) - 1


OPS = {"send": _send, "recv": _recv, "probe": _probe, "mprobe": _mprobe,
       "waitany": _waitany, "waitsome": _waitsome}


def _answer(comm, op, waiter):
    """What the peer does to complete ``op`` — late, so the waiter parks."""
    time.sleep(0.05)
    if op == "send":
        comm.recv(np.zeros(RNDV, np.uint8), waiter, TAG)
    else:
        comm.send(np.ones(8, np.uint8), waiter, TAG)


# -- the four watchers (every fabric has a failure detector) ------------------

MODES = {"pristine": {}, "faults": {"faults": {}},
         "sanitize": {"sanitize": True},
         "both": {"sanitize": True, "faults": {}}}


def _mode(mode, **faults):
    """``run`` keywords of ``mode``, with ``faults`` merged into its plan."""
    if "sanitize" in MODES[mode]:
        require_transport_capability("shared_address_space")
    kw = dict(MODES[mode])
    if faults:
        kw["faults"] = faults
    return kw


def _aborted(fn, nprocs, **kw):
    """Run a job that must abort inside ``BOUND``; the ``RuntimeAbort``."""
    start = time.monotonic()
    with pytest.raises(RuntimeAbort) as ei:
        run(fn, nprocs=nprocs, timeout=30, **kw)
    assert time.monotonic() - start < BOUND
    return ei.value


def _assert_deadlock(abort, ranks):
    for r in ranks:
        assert isinstance(abort.failures[r], DeadlockError)
    assert "RPD440" in [d.code for d in abort.sanitizer_report.diagnostics]


# -- the matrix ---------------------------------------------------------------

@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("op", OPS)
def test_peer_answers(op, mode):
    """The happy path parks and completes under every watcher."""
    def fn(comm):
        if comm.rank == 1:
            return OPS[op](comm, 0, 0)
        _answer(comm, op, 1)

    start = time.monotonic()
    res = run(fn, nprocs=2, timeout=30, **_mode(mode))
    assert time.monotonic() - start < BOUND
    assert res.results[1] == (RNDV if op == "send" else 8)
    if res.sanitizer_report is not None:
        assert res.sanitizer_report.diagnostics == []


@pytest.mark.parametrize("mode", ["pristine", "faults", "sanitize", "both"])
@pytest.mark.parametrize("op", OPS)
def test_peer_returned_without_matching(op, mode):
    def fn(comm):
        if comm.rank == 1:
            OPS[op](comm, 0, 0)

    abort = _aborted(fn, 2, **_mode(mode))
    if mode == "sanitize":
        _assert_deadlock(abort, [1])
    else:
        # The detector knows better than "deadlock": the peer is gone.
        assert type(abort.failures[1]) is ProcFailedError
        assert "finished without a matching operation" in str(
            abort.failures[1])


@pytest.mark.parametrize("mode", ["pristine", "faults"])
def test_a_deposit_racing_the_verdict_is_no_verdict(mode):
    """A peer that deposits and then finishes between the wait's last look
    at its wake and the detector's answer satisfied the wait: rank 0, whose
    own verdict has no grace, must look again before it raises "finished
    without a matching operation".  Rank 0's first question to the
    detector is held until rank 1 has sent and finished."""
    require_transport_capability("shared_address_space")
    asked = threading.Event()

    def hold_first_question(fabric):
        real = fabric.detector.check_hopeless

        def check_hopeless(targets, what, *args):
            if threading.current_thread().name == "mpi-rank-0" \
                    and not asked.is_set():
                asked.set()
                deadline = time.monotonic() + BOUND
                while real(targets, what, *args) is None:  # rank 1 runs
                    assert time.monotonic() < deadline
                    time.sleep(1e-3)
            return real(targets, what, *args)

        fabric.detector.check_hopeless = check_hopeless

    def fn(comm):
        if comm.rank == 1:
            assert asked.wait(BOUND)
            comm.send(np.ones(8, np.uint8), 0, TAG)
            return None
        buf = np.zeros(8, np.uint8)
        comm.recv(buf, 1, TAG)
        return int(buf.sum())

    res = run(fn, nprocs=2, timeout=30, fabric_hook=hold_first_question,
              **_mode(mode))
    assert asked.is_set()
    assert res.results[0] == 8


@pytest.mark.parametrize("mode", ["faults", "both"])
@pytest.mark.parametrize("source", [0, ANY_SOURCE], ids=["rank", "any"])
@pytest.mark.parametrize("op", OPS)
def test_peer_crashed_by_plan(op, source, mode):
    """A named source that crashed is a failure; a wildcard whose candidate
    crashed is *pending* — for a probe as for the receive it stands for."""
    if op == "send" and source == ANY_SOURCE:
        pytest.skip("a send has no wildcard")

    def fn(comm):
        if comm.rank == 1:
            OPS[op](comm, 0, source)
        else:
            comm.worker.clock.advance(2 * CRASH_AT)
            comm.send(np.ones(8, np.uint8), 1, TAG + 1)  # dies at the door

    abort = _aborted(fn, 2, **_mode(mode, crash={0: CRASH_AT}))
    expected = ProcFailedPendingError if source == ANY_SOURCE \
        else ProcFailedError
    assert type(abort.failures[1]) is expected
    assert abort.failures[1].failed_ranks == (0,)


@pytest.mark.parametrize("mode", ["pristine", "faults", "both"])
@pytest.mark.parametrize("op", OPS)
def test_fatal_abort_elsewhere(op, mode):
    """Rank 1's failed receive is a fatal error — the plan's lost message,
    or, with no plan, a truncation; rank 2, blocked on a rank that then
    finishes, reports the abort and not an error of its own."""
    lost = mode != "pristine"

    def fn(comm):
        if comm.rank == 0:
            comm.send(np.zeros(16, np.uint8), dest=1, tag=1)
        elif comm.rank == 1:
            comm.recv(np.zeros(16 if lost else 8, np.uint8), source=0, tag=1)
        else:
            OPS[op](comm, 0, 0)

    abort = _aborted(fn, 3, **(_mode(mode, **FIRST_MSG_LOST) if lost
                               else _mode(mode)))
    assert set(abort.failures) == {1, 2}
    assert type(abort.failures[2]) is ProcFailedError
    assert "aborted" in str(abort.failures[2])
    assert "rank 1" in str(abort.failures[2])


@pytest.mark.parametrize("mode", ["sanitize", "both"])
@pytest.mark.parametrize("op", OPS)
def test_wait_for_cycle(op, mode):
    """Head to head: only the sanitizer can tell (RPD440), and it does on
    a fault-injected job too."""
    def fn(comm):
        OPS[op](comm, 1 - comm.rank, 1 - comm.rank)

    _assert_deadlock(_aborted(fn, 2, **_mode(mode)), [0, 1])


# -- the deadline: all that ends a wait on a live peer that never answers -----

@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("op", ["send", "recv", "probe", "mprobe"])
def test_timeout_names_rank_wait_and_targets(op, mode):
    """The peer is alive, only late: no watcher has a verdict, the caller's
    own timeout ends the wait, and the one message says who waited on whom.
    (``waitany``/``waitsome`` take no timeout.)"""
    def fn(comm):
        if comm.rank == 0:
            time.sleep(0.3)
            return None
        try:
            if op == "send":
                comm.isend(np.ones(RNDV, np.uint8), 0, TAG).wait(timeout=0.05)
            elif op == "recv":
                comm.irecv(np.zeros(8, np.uint8), 0, TAG).wait(timeout=0.05)
            else:
                tag64, mask = comm._recv_pattern(0, TAG)
                comm.worker.tag_probe(tag64, mask, remove=op == "mprobe",
                                      block=True, timeout=0.05, peers=(0,))
        except TransportError as exc:
            return str(exc)

    message = run(fn, nprocs=2, timeout=30, **_mode(mode)).results[1]
    assert message.startswith(f"rank 1: {op}")
    assert "timed out waiting on rank(s) 0" in message
