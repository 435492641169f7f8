"""Every exit and every landing of a derived message.

Every derived send carries a deferred source instead of packed bytes.  On
a pristine in-process rendezvous the receiver copies it into the same
layout, or builds the stream once for any other landing; an eager message
has it built into its staging chunk at injection.  These jobs run on the
active transport (``REPRO_TRANSPORT``), so the same answers are held on
inproc and on the remote planes, where a rendezvous source is built at
encode time.
"""

import numpy as np
import pytest

from repro.core import (FLOAT64, INT32, contiguous, create_struct,
                        pack_reference, required_span, unpack_reference,
                        vector)
from repro.errors import MPIError, RuntimeAbort, TruncationError
from repro.mpi import run
from repro.types import make_struct_simple, struct_simple_datatype
from tests.conftest import require_transport_capability

#: 2048 struct-simple elements pack to 40 KiB, over the 32 KiB eager limit.
RNDV = 2048
#: 128 elements pack to 2.5 KiB: eager unless forced.
EAGER = 128


def _books(comm):
    snap = comm.memory.snapshot()
    return snap["pool"]["outstanding"], snap["live_bytes"]


def _closed(res):
    """Every rank's pool and tracker balanced at job end."""
    for snap in res.memory:
        assert snap["pool"]["outstanding"] == 0, snap
        assert snap["live_bytes"] == 0, snap


def test_cancel_of_an_unmatched_deferred_isend():
    require_transport_capability("cancel")
    dtype = struct_simple_datatype()

    def main(comm):
        if comm.rank == 1:
            return None
        req = comm.isend(make_struct_simple(RNDV), 1, 9, datatype=dtype,
                         count=RNDV)
        assert req.cancel()
        assert req.wait().cancelled
        assert _books(comm) == (0, 0)
        return str(req._req.msg.error)

    res = run(main, nprocs=2, timeout=30)
    assert res.results[0] == "send cancelled"
    _closed(res)


def test_cancel_of_an_unmatched_eager_isend():
    """Until the cancel, the message holds the one staging chunk its source
    was built into; the booked temp left the books at injection."""
    require_transport_capability("cancel")
    dtype = struct_simple_datatype()

    def main(comm):
        if comm.rank == 1:
            return None
        req = comm.isend(make_struct_simple(EAGER), 1, 9, datatype=dtype,
                         count=EAGER)
        assert _books(comm) == (1, 0)
        assert req.cancel()
        assert req.wait().cancelled
        assert _books(comm) == (0, 0)
        return str(req._req.msg.error)

    res = run(main, nprocs=2, timeout=30)
    assert res.results[0] == "send cancelled"
    _closed(res)


def test_truncation_fails_both_sides_and_leaks_nothing():
    dtype = struct_simple_datatype()

    def main(comm):
        buf = make_struct_simple(RNDV)
        try:
            if comm.rank == 0:
                comm.send(buf, 1, 3, datatype=dtype, count=RNDV)
            else:
                comm.recv(buf, 0, 3, datatype=dtype, count=RNDV // 2)
        except TruncationError as exc:
            return str(exc)
        return None

    res = run(main, nprocs=2, timeout=30)
    assert res.results[0] == res.results[1]
    assert "the receive takes at most 20480" in res.results[1]
    _closed(res)


def test_mprobe_and_mrecv_into_the_same_type():
    dtype = struct_simple_datatype()

    def main(comm):
        buf = make_struct_simple(RNDV)
        if comm.rank == 0:
            comm.send(buf, 1, 4, datatype=dtype, count=RNDV)
            return None
        buf[:] = 0
        msg, status = comm.mprobe(0, 4)
        assert status.nbytes == 20 * RNDV
        msg.mrecv(buf, datatype=dtype, count=RNDV)
        return buf

    res = run(main, nprocs=2, timeout=30)
    assert np.array_equal(res.results[1], make_struct_simple(RNDV))
    _closed(res)


def _seeded(nbytes, seed):
    return np.random.default_rng(seed).integers(0, 256, nbytes,
                                                dtype=np.uint8)


@pytest.mark.parametrize("direction", ["vector->contiguous",
                                       "contiguous->vector",
                                       "vector->vector3"])
def test_a_different_layout_with_the_same_signature(direction):
    """vector(16,1,2), contiguous(16) and vector(16,1,3) all carry 16
    doubles an element: the bytes that arrive are the sender's packed
    stream, scattered by the receiver's layout, exactly as the reference
    engine does it."""
    types = {"vector": vector(16, 1, 2, FLOAT64).commit(),
             "contiguous": contiguous(16, FLOAT64).commit(),
             "vector3": vector(16, 1, 3, FLOAT64).commit()}
    send_t, recv_t = (types[n] for n in direction.split("->"))
    count = 512  # 64 KiB on the wire
    src = _seeded(required_span(send_t, count), 1)
    fill = _seeded(required_span(recv_t, count), 2)

    def main(comm):
        if comm.rank == 0:
            comm.send(src, 1, 5, datatype=send_t, count=count)
            return None
        out = fill.copy()
        comm.recv(out, 0, 5, datatype=recv_t, count=count)
        return out

    res = run(main, nprocs=2, timeout=30)
    want = fill.copy()
    unpack_reference(recv_t, want, count, pack_reference(send_t, src, count))
    assert np.array_equal(res.results[1], want)
    _closed(res)


@pytest.mark.parametrize("direction", ["derived->contiguous",
                                       "contiguous->derived"])
def test_derived_and_contiguous_meet(direction):
    dtype = struct_simple_datatype()
    packed = pack_reference(dtype, make_struct_simple(RNDV), RNDV)

    def main(comm):
        if direction == "derived->contiguous":
            if comm.rank == 0:
                comm.send(make_struct_simple(RNDV), 1, 6, datatype=dtype,
                          count=RNDV)
                return None
            out = np.zeros(packed.shape[0], dtype=np.uint8)
            comm.recv(out, 0, 6)
            return out.tobytes()
        if comm.rank == 0:
            comm.send(packed, 1, 6)
            return None
        out = make_struct_simple(RNDV)
        out[:] = 0
        comm.recv(out, 0, 6, datatype=dtype, count=RNDV)
        return out.tobytes()

    res = run(main, nprocs=2, timeout=30)
    if direction == "derived->contiguous":
        assert res.results[1] == packed.tobytes()
    else:
        assert res.results[1] == make_struct_simple(RNDV).tobytes()
    _closed(res)


def _eager_types():
    """name -> (datatype, count): 1 KiB to 2.5 KiB on the wire, all eager."""
    return {"struct": (struct_simple_datatype(), EAGER),
            "vector": (vector(16, 1, 2, FLOAT64).commit(), 8),
            "vector3": (vector(16, 1, 3, FLOAT64).commit(), 8),
            "bytes": (None, 1024)}


@pytest.mark.parametrize("direction", ["struct->struct", "vector->vector3",
                                       "struct->bytes"],
                         ids=["same-layout", "different-layout",
                              "contiguous"])
def test_an_eager_message_lands_like_the_reference(direction):
    """Same layout, another layout with the same signature, or a plain
    byte buffer: what lands is the reference engine's answer, gap bytes
    untouched, and both ranks' books close."""
    types = _eager_types()
    (send_t, count), (recv_t, _) = (types[n] for n in direction.split("->"))
    src = _seeded(required_span(send_t, count), 4)
    packed = pack_reference(send_t, src, count)
    if recv_t is None:
        want = packed
        fill = np.zeros(packed.shape[0], dtype=np.uint8)
        kw = {}
    else:
        fill = _seeded(required_span(recv_t, count), 5)
        want = fill.copy()
        unpack_reference(recv_t, want, count, packed)
        kw = {"datatype": recv_t, "count": count}

    def main(comm):
        if comm.rank == 0:
            comm.send(src, 1, 10, datatype=send_t, count=count)
            return None
        out = fill.copy()
        comm.recv(out, 0, 10, **kw)
        return out

    res = run(main, nprocs=2, timeout=30, trace_messages=True)
    assert res.traces[0][0]["protocol"] == "eager"
    assert np.array_equal(res.results[1], want)
    _closed(res)


def test_ssend_below_the_eager_limit_is_forced_onto_rendezvous():
    dtype = struct_simple_datatype()

    def main(comm):
        buf = make_struct_simple(EAGER)
        if comm.rank == 0:
            comm.ssend(buf, 1, 7, datatype=dtype, count=EAGER)
            return None
        buf[:] = 0
        comm.recv(buf, 0, 7, datatype=dtype, count=EAGER)
        return buf

    res = run(main, nprocs=2, timeout=30, trace_messages=True)
    assert res.traces[0][0]["protocol"] == "rndv"
    assert np.array_equal(res.results[1], make_struct_simple(EAGER))
    _closed(res)


def test_gap_bytes_of_the_receive_buffer_are_untouched():
    """struct-simple has a 4-byte hole per element: the receiver's bytes
    there keep whatever they held."""
    dtype = struct_simple_datatype()
    src = make_struct_simple(RNDV)
    fill = _seeded(src.nbytes, 3)

    def main(comm):
        if comm.rank == 0:
            comm.send(src, 1, 8, datatype=dtype, count=RNDV)
            return None
        out = fill.copy()
        comm.recv(out, 0, 8, datatype=dtype, count=RNDV)
        return out

    res = run(main, nprocs=2, timeout=30)
    want = fill.copy()
    unpack_reference(dtype, want, RNDV, pack_reference(dtype, src, RNDV))
    assert np.array_equal(res.results[1], want)
    assert not np.array_equal(want, src.view(np.uint8))  # holes differ


def test_a_negative_lb_type_fails_on_the_sender():
    """The checks of a deferred send run at injection, with the texts an
    eager send raises."""
    neg = create_struct([1, 1], [-8, 0], [INT32, INT32]).commit()
    count = 8192  # 64 KiB: rendezvous
    struct = struct_simple_datatype()

    def main(comm):
        if comm.rank == 1:
            return None
        out = []
        for n in (count, 4):  # rendezvous, eager
            try:
                comm.send(np.zeros(12 * n, dtype=np.uint8), 1, 2,
                          datatype=neg, count=n)
            except MPIError as exc:
                out.append(str(exc))
            assert _books(comm) == (0, 0)
        try:
            comm.send(np.zeros(16, dtype=np.uint8), 1, 2, datatype=struct,
                      count=RNDV)
        except MPIError as exc:
            out.append(str(exc))
        assert _books(comm) == (0, 0)
        return out

    res = run(main, nprocs=2, timeout=30)
    assert len(res.results[0]) == 3
    assert "negative displacements are not supported" in res.results[0][0]
    assert res.results[0][0] == res.results[0][1]
    need = required_span(struct, RNDV)
    assert f"send buffer too small: need {need} bytes, have 16" \
        in res.results[0][2]


def test_sanitizer_still_sees_the_sender_touch_its_buffer():
    """A deferred send is read by the receiver's copy, so writing the send
    buffer before ``wait`` changes what arrives; the sanitizer reports it:
    RPD401 for a plain write, RPD400 for an overlapping receive."""
    require_transport_capability("shared_address_space")
    dtype = struct_simple_datatype()

    def main(comm):
        buf = make_struct_simple(RNDV)
        if comm.rank == 0:
            req = comm.isend(buf, 1, 1, datatype=dtype, count=RNDV)
            buf["d"] += 1.0
            rreq = comm.irecv(buf, 1, 2, datatype=dtype, count=RNDV)
            req.wait()
            rreq.wait()
        else:
            comm.recv(buf, 0, 1, datatype=dtype, count=RNDV)
            comm.send(buf, 0, 2, datatype=dtype, count=RNDV)

    try:
        report = run(main, nprocs=2, sanitize=True,
                     timeout=30).sanitizer_report
    except RuntimeAbort as exc:
        report = exc.sanitizer_report
    assert {"RPD400", "RPD401"} <= set(report.codes())


def test_concurrent_receivers_build_into_one_senders_pool():
    """Every rank sends to every other at once, each message twice: once
    into the sender's own layout (a copy) and once into a byte buffer,
    which builds the source into the *sender's* pool on the receiving
    thread — three receivers at a time per pool on inproc.  More ranks
    than cores and a short switch interval; every payload must arrive and
    every pool must balance."""
    import sys

    dtype = struct_simple_datatype()
    nprocs, rounds = 4, 5
    packed = pack_reference(dtype, make_struct_simple(RNDV), RNDV)

    def main(comm):
        src = make_struct_simple(RNDV)
        peers = [r for r in range(nprocs) if r != comm.rank]
        for _ in range(rounds):
            reqs = []
            for p in peers:
                reqs.append(comm.isend(src, p, 1, datatype=dtype, count=RNDV))
                reqs.append(comm.isend(src, p, 2, datatype=dtype, count=RNDV))
            for p in peers:
                same = make_struct_simple(RNDV)
                same[:] = 0
                raw = np.zeros(packed.shape[0], dtype=np.uint8)
                comm.recv(same, p, 1, datatype=dtype, count=RNDV)
                comm.recv(raw, p, 2)
                assert np.array_equal(same, src)
                assert np.array_equal(raw, packed)
            for r in reqs:
                r.wait()
        return "ok"

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        res = run(main, nprocs=nprocs, timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert res.results == ["ok"] * nprocs
    _closed(res)
