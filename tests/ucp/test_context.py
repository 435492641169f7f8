"""Transport end-to-end tests: workers, endpoints, delivery, timing."""

import threading

import numpy as np
import pytest

from repro.errors import TransportError, TruncationError
from repro.ucp import (DATATYPE_CONTIG, CallbackData, ContigData, IovData,
                       UcpConfig, UcpContext, pack_tag)
from repro.ucp.netsim import LinkParams


def make_pair(params=None):
    config = UcpConfig(params=params) if params else UcpConfig()
    fab = UcpContext(config).create_fabric(2)
    return fab.workers


def xfer(send_fn, recv_fn, timeout=10):
    """Run sender and receiver concurrently; re-raise failures."""
    errors = []

    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException as e:  # pragma: no cover - surfaced below
                errors.append(e)
        return run

    ts = [threading.Thread(target=wrap(send_fn), daemon=True),
          threading.Thread(target=wrap(recv_fn), daemon=True)]
    for t in ts:
        t.start()
    for t in ts:
        t.join(timeout=timeout)
        assert not t.is_alive(), "transfer deadlocked"
    if errors:
        raise errors[0]


TAG = pack_tag(0, 0, 1)


class TestContigTransfer:
    @pytest.mark.parametrize("n", [0, 1, 100, 32 * 1024, 100_000])
    def test_roundtrip(self, n):
        w0, w1 = make_pair()
        src = np.arange(n, dtype=np.uint8) if n else np.zeros(0, np.uint8)
        dst = np.zeros(n, np.uint8)

        xfer(lambda: w0.endpoint(1).tag_send(TAG, ContigData(src)).wait(),
             lambda: w1.tag_recv(TAG, ContigData(dst, writable=True)).wait())
        assert np.array_equal(src, dst)

    def test_eager_sender_can_reuse_buffer(self):
        w0, w1 = make_pair()
        src = np.full(64, 7, np.uint8)
        req = w0.endpoint(1).tag_send(TAG, ContigData(src))
        assert req.test()  # eager completes locally
        src[:] = 99  # reuse before the receiver shows up
        dst = np.zeros(64, np.uint8)
        w1.tag_recv(TAG, ContigData(dst, writable=True)).wait()
        assert (dst == 7).all()  # the wire copy was taken at injection

    def test_rndv_send_blocks_until_receiver(self):
        w0, w1 = make_pair()
        n = 100_000  # > eager limit
        src = np.full(n, 3, np.uint8)
        req = w0.endpoint(1).tag_send(TAG, ContigData(src))
        assert not req.test()
        dst = np.zeros(n, np.uint8)
        w1.tag_recv(TAG, ContigData(dst, writable=True)).wait()
        req.wait()
        assert req.test()
        assert (dst == 3).all()

    def test_rndv_wait_timeout(self):
        w0, _ = make_pair()
        req = w0.endpoint(1).tag_send(TAG, ContigData(np.zeros(100_000, np.uint8)))
        with pytest.raises(TransportError):
            req.wait(timeout=0.05)

    def test_shorter_message_into_larger_buffer_ok(self):
        w0, w1 = make_pair()
        src = np.full(10, 5, np.uint8)
        dst = np.zeros(100, np.uint8)
        xfer(lambda: w0.endpoint(1).tag_send(TAG, ContigData(src)).wait(),
             lambda: w1.tag_recv(TAG, ContigData(dst, writable=True)).wait())
        assert (dst[:10] == 5).all() and (dst[10:] == 0).all()

    def test_readonly_recv_rejected(self):
        _, w1 = make_pair()
        buf = np.zeros(8, np.uint8)
        buf.flags.writeable = False
        with pytest.raises(TransportError):
            ContigData(buf, writable=True)


class TestIovTransfer:
    def test_scatter_gather(self):
        w0, w1 = make_pair()
        parts = [np.arange(n, dtype=np.uint8) for n in (5, 0, 17, 256)]
        dsts = [np.zeros(n, np.uint8) for n in (5, 0, 17, 256)]
        xfer(lambda: w0.endpoint(1).tag_send(
                TAG, IovData(parts, packed_entries=1)).wait(),
             lambda: w1.tag_recv(TAG, IovData(dsts, writable=True)).wait())
        for p, d in zip(parts, dsts):
            assert np.array_equal(p, d)

    def test_header_reports_framing(self):
        w0, w1 = make_pair()
        parts = [np.zeros(3, np.uint8), np.zeros(9, np.uint8)]
        info_holder = []

        def recv():
            dsts = [np.zeros(3, np.uint8), np.zeros(9, np.uint8)]
            info_holder.append(
                w1.tag_recv(TAG, IovData(dsts, writable=True)).wait())

        xfer(lambda: w0.endpoint(1).tag_send(
                TAG, IovData(parts, packed_entries=1)).wait(), recv)
        info = info_holder[0]
        assert info.entry_lengths == (3, 9)
        assert info.packed_entries == 1
        assert info.nbytes == 12

    def test_bad_packed_entries(self):
        with pytest.raises(TransportError):
            IovData([np.zeros(1, np.uint8)], packed_entries=2)


class TestHandlerTransfer:
    def test_handler_runs_on_receiver(self):
        w0, w1 = make_pair()
        seen = {}

        def handler(msg):
            seen["chunks"] = [c.copy() for c in msg.chunks]
            seen["thread"] = threading.current_thread().name

        def recv():
            threading.current_thread().name = "receiver-thread"
            w1.tag_recv(TAG, CallbackData(handler)).wait()

        xfer(lambda: w0.endpoint(1).tag_send(
                TAG, IovData([np.full(4, 9, np.uint8)])).wait(), recv)
        assert (seen["chunks"][0] == 9).all()
        assert seen["thread"] == "receiver-thread"


#: One receive of every kind taking at most ``cap`` bytes; ``landed``
#: collects whatever its landing callback was handed.
RECEIVES = {
    "contig": lambda cap, landed: ContigData(np.zeros(cap, np.uint8),
                                             writable=True),
    "iov": lambda cap, landed: IovData(
        [np.zeros(cap - cap // 2, np.uint8), np.zeros(cap // 2, np.uint8)],
        writable=True),
    "derived": lambda cap, landed: CallbackData(landed.append, cap,
                                                DATATYPE_CONTIG),
    "custom": lambda cap, landed: CallbackData(landed.append, cap),
}


class TestTruncation:
    """One capacity check at delivery, the same for every receive kind."""

    @staticmethod
    def _refused(w0, w1, send_desc, recv_desc, rndv):
        """Send, then receive into a too-small descriptor: the receive
        raises, a rendezvous sender fails with the same error, and both
        pools are balanced."""
        sreq = w0.endpoint(1).tag_send(TAG, send_desc, force_rndv=rndv)
        with pytest.raises(TruncationError) as exc:
            w1.tag_recv(TAG, recv_desc).wait()
        if sreq.msg.rndv:
            with pytest.raises(TruncationError) as sent:
                sreq.wait()
            assert sent.value is exc.value
        else:
            sreq.wait()
        assert [w.memory.pool.snapshot()["outstanding"]
                for w in (w0, w1)] == [0, 0]
        return exc.value

    @pytest.mark.parametrize("rndv", [False, True], ids=["eager", "rndv"])
    @pytest.mark.parametrize("kind", sorted(RECEIVES))
    def test_oversize_message_is_refused(self, kind, rndv):
        w0, w1 = make_pair()
        landed = []
        self._refused(w0, w1, ContigData(np.arange(100, dtype=np.uint8)),
                      RECEIVES[kind](50, landed), rndv)
        assert landed == []

    @pytest.mark.parametrize("sizes,entries", [((4, 4), (8,)),
                                               ((8, 4), (4, 8))],
                             ids=["entry-count", "entry-too-long"])
    def test_iov_entries_must_line_up(self, sizes, entries):
        """Within its capacity an IOV receive still checks entry by entry."""
        w0, w1 = make_pair()
        self._refused(
            w0, w1, IovData([np.zeros(n, np.uint8) for n in sizes]),
            IovData([np.zeros(n, np.uint8) for n in entries], writable=True),
            rndv=True)

    def test_error_names_the_message(self):
        w0, w1 = make_pair()
        err = self._refused(w0, w1, ContigData(np.zeros(100, np.uint8)),
                            RECEIVES["contig"](50, []), rndv=False)
        assert str(err) == (
            f"MPI_ERR_TRUNCATE: rank 1: message {(1 << 40) | 1} from rank 0 "
            f"(tag 1) is 100 bytes, the receive takes at most 50")


class TestVirtualTime:
    def test_clocks_advance(self):
        w0, w1 = make_pair()
        src, dst = np.zeros(1000, np.uint8), np.zeros(1000, np.uint8)
        xfer(lambda: w0.endpoint(1).tag_send(TAG, ContigData(src)).wait(),
             lambda: w1.tag_recv(TAG, ContigData(dst, writable=True)).wait())
        assert w0.clock.now > 0
        assert w1.clock.now > w0.clock.now * 0.5  # receiver saw delivery

    def test_receiver_not_before_arrival(self):
        params = LinkParams(latency=1e-3)  # huge latency
        w0, w1 = make_pair(params)
        src, dst = np.zeros(8, np.uint8), np.zeros(8, np.uint8)
        xfer(lambda: w0.endpoint(1).tag_send(TAG, ContigData(src)).wait(),
             lambda: w1.tag_recv(TAG, ContigData(dst, writable=True)).wait())
        assert w1.clock.now >= 1e-3

    def test_probe_charges_time(self):
        _, w1 = make_pair()
        before = w1.clock.now
        w1.tag_probe(TAG)
        assert w1.clock.now > before


class TestMemoryTracker:
    def test_allocation_accounting(self):
        w0, _ = make_pair()
        buf = w0.memory.allocate(1000, w0.clock, w0.model)
        snap = w0.memory.snapshot()
        assert snap["live_bytes"] == 1000
        assert snap["peak_bytes"] == 1000
        assert snap["allocation_count"] == 1
        w0.memory.release(buf)
        assert w0.memory.snapshot()["live_bytes"] == 0

    def test_peak_tracks_maximum(self):
        w0, _ = make_pair()
        a = w0.memory.allocate(100)
        b = w0.memory.allocate(200)
        w0.memory.release(a)
        c = w0.memory.allocate(50)
        assert w0.memory.snapshot()["peak_bytes"] == 300

    def test_negative_alloc_rejected(self):
        w0, _ = make_pair()
        with pytest.raises(ValueError):
            w0.memory.allocate(-1)
