"""Wire format tests."""

import numpy as np
import pytest

from repro.core import FLOAT64
from repro.core.derived import vector
from repro.core.packing import pack
from repro.ucp.memory import BufferPool
from repro.ucp.wire import WireHeader, WireMessage, copy_chunks


def make_msg(rndv=False, send_ready=1.0, wire_time=0.5):
    hdr = WireHeader(tag=1, source=0, total_bytes=4, entry_lengths=(4,))
    return WireMessage(hdr, [np.zeros(4, np.uint8)], send_ready=send_ready,
                       wire_time=wire_time, rndv=rndv, recv_cost=0.0)


class TestWireHeader:
    def test_msg_ids_unique_and_increasing(self):
        a, b = WireHeader(1, 0, 0), WireHeader(1, 0, 0)
        assert b.msg_id > a.msg_id

    def test_defaults(self):
        h = WireHeader(tag=5, source=2, total_bytes=10)
        assert h.entry_lengths == ()
        assert h.packed_entries == 0
        assert h.protocol == "eager"


class TestDeliveryTime:
    def test_eager_ignores_receiver(self):
        m = make_msg(rndv=False)
        assert m.delivery_time(recv_ready=0.0) == pytest.approx(1.5)
        assert m.delivery_time(recv_ready=100.0) == pytest.approx(1.5)

    def test_rndv_waits_for_both_sides(self):
        m = make_msg(rndv=True)
        assert m.delivery_time(recv_ready=0.0) == pytest.approx(1.5)
        assert m.delivery_time(recv_ready=3.0) == pytest.approx(3.5)


class TestCompletion:
    def test_mark_complete(self):
        m = make_msg()
        assert not m.completed.is_set()
        m.mark_complete(2.0)
        assert m.completed.is_set()
        assert m.completion_time == 2.0
        assert m.error is None

    def test_mark_failed_releases_with_error(self):
        m = make_msg(rndv=True)
        exc = RuntimeError("boom")
        m.mark_failed(2.0, exc)
        assert m.completed.is_set()
        assert m.error is exc


class TestCopyChunks:
    def test_copies_are_private(self):
        src = np.full(8, 1, np.uint8)
        pool = BufferPool()
        (copy,) = copy_chunks([src], pool)
        src[:] = 2
        assert (copy == 1).all()
        assert pool.release(copy)

    def test_empty(self):
        assert copy_chunks([], BufferPool()) == []

    def test_deferred_source_is_built_into_the_pool(self):
        """A bound packed stream is packed once, straight into a pool
        chunk that the message then owns."""
        dtype = vector(4, 1, 2, FLOAT64)
        buf = np.arange(8.0)
        pool = BufferPool()
        (chunk,) = copy_chunks([pack(dtype, buf, 1, deferred=True)], pool)
        np.testing.assert_array_equal(chunk, pack(dtype, buf, 1))
        assert pool.snapshot()["outstanding"] == 1
        assert pool.release(chunk)
