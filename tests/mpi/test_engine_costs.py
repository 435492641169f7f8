"""Virtual-time behaviour of the transfer engine.

These tests pin the cost-model effects each paper figure relies on, at the
engine level (no bench harness involved).
"""

import numpy as np
import pytest

from repro.core import (BYTE, INT32, create_struct, resized,
                        type_create_custom)
from repro.core.regions import Region
from repro.mpi import EngineConfig, run
from repro.types import (STRUCT_SIMPLE, make_struct_simple,
                         struct_simple_datatype)
from repro.ucp.netsim import DEFAULT_PARAMS

from ..conftest import require_transport_capability


def one_way_time(send_fn, recv_fn, params=None, engine_config=None):
    """Virtual time on the receiving rank after one message."""

    def s(comm):
        send_fn(comm)

    def r(comm):
        recv_fn(comm)
        return comm.clock.now

    res = run([s, r], nprocs=2, params=params, engine_config=engine_config)
    return res.results[1]


def contig_time(nbytes, params=None):
    return one_way_time(
        lambda c: c.send(np.zeros(nbytes, np.uint8), dest=1),
        lambda c: c.recv(np.zeros(nbytes, np.uint8), source=0),
        params=params)


class TestProtocolEffects:
    def test_latency_floor(self):
        t = contig_time(1)
        assert t >= DEFAULT_PARAMS.latency

    def test_rendezvous_dip(self):
        """Crossing the eager limit costs more time (the Fig. 7 dip)."""
        lim = DEFAULT_PARAMS.eager_limit
        below = contig_time(lim)
        above = contig_time(lim + 64)
        assert above > below + DEFAULT_PARAMS.rndv_handshake * 0.5

    def test_larger_messages_take_longer(self):
        assert contig_time(1 << 20) > contig_time(1 << 10)

    def test_eager_limit_override(self):
        params = DEFAULT_PARAMS.with_overrides(eager_limit=1 << 30)
        lim = DEFAULT_PARAMS.eager_limit
        smooth = (one_way_time(
            lambda c: c.send(np.zeros(lim + 64, np.uint8), dest=1),
            lambda c: c.recv(np.zeros(lim + 64, np.uint8), source=0),
            params=params))
        dipped = contig_time(lim + 64)
        assert smooth < dipped


def region_type(nregions, region_bytes):
    """Custom type exposing ``nregions`` regions and no packed data."""
    payload = [np.zeros(region_bytes, np.uint8) for _ in range(nregions)]

    def query_fn(state, buf, count):
        return 0

    def region_count_fn(state, buf, count):
        return nregions

    def region_fn(state, buf, count, n):
        return [Region(p) for p in payload]

    return type_create_custom(query_fn=query_fn,
                              region_count_fn=region_count_fn,
                              region_fn=region_fn)


class TestIovEffects:
    def _time(self, nregions, region_bytes):
        ts = region_type(nregions, region_bytes)
        tr = region_type(nregions, region_bytes)
        return one_way_time(
            lambda c: c.send(object(), dest=1, datatype=ts),
            lambda c: c.recv(object(), source=0, datatype=tr))

    def test_many_small_regions_cost_more(self):
        """Same bytes, more entries -> more time (NAS_MG_x vs NAS_MG_y)."""
        few = self._time(8, 8192)
        many = self._time(1024, 64)
        assert many > few

    def test_iov_no_eager_rndv_discontinuity(self):
        lim = DEFAULT_PARAMS.eager_limit
        below = self._time(4, lim // 4 - 64)
        above = self._time(4, lim // 4 + 64)
        # Far smaller jump than the handshake the contiguous path pays.
        assert above - below < DEFAULT_PARAMS.rndv_handshake / 2


class TestGapPenalty:
    def test_derived_gapped_slower_than_custom_bytes(self):
        """The Open MPI gap penalty of Fig. 5, at the engine level."""
        count = 4096
        t = struct_simple_datatype()
        arr = make_struct_simple(count)

        derived = one_way_time(
            lambda c: c.send(arr, dest=1, datatype=t, count=count),
            lambda c: c.recv(np.zeros(count, STRUCT_SIMPLE), source=0,
                             datatype=t, count=count))
        raw = contig_time(count * 20)
        assert derived > raw * 1.5

    def test_contiguous_derived_takes_fast_path(self):
        """A gap-free derived type costs the same as raw bytes (Fig. 6)."""
        from repro.core import contiguous
        t = contiguous(1024, INT32)
        fast = one_way_time(
            lambda c: c.send(np.zeros(1024, np.int32), dest=1, datatype=t,
                             count=1),
            lambda c: c.recv(np.zeros(1024, np.int32), source=0, datatype=t,
                             count=1))
        raw = contig_time(4096)
        assert fast == pytest.approx(raw, rel=0.01)


class TestOutOfOrderAblation:
    def _dtype(self, log, inorder):
        def query_fn(state, buf, count):
            return 64

        def pack_fn(state, buf, count, offset, dst):
            n = min(dst.shape[0], 64 - offset)
            dst[:n] = offset & 0xFF
            return int(n)

        def unpack_fn(state, buf, count, offset, src):
            log.append(offset)

        return type_create_custom(query_fn=query_fn, pack_fn=pack_fn,
                                  unpack_fn=unpack_fn, inorder=inorder)

    @pytest.mark.parametrize("inorder,expect_sorted", [(True, True),
                                                       (False, False)])
    def test_ooo_respects_inorder_flag(self, inorder, expect_sorted):
        require_transport_capability("shared_address_space")
        params = DEFAULT_PARAMS.with_overrides(frag_size=16)
        cfg = EngineConfig(ooo_fragments=True)
        log = []

        def s(comm):
            comm.send(object(), dest=1, datatype=self._dtype([], inorder))

        def r(comm):
            comm.recv(object(), source=0, datatype=self._dtype(log, inorder))

        run([s, r], nprocs=2, params=params, engine_config=cfg)
        assert len(log) == 4
        assert (log == sorted(log)) == expect_sorted

    def test_default_delivery_in_order(self):
        require_transport_capability("shared_address_space")
        params = DEFAULT_PARAMS.with_overrides(frag_size=16)
        log = []

        def s(comm):
            comm.send(object(), dest=1, datatype=self._dtype([], False))

        def r(comm):
            comm.recv(object(), source=0, datatype=self._dtype(log, False))

        run([s, r], nprocs=2, params=params)
        assert log == sorted(log)


class TestModelledGridRealWindow:
    """``op.ncallbacks`` counts real invocations; the clocks are charged
    real - real pack/unpack calls + ceil(packed / frag_size): the paper's
    fragment pipeline is accounted, the bytes move in one window."""

    PACKED = 20000  # three modelled fragments of 8192

    def _stream_type(self, how):
        """A pack-only type of ``PACKED`` bytes with the same callback set
        (state, free, query, pack, unpack) whichever way it fills."""
        total = self.PACKED

        def pack_some(limit):
            def pack_fn(state, buf, count, offset, dst):
                n = min(dst.shape[0], total - offset, limit)
                dst[:n] = buf[offset:offset + n]
                return int(n)
            return pack_fn

        def unpack_fn(state, buf, count, offset, src):
            buf[offset:offset + src.shape[0]] = src

        if how == "coroutine":
            from repro.core import coroutine_pack_callbacks

            def pack_gen(context, buf, count):
                dst = yield
                pos = 0
                while pos < total:
                    n = min(len(dst), total - pos)
                    dst[:n] = buf[pos:pos + n]
                    pos += n
                    dst = yield n

            def unpack_gen(context, buf, count):
                src = yield
                pos = 0
                while True:
                    buf[pos:pos + len(src)] = src
                    pos += len(src)
                    src = yield len(src)

            state_fn, free_fn, pack_fn, unpack_fn = coroutine_pack_callbacks(
                pack_gen, unpack_gen)
            inorder = True
        else:
            # "partial": whole 100-byte elements per call, never the window.
            pack_fn = pack_some(100 if how == "partial" else total)
            state_fn, free_fn, inorder = \
                (lambda ctx, b, c: None), (lambda st: None), False
        return type_create_custom(
            query_fn=lambda s, b, c: total, pack_fn=pack_fn,
            unpack_fn=unpack_fn, state_fn=state_fn, state_free_fn=free_fn,
            inorder=inorder)

    def _clocks(self, how):
        data = (np.arange(self.PACKED) % 253).astype(np.uint8)

        def fn(comm):
            dtype = self._stream_type(how)
            if comm.rank == 0:
                comm.send(data, 1, 1, datatype=dtype)
                return None
            out = np.zeros_like(data)
            comm.recv(out, 0, 1, datatype=dtype)
            return bool((out == data).all())

        res = run(fn, nprocs=2)
        assert res.results[1]
        return res.clocks

    def test_struct_simple_clocks_are_the_parent_commits(self):
        """Recorded before the engine stopped materialising fragments: five
        pack + five unpack callbacks and five packed IOV entries."""
        from repro.types import struct_simple_custom_datatype
        n = 2000

        def fn(comm):
            dtype = struct_simple_custom_datatype()
            if comm.rank == 0:
                comm.send(make_struct_simple(n), 1, 1, datatype=dtype,
                          count=n)
            else:
                comm.recv(np.zeros(n, STRUCT_SIMPLE), 0, 1, datatype=dtype,
                          count=n)

        assert run(fn, nprocs=2).clocks == [1.8800000000000003e-05,
                                            1.8800000000000003e-05]

    def test_every_fill_pattern_is_charged_the_same_grid(self):
        full = self._clocks("full")
        assert self._clocks("partial") == full
        assert self._clocks("coroutine") == full
        # ...and the grid is what is charged: a finer one costs more.
        fine = DEFAULT_PARAMS.with_overrides(frag_size=1024)
        data = np.zeros(self.PACKED, np.uint8)
        dtype = self._stream_type("full")
        finer = one_way_time(
            lambda c: c.send(data, dest=1, datatype=dtype),
            lambda c: c.recv(np.zeros_like(data), source=0, datatype=dtype),
            params=fine)
        assert finer > full[1]

    def test_one_window_each_way_in_one_pooled_buffer(self):
        """An engine send of a pack-only type: one ``pack_fn`` call into a
        buffer of the sender's pool, one ``unpack_fn`` call — in-process on
        a view of that same buffer; the message is one packed entry."""
        require_transport_capability("shared_address_space")
        total = self.PACKED
        windows = []

        def address(arr):
            return arr.__array_interface__["data"][0]

        def fn(comm):
            pool = comm.worker.fabric.worker(0).memory.pool
            data = (np.arange(total) % 251).astype(np.uint8)

            def pack_fn(state, buf, count, offset, dst):
                windows.append(("pack", offset, dst.shape[0], address(dst),
                                pool.owns(dst)))
                dst[:] = buf
                return total

            def unpack_fn(state, buf, count, offset, src):
                windows.append(("unpack", offset, src.shape[0], address(src),
                                pool.owns(src)))
                buf[:] = src

            dtype = type_create_custom(query_fn=lambda s, b, c: total,
                                       pack_fn=pack_fn, unpack_fn=unpack_fn)
            if comm.rank == 0:
                comm.send(data, 1, 1, datatype=dtype)
                return None
            out = np.zeros_like(data)
            status = comm.recv(out, 0, 1, datatype=dtype)
            return status.entry_lengths, bool((out == data).all())

        res = run(fn, nprocs=2)
        assert res.results[1] == ((total,), True)
        packed, unpacked = windows
        where = packed[3]
        assert packed == ("pack", 0, total, where, True)
        assert unpacked[:3] == ("unpack", 0, total)
        if res.transport == "inproc":  # the wire is the sender's memory
            assert unpacked[3:] == (where, True)
        assert [m["pool"]["outstanding"] for m in res.memory] == [0, 0]

    def test_entry_lengths_are_the_packed_stream_then_the_regions(self):
        from repro.types import (STRUCT_VEC, make_struct_vec,
                                 struct_vec_custom_datatype)

        def fn(comm):
            dtype = struct_vec_custom_datatype()
            if comm.rank == 0:
                comm.send(make_struct_vec(3), 1, 1, datatype=dtype, count=3)
                return None
            status = comm.recv(np.zeros(3, STRUCT_VEC), 0, 1, datatype=dtype,
                               count=3)
            return status.entry_lengths, status.packed_entries

        assert run(fn, nprocs=2).results[1] == ((60, 8192, 8192, 8192), 1)


class TestMemoryEffects:
    def test_derived_send_allocates_bounce(self):
        count = 100
        t = struct_simple_datatype()
        arr = make_struct_simple(count)

        def s(comm):
            comm.send(arr, dest=1, datatype=t, count=count)
            return comm.memory.snapshot()["total_allocated"]

        def r(comm):
            comm.recv(np.zeros(count, STRUCT_SIMPLE), source=0, datatype=t,
                      count=count)

        res = run([s, r], nprocs=2)
        assert res.results[0] >= count * 20

    def test_contiguous_send_allocates_nothing(self):
        def s(comm):
            comm.send(np.zeros(4096, np.uint8), dest=1)
            return comm.memory.snapshot()["total_allocated"]

        def r(comm):
            comm.recv(np.zeros(4096, np.uint8), source=0)

        assert run([s, r], nprocs=2).results[0] == 0
