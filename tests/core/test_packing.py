"""Pack-engine tests: correctness on gapped types, windows, property tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (FLOAT64, INT32, PackCursor, UnpackCursor,
                        create_struct, pack, packed_size, required_span,
                        resized, unpack, vector)
from repro.errors import MPIError


def struct_simple_t():
    return resized(create_struct([3, 1], [0, 16], [INT32, FLOAT64]), 0, 24)


def fill_struct_simple(count):
    sd = np.dtype({"names": ["a", "b", "c", "d"],
                   "formats": ["<i4", "<i4", "<i4", "<f8"],
                   "offsets": [0, 4, 8, 16], "itemsize": 24})
    arr = np.zeros(count, dtype=sd)
    arr["a"] = np.arange(count)
    arr["b"] = 2 * np.arange(count)
    arr["c"] = 3 * np.arange(count)
    arr["d"] = np.arange(count) + 0.5
    return arr


class TestPackUnpack:
    def test_contiguous_identity(self):
        a = np.arange(16, dtype=np.int32)
        p = pack(INT32, a, 16)
        assert np.array_equal(p.view(np.int32), a)

    def test_gapped_struct_roundtrip(self):
        t = struct_simple_t()
        arr = fill_struct_simple(10)
        p = pack(t, arr, 10)
        assert p.shape[0] == 200
        out = np.zeros_like(arr)
        unpack(t, out, 10, p)
        assert (out == arr).all()

    def test_gap_bytes_not_packed(self):
        t = struct_simple_t()
        arr = fill_struct_simple(2)
        raw = arr.view(np.uint8).reshape(-1)
        raw[12:16] = 0xAB  # poison the gap
        p = pack(t, arr, 2)
        assert 0xAB not in p[:20]

    def test_count_zero(self):
        t = struct_simple_t()
        assert pack(t, np.zeros(0, dtype=np.uint8), 0).shape == (0,)

    def test_pack_into_provided_buffer(self):
        t = struct_simple_t()
        arr = fill_struct_simple(4)
        out = np.zeros(80, dtype=np.uint8)
        pack(t, arr, 4, out=out)
        # Filled in place (the return value may be a uint8 view of out).
        assert bytes(out) == bytes(pack(t, arr, 4))

    def test_wrong_output_size_rejected(self):
        t = struct_simple_t()
        arr = fill_struct_simple(4)
        with pytest.raises(MPIError):
            pack(t, arr, 4, out=np.zeros(79, dtype=np.uint8))

    def test_send_buffer_too_small(self):
        t = struct_simple_t()
        with pytest.raises(MPIError):
            pack(t, np.zeros(10, dtype=np.uint8), 4)

    def test_recv_buffer_too_small(self):
        t = struct_simple_t()
        with pytest.raises(MPIError):
            unpack(t, np.zeros(10, dtype=np.uint8), 4,
                   np.zeros(80, dtype=np.uint8))

    def test_packed_too_small(self):
        t = struct_simple_t()
        arr = fill_struct_simple(4)
        with pytest.raises(MPIError):
            unpack(t, arr, 4, np.zeros(79, dtype=np.uint8))

    def test_readonly_recv_rejected(self):
        a = np.arange(4, dtype=np.int32)
        a.flags.writeable = False
        with pytest.raises(MPIError):
            unpack(INT32, a, 4, np.zeros(16, dtype=np.uint8))

    def test_noncontiguous_buffer_rejected(self):
        a = np.arange(32, dtype=np.int32)[::2]
        with pytest.raises(MPIError):
            pack(INT32, a, 16)

    def test_last_element_partial_extent(self):
        """The buffer may end at the last element's true_ub, short of a
        full extent."""
        t = struct_simple_t()
        arr = fill_struct_simple(3)
        raw = arr.view(np.uint8).reshape(-1)[:48 + 24]  # exactly 3 extents
        # Truncate to true_ub of last element: 2*24 + 24 == 72 anyway here,
        # so instead test required_span accounting directly.
        assert required_span(t, 3) == 2 * 24 + 24

    def test_bytearray_buffers(self):
        t = struct_simple_t()
        arr = fill_struct_simple(2)
        p = pack(t, bytearray(arr.tobytes()), 2)
        out = bytearray(48)
        unpack(t, out, 2, p)
        assert np.frombuffer(out, dtype=arr.dtype).tolist() == arr.tolist()


class TestSizes:
    def test_packed_size(self):
        assert packed_size(struct_simple_t(), 5) == 100
        assert packed_size(INT32, 7) == 28

    def test_required_span(self):
        t = struct_simple_t()
        assert required_span(t, 1) == 24
        assert required_span(t, 0) == 0
        v = vector(3, 2, 4, INT32)
        # last block ends at (2*4+2)*4 = 40
        assert required_span(v, 1) == 40


def pack_window(t, buf, count, offset, length):
    """One stream window through a fresh cursor (random access)."""
    with PackCursor(t, buf, count) as cur:
        return cur.window(offset, length).copy()


def unpack_window(t, buf, count, offset, frag):
    """One fragment through a fresh cursor (random access)."""
    with UnpackCursor(t, buf, count) as cur:
        cur.write(offset, frag)


class TestWindows:
    def test_window_equals_slice_of_full_pack(self):
        t = struct_simple_t()
        arr = fill_struct_simple(16)
        full = pack(t, arr, 16)
        # One cursor, windows revisited out of order.
        with PackCursor(t, arr, 16) as cur:
            for off, ln in [(199, 121), (0, 10), (7, 33), (20, 20), (315, 5)]:
                assert bytes(cur.window(off, ln)) == \
                    bytes(full[off:off + ln]), (off, ln)

    def test_window_full_range(self):
        t = struct_simple_t()
        arr = fill_struct_simple(4)
        w = pack_window(t, arr, 4, 0, 80)
        assert bytes(w) == bytes(pack(t, arr, 4))

    def test_window_zero_length(self):
        t = struct_simple_t()
        arr = fill_struct_simple(4)
        assert pack_window(t, arr, 4, 10, 0).shape == (0,)

    def test_window_out_of_range(self):
        t = struct_simple_t()
        arr = fill_struct_simple(4)
        with pytest.raises(MPIError):
            pack_window(t, arr, 4, 70, 20)
        with pytest.raises(MPIError):
            pack_window(t, arr, 4, -1, 5)

    @pytest.mark.parametrize("step", [1, 3, 7, 19, 80])
    def test_unpack_windows_reassemble(self, step):
        """Every fragment through its own cursor: each write starts
        mid-stream, so boundary elements are read-modify-written."""
        t = struct_simple_t()
        arr = fill_struct_simple(4)
        full = pack(t, arr, 4)
        out = np.zeros_like(arr)
        for off in range(0, 80, step):
            ln = min(step, 80 - off)
            unpack_window(t, out, 4, off, full[off:off + ln])
        assert (out == arr).all()

    def test_unpack_window_out_of_range(self):
        t = struct_simple_t()
        out = fill_struct_simple(4)
        with pytest.raises(MPIError):
            unpack_window(t, out, 4, 75, np.zeros(10, dtype=np.uint8))


# -- property-based: random gapped struct layouts ------------------------------

@st.composite
def random_struct(draw):
    """A random padded struct over i32/f64 fields."""
    nfields = draw(st.integers(1, 5))
    fields = []
    offset = 0
    for _ in range(nfields):
        offset += draw(st.integers(0, 8))  # leading pad
        ftype = draw(st.sampled_from([INT32, FLOAT64]))
        blen = draw(st.integers(1, 4))
        fields.append((blen, offset, ftype))
        offset += blen * ftype.size
    extent = offset + draw(st.integers(0, 8))  # trailing pad
    t = create_struct([f[0] for f in fields], [f[1] for f in fields],
                      [f[2] for f in fields])
    return resized(t, 0, extent)


class TestPackProperties:
    @given(random_struct(), st.integers(0, 20))
    def test_roundtrip_identity_on_packed_bytes(self, t, count):
        rng = np.random.default_rng(0)
        buf = rng.integers(0, 256, size=max(t.extent * count, 1),
                           dtype=np.uint8)
        p = pack(t, buf, count)
        assert p.shape[0] == packed_size(t, count)
        out = np.zeros_like(buf)
        unpack(t, out, count, p)
        assert bytes(pack(t, out, count)) == bytes(p)

    @given(random_struct(), st.integers(1, 12), st.integers(1, 64))
    def test_windows_tile_full_pack(self, t, count, step):
        rng = np.random.default_rng(1)
        buf = rng.integers(0, 256, size=t.extent * count, dtype=np.uint8)
        full = pack(t, buf, count)
        total = full.shape[0]
        chunks = [pack_window(t, buf, count, off, min(step, total - off))
                  for off in range(0, total, step)]
        joined = b"".join(bytes(c) for c in chunks)
        assert joined == bytes(full)

    @given(random_struct(), st.integers(1, 10))
    def test_unpack_overwrites_only_data_bytes(self, t, count):
        """Bytes in gaps/padding must survive an unpack untouched."""
        rng = np.random.default_rng(2)
        buf = rng.integers(0, 256, size=t.extent * count, dtype=np.uint8)
        p = pack(t, buf, count)
        target = np.full(t.extent * count, 0xEE, dtype=np.uint8)
        unpack(t, target, count, p)
        # Re-packing the target recovers p; all non-data bytes still 0xEE.
        assert bytes(pack(t, target, count)) == bytes(p)
        data_mask = np.zeros(t.extent * count, dtype=bool)
        for i in range(count):
            for b in t.typemap.blocks:
                s = i * t.extent + b.offset
                data_mask[s:s + b.length] = True
        assert (target[~data_mask] == 0xEE).all()
