"""Region (iovec entry) tests."""

import re

import numpy as np
import pytest

from repro.core import (BYTE, FLOAT64, INT32, Region, region_lengths,
                        total_region_bytes, vector)
from repro.errors import MPIError


def _raises(text):
    """``pytest.raises`` for an ``MPI_ERR_BUFFER`` with exactly ``text``."""
    return pytest.raises(MPIError, match=f"^MPI_ERR_BUFFER: {re.escape(text)}$")


class TestRegion:
    def test_defaults_to_whole_buffer(self):
        r = Region(np.arange(10, dtype=np.int32), datatype=INT32)
        assert r.nbytes == 40
        assert r.datatype is INT32

    def test_explicit_length(self):
        r = Region(np.zeros(100, dtype=np.uint8), nbytes=60)
        assert r.nbytes == 60
        assert r.read_bytes().shape == (60,)

    def test_length_exceeds_buffer(self):
        with _raises("region length 9 exceeds buffer of 8 bytes"):
            Region(np.zeros(8, dtype=np.uint8), nbytes=9)

    def test_negative_length(self):
        with _raises("negative region length -1"):
            Region(np.zeros(8, dtype=np.uint8), nbytes=-1)

    def test_length_must_match_datatype(self):
        with _raises("region length 10 not a multiple of MPI_DOUBLE size 8"):
            Region(np.zeros(10, dtype=np.uint8), datatype=FLOAT64)

    def test_derived_datatype_rejected(self):
        with _raises("region datatype must be a predefined type"):
            Region(np.zeros(40, dtype=np.uint8), datatype=vector(2, 1, 2, INT32))

    def test_noncontiguous_rejected(self):
        a = np.arange(20, dtype=np.int32)[::2]
        with _raises("region buffer must be C-contiguous"):
            Region(a, datatype=INT32)
        with _raises("region buffer must be contiguous"):
            Region(memoryview(bytearray(20))[::2])

    def test_bytes_send_side(self):
        r = Region(b"hello", datatype=BYTE)
        assert r.nbytes == 5
        with _raises("receive region buffer is read-only"):
            r.writable_view()

    def test_writable_view(self):
        buf = bytearray(16)
        r = Region(buf)
        r.writable_view()[:4] = np.frombuffer(b"abcd", dtype=np.uint8)
        assert bytes(buf[:4]) == b"abcd"

    def test_readonly_numpy_rejected_for_write(self):
        a = np.arange(8, dtype=np.uint8)
        a.flags.writeable = False
        r = Region(a)
        assert r.read_bytes().tolist() == list(range(8))
        with _raises("receive region buffer is read-only"):
            r.writable_view()

    def test_multidim_array_flattened(self):
        r = Region(np.zeros((4, 4), dtype=np.float64), datatype=FLOAT64)
        assert r.nbytes == 128
        assert r.view().ndim == 1

    def test_zero_length(self):
        r = Region(np.zeros(0, dtype=np.uint8))
        assert r.nbytes == 0


class TestHelpers:
    def test_totals(self):
        regs = [Region(np.zeros(n, dtype=np.uint8)) for n in (3, 5, 0, 9)]
        assert total_region_bytes(regs) == 17
        assert region_lengths(regs) == [3, 5, 0, 9]


class TestBuffers:
    """Every buffer kind gives the same flat byte view."""

    @pytest.mark.parametrize("make", [bytes, bytearray,
                                      lambda b: memoryview(bytearray(b))],
                             ids=["bytes", "bytearray", "memoryview"])
    def test_buffer_protocol_objects(self, make):
        r = Region(make(b"abcdef"), nbytes=4)
        assert r.nbytes == 4
        assert r.view().dtype == np.uint8 and r.view().shape == (6,)
        assert r.read_bytes().tobytes() == b"abcd"

    def test_uint8_vector_is_its_own_view(self):
        a = np.arange(16, dtype=np.uint8)
        r = Region(a[4:12])
        assert r.view().base is a and r.nbytes == 8
        r.writable_view()[:2] = 99
        assert a[4:6].tolist() == [99, 99]

    def test_non_uint8_vector(self):
        a = np.arange(4, dtype=np.int32)
        r = Region(a, datatype=INT32)
        assert r.view().dtype == np.uint8 and r.nbytes == 16
        assert r.read_bytes().tobytes() == a.tobytes()
        r.writable_view()[:4] = np.frombuffer(
            np.int32(7).tobytes(), dtype=np.uint8)
        assert a[0] == 7

    def test_two_dimensional(self):
        a = np.arange(12, dtype=np.int32).reshape(3, 4)
        r = Region(a, nbytes=16, datatype=INT32)
        assert r.view().shape == (48,)
        assert r.read_bytes().tobytes() == a[0].tobytes()

    def test_two_dimensional_uint8(self):
        a = np.arange(12, dtype=np.uint8).reshape(3, 4)
        r = Region(a)
        assert r.view().shape == (12,) and r.nbytes == 12


class TestEquality:
    def test_same_buffer_length_and_type(self):
        a = np.zeros(8, dtype=np.int32)
        assert Region(a, datatype=INT32) == Region(a, datatype=INT32)
        assert Region(a, nbytes=8) == Region(a, nbytes=8)

    def test_distinct_arrays_compare_unequal_without_error(self):
        a, b = np.zeros(8, dtype=np.uint8), np.zeros(8, dtype=np.uint8)
        assert Region(a) != Region(b)
        assert not Region(a) == Region(b)

    def test_length_or_type_differs(self):
        a = np.zeros(8, dtype=np.int32)
        assert Region(a, nbytes=16) != Region(a)
        assert Region(a, datatype=INT32) != Region(a)

    def test_other_objects(self):
        a = np.zeros(8, dtype=np.uint8)
        assert Region(a) != a.tobytes() and Region(a) != None  # noqa: E711
        assert Region(a) in [Region(np.zeros(1)), Region(a)]

    def test_repr_names_the_fields(self):
        assert repr(Region(b"ab")) == \
            f"Region(buffer=b'ab', nbytes=2, datatype={BYTE!r})"
