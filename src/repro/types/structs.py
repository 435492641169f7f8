"""The paper's Rust struct benchmark types (Listings 6-8) in Python.

Byte layouts are identical to ``#[repr(C)]`` on x86-64:

* :data:`STRUCT_SIMPLE` — ``a,b,c: i32, d: f64`` with a 4-byte alignment gap
  between ``c`` and ``d`` (packed 20 B, extent 24 B),
* :data:`STRUCT_SIMPLE_NO_GAP` — ``a,b: i32, c: f64`` (16 B, gap-free),
* :data:`STRUCT_VEC` — struct-simple plus ``data: [i32; 2048]``
  (packed 8212 B, extent 8216 B).

Arrays of structs are numpy structured arrays over these dtypes, so the
derived-datatype baseline (rsmpi / Open MPI engine) can walk the raw memory
exactly like the paper's benchmarks do, while the custom/manual methods view
the same bytes.

Each type bundles the three transfer strategies of the Rust evaluation:

* ``derived_datatype()`` — the rsmpi/Open MPI baseline,
* ``manual_pack`` / ``manual_unpack`` — the "packed" method (vectorized user
  code, sent as MPI_BYTE),
* ``custom_datatype()`` — the paper's API: scalar fields packed, the
  ``data`` array exposed as a memory region.
"""

from __future__ import annotations

import numpy as np

from ..core import (BYTE, FLOAT64, INT32, CustomDatatype, DerivedDatatype,
                    Region, create_struct, resized, type_create_custom)
from ..core.callbacks import whole_stream_callbacks

STRUCT_VEC_DATA_LEN = 2048

STRUCT_SIMPLE = np.dtype({
    "names": ["a", "b", "c", "d"],
    "formats": ["<i4", "<i4", "<i4", "<f8"],
    "offsets": [0, 4, 8, 16],
    "itemsize": 24,
})

STRUCT_SIMPLE_NO_GAP = np.dtype({
    "names": ["a", "b", "c"],
    "formats": ["<i4", "<i4", "<f8"],
    "offsets": [0, 4, 8],
    "itemsize": 16,
})

STRUCT_VEC = np.dtype({
    "names": ["a", "b", "c", "d", "data"],
    "formats": ["<i4", "<i4", "<i4", "<f8", (f"<i4", (STRUCT_VEC_DATA_LEN,))],
    "offsets": [0, 4, 8, 16, 24],
    "itemsize": 24 + 4 * STRUCT_VEC_DATA_LEN,
})

#: Packed sizes (no gaps).
STRUCT_SIMPLE_PACKED = 20
STRUCT_SIMPLE_NO_GAP_PACKED = 16
STRUCT_VEC_PACKED = 20 + 4 * STRUCT_VEC_DATA_LEN


def make_struct_simple(count: int, rng: np.random.Generator | None = None
                       ) -> np.ndarray:
    """Array of ``count`` struct-simple elements with deterministic data."""
    arr = np.zeros(count, dtype=STRUCT_SIMPLE)
    idx = np.arange(count)
    arr["a"] = idx
    arr["b"] = idx * 2 + 1
    arr["c"] = idx * 3 + 2
    arr["d"] = idx * 0.5 + 0.25
    if rng is not None:
        arr["d"] += rng.random(count)
    return arr


def make_struct_simple_no_gap(count: int) -> np.ndarray:
    """Array of ``count`` gap-free structs with deterministic contents."""
    arr = np.zeros(count, dtype=STRUCT_SIMPLE_NO_GAP)
    idx = np.arange(count)
    arr["a"] = idx
    arr["b"] = ~idx
    arr["c"] = np.sqrt(idx + 1.0)
    return arr


def make_struct_vec(count: int) -> np.ndarray:
    """Array of ``count`` struct-vec elements (deterministic scalars + data)."""
    arr = np.zeros(count, dtype=STRUCT_VEC)
    idx = np.arange(count)
    arr["a"] = idx
    arr["b"] = idx + 7
    arr["c"] = idx * idx
    arr["d"] = 1.0 / (idx + 1.0)
    arr["data"] = (np.arange(STRUCT_VEC_DATA_LEN)[None, :]
                   + idx[:, None]).astype(np.int32)
    return arr


# ---------------------------------------------------------------------------
# Derived datatypes (the rsmpi / Open MPI baseline)
# ---------------------------------------------------------------------------

def struct_simple_datatype() -> DerivedDatatype:
    """struct { 3 x i32 @0, f64 @16 } resized to the C extent (24 B)."""
    t = create_struct([3, 1], [0, 16], [INT32, FLOAT64])
    return resized(t, 0, STRUCT_SIMPLE.itemsize).commit()


def struct_simple_no_gap_datatype() -> DerivedDatatype:
    """struct { 2 x i32 @0, f64 @8 }: contiguous, no resize needed beyond 16 B."""
    t = create_struct([2, 1], [0, 8], [INT32, FLOAT64])
    return resized(t, 0, STRUCT_SIMPLE_NO_GAP.itemsize).commit()


def struct_vec_datatype() -> DerivedDatatype:
    """struct-simple plus the 2048-int32 array field at offset 24."""
    t = create_struct([3, 1, STRUCT_VEC_DATA_LEN], [0, 16, 24],
                      [INT32, FLOAT64, INT32])
    return resized(t, 0, STRUCT_VEC.itemsize).commit()


# ---------------------------------------------------------------------------
# Manual packing (the "packed" method)
# ---------------------------------------------------------------------------

def manual_pack_struct_simple(arr: np.ndarray,
                              out: np.ndarray | None = None) -> np.ndarray:
    """Vectorized user-code packing at 20 B/element, into ``out`` (exactly
    that many uint8) when given, else into a fresh buffer."""
    count = arr.shape[0]
    if out is None:
        out = np.empty(count * STRUCT_SIMPLE_PACKED, dtype=np.uint8)
    o2 = out.reshape(count, STRUCT_SIMPLE_PACKED)
    o2[:, 0:4] = arr["a"][:, None].view(np.uint8).reshape(count, 4)
    o2[:, 4:8] = arr["b"][:, None].view(np.uint8).reshape(count, 4)
    o2[:, 8:12] = arr["c"][:, None].view(np.uint8).reshape(count, 4)
    o2[:, 12:20] = arr["d"][:, None].view(np.uint8).reshape(count, 8)
    return out


def manual_unpack_struct_simple(packed: np.ndarray, arr: np.ndarray) -> None:
    """Inverse of :func:`manual_pack_struct_simple` (writes ``arr`` in place)."""
    count = arr.shape[0]
    p2 = packed.reshape(count, STRUCT_SIMPLE_PACKED)
    arr["a"] = p2[:, 0:4].copy().view(np.int32).reshape(count)
    arr["b"] = p2[:, 4:8].copy().view(np.int32).reshape(count)
    arr["c"] = p2[:, 8:12].copy().view(np.int32).reshape(count)
    arr["d"] = p2[:, 12:20].copy().view(np.float64).reshape(count)


def manual_pack_struct_simple_no_gap(arr: np.ndarray) -> np.ndarray:
    """No-gap struct packs with a single contiguous copy."""
    return arr.view(np.uint8).reshape(-1).copy()


def manual_unpack_struct_simple_no_gap(packed: np.ndarray, arr: np.ndarray) -> None:
    """Inverse of :func:`manual_pack_struct_simple_no_gap`."""
    arr.view(np.uint8).reshape(-1)[:] = packed


def manual_pack_struct_vec(arr: np.ndarray) -> np.ndarray:
    """Vectorized user-code packing of struct-vec (scalars + data array)."""
    count = arr.shape[0]
    out = np.empty(count * STRUCT_VEC_PACKED, dtype=np.uint8)
    o2 = out.reshape(count, STRUCT_VEC_PACKED)
    o2[:, 0:4] = arr["a"][:, None].view(np.uint8).reshape(count, 4)
    o2[:, 4:8] = arr["b"][:, None].view(np.uint8).reshape(count, 4)
    o2[:, 8:12] = arr["c"][:, None].view(np.uint8).reshape(count, 4)
    o2[:, 12:20] = arr["d"][:, None].view(np.uint8).reshape(count, 8)
    o2[:, 20:] = arr["data"].view(np.uint8).reshape(count, 4 * STRUCT_VEC_DATA_LEN)
    return out


def manual_unpack_struct_vec(packed: np.ndarray, arr: np.ndarray) -> None:
    """Inverse of :func:`manual_pack_struct_vec`."""
    count = arr.shape[0]
    p2 = packed.reshape(count, STRUCT_VEC_PACKED)
    arr["a"] = p2[:, 0:4].copy().view(np.int32).reshape(count)
    arr["b"] = p2[:, 4:8].copy().view(np.int32).reshape(count)
    arr["c"] = p2[:, 8:12].copy().view(np.int32).reshape(count)
    arr["d"] = p2[:, 12:20].copy().view(np.float64).reshape(count)
    arr["data"] = p2[:, 20:].copy().view(np.int32).reshape(
        count, STRUCT_VEC_DATA_LEN)


# ---------------------------------------------------------------------------
# Custom datatypes (the paper's API)
# ---------------------------------------------------------------------------

def _scalars_packed_size(buf, count) -> int:
    return count * STRUCT_SIMPLE_PACKED


def _scalar_callbacks():
    """``(state_fn, pack_fn, unpack_fn)`` moving the a,b,c,d fields of a
    struct-simple *or* struct-vec array as 20 packed bytes per element,
    straight into and out of a window that covers the stream."""
    return whole_stream_callbacks(
        _scalars_packed_size,
        lambda buf, count, out: manual_pack_struct_simple(buf[:count], out=out),
        lambda src, buf, count: manual_unpack_struct_simple(src, buf[:count]))


def struct_simple_custom_datatype() -> CustomDatatype:
    """Pack-only custom type: gathers a,b,c,d into the in-band stream."""
    state_fn, pack_fn, unpack_fn = _scalar_callbacks()

    def query_fn(state, buf, count):
        return _scalars_packed_size(buf, count)

    return type_create_custom(query_fn=query_fn, pack_fn=pack_fn,
                              unpack_fn=unpack_fn, state_fn=state_fn,
                              name="custom:struct-simple")


def struct_simple_no_gap_custom_datatype() -> CustomDatatype:
    """Custom type for the gap-free struct: pack is a straight memcpy."""

    def query_fn(state, buf, count):
        return count * STRUCT_SIMPLE_NO_GAP_PACKED

    def pack_fn(state, buf, count, offset, dst):
        flat = buf.view(np.uint8).reshape(-1)
        step = min(dst.shape[0], count * STRUCT_SIMPLE_NO_GAP_PACKED - offset)
        dst[:step] = flat[offset:offset + step]
        return int(step)

    def unpack_fn(state, buf, count, offset, src):
        flat = buf.view(np.uint8).reshape(-1)
        flat[offset:offset + src.shape[0]] = src

    return type_create_custom(query_fn=query_fn, pack_fn=pack_fn,
                              unpack_fn=unpack_fn,
                              name="custom:struct-simple-no-gap")


def struct_vec_custom_datatype() -> CustomDatatype:
    """Scalars packed in-band, each element's ``data`` array as a region."""
    state_fn, pack_fn, unpack_fn = _scalar_callbacks()

    def query_fn(state, buf, count):
        return _scalars_packed_size(buf, count)  # only a,b,c,d go in-band

    def region_count_fn(state, buf, count):
        return count

    def region_fn(state, buf, count, region_count):
        return [Region(buf[i]["data"], datatype=INT32) for i in range(count)]

    return type_create_custom(query_fn=query_fn, pack_fn=pack_fn,
                              unpack_fn=unpack_fn,
                              region_count_fn=region_count_fn,
                              region_fn=region_fn, state_fn=state_fn,
                              name="custom:struct-vec")
