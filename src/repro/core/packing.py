"""Derived-datatype pack/unpack engine.

This is the stand-in for the Open MPI datatype engine that the paper
benchmarks against.  Two properties of that engine matter for the figures:

* **Fast path** — a contiguous type (``struct-simple-no-gap``, Fig. 6) packs
  with a single memcpy and, better, the engine can skip packing entirely and
  hand the user buffer to the transport.
* **Slow path** — a type with gaps (``struct-simple``, Fig. 5) is walked
  block by block.  We implement the walk vectorized across elements with
  numpy (one strided 2-D copy per merged block), but the *virtual-time* cost
  charged by the MPI engine uses the per-scalar ``elem_cost`` model, which is
  what reproduces the paper's gap penalty.

Since the plan-compiler PR the public entry points execute a
:class:`repro.core.packplan.PackPlan` compiled once per canonical layout
and cached through :func:`repro.core.typecache.pack_plan`;
layout derivation (block merging, strided-view descriptors, the contiguous
decision) no longer happens per call.  The pre-plan engine is retained
verbatim as :func:`pack_reference`/:func:`unpack_reference` (and the window
equivalents) — the equivalence test suite asserts the plan path is
byte-identical to it, and ``benchmarks/perf`` measures the speedup against
it.

All functions move real bytes; they are pure with respect to virtual time
(cost charging happens in :mod:`repro.mpi.engine`).
"""

from __future__ import annotations

import numpy as np

from ..errors import MPI_ERR_BUFFER, MPIError
from .datatype import Datatype
from .packplan import _as_u8, required_span  # noqa: F401 (re-exported)
from .typecache import pack_plan


def packed_size(dtype: Datatype, count: int) -> int:
    """Total packed bytes of ``count`` elements."""
    return dtype.size * count


def pack(dtype: Datatype, buf, count: int, out: np.ndarray | None = None) -> np.ndarray:
    """Pack ``count`` elements of ``dtype`` from ``buf`` into a flat buffer.

    Returns a uint8 array of length ``packed_size(dtype, count)``.  When
    ``out`` is given it must be exactly that long and is filled in place.
    """
    src = _as_u8(buf)
    plan = pack_plan(dtype)
    total = plan.size * count
    if out is None:
        out = np.empty(total, dtype=np.uint8)
    else:
        out = _as_u8(out, writable=True)
        if out.shape[0] != total:
            raise MPIError(MPI_ERR_BUFFER,
                           f"pack output must be {total} bytes, got {out.shape[0]}")
    if count == 0:
        return out

    need = (count - 1) * plan.extent + plan.span
    if src.shape[0] < need:
        raise MPIError(MPI_ERR_BUFFER,
                       f"send buffer too small: need {need} bytes, have {src.shape[0]}")

    plan.pack_into(src, count, out)
    return out


def unpack(dtype: Datatype, buf, count: int, src) -> None:
    """Unpack a flat packed buffer ``src`` into ``count`` elements in ``buf``."""
    dst = _as_u8(buf, writable=True)
    packed = _as_u8(src)
    plan = pack_plan(dtype)
    total = plan.size * count
    if packed.shape[0] < total:
        raise MPIError(MPI_ERR_BUFFER,
                       f"packed buffer too small: need {total}, have {packed.shape[0]}")
    if count == 0:
        return

    need = (count - 1) * plan.extent + plan.span
    if dst.shape[0] < need:
        raise MPIError(MPI_ERR_BUFFER,
                       f"recv buffer too small: need {need} bytes, have {dst.shape[0]}")

    plan.unpack_into(dst, count, packed)


# ---------------------------------------------------------------------------
# retained pre-plan reference engine
# ---------------------------------------------------------------------------
# The original per-call implementation, kept as the ground truth for the
# equivalence test suite and as the honest "before" side of benchmarks/perf.
# It re-derives the layout on every call (uncached merge walk, per-call
# contiguity decision) exactly as the engine did before plan compilation.


def pack_reference(dtype: Datatype, buf, count: int,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Pre-plan :func:`pack`: re-derives the typemap layout on every call."""
    src = _as_u8(buf)
    total = packed_size(dtype, count)
    if out is None:
        out = np.empty(total, dtype=np.uint8)
    else:
        out = _as_u8(out, writable=True)
        if out.shape[0] != total:
            raise MPIError(MPI_ERR_BUFFER,
                           f"pack output must be {total} bytes, got {out.shape[0]}")
    if count == 0:
        return out

    need = required_span(dtype, count)
    if src.shape[0] < need:
        raise MPIError(MPI_ERR_BUFFER,
                       f"send buffer too small: need {need} bytes, have {src.shape[0]}")

    tm = dtype.typemap
    blocks = tm.compute_merged_blocks()
    if (len(blocks) == 1 and blocks[0].offset == tm.lb
            and blocks[0].length == tm.extent):
        # Identity layout: one memcpy.
        out[:total] = src[:total]
        return out

    ext = dtype.extent
    size = dtype.size
    if tm.true_lb < 0:
        raise MPIError(MPI_ERR_BUFFER, "negative displacements are not supported")
    # View the source as rows one extent apart (element i starts at i*extent;
    # block displacements index from the element base).  The last element may
    # not span a full extent, so handle it separately when the buffer is short.
    row_span = max(tm.true_ub, ext)
    full_rows = count if src.shape[0] >= (count - 1) * ext + row_span else count - 1
    if full_rows:
        rows = np.lib.stride_tricks.as_strided(
            src, shape=(full_rows, row_span), strides=(ext, 1), writeable=False)
        out2d = out[: full_rows * size].reshape(full_rows, size)
        pos = 0
        for b in blocks:
            out2d[:, pos:pos + b.length] = rows[:, b.offset: b.offset + b.length]
            pos += b.length
    for i in range(full_rows, count):
        base = i * ext
        pos = i * size
        for b in blocks:
            start = base + b.offset
            out[pos:pos + b.length] = src[start:start + b.length]
            pos += b.length
    return out


def unpack_reference(dtype: Datatype, buf, count: int, src) -> None:
    """Pre-plan :func:`unpack`: re-derives the typemap layout on every call."""
    dst = _as_u8(buf, writable=True)
    packed = _as_u8(src)
    total = packed_size(dtype, count)
    if packed.shape[0] < total:
        raise MPIError(MPI_ERR_BUFFER,
                       f"packed buffer too small: need {total}, have {packed.shape[0]}")
    if count == 0:
        return

    need = required_span(dtype, count)
    if dst.shape[0] < need:
        raise MPIError(MPI_ERR_BUFFER,
                       f"recv buffer too small: need {need} bytes, have {dst.shape[0]}")

    tm = dtype.typemap
    blocks = tm.compute_merged_blocks()
    if (len(blocks) == 1 and blocks[0].offset == tm.lb
            and blocks[0].length == tm.extent):
        dst[:total] = packed[:total]
        return

    ext = dtype.extent
    size = dtype.size
    if tm.true_lb < 0:
        raise MPIError(MPI_ERR_BUFFER, "negative displacements are not supported")
    row_span = max(tm.true_ub, ext)
    full_rows = count if dst.shape[0] >= (count - 1) * ext + row_span else count - 1
    if full_rows:
        rows = np.lib.stride_tricks.as_strided(
            dst, shape=(full_rows, row_span), strides=(ext, 1))
        src2d = packed[: full_rows * size].reshape(full_rows, size)
        pos = 0
        for b in blocks:
            rows[:, b.offset: b.offset + b.length] = src2d[:, pos:pos + b.length]
            pos += b.length
    for i in range(full_rows, count):
        base = i * ext
        pos = i * size
        for b in blocks:
            start = base + b.offset
            dst[start:start + b.length] = packed[pos:pos + b.length]
            pos += b.length


def pack_window_reference(dtype: Datatype, buf, count: int, offset: int,
                          length: int) -> np.ndarray:
    """Pre-plan packed-stream window ``[offset, offset+length)``: scratch-
    packs the overlapped elements for every fragment, boundary elements
    included (what :class:`repro.core.packplan.PackCursor` avoids)."""
    size = dtype.size
    total = packed_size(dtype, count)
    if offset < 0 or length < 0 or offset + length > total:
        raise MPIError(MPI_ERR_BUFFER,
                       f"pack window [{offset}, {offset + length}) outside [0, {total})")
    if length == 0 or size == 0:
        return np.empty(0, dtype=np.uint8)

    first = offset // size
    last = (offset + length - 1) // size
    nelem = last - first + 1
    src = _as_u8(buf)
    ext = dtype.extent
    sub = src[first * ext:]
    scratch = pack_reference(dtype, sub, nelem)
    lo = offset - first * size
    return scratch[lo:lo + length]


def unpack_window_reference(dtype: Datatype, buf, count: int, offset: int,
                            frag) -> None:
    """Pre-plan unpack of one fragment at ``offset``: read-modify-write
    through a scratch re-pack of the overlapped elements for every unaligned
    fragment (what :class:`repro.core.packplan.UnpackCursor` avoids)."""
    data = _as_u8(frag)
    length = data.shape[0]
    size = dtype.size
    total = packed_size(dtype, count)
    if offset < 0 or offset + length > total:
        raise MPIError(MPI_ERR_BUFFER,
                       f"unpack window [{offset}, {offset + length}) outside [0, {total})")
    if length == 0 or size == 0:
        return

    first = offset // size
    last = (offset + length - 1) // size
    nelem = last - first + 1
    dst = _as_u8(buf, writable=True)
    ext = dtype.extent
    sub = dst[first * ext:]
    lo = offset - first * size
    if lo == 0 and length == nelem * size:
        unpack_reference(dtype, sub, nelem, data)
        return
    scratch = pack_reference(dtype, sub, nelem)
    scratch[lo:lo + length] = data
    unpack_reference(dtype, sub, nelem, scratch)
