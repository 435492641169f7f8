"""Compiled pack plans and streaming pack/unpack cursors.

The stand-in datatype engine used to re-derive its layout on every call:
``pack()``/``unpack()`` recomputed ``Typemap.merged_blocks()`` plus the
strided-2D view parameters per invocation, and the fragment-pipeline
primitives re-packed boundary elements for every window.  TEMPI's core
observation (PAPERS.md) is that compiling a datatype to a canonical
representation *once* and reusing it is what makes non-contiguous transfers
fast; this module is that compiler.

* :class:`PackPlan` — everything layout-derived and count-independent,
  compiled once per canonical layout, cached through
  :func:`repro.core.typecache.pack_plan` and bound to a datatype on its
  first use (:func:`repro.core.typecache.bound_plan`).  Compilation
  lowers the typemap into the :mod:`repro.core.planir` op IR, runs the
  rewrite pass pipeline (block coalescing, stride canonicalization, loop
  collapsing, contiguity promotion, gather formation, record fusion, unit
  widening), and binds the executor the final IR calls for; the
  contiguous fast-path decision stays at the plan level.
  The lowered IR, the applied pass names, and the resolved backend are
  exposed as ``plan.ir`` / ``plan.passes`` / ``plan.executor`` so the
  static verifier (:mod:`repro.analyze.planverify`) can re-check exactly
  what executes.
* :class:`PackedSource` — a packed stream that is bound, not built: what a
  deferred pack returns.  :meth:`PackPlan.copy_into` lands it in the same
  layout in one pass (``unpack(pack(src))`` with no stream between);
  anything else builds it once with :meth:`PackedSource.materialize`.
* :class:`PackCursor` / :class:`UnpackCursor` — per-request streaming state
  for a fragment pipeline (UCP's GENERIC datatype).  A cursor packs (or
  scatters) each element range exactly once into a pooled scratch buffer;
  successive windows slice the retained scratch instead of re-packing the
  boundary elements of every fragment.

Plans change *wall-clock* execution only.  The bytes produced are identical
to the retained reference implementation (asserted property-style by
``tests/core/test_packplan.py``) and the virtual-time cost model charged by
:mod:`repro.mpi.engine` is untouched.
"""

from __future__ import annotations

import numpy as np

from ..errors import MPI_ERR_BUFFER, MPIError
from .datatype import Datatype
from .planir import IRExecutor, lower_typemap, run_pipeline

_NEGATIVE_DISPL_MSG = "negative displacements are not supported"

#: PackCursor lookahead: each scratch materialization packs at least this
#: many bytes ahead, so an 8 KiB fragment pipeline slices most windows out
#: of scratch instead of paying per-fragment pack overhead.
_CURSOR_BATCH_BYTES = 1 << 16

_U8 = np.dtype(np.uint8)


def _as_u8(buf, writable: bool = False) -> np.ndarray:
    """View any buffer-protocol object as a flat uint8 array."""
    if isinstance(buf, np.ndarray):
        arr = buf
        if not arr.flags.c_contiguous:
            raise MPIError(MPI_ERR_BUFFER, "buffer must be C-contiguous")
        if arr.dtype is _U8 and arr.ndim == 1:
            out = arr
        elif arr.ndim and not arr.dtype.hasobject:
            # ``frombuffer`` skips the Python-level safety check ``view``
            # runs on a structured dtype; object arrays and 0-d arrays keep
            # ``view`` and its errors.
            out = np.frombuffer(arr, _U8)
        else:
            out = arr.view(_U8).reshape(-1)
    else:
        mv = memoryview(buf)
        if not mv.contiguous:
            raise MPIError(MPI_ERR_BUFFER, "buffer must be contiguous")
        out = np.frombuffer(mv, dtype=np.uint8)
    if writable and not out.flags.writeable:
        raise MPIError(MPI_ERR_BUFFER, "buffer is read-only")
    return out


def required_span(dtype: Datatype, count: int) -> int:
    """Bytes of user buffer a send/recv of ``count`` elements touches.

    MPI semantics: the buffer spans ``lb .. (count-1)*extent + ub`` relative
    to the base address; with lb==0 this is simply ``count * extent`` except
    that the final element only needs its true upper bound.
    """
    if count == 0:
        return 0
    tm = dtype.typemap
    return (count - 1) * dtype.extent + max(tm.true_ub, 0)


class PackPlan:
    """A typemap compiled to its executable packing form.

    Instances are immutable and shareable across threads; compile through
    :func:`repro.core.typecache.pack_plan`, which caches one plan per
    canonical layout in an LRU.
    """

    __slots__ = ("size", "extent", "span", "contiguous", "negative_lb",
                 "nblocks", "ir", "passes", "executor", "_exec")

    def __init__(self, tm):
        self.size = tm.size
        self.extent = tm.extent
        #: Bytes the last element touches (see :func:`required_span`).
        self.span = max(tm.true_ub, 0)
        self.contiguous = tm.is_contiguous
        self.negative_lb = tm.true_lb < 0
        self.nblocks = len(tm.merged_blocks())
        self.ir, self.passes = run_pipeline(lower_typemap(tm))
        self._exec = IRExecutor(self.ir)
        #: Resolved backend: ``contig`` fast path, ``slices``, or ``gather``.
        self.executor = "contig" if self.contiguous else self._exec.kind

    # -- execution ---------------------------------------------------------
    # Callers (repro.core.packing) validate buffer sizes and handle count==0
    # so the error messages stay byte-identical to the reference engine.

    def pack_into(self, src: np.ndarray, count: int, out: np.ndarray) -> None:
        """Pack ``count`` elements from ``src`` into the flat ``out``."""
        if self.contiguous:
            total = self.size * count
            out[:total] = src[:total]
            return
        if self.negative_lb:
            raise MPIError(MPI_ERR_BUFFER, _NEGATIVE_DISPL_MSG)
        self._exec.pack(src, out, count)

    def unpack_into(self, dst: np.ndarray, count: int,
                    packed: np.ndarray) -> None:
        """Scatter the flat ``packed`` stream into ``count`` elements."""
        if self.contiguous:
            total = self.size * count
            dst[:total] = packed[:total]
            return
        if self.negative_lb:
            raise MPIError(MPI_ERR_BUFFER, _NEGATIVE_DISPL_MSG)
        self._exec.unpack(dst, packed, count)

    def copy_into(self, src: np.ndarray, dst: np.ndarray,
                  count: int) -> None:
        """Copy ``count`` elements from ``src`` into the same layout in
        ``dst`` — ``unpack_into(dst, pack_into(src))`` in one pass, with no
        packed stream; bytes of ``dst`` outside the layout are untouched."""
        if self.contiguous:
            total = self.size * count
            dst[:total] = src[:total]
            return
        if self.negative_lb:
            raise MPIError(MPI_ERR_BUFFER, _NEGATIVE_DISPL_MSG)
        self._exec.copy(src, dst, count)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "contig" if self.contiguous else f"{self.nblocks} blocks"
        return (f"PackPlan({kind}, size={self.size}, extent={self.extent}, "
                f"executor={self.executor}, "
                f"passes={list(self.passes)})")


class PackedSource:
    """The packed stream of ``count`` elements of ``src`` under ``plan``,
    not built yet: what a deferred :func:`repro.core.packing.pack` returns
    once its checks passed.

    An in-process rendezvous ships it in place of the packed bytes.  A
    receive into the same plan copies layout to layout
    (:meth:`PackPlan.copy_into`, through :func:`repro.core.packing.unpack`);
    any other receive gets the stream built once by :meth:`materialize`.
    ``len()`` is the stream's byte count, like a wire chunk's.
    """

    __slots__ = ("plan", "src", "count", "nbytes")

    def __init__(self, plan: PackPlan, src: np.ndarray, count: int):
        self.plan = plan
        self.src = src
        self.count = count
        self.nbytes = plan.size * count

    def __len__(self) -> int:
        return self.nbytes

    def materialize(self, pool=None) -> np.ndarray:
        """The packed bytes, in a buffer from ``pool`` (any object with
        ``acquire(nbytes)``; None: a fresh array) that the caller owns."""
        out = np.empty(self.nbytes, dtype=np.uint8) if pool is None \
            else pool.acquire(self.nbytes)
        if self.count:
            self.plan.pack_into(self.src, self.count, out)
        return out


# ---------------------------------------------------------------------------
# streaming cursors (a fragment pipeline)
# ---------------------------------------------------------------------------

def _scratch_alloc(pool, nbytes: int) -> np.ndarray:
    if pool is None:
        return np.empty(nbytes, dtype=np.uint8)
    return pool.acquire(nbytes)


def _scratch_free(pool, buf) -> None:
    if pool is not None and buf is not None:
        pool.release(buf)


class PackCursor:
    """Per-request pack state over the packed stream of one send.

    ``window(offset, length)`` returns the packed bytes of the half-open
    stream window, which need not align with element boundaries, and packs
    every element at most once: the scratch holding the most recently packed
    element range is retained, so the element straddling a fragment boundary
    is served from scratch instead of being re-packed by the next fragment.

    ``pool`` (optional) is any object with ``acquire(nbytes)``/``release``
    — in the simulator the per-worker :class:`repro.ucp.memory.BufferPool`.
    Use as a context manager (or call :meth:`close`) to return the scratch.
    """

    def __init__(self, dtype: Datatype, buf, count: int, pool=None):
        from .typecache import bound_plan  # local: typecache imports us
        self.dtype = dtype
        self.count = count
        self.total = dtype.size * count
        self._src = _as_u8(buf)
        self._plan = getattr(dtype, "_plan", None) or bound_plan(dtype)
        self._pool = pool
        self._scratch: np.ndarray | None = None
        self._e0 = 0  # element range currently materialized in scratch
        self._e1 = 0

    # -- context management ------------------------------------------------

    def __enter__(self) -> "PackCursor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        _scratch_free(self._pool, self._scratch)
        self._scratch = None
        self._e0 = self._e1 = 0

    # -- the pipeline primitive -------------------------------------------

    def window(self, offset: int, length: int) -> np.ndarray:
        """Packed bytes of ``[offset, offset + length)``; a view, valid
        until the next :meth:`window` call."""
        size = self._plan.size
        if offset < 0 or length < 0 or offset + length > self.total:
            raise MPIError(
                MPI_ERR_BUFFER,
                f"pack window [{offset}, {offset + length}) outside "
                f"[0, {self.total})")
        if length == 0 or size == 0:
            return np.empty(0, dtype=np.uint8)
        if self._plan.contiguous:
            return self._src[offset:offset + length]
        first = offset // size
        last = (offset + length - 1) // size
        if not (self._e0 <= first and last < self._e1):
            # Materialize with lookahead: pack whole batches so successive
            # fragments slice scratch instead of packing per window.
            batch = max(last + 1 - first, _CURSOR_BATCH_BYTES // size, 1)
            self._materialize(first, min(self.count, first + batch))
        lo = offset - self._e0 * size
        return self._scratch[lo:lo + length]

    def pack(self, offset: int, dst: np.ndarray) -> int:
        """Pack callback of a fragment pipeline: fill ``dst``, return
        bytes written (``pack(offset, dst) -> used``)."""
        w = self.window(offset, min(int(dst.shape[0]),
                                    self.total - offset))
        dst[: w.shape[0]] = w
        return int(w.shape[0])

    def _materialize(self, e0: int, e1: int) -> None:
        """Ensure scratch holds the packed bytes of elements ``[e0, e1)``,
        re-using (not re-packing) any overlap with the current range."""
        plan = self._plan
        size = plan.size
        ext = plan.extent
        nbytes = (e1 - e0) * size
        fresh = _scratch_alloc(self._pool, nbytes)
        pack_from = e0
        if (self._scratch is not None and self._e0 <= e0 < self._e1
                and e1 > self._e1):
            # Forward overlap (the boundary element of the previous
            # fragment): copy its packed bytes instead of re-walking it.
            keep = self._e1 - e0
            fresh[: keep * size] = \
                self._scratch[(e0 - self._e0) * size:
                              (e0 - self._e0) * size + keep * size]
            pack_from = self._e1
        if pack_from < e1:
            sub = self._src[pack_from * ext:]
            plan.pack_into(sub, e1 - pack_from,
                           fresh[(pack_from - e0) * size:])
        _scratch_free(self._pool, self._scratch)
        self._scratch = fresh
        self._e0, self._e1 = e0, e1


class UnpackCursor:
    """Per-request unpack state over the packed stream of one receive.

    Fragments written in increasing-offset order (the pipeline's guarantee)
    accumulate in an element-aligned staging scratch and scatter in whole
    batches — one plan execution per ~:data:`_CURSOR_BATCH_BYTES`, not one
    per fragment — so boundary elements are never read-modify-written per
    fragment.  Out-of-order writes read-modify-write the elements they
    touch (:meth:`_scatter_unaligned`).

    The cursor buffers: call :meth:`flush` (or :meth:`close`, or use as a
    context manager) after the last fragment to scatter the tail.
    """

    def __init__(self, dtype: Datatype, buf, count: int, pool=None):
        from .typecache import bound_plan
        self.dtype = dtype
        self.count = count
        self.total = dtype.size * count
        self._dst = _as_u8(buf, writable=True)
        need = required_span(dtype, count)
        if self._dst.shape[0] < need:
            raise MPIError(MPI_ERR_BUFFER,
                           f"recv buffer too small: need {need} bytes, "
                           f"have {self._dst.shape[0]}")
        self._plan = getattr(dtype, "_plan", None) or bound_plan(dtype)
        self._pool = pool
        self._pos = 0  # next expected in-order stream offset
        size = self._plan.size
        self._cap = max(_CURSOR_BATCH_BYTES // size, 1) * size if size else 0
        self._stage: np.ndarray | None = None
        self._start = 0  # stream offset of _stage[0]; element-aligned
        self._fill = 0

    def __enter__(self) -> "UnpackCursor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self.flush()
        _scratch_free(self._pool, self._stage)
        self._stage = None

    def write(self, offset: int, frag) -> None:
        """Deliver one packed fragment at ``offset`` (a fragment
        pipeline's unpack callback signature)."""
        data = _as_u8(frag)
        length = int(data.shape[0])
        size = self._plan.size
        if offset < 0 or offset + length > self.total:
            raise MPIError(
                MPI_ERR_BUFFER,
                f"unpack window [{offset}, {offset + length}) outside "
                f"[0, {self.total})")
        if length == 0 or size == 0:
            return
        if self._plan.contiguous:
            self._dst[offset:offset + length] = data
            return
        if offset != self._pos or self._plan.negative_lb:
            # Random access (out-of-order ablation): nothing to stage on.
            self.flush()
            self._scatter_unaligned(offset, data)
            self._pos = offset + length
            return
        pos = 0
        head = (-self._pos) % size
        if head and self._fill == 0:
            # Re-entering mid-element (after an out-of-order flush): finish
            # the boundary element in place, then stage from the next.
            take = min(head, length)
            self._scatter_unaligned(self._pos, data[:take])
            self._pos += take
            pos = take
        ext = self._plan.extent
        while pos < length:
            if self._fill == 0:
                # Big in-order runs scatter straight from the fragment.
                whole = (length - pos) // size
                if whole * size >= self._cap:
                    elem = self._pos // size
                    self._plan.unpack_into(self._dst[elem * ext:], whole,
                                           data[pos:pos + whole * size])
                    pos += whole * size
                    self._pos += whole * size
                    continue
                self._start = self._pos
            if self._stage is None:
                self._stage = _scratch_alloc(self._pool, self._cap)
            take = min(length - pos, self._cap - self._fill)
            self._stage[self._fill:self._fill + take] = data[pos:pos + take]
            self._fill += take
            self._pos += take
            pos += take
            if self._fill == self._cap:
                self._drain()

    def _drain(self) -> None:
        """Scatter the staged whole elements; keep the partial tail."""
        if not self._fill:
            return
        size = self._plan.size
        whole = self._fill // size
        if whole:
            elem = self._start // size
            self._plan.unpack_into(self._dst[elem * self._plan.extent:],
                                   whole, self._stage[: whole * size])
            rem = self._fill - whole * size
            if rem:
                self._stage[:rem] = \
                    self._stage[whole * size: whole * size + rem]
            self._start += whole * size
            self._fill = rem

    def flush(self) -> None:
        """Scatter everything staged; a trailing partial element goes
        through a read-modify-write that preserves the bytes outside it."""
        self._drain()
        if not self._fill:
            return
        self._scatter_unaligned(self._start, self._stage[: self._fill])
        self._start += self._fill
        self._fill = 0

    def _scatter_unaligned(self, offset: int, data: np.ndarray) -> None:
        """Scatter ``data`` at stream ``offset`` with no element alignment
        assumed: the elements it touches are packed to scratch, patched and
        scattered back, which preserves their bytes outside the window."""
        plan = self._plan
        size = plan.size
        length = int(data.shape[0])
        first = offset // size
        nelem = (offset + length - 1) // size - first + 1
        sub = self._dst[first * plan.extent:]
        lo = offset - first * size
        if lo or length != nelem * size:
            scratch = np.empty(nelem * size, dtype=np.uint8)
            plan.pack_into(sub, nelem, scratch)
            scratch[lo:lo + length] = data
            data = scratch
        plan.unpack_into(sub, nelem, data)
