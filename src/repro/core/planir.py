"""Op-level pack-plan IR, rewrite passes, and pluggable executors.

:class:`~repro.core.packplan.PackPlan` used to compile a typemap straight to
one fixed executable form (a column-slice table plus an optional byte-gather
index).  This module splits that step into a small compiler in the spirit of
the MLIR-style MPI dialect lowerings (PAPERS.md) and TEMPI's canonical
datatype representation: typemaps lower to an explicit IR, rewrite passes
bring the IR into a cheaper canonical form, and an executor backend turns
the final IR into numpy calls.

IR ops (all offsets are bytes; ``src`` is the element base in user memory,
``dst`` the packed wire stream of one element):

* :class:`CopyBlock` ``(src_off, dst_off, nbytes)`` — one contiguous copy.
* :class:`StridedLoop` ``(count, src_stride, dst_stride, body)`` — repeat
  ``body`` ``count`` times; iteration ``i`` shifts source offsets by
  ``i * src_stride`` and wire offsets by ``i * dst_stride``.  Body ops carry
  the absolute offsets of iteration 0.
* :class:`Gather` ``(src_index, dst_off)`` — byte gather: wire byte
  ``dst_off + j`` reads source byte ``src_index[j]``.

Passes (:data:`default_pipeline`):

* ``coalesce-blocks`` — merge copies adjacent in both memory and wire order;
* ``canonicalize-strides`` — rewrite periodic runs of copies into
  :class:`StridedLoop` ops (TEMPI's stride canonicalization);
* ``collapse-loops`` — flatten perfectly tiling loop nests and inline
  single-iteration loops;
* ``promote-contiguity`` — turn gap-free loops back into single copies;
* ``form-gather`` — when the canonical form still needs too many numpy
  calls per element, collapse the whole program into one byte-gather.

Every pass is *translation-validated* before its output is trusted:
:func:`byte_map` symbolically enumerates the ``wire offset -> source
offset`` byte map of a program, and :mod:`repro.analyze.planverify` proves
the map unchanged across each pass (diagnostic ``RPD610``) and checks IR
well-formedness invariants (``RPD600``-``RPD602``).

Executors (:class:`IRExecutor`): the ``slices`` backend issues one strided
numpy copy per :class:`CopyBlock` leaf (loops become extra ``as_strided``
dimensions, vectorized across elements), the ``gather`` backend executes a
:class:`Gather` with one batched ``np.take`` / fancy-scatter per call.  The
backend is whatever the final IR calls for: ``form-gather`` is the only
place the choice is made, from what the compiler can observe (leaf calls,
packed size, row aliasing).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator

import numpy as np

from .typemap import Typemap

__all__ = [
    "CopyBlock", "StridedLoop", "Gather", "Program", "Pass",
    "lower_typemap", "byte_map", "enumerate_bytes", "leaf_calls",
    "op_count", "default_pipeline", "run_pipeline", "IRExecutor",
    "coalesce_blocks", "canonicalize_strides", "collapse_loops",
    "promote_contiguity", "form_gather",
]

#: Longest repeating op pattern the stride canonicalizer searches for.
MAX_PERIOD = 8
#: Minimum repetitions before a periodic run becomes a StridedLoop.
MIN_REPS = 4
#: Leaf-call count at which the pipeline collapses the program into a
#: single byte-gather (one numpy call instead of a python loop of copies).
GATHER_MIN_CALLS = 32
#: Never materialize a gather index over more than this many packed bytes
#: (the index costs 8 bytes per packed byte).
GATHER_MAX_BYTES = 1 << 20

_as_strided = np.lib.stride_tricks.as_strided


# ---------------------------------------------------------------------------
# ops and programs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CopyBlock:
    """Copy ``nbytes`` from source offset ``src_off`` to wire ``dst_off``."""

    src_off: int
    dst_off: int
    nbytes: int


@dataclass(frozen=True)
class StridedLoop:
    """Repeat ``body`` ``count`` times with per-iteration offset strides.

    Body ops hold the absolute offsets of iteration 0; iteration ``i`` adds
    ``i * src_stride`` / ``i * dst_stride``.  Wire strides are positive for
    any well-formed program (the wire is written front to back); source
    strides may be negative (descending hindexed layouts).
    """

    count: int
    src_stride: int
    dst_stride: int
    body: tuple


class Gather:
    """Byte gather: wire byte ``dst_off + j`` reads source ``src_index[j]``.

    Carries a numpy ``intp`` index array, so equality is defined by value
    (``np.array_equal``) rather than identity.
    """

    __slots__ = ("src_index", "dst_off")

    def __init__(self, src_index, dst_off: int = 0):
        self.src_index = np.ascontiguousarray(src_index, dtype=np.intp)
        self.dst_off = int(dst_off)

    @property
    def nbytes(self) -> int:
        return int(self.src_index.shape[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Gather):
            return NotImplemented
        return (self.dst_off == other.dst_off
                and np.array_equal(self.src_index, other.src_index))

    def __hash__(self):  # pragma: no cover - identity is enough
        return id(self)

    def __repr__(self) -> str:
        return f"Gather({self.nbytes} bytes, dst_off={self.dst_off})"


@dataclass(frozen=True)
class Program:
    """An op list plus the layout envelope it was lowered from.

    ``size``/``extent``/``row_span`` mirror the typemap quantities the
    executor needs; ``src_lo``/``src_hi`` are the true bounds every source
    offset must stay within (the ``RPD601`` invariant).
    """

    ops: tuple
    size: int
    extent: int
    row_span: int
    src_lo: int
    src_hi: int

    def with_ops(self, ops: Iterable) -> "Program":
        """The same envelope around a rewritten op list."""
        return replace(self, ops=tuple(ops))

    def __repr__(self) -> str:
        return (f"Program({op_count(self.ops)} ops, {leaf_calls(self.ops)} "
                f"calls, size={self.size}, extent={self.extent})")


def lower_typemap(tm: Typemap) -> Program:
    """Lower a typemap to the canonical initial IR: one :class:`CopyBlock`
    per merged block, wire offsets dense in declaration (pack) order."""
    ops = []
    pos = 0
    for b in tm.merged_blocks():
        ops.append(CopyBlock(b.offset, pos, b.length))
        pos += b.length
    return Program(tuple(ops), size=tm.size, extent=tm.extent,
                   row_span=max(tm.true_ub, tm.extent),
                   src_lo=min(tm.true_lb, 0), src_hi=tm.true_ub)


def op_count(ops: Iterable) -> int:
    """Total op nodes in a (possibly nested) op list."""
    n = 0
    for op in ops:
        n += 1
        if isinstance(op, StridedLoop):
            n += op_count(op.body)
    return n


def leaf_calls(ops: Iterable) -> int:
    """Numpy calls per element the slice/gather executor issues: one per
    :class:`CopyBlock` leaf (loops vectorize into the call) or
    :class:`Gather`."""
    n = 0
    for op in ops:
        if isinstance(op, StridedLoop):
            n += leaf_calls(op.body)
        else:
            n += 1
    return n


def moved_bytes(ops: Iterable) -> int:
    """Packed bytes one execution of ``ops`` writes."""
    total = 0
    for op in ops:
        if isinstance(op, StridedLoop):
            total += op.count * moved_bytes(op.body)
        elif isinstance(op, Gather):
            total += op.nbytes
        else:
            total += op.nbytes
    return total


# ---------------------------------------------------------------------------
# symbolic byte-map enumeration (the translation-validation oracle)
# ---------------------------------------------------------------------------

def enumerate_bytes(prog: Program) -> tuple[np.ndarray, np.ndarray]:
    """``(src, dst)`` byte offsets of every write, in execution order.

    The arrays have one entry per packed byte the program writes; this is
    the ground truth the verifier checks invariants against.
    """
    srcs: list[np.ndarray] = []
    dsts: list[np.ndarray] = []

    def emit(op, sbase: int, dbase: int) -> None:
        if isinstance(op, CopyBlock):
            s0 = sbase + op.src_off
            d0 = dbase + op.dst_off
            srcs.append(np.arange(s0, s0 + op.nbytes, dtype=np.intp))
            dsts.append(np.arange(d0, d0 + op.nbytes, dtype=np.intp))
        elif isinstance(op, Gather):
            srcs.append(op.src_index + sbase)
            d0 = dbase + op.dst_off
            dsts.append(np.arange(d0, d0 + op.nbytes, dtype=np.intp))
        else:
            if len(op.body) == 1 and isinstance(op.body[0], CopyBlock):
                # Vectorized common case: a loop over one block.
                b = op.body[0]
                it = np.arange(op.count, dtype=np.intp)[:, None]
                off = np.arange(b.nbytes, dtype=np.intp)[None, :]
                srcs.append(((sbase + b.src_off) + it * op.src_stride
                             + off).ravel())
                dsts.append(((dbase + b.dst_off) + it * op.dst_stride
                             + off).ravel())
                return
            for i in range(op.count):
                for b in op.body:
                    emit(b, sbase + i * op.src_stride,
                         dbase + i * op.dst_stride)

    for op in prog.ops:
        emit(op, 0, 0)
    if not srcs:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    return np.concatenate(srcs), np.concatenate(dsts)


def byte_map(prog: Program) -> np.ndarray:
    """The ``wire offset -> source offset`` map of a program.

    Index ``j`` holds the source byte that wire byte ``j`` reads, or ``-1``
    when the program never writes wire byte ``j``.  Two programs are
    byte-map-equivalent iff these arrays are equal — the property every
    rewrite pass must preserve.
    """
    src, dst = enumerate_bytes(prog)
    out = np.full(prog.size, -1, dtype=np.intp)
    valid = (dst >= 0) & (dst < prog.size)
    out[dst[valid]] = src[valid]
    return out


# ---------------------------------------------------------------------------
# rewrite passes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pass:
    """A named Program -> Program rewrite."""

    name: str
    fn: Callable[[Program], Program]

    def __call__(self, prog: Program) -> Program:
        return self.fn(prog)

    def __repr__(self) -> str:
        return f"Pass({self.name!r})"


def _coalesce_ops(ops: tuple) -> tuple:
    out: list = []
    for op in ops:
        if isinstance(op, StridedLoop):
            op = StridedLoop(op.count, op.src_stride, op.dst_stride,
                             _coalesce_ops(op.body))
        if (out and isinstance(op, CopyBlock)
                and isinstance(out[-1], CopyBlock)
                and out[-1].src_off + out[-1].nbytes == op.src_off
                and out[-1].dst_off + out[-1].nbytes == op.dst_off):
            prev = out[-1]
            out[-1] = CopyBlock(prev.src_off, prev.dst_off,
                                prev.nbytes + op.nbytes)
        else:
            out.append(op)
    return tuple(out)


def _canonicalize_ops(ops: tuple) -> tuple:
    out: list = []
    i = 0
    n = len(ops)
    while i < n:
        op = ops[i]
        if isinstance(op, StridedLoop):
            out.append(StridedLoop(op.count, op.src_stride, op.dst_stride,
                                   _canonicalize_ops(op.body)))
            i += 1
            continue
        if not isinstance(op, CopyBlock):
            out.append(op)
            i += 1
            continue
        best = None  # (period, reps, src_delta, dst_delta)
        for p in range(1, MAX_PERIOD + 1):
            if i + 2 * p > n:
                break
            window = ops[i:i + p]
            if not all(isinstance(w, CopyBlock) for w in window):
                break
            if not all(isinstance(w, CopyBlock) for w in ops[i + p:i + 2 * p]):
                continue
            sd = ops[i + p].src_off - op.src_off
            dd = ops[i + p].dst_off - op.dst_off
            reps = 1
            while i + (reps + 1) * p <= n and all(
                    isinstance(ops[i + reps * p + k], CopyBlock)
                    and ops[i + reps * p + k].src_off
                    == window[k].src_off + reps * sd
                    and ops[i + reps * p + k].dst_off
                    == window[k].dst_off + reps * dd
                    and ops[i + reps * p + k].nbytes == window[k].nbytes
                    for k in range(p)):
                reps += 1
            if reps >= MIN_REPS and (best is None
                                     or reps * p > best[1] * best[0]):
                best = (p, reps, sd, dd)
        if best is not None:
            p, reps, sd, dd = best
            out.append(StridedLoop(reps, sd, dd, tuple(ops[i:i + p])))
            i += reps * p
        else:
            out.append(op)
            i += 1
    return tuple(out)


def _collapse_ops(ops: tuple) -> tuple:
    out: list = []
    for op in ops:
        if not isinstance(op, StridedLoop):
            out.append(op)
            continue
        body = _collapse_ops(op.body)
        if op.count == 1:
            # Degenerate loop: body offsets are already absolute.
            out.extend(body)
            continue
        if len(body) == 1 and isinstance(body[0], StridedLoop):
            inner = body[0]
            if (op.src_stride == inner.count * inner.src_stride
                    and op.dst_stride == inner.count * inner.dst_stride):
                out.append(StridedLoop(op.count * inner.count,
                                       inner.src_stride, inner.dst_stride,
                                       inner.body))
                continue
        out.append(StridedLoop(op.count, op.src_stride, op.dst_stride, body))
    return tuple(out)


def _promote_ops(ops: tuple) -> tuple:
    out: list = []
    for op in ops:
        if isinstance(op, StridedLoop):
            body = _promote_ops(op.body)
            if (len(body) == 1 and isinstance(body[0], CopyBlock)
                    and op.src_stride == body[0].nbytes
                    and op.dst_stride == body[0].nbytes):
                b = body[0]
                out.append(CopyBlock(b.src_off, b.dst_off,
                                     op.count * b.nbytes))
                continue
            out.append(StridedLoop(op.count, op.src_stride, op.dst_stride,
                                   body))
        else:
            out.append(op)
    return _coalesce_ops(tuple(out))


coalesce_blocks = Pass(
    "coalesce-blocks", lambda p: p.with_ops(_coalesce_ops(p.ops)))
canonicalize_strides = Pass(
    "canonicalize-strides", lambda p: p.with_ops(_canonicalize_ops(p.ops)))
collapse_loops = Pass(
    "collapse-loops", lambda p: p.with_ops(_collapse_ops(p.ops)))
promote_contiguity = Pass(
    "promote-contiguity", lambda p: p.with_ops(_promote_ops(p.ops)))


def _form_gather(prog: Program) -> Program:
    """Collapse a still call-heavy program into one :class:`Gather`.

    A plan may execute vectorized across element rows, and the fancy
    *scatter* on the unpack side is only order-safe there when rows do not
    alias, so aliasing layouts (``row_span > extent``) keep their copies.
    """
    if (leaf_calls(prog.ops) < GATHER_MIN_CALLS
            or prog.size > GATHER_MAX_BYTES
            or prog.row_span > prog.extent):
        return prog
    return prog.with_ops((Gather(byte_map(prog), 0),))


form_gather = Pass("form-gather", _form_gather)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def default_pipeline() -> tuple[Pass, ...]:
    """The standard pass pipeline of every plan compilation."""
    return (coalesce_blocks, canonicalize_strides, collapse_loops,
            promote_contiguity, form_gather)


def run_pipeline(prog: Program,
                 pipeline: Iterable[Pass] | None = None
                 ) -> tuple[Program, tuple[str, ...]]:
    """Apply ``pipeline`` and return ``(final program, applied pass names)``.

    A pass is recorded as applied only when it changed the op list, so the
    trace shows which rewrites actually fired for a given layout.
    """
    if pipeline is None:
        pipeline = default_pipeline()
    applied = []
    for p in pipeline:
        new = p(prog)
        if new.ops != prog.ops:
            applied.append(p.name)
        prog = new
    return prog, tuple(applied)


# ---------------------------------------------------------------------------
# executors
# ---------------------------------------------------------------------------

def _collect_items(ops: tuple, dims: tuple = ()) -> Iterator[tuple]:
    """Flatten ops to executor items: ``("copy", src_off, dst_off, nbytes,
    dims)`` with ``dims`` the enclosing ``(count, src_stride, dst_stride)``
    loop dimensions, or ``("gather", index, dst_off)``."""
    for op in ops:
        if isinstance(op, StridedLoop):
            yield from _collect_items(
                op.body,
                dims + ((op.count, op.src_stride, op.dst_stride),))
        elif isinstance(op, Gather):
            if dims:
                raise NotImplementedError(
                    "Gather inside a StridedLoop is not executable")
            yield ("gather", op.src_index, op.dst_off)
        else:
            yield ("copy", op.src_off, op.dst_off, op.nbytes, dims)


class IRExecutor:
    """Executes a final-form program with vectorized numpy calls.

    ``pack_rows``/``unpack_rows`` run ``nrows`` whole elements at once
    (element ``r`` based at ``r * extent`` in memory, ``r * size`` on the
    wire); ``pack_one``/``unpack_one`` run a single element whose buffers
    the caller has already re-based (the short-final-element tail).

    A :class:`Gather` over aliasing rows (``row_span > extent``) is
    rejected: the vectorized fancy scatter would not keep the reference
    engine's element-by-element write order there.
    """

    __slots__ = ("size", "extent", "row_span", "kind", "_items")

    def __init__(self, prog: Program):
        self.size = prog.size
        self.extent = prog.extent
        self.row_span = prog.row_span
        self._items = tuple(_collect_items(prog.ops))
        #: Backend label: ``slices`` or ``gather``.
        self.kind = "slices"
        if any(it[0] == "gather" for it in self._items):
            self.kind = "gather"
            if prog.row_span > prog.extent:
                raise ValueError(
                    f"Gather over aliasing rows (row_span {prog.row_span} "
                    f"> extent {prog.extent}) is not executable")

    # -- vectorized whole-row execution -----------------------------------

    def _views(self, op, buf: np.ndarray, nrows: int, row_stride: int,
               src_side: bool, writeable: bool) -> np.ndarray:
        _, so, do, nb, dims = op
        off = so if src_side else do
        shape = (nrows, *(d[0] for d in dims), nb)
        strides = (row_stride,
                   *((d[1] if src_side else d[2]) for d in dims), 1)
        # The base points at iteration 0 of every loop dim; a negative
        # source stride then walks to lower addresses, which stay inside
        # the caller's buffer because every absolute offset is >= 0.
        return _as_strided(buf[off:], shape=shape, strides=strides,
                           writeable=writeable)

    def pack_rows(self, src: np.ndarray, out: np.ndarray,
                  nrows: int) -> None:
        """Pack ``nrows`` full elements of ``src`` into ``out``."""
        size = self.size
        for it in self._items:
            if it[0] == "copy":
                dv = self._views(it, out, nrows, size, False, True)
                sv = self._views(it, src, nrows, self.extent, True, False)
                dv[...] = sv
            else:
                _, idx, do = it
                rows = _as_strided(src, shape=(nrows, self.row_span),
                                   strides=(self.extent, 1),
                                   writeable=False)
                out2d = out[: nrows * size].reshape(nrows, size)
                np.take(rows, idx, axis=1,
                        out=out2d[:, do:do + idx.shape[0]])

    def unpack_rows(self, dst: np.ndarray, packed: np.ndarray,
                    nrows: int) -> None:
        """Scatter ``nrows`` elements of the packed stream into ``dst``."""
        size = self.size
        for it in self._items:
            if it[0] == "copy":
                sv = self._views(it, packed, nrows, size, False, False)
                dv = self._views(it, dst, nrows, self.extent, True, True)
                dv[...] = sv
            else:
                _, idx, do = it
                src2d = packed[: nrows * size].reshape(nrows, size)
                rows = _as_strided(dst, shape=(nrows, self.row_span),
                                   strides=(self.extent, 1))
                rows[:, idx] = src2d[:, do:do + idx.shape[0]]

    # -- single-element execution (the short final element) ----------------

    def pack_one(self, src: np.ndarray, out: np.ndarray) -> None:
        """Pack one element; ``src``/``out`` are already element-based."""
        for it in self._items:
            if it[0] == "copy":
                _, so, do, nb, dims = it
                if not dims:
                    out[do:do + nb] = src[so:so + nb]
                    continue
                shape = (*(d[0] for d in dims), nb)
                sv = _as_strided(src[so:], shape=shape,
                                 strides=(*(d[1] for d in dims), 1),
                                 writeable=False)
                dv = _as_strided(out[do:], shape=shape,
                                 strides=(*(d[2] for d in dims), 1))
                dv[...] = sv
            else:
                _, idx, do = it
                np.take(src, idx, out=out[do:do + idx.shape[0]])

    def unpack_one(self, dst: np.ndarray, packed: np.ndarray) -> None:
        """Scatter one element; ``dst``/``packed`` are element-based."""
        for it in self._items:
            if it[0] == "copy":
                _, so, do, nb, dims = it
                if not dims:
                    dst[so:so + nb] = packed[do:do + nb]
                    continue
                shape = (*(d[0] for d in dims), nb)
                sv = _as_strided(packed[do:], shape=shape,
                                 strides=(*(d[2] for d in dims), 1),
                                 writeable=False)
                dv = _as_strided(dst[so:], shape=shape,
                                 strides=(*(d[1] for d in dims), 1))
                dv[...] = sv
            else:
                _, idx, do = it
                dst[idx] = packed[do:do + idx.shape[0]]
