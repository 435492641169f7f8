"""Op-level pack-plan IR, rewrite passes, and the executor.

:class:`~repro.core.packplan.PackPlan` used to compile a typemap straight to
one fixed executable form (a column-slice table plus an optional byte-gather
index).  This module splits that step into a small compiler in the spirit of
the MLIR-style MPI dialect lowerings (PAPERS.md) and TEMPI's canonical
datatype representation: typemaps lower to an explicit IR, rewrite passes
bring the IR into a cheaper canonical form and pick its kernels, and the
executor turns the final IR into numpy calls.

IR ops (all offsets are bytes; ``src`` is the element base in user memory,
``dst`` the packed wire stream of one element):

* :class:`CopyBlock` ``(src_off, dst_off, nbytes)`` — one contiguous copy.
* :class:`StridedLoop` ``(count, src_stride, dst_stride, body)`` — repeat
  ``body`` ``count`` times; iteration ``i`` shifts source offsets by
  ``i * src_stride`` and wire offsets by ``i * dst_stride``.  Body ops carry
  the absolute offsets of iteration 0.
* :class:`Gather` ``(src_index, dst_off, unit)`` — lane gather: wire lane
  ``j`` (``unit`` bytes at ``dst_off + j * unit``) reads source lane
  ``src_index[j]`` (``unit`` bytes at ``src_index[j] * unit``).
* :class:`Record` ``(fields)`` — the loop-free copies of one element, moved
  by a single structured assignment.

Every copy leaf and gather carries a ``unit`` in {8, 4, 2, 1} bytes: the
word width it is executed at (TEMPI picks its kernel the same way, from the
widest word the canonical layout is aligned to).

Passes (:data:`default_pipeline`):

* ``coalesce-blocks`` — merge copies adjacent in both memory and wire order;
* ``canonicalize-strides`` — rewrite periodic runs of copies into
  :class:`StridedLoop` ops (TEMPI's stride canonicalization);
* ``collapse-loops`` — flatten perfectly tiling loop nests and inline
  single-iteration loops;
* ``promote-contiguity`` — turn gap-free loops back into single copies;
* ``form-gather`` — when the canonical form still needs too many numpy
  calls per element, collapse the whole program into one byte-gather;
* ``fuse-records`` — fold each run of top-level copies into one
  :class:`Record`, so a struct costs one numpy call and one pass over the
  source per message instead of one strided column copy per field;
* ``widen-units`` — give every remaining copy leaf and gather the widest
  unit that divides everything its addresses are built from.

Where an unpack would write some memory byte twice (rows alias, or blocks
of one element overlap) the write order is observable, so every pass that
reorders writes leaves such a program alone (:attr:`Program.order_observable`)
and it executes in the reference engine's own shape: one byte-unit copy per
merged block.

Every pass is *translation-validated* before its output is trusted:
:func:`byte_map` symbolically enumerates the ``wire offset -> source
offset`` byte map of a program, and :mod:`repro.analyze.planverify` proves
the map unchanged across each pass (diagnostic ``RPD610``) and checks IR
well-formedness invariants (``RPD600``-``RPD602``).

Executor (:class:`IRExecutor`): every leaf becomes one numpy call over a
pair of typed views — element rows and enclosing loops are view dimensions,
the innermost dimension counts units (a :class:`Record` is a 1-D view of a
structured dtype) — built with the bounds-checked ``np.ndarray`` constructor,
so a plan that leaves the caller's buffer raises instead of touching foreign
memory.  A :class:`Gather` is one batched ``np.take`` / fancy scatter over
unit lanes.  The ``slices``/``gather`` label is whatever the final IR calls
for: ``form-gather`` is the only place that choice is made, from what the
compiler can observe (leaf calls, packed size, write-order observability).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import groupby
from math import gcd
from typing import Callable, Iterable, Iterator

import numpy as np

from .typemap import Typemap

__all__ = [
    "CopyBlock", "StridedLoop", "Gather", "Record", "Program", "Pass",
    "lower_typemap", "byte_map", "enumerate_bytes", "leaves", "leaf_calls",
    "op_count", "default_pipeline", "run_pipeline", "IRExecutor",
    "coalesce_blocks", "canonicalize_strides", "collapse_loops",
    "promote_contiguity", "form_gather", "fuse_records", "widen_units",
]

#: Longest repeating op pattern the stride canonicalizer searches for.
MAX_PERIOD = 8
#: Minimum repetitions before a periodic run becomes a StridedLoop.
MIN_REPS = 4
#: Leaf-call count at which the pipeline collapses the program into a
#: single byte-gather (one numpy call instead of a python loop of copies).
#: Also bounds a :class:`Record`: longer runs of copies are either gathered
#: or (past :data:`GATHER_MAX_BYTES`) large enough to amortize their calls.
GATHER_MIN_CALLS = 32
#: Never materialize a gather index over more than this many packed bytes
#: (the index costs 8 bytes per packed byte).
GATHER_MAX_BYTES = 1 << 20

#: Execution word per unit width (bytes).
_UNIT_DTYPES = {1: np.dtype(np.uint8), 2: np.dtype(np.uint16),
                4: np.dtype(np.uint32), 8: np.dtype(np.uint64)}


def _widest_unit(*values: int) -> int:
    """The widest unit in {8, 4, 2, 1} dividing every one of ``values``."""
    g = gcd(*values)
    return next(u for u in (8, 4, 2, 1) if g % u == 0)


# ---------------------------------------------------------------------------
# ops and programs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CopyBlock:
    """Copy ``nbytes`` from source offset ``src_off`` to wire ``dst_off``,
    ``unit`` bytes at a time (whole units only: ``nbytes // unit`` of them)."""

    src_off: int
    dst_off: int
    nbytes: int
    unit: int = 1


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
    """Lane gather: wire lane ``j`` (``unit`` bytes at ``dst_off + j *
    unit``) reads source lane ``src_index[j]`` (at ``src_index[j] * unit``).

    Carries a numpy ``intp`` index array, so equality is defined by value
    (``np.array_equal``) rather than identity.
    """

    __slots__ = ("src_index", "dst_off", "unit")

    def __init__(self, src_index, dst_off: int = 0, unit: int = 1):
        self.src_index = np.ascontiguousarray(src_index, dtype=np.intp)
        self.dst_off = int(dst_off)
        self.unit = int(unit)

    @property
    def nbytes(self) -> int:
        return int(self.src_index.shape[0]) * self.unit

    def __eq__(self, other) -> bool:
        if not isinstance(other, Gather):
            return NotImplemented
        return (self.dst_off == other.dst_off and self.unit == other.unit
                and np.array_equal(self.src_index, other.src_index))

    def __hash__(self):  # pragma: no cover - identity is enough
        return id(self)

    def __repr__(self) -> str:
        return (f"Gather({self.nbytes} bytes, dst_off={self.dst_off}, "
                f"unit={self.unit})")


@dataclass(frozen=True)
class Record:
    """The loop-free copies of one element as a single structured move.

    ``fields`` are :class:`CopyBlock` ops; the executor views memory and
    wire as two structured void dtypes holding the same fields at their
    source and wire offsets and assigns one to the other — one numpy call
    and one pass over the source however many fields there are.
    """

    fields: tuple

    def dtypes(self) -> tuple[np.dtype, np.dtype]:
        """``(memory, wire)`` dtypes.  Each itemsize stops at the last field
        end (rows are strided explicitly), so the short final element of a
        message stays in bounds."""
        names = [f"f{i}" for i in range(len(self.fields))]
        formats = [f"V{f.nbytes}" for f in self.fields]
        return tuple(
            np.dtype({"names": names, "formats": formats, "offsets": offs,
                      "itemsize": max(o + f.nbytes
                                      for o, f in zip(offs, self.fields))})
            for offs in ([f.src_off for f in self.fields],
                         [f.dst_off for f in self.fields]))


@dataclass(frozen=True)
class Program:
    """An op list plus the layout envelope it was lowered from.

    ``size``/``extent``/``row_span`` mirror the typemap quantities the
    executor needs; ``src_lo``/``src_hi`` are the true bounds every source
    offset must stay within (the ``RPD601`` invariant); ``block_overlap``
    says two blocks of one element share a memory byte.
    """

    ops: tuple
    size: int
    extent: int
    row_span: int
    src_lo: int
    src_hi: int
    block_overlap: bool = False

    @property
    def order_observable(self) -> bool:
        """An unpack writes some memory byte more than once — successive
        rows alias (``row_span > extent``) or blocks of one element overlap
        — so the order of its writes shows in the result and only the
        reference engine's order (block-major, rows ascending) is right."""
        return self.block_overlap or self.row_span > self.extent

    def with_ops(self, ops: Iterable) -> "Program":
        """The same envelope around a rewritten op list."""
        return replace(self, ops=tuple(ops))

    def __repr__(self) -> str:
        return (f"Program({op_count(self.ops)} ops, {leaf_calls(self.ops)} "
                f"calls, size={self.size}, extent={self.extent})")


def lower_typemap(tm: Typemap) -> Program:
    """Lower a typemap to the canonical initial IR: one :class:`CopyBlock`
    per merged block, wire offsets dense in declaration (pack) order.  The
    runs are read from :meth:`~repro.core.typemap.Typemap.layout_key`, the
    key the plan is cached under."""
    runs = np.frombuffer(tm.layout_key()[2], dtype=np.int64).reshape(-1, 2)
    off, length = runs[:, 0], runs[:, 1]
    end = off + length
    ops = tuple(map(CopyBlock, off.tolist(), (np.cumsum(length) - length)
                    .tolist(), length.tolist()))
    by_addr = np.lexsort((end, off))
    return Program(ops, size=tm.size, extent=tm.extent,
                   row_span=max(tm.true_ub, tm.extent),
                   src_lo=min(tm.true_lb, 0), src_hi=tm.true_ub,
                   block_overlap=bool((end[by_addr][:-1]
                                       > off[by_addr][1:]).any()))


def _has_loops(ops: tuple) -> bool:
    """Whether any top-level op is a :class:`StridedLoop` (a C-level scan:
    the flat op lists of irregular layouts skip their per-op walks)."""
    return StridedLoop in map(type, ops)


def op_count(ops: Iterable) -> int:
    """Total op nodes in a (possibly nested) op list."""
    n = 0
    for op in ops:
        n += 1
        if isinstance(op, StridedLoop):
            n += op_count(op.body)
        elif isinstance(op, Record):
            n += len(op.fields)
    return n


def leaf_calls(ops: Iterable) -> int:
    """Numpy calls per message the executor issues: one per
    :class:`CopyBlock` leaf (loops and element rows vectorize into the
    call), :class:`Record` or :class:`Gather`."""
    if not _has_loops(ops):
        return len(ops)
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
        elif isinstance(op, Record):
            total += moved_bytes(op.fields)
        else:
            total += op.nbytes
    return total


def leaves(ops: Iterable, dims: tuple = ()) -> Iterator[tuple]:
    """``(leaf, dims)`` for every non-loop op, ``dims`` the enclosing
    ``(count, src_stride, dst_stride)`` loop dimensions, outermost first."""
    for op in ops:
        if isinstance(op, StridedLoop):
            yield from leaves(
                op.body, dims + ((op.count, op.src_stride, op.dst_stride),))
        else:
            yield op, dims


# ---------------------------------------------------------------------------
# symbolic byte-map enumeration (the translation-validation oracle)
# ---------------------------------------------------------------------------

def enumerate_bytes(prog: Program) -> tuple[np.ndarray, np.ndarray]:
    """``(src, dst)`` byte offsets of every write, in execution order.

    The arrays have one entry per packed byte the program writes; this is
    the ground truth the verifier checks invariants against.  Bytes are
    enumerated the way the executor moves them — in whole units — so a
    unit too wide for its leaf shows up as wire bytes never written.
    """
    srcs: list[np.ndarray] = []
    dsts: list[np.ndarray] = []
    #: Copy leaves not yet expanded: ``(src, dst, whole-unit bytes)``.
    copies: list[tuple[int, int, int]] = []

    def flush() -> None:
        """Expand the pending copies in one vectorized pass."""
        if copies:
            src, dst, n = np.array(copies, dtype=np.intp).T
            n = np.maximum(n, 0)
            within = (np.arange(n.sum(), dtype=np.intp)
                      - np.repeat(np.cumsum(n) - n, n))
            srcs.append(np.repeat(src, n) + within)
            dsts.append(np.repeat(dst, n) + within)
            copies.clear()

    def emit(op, sbase: int, dbase: int) -> None:
        if isinstance(op, CopyBlock):
            copies.append((sbase + op.src_off, dbase + op.dst_off,
                           op.nbytes - op.nbytes % op.unit))
        elif isinstance(op, Record):
            for f in op.fields:
                emit(f, sbase, dbase)
        elif isinstance(op, Gather):
            flush()
            lane = np.arange(op.unit, dtype=np.intp)
            srcs.append((op.src_index[:, None] * op.unit + lane).ravel()
                        + sbase)
            d0 = dbase + op.dst_off
            dsts.append(np.arange(d0, d0 + op.nbytes, dtype=np.intp))
        elif len(op.body) == 1 and isinstance(op.body[0], CopyBlock):
            # Vectorized common case: a loop over one block.
            flush()
            b = op.body[0]
            it = np.arange(op.count, dtype=np.intp)[:, None]
            off = np.arange(b.nbytes - b.nbytes % b.unit,
                            dtype=np.intp)[None, :]
            srcs.append(((sbase + b.src_off) + it * op.src_stride
                         + off).ravel())
            dsts.append(((dbase + b.dst_off) + it * op.dst_stride
                         + off).ravel())
        else:
            for i in range(op.count):
                for b in op.body:
                    emit(b, sbase + i * op.src_stride,
                         dbase + i * op.dst_stride)

    for op in prog.ops:
        emit(op, 0, 0)
    flush()
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


def _op_table(ops: tuple) -> np.ndarray:
    """``(src_off, dst_off, nbytes, is_copy)`` per op, as int64 rows; any
    op but a :class:`CopyBlock` is a row of zeros."""
    return np.array([(op.src_off, op.dst_off, op.nbytes, 1)
                     if isinstance(op, CopyBlock) else (0, 0, 0, 0)
                     for op in ops], dtype=np.int64).reshape(len(ops), 4)


def _loop_starts(ops: tuple) -> list[bool]:
    """Per position, whether :func:`_canonicalize_ops` can start a loop.

    A loop of period ``p`` starts at ``i`` when the ops at ``[i, i +
    MIN_REPS * p)`` are copies whose lag-``p`` offset deltas are one
    constant pair and whose lag-``p`` lengths are equal — over the
    ``(MIN_REPS - 1) * p`` positions from ``i``.  Decided for every
    position and period at once over the op table.
    """
    n = len(ops)
    starts = np.zeros(n, dtype=bool)
    table = _op_table(ops)
    src, dst, nbytes = table[:, 0], table[:, 1], table[:, 2]
    copy = table[:, 3] == 1
    for p in range(1, min(MAX_PERIOD, n // MIN_REPS) + 1):
        m = n - MIN_REPS * p + 1  # positions with room for the loop
        span = (MIN_REPS - 1) * p
        good = (nbytes[p:] == nbytes[:-p]) & copy[p:] & copy[:-p]
        ds, dd = src[p:] - src[:-p], dst[p:] - dst[:-p]
        # ok[k]: position k + 1 is good and repeats position k's deltas.
        ok = good[1:] & (ds[1:] == ds[:-1]) & (dd[1:] == dd[:-1])
        misses = np.zeros(ok.shape[0] + 1, dtype=np.intp)
        np.cumsum(~ok, out=misses[1:])
        starts[:m] |= good[:m] & (misses[span - 1:span - 1 + m]
                                  == misses[:m])
    return starts.tolist()


def _canonicalize_ops(ops: tuple) -> tuple:
    out: list = []
    i = 0
    n = len(ops)
    #: Where a loop can start; decided on the first position the search
    #: misses, so a list that is one loop (or too short to hold two) never
    #: pays for it.
    starts = None
    while i < n:
        op = ops[i]
        if isinstance(op, StridedLoop):
            out.append(StridedLoop(op.count, op.src_stride, op.dst_stride,
                                   _canonicalize_ops(op.body)))
            i += 1
            continue
        if not isinstance(op, CopyBlock) or (starts is not None
                                             and not starts[i]):
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
            if starts is None and n >= 2 * MIN_REPS:
                starts = _loop_starts(ops)
    return tuple(out)


def _collapse_ops(ops: tuple) -> tuple:
    if not _has_loops(ops):
        return ops
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
    if not _has_loops(ops):
        return _coalesce_ops(ops)
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


def _reordering(name: str, rewrite: Callable[[Program], Program]) -> Pass:
    """A pass whose output may write memory in another order than the
    reference engine does, so it leaves order-observable programs alone.

    numpy orders a copy's dimensions by stride: a loop dimension, or a unit
    as wide as the row stride, can run ahead of the row dimension; a fancy
    scatter keeps no order among repeated index entries; a structured
    assignment is numpy's to schedule.
    """
    return Pass(name, lambda p: p if p.order_observable else rewrite(p))


coalesce_blocks = Pass(
    "coalesce-blocks", lambda p: p.with_ops(_coalesce_ops(p.ops)))
canonicalize_strides = _reordering(
    "canonicalize-strides", lambda p: p.with_ops(_canonicalize_ops(p.ops)))
collapse_loops = Pass(
    "collapse-loops", lambda p: p.with_ops(_collapse_ops(p.ops)))
promote_contiguity = Pass(
    "promote-contiguity", lambda p: p.with_ops(_promote_ops(p.ops)))


def _form_gather(prog: Program) -> Program:
    """Collapse a still call-heavy program into one :class:`Gather`."""
    if (leaf_calls(prog.ops) < GATHER_MIN_CALLS
            or prog.size > GATHER_MAX_BYTES):
        return prog
    return prog.with_ops((Gather(byte_map(prog), 0),))


form_gather = _reordering("form-gather", _form_gather)


def _fuse_records(prog: Program) -> Program:
    """Fold each run of 2..:data:`GATHER_MIN_CALLS`-1 consecutive top-level
    copies into a :class:`Record`.

    A strided copy of a few units per row spends its time on per-row loop
    overhead, and one such copy per field reads the source once per field;
    the structured assignment walks the rows once.  A field must lie inside
    ``[0, extent)`` — the record dtype spans one row — and eligibility is
    settled here, at compile time: if numpy would not assign the dtype pair
    the run keeps its per-leaf copies.
    """
    out: list = []
    for fusable, run in groupby(prog.ops, lambda op: (
            isinstance(op, CopyBlock)
            and 0 <= op.src_off <= prog.extent - op.nbytes)):
        run = tuple(run)
        if fusable and 2 <= len(run) < GATHER_MIN_CALLS:
            rec = Record(run)
            mem, wire = rec.dtypes()
            if (np.can_cast(mem, wire, "same_kind")
                    and np.can_cast(wire, mem, "same_kind")):
                run = (rec,)
        out.extend(run)
    return prog.with_ops(out)


fuse_records = _reordering("fuse-records", _fuse_records)


def _widen_gather(op: Gather, align: int) -> Gather:
    """``op`` (a byte gather) over the widest lanes its index allows: every
    lane must be ``unit`` consecutive source bytes starting on a multiple
    of ``unit``."""
    idx = op.src_index
    for unit in (8, 4, 2):
        if gcd(align, op.dst_off, idx.shape[0]) % unit:
            continue
        lanes = idx.reshape(-1, unit)
        if (not (lanes[:, 0] % unit).any()
                and (lanes == lanes[:, :1] + np.arange(unit)).all()):
            return Gather(lanes[:, 0] // unit, op.dst_off, unit)
    return op


def _widen_ops(ops: tuple, align: int) -> tuple:
    """Assign units; ``align`` is the gcd of everything the enclosing
    dimensions add to an address (extent, size, loop strides)."""
    out: list = []
    for op in ops:
        if isinstance(op, StridedLoop):
            op = replace(op, body=_widen_ops(
                op.body, gcd(align, op.src_stride, op.dst_stride)))
        elif isinstance(op, CopyBlock):
            op = replace(op, unit=_widest_unit(
                align, op.src_off, op.dst_off, op.nbytes))
        elif isinstance(op, Gather) and op.unit == 1:
            op = _widen_gather(op, align)
        out.append(op)
    return tuple(out)


widen_units = _reordering(
    "widen-units",
    lambda p: p.with_ops(_widen_ops(p.ops, gcd(p.extent, p.size))))


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def default_pipeline() -> tuple[Pass, ...]:
    """The standard pass pipeline of every plan compilation."""
    return (coalesce_blocks, canonicalize_strides, collapse_loops,
            promote_contiguity, form_gather, fuse_records, widen_units)


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
# executor
# ---------------------------------------------------------------------------

class IRExecutor:
    """Executes a final-form program: one numpy call per leaf.

    ``pack``/``unpack`` run ``nrows`` elements at once, element ``r`` based
    at ``r * extent`` in ``mem`` and ``r * size`` on the ``wire`` (both flat
    ``uint8`` arrays); ``copy`` runs them memory to memory, through the
    memory views alone.  Each leaf is compiled to a pair of view descriptors;
    a view covers exactly the bytes its leaf touches, so the last element
    may stop at its true upper bound, and is built by the bounds-checked
    ``np.ndarray`` constructor: a plan whose offsets leave either buffer
    raises ``ValueError`` instead of touching foreign memory.

    A :class:`Gather` in an order-observable program is rejected: the
    fancy scatter would not keep the reference engine's write order there.
    """

    __slots__ = ("kind", "_items")

    def __init__(self, prog: Program):
        #: Backend label: ``slices`` or ``gather``.
        self.kind = "slices"
        #: Per leaf ``(index, mem view, wire view)``, a view being ``(dtype,
        #: shape below the row dimension, offset, strides)``; ``index`` is
        #: ``None`` for a plain assignment between the two views.
        self._items = []
        for op, dims in leaves(prog.ops):
            counts = tuple(d[0] for d in dims)
            mstr = (prog.extent, *(d[1] for d in dims))
            wstr = (prog.size, *(d[2] for d in dims))
            if isinstance(op, Gather):
                if dims:
                    raise NotImplementedError(
                        "Gather inside a StridedLoop is not executable")
                if prog.order_observable:
                    raise ValueError(
                        "Gather over aliasing rows or overlapping blocks "
                        f"(row_span {prog.row_span}, extent {prog.extent}) "
                        "is not executable")
                self.kind = "gather"
                idx, unit = op.src_index, op.unit
                dt = _UNIT_DTYPES[unit]
                lanes = int(idx.max()) + 1 if idx.shape[0] else 0
                self._items.append((
                    idx, (dt, (lanes,), 0, (*mstr, unit)),
                    (dt, idx.shape, op.dst_off, (*wstr, unit))))
            elif isinstance(op, Record):
                mdt, wdt = op.dtypes()
                self._items.append((None, (mdt, counts, 0, mstr),
                                    (wdt, counts, 0, wstr)))
            else:
                dt = _UNIT_DTYPES[op.unit]
                shape = (*counts, op.nbytes // op.unit)
                self._items.append((
                    None, (dt, shape, op.src_off, (*mstr, op.unit)),
                    (dt, shape, op.dst_off, (*wstr, op.unit))))

    def pack(self, mem: np.ndarray, wire: np.ndarray, nrows: int) -> None:
        """Pack ``nrows`` elements of ``mem`` into ``wire``."""
        for idx, (mdt, mshape, moff, mstr), (wdt, wshape, woff, wstr) \
                in self._items:
            mv = np.ndarray((nrows, *mshape), mdt, mem, moff, mstr)
            wv = np.ndarray((nrows, *wshape), wdt, wire, woff, wstr)
            if idx is None:
                wv[...] = mv
            else:
                # Every index is below the view's lane count by
                # construction; "clip" only skips numpy's own range pass
                # and the bounce buffer its "raise" mode puts behind out=.
                np.take(mv, idx, axis=1, out=wv, mode="clip")

    def unpack(self, mem: np.ndarray, wire: np.ndarray, nrows: int) -> None:
        """Scatter ``nrows`` elements of ``wire`` into ``mem``."""
        for idx, (mdt, mshape, moff, mstr), (wdt, wshape, woff, wstr) \
                in self._items:
            mv = np.ndarray((nrows, *mshape), mdt, mem, moff, mstr)
            wv = np.ndarray((nrows, *wshape), wdt, wire, woff, wstr)
            if idx is None:
                mv[...] = wv
            elif nrows == 1:
                mv[0][idx] = wv[0]  # the 1-D form: 1.3x the 2-D one
            else:
                mv[:, idx] = wv

    def copy(self, src: np.ndarray, dst: np.ndarray, nrows: int) -> None:
        """Copy ``nrows`` elements of ``src`` into the same layout in
        ``dst``: what ``unpack(pack(src))`` leaves in ``dst``, with no
        packed stream between.  Each leaf's memory view is read in ``src``
        and written in ``dst`` (a gather leaf through its lane index), so
        every byte outside the layout keeps its value.  Every byte of the
        layout gets ``src``'s value whatever the order, so aliasing rows
        need no care."""
        for idx, (mdt, mshape, moff, mstr), _ in self._items:
            sv = np.ndarray((nrows, *mshape), mdt, src, moff, mstr)
            dv = np.ndarray((nrows, *mshape), mdt, dst, moff, mstr)
            if idx is None:
                dv[...] = sv
            elif nrows == 1:
                dv[0][idx] = sv[0][idx]
            else:
                dv[:, idx] = sv[:, idx]
