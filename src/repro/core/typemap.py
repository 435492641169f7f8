"""Typemap algebra for derived datatypes.

MPI defines a derived datatype as a *typemap*: a sequence of (predefined
type, byte displacement) pairs.  For packing purposes only the byte blocks
matter, so this module represents a typemap as an ordered sequence of
:class:`Block` (displacement, length, scalar count) entries together with a
lower bound and extent.  The ordered-block form supports the three
operations every derived-type constructor needs:

* ``repeat`` — replicate with a stride (contiguous / vector),
* ``displace`` — shift all blocks (indexed entries, struct fields),
* ``concat`` — append typemaps in declaration order (struct).

Blocks keep their *declaration order* because MPI's pack order is the
typemap order, not the address order.
A layout that already is a list of byte runs (a DDTBench ``RunLayout``)
enters through :meth:`Typemap.from_runs`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Block:
    """A run of bytes inside one element of a datatype.

    Attributes
    ----------
    offset:
        Byte displacement from the element base address.
    length:
        Number of bytes in the run.
    nscalars:
        How many predefined scalars the run covers (cost-model metadata;
        a gap-free merged run of 3 ints has length 12 and nscalars 3).
    scalar:
        Numpy-style code of the predefined scalar this run is made of
        (``"f8"``, ``"i4"``, ...); the empty string means untyped bytes.
        Carried so :meth:`Typemap.signature` can reconstruct the MPI type
        signature for sanitizer matching; blocks of different scalars are
        never merged into each other's code.
    """

    offset: int
    length: int
    nscalars: int = 1
    scalar: str = ""

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError(f"block length must be positive, got {self.length}")
        if self.nscalars <= 0:
            raise ValueError(f"nscalars must be positive, got {self.nscalars}")

    @property
    def end(self) -> int:
        return self.offset + self.length

    def shifted(self, delta: int) -> "Block":
        return Block(self.offset + delta, self.length, self.nscalars,
                     self.scalar)


class Typemap:
    """An ordered sequence of byte blocks plus explicit bounds.

    Parameters
    ----------
    blocks:
        Blocks in pack order.
    lb, extent:
        Explicit lower bound and extent.  When omitted they default to the
        *natural* bounds: ``lb = min(offsets)`` and
        ``extent = max(ends) - lb`` (no alignment padding is applied; the
        derived-type constructors add C-layout padding where the paper's
        Rust ``#[repr(C)]`` types have it).
    """

    __slots__ = ("blocks", "lb", "extent", "_merged", "_signature", "_size",
                 "_true_lb", "_true_ub", "_layout_key")

    def __init__(self, blocks: Iterable[Block], lb: int | None = None,
                 extent: int | None = None):
        self.blocks: tuple[Block, ...] = tuple(blocks)
        #: Lazily memoized derived quantities.  A typemap is immutable after
        #: construction, so each is computed at most once per instance (they
        #: used to be recomputed on every pack and every sanitizer envelope
        #: stamp; ``size``/``true_ub`` are on the per-pack hot path through
        #: ``packed_size``/``required_span``).
        self._merged: tuple[Block, ...] | None = None
        self._signature: tuple[tuple[str, int], ...] | None = None
        self._size: int | None = None
        self._true_lb: int | None = None
        self._true_ub: int | None = None
        self._layout_key: tuple[int, int, bytes] | None = None
        if not self.blocks and (lb is None or extent is None):
            raise ValueError("empty typemap requires explicit lb and extent")
        nat_lb = min((b.offset for b in self.blocks), default=0)
        nat_ub = max((b.end for b in self.blocks), default=0)
        self.lb = nat_lb if lb is None else lb
        self.extent = (nat_ub - self.lb) if extent is None else extent
        if self.extent < 0:
            raise ValueError(f"negative extent: {self.extent}")

    @classmethod
    def from_runs(cls, runs, extent: int) -> "Typemap":
        """Ordered ``(offset, length)`` byte runs into ``extent`` bytes: one
        untyped :class:`Block` per run in run (= pack) order, ``lb`` 0 — the
        layout of an ``hindexed`` over the runs resized to ``[0, extent)``,
        so both spellings share one :meth:`layout_key` and one pack plan."""
        return cls((Block(int(off), int(ln), int(ln)) for off, ln in runs),
                   lb=0, extent=extent)

    # -- derived quantities ---------------------------------------------

    @property
    def size(self) -> int:
        """Packed size in bytes (sum of block lengths)."""
        if self._size is None:
            self._size = sum(b.length for b in self.blocks)
        return self._size

    @property
    def ub(self) -> int:
        return self.lb + self.extent

    @property
    def true_lb(self) -> int:
        """Lowest displacement actually covered by data."""
        if self._true_lb is None:
            self._true_lb = min((b.offset for b in self.blocks),
                                default=self.lb)
        return self._true_lb

    @property
    def true_ub(self) -> int:
        if self._true_ub is None:
            self._true_ub = max((b.end for b in self.blocks),
                                default=self.lb)
        return self._true_ub

    @property
    def true_extent(self) -> int:
        return self.true_ub - self.true_lb

    @property
    def nscalars(self) -> int:
        """Number of predefined scalar entries (cost-model metadata)."""
        return sum(b.nscalars for b in self.blocks)

    @property
    def is_contiguous(self) -> bool:
        """True if packing is the identity: one gap-free run, extent==size.

        This is the condition under which an MPI implementation can skip the
        pack engine entirely — the fast path that makes
        ``struct-simple-no-gap`` cheap in the paper's Fig. 6.
        """
        merged = self.merged_blocks()
        return (len(merged) == 1
                and merged[0].offset == self.lb
                and merged[0].length == self.extent)

    @property
    def has_gaps(self) -> bool:
        """True when one element's data does not tile its extent."""
        return not self.is_contiguous

    def merged_blocks(self) -> tuple[Block, ...]:
        """Coalesce blocks that are adjacent both in pack order and memory.

        Memoized on the instance (the structure is immutable); use
        :meth:`compute_merged_blocks` to force the uncached walk.
        """
        if self._merged is None:
            self._merged = self.compute_merged_blocks()
        return self._merged

    def compute_merged_blocks(self) -> tuple[Block, ...]:
        """The uncached merge walk (one pass over ``blocks``).

        Kept public so the retained reference pack implementation (see
        :mod:`repro.core.packing`) can reproduce pre-plan per-call costs.
        """
        merged: list[Block] = []
        for b in self.blocks:
            if merged and merged[-1].end == b.offset:
                prev = merged[-1]
                merged[-1] = Block(prev.offset, prev.length + b.length,
                                   prev.nscalars + b.nscalars,
                                   prev.scalar if prev.scalar == b.scalar
                                   else "")
            else:
                merged.append(b)
        return tuple(merged)

    def layout_key(self) -> tuple[int, int, bytes]:
        """Canonical layout ``(lb, extent, merged runs)``: all a pack plan
        depends on, so structurally equal typemaps — whatever their scalar
        types — have equal keys.

        The runs are the ``(offset, length)`` pairs of :meth:`merged_blocks`
        as int64 bytes.  Memoized, and ``bytes`` caches its hash, so a
        lookup hashes in O(1) whatever the block count and compares by
        identity (same typemap) or one ``memcmp`` (a structural twin).
        """
        if self._layout_key is None:
            runs = array("q", (v for b in self.merged_blocks()
                               for v in (b.offset, b.length)))
            self._layout_key = (self.lb, self.extent, runs.tobytes())
        return self._layout_key

    def signature(self) -> tuple[tuple[str, int], ...]:
        """Canonical MPI type signature: run-length ``(scalar, count)`` pairs.

        The signature is the pack-order sequence of predefined scalars with
        displacements erased (MPI's definition); adjacent runs of the same
        scalar are coalesced.  Blocks without a scalar code count as raw
        bytes (``"u1"``).  Memoized on the instance.
        """
        if self._signature is not None:
            return self._signature
        runs: list[list] = []
        for b in self.blocks:
            if b.scalar:
                code, n = b.scalar, b.nscalars
            else:
                code, n = "u1", b.length
            if runs and runs[-1][0] == code:
                runs[-1][1] += n
            else:
                runs.append([code, n])
        self._signature = tuple((c, n) for c, n in runs)
        return self._signature

    # -- algebra ----------------------------------------------------------

    def displace(self, delta: int) -> "Typemap":
        """Shift every block (and the bounds) by ``delta`` bytes."""
        return Typemap((b.shifted(delta) for b in self.blocks),
                       lb=self.lb + delta, extent=self.extent)

    def repeat(self, count: int, stride_bytes: int | None = None) -> "Typemap":
        """Replicate ``count`` times, successive copies ``stride_bytes`` apart.

        With the default stride (the extent) this implements
        ``MPI_Type_contiguous``; other strides implement hvector rows.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        stride = self.extent if stride_bytes is None else stride_bytes
        blocks: list[Block] = []
        for i in range(count):
            delta = i * stride
            blocks.extend(b.shifted(delta) for b in self.blocks)
        if count == 0:
            return Typemap((), lb=self.lb, extent=0)
        # A negative stride walks the copies downward in memory (MPI allows
        # it for hvector); the span then starts at the *last* copy's lb.
        travel = stride * (count - 1)
        span_lb = self.lb + min(0, travel)
        span_extent = abs(travel) + self.extent
        return Typemap(blocks, lb=span_lb, extent=span_extent)

    @staticmethod
    def concat(maps: Sequence["Typemap"], lb: int | None = None,
               extent: int | None = None) -> "Typemap":
        """Concatenate typemaps in declaration order (struct semantics)."""
        blocks: list[Block] = []
        for m in maps:
            blocks.extend(m.blocks)
        if lb is None:
            lb = min((m.lb for m in maps), default=0)
        if extent is None:
            ub = max((m.ub for m in maps), default=0)
            extent = ub - lb
        return Typemap(blocks, lb=lb, extent=extent)

    def resized(self, lb: int, extent: int) -> "Typemap":
        """Return the same blocks with new explicit bounds."""
        return Typemap(self.blocks, lb=lb, extent=extent)

    # -- dunder -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Typemap):
            return NotImplemented
        return (self.blocks == other.blocks and self.lb == other.lb
                and self.extent == other.extent)

    def __hash__(self) -> int:
        return hash((self.blocks, self.lb, self.extent))

    def __repr__(self) -> str:
        return (f"Typemap({len(self.blocks)} blocks, size={self.size}, "
                f"lb={self.lb}, extent={self.extent})")


def scalar_typemap(nbytes: int, offset: int = 0, scalar: str = "") -> Typemap:
    """Typemap of a single predefined scalar of ``nbytes`` bytes.

    ``scalar`` is the numpy-style type code carried through the algebra for
    signature reconstruction (empty for untyped bytes).
    """
    return Typemap((Block(offset, nbytes, 1, scalar),))
