"""Derived-datatype constructors (the classic MPI typemap API).

These implement the constructors of MPI-4.1 chapter 5 over the typemap
algebra: contiguous, vector/hvector, indexed/hindexed/indexed_block, struct,
resized, and subarray.  They form the baseline the paper compares the custom
serialization API against (the ``rsmpi-derived-datatype`` / Open MPI lines in
Figs. 3-7 and the ``ompi-datatype`` bars in Fig. 10).

Displacements follow MPI semantics: element-strides for vector/indexed
(multiples of the base extent), byte-strides for the ``h`` variants and
struct.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, Sequence

from ..errors import TypeError_
from .datatype import Datatype, DerivedDatatype
from .typemap import Block, Typemap


def _base_typemap(base: Datatype) -> Typemap:
    if getattr(base, "is_custom", False):
        raise TypeError_("custom datatypes cannot be nested inside derived datatypes")
    return base.typemap


def _entries_typemap(blocklengths: Sequence[int],
                     displacements: Sequence[int],
                     bases: Iterable[Datatype]) -> Typemap:
    """One typemap over ``(blocklength, byte displacement, base)`` entries
    (hindexed blocks, struct fields): each entry's blocks, repeated and
    shifted, appended to one list in declaration order; the bounds span
    every entry's ``[lb, lb + blocklength * extent)``."""
    blocks: list[Block] = []
    lo = hi = None
    prev = tm = None
    for blen, disp, base in zip(blocklengths, displacements, bases):
        if blen < 0:
            raise TypeError_(f"negative blocklength {blen}")
        if blen == 0:
            continue
        if base is not prev:  # hindexed: one base for every entry
            tm, prev = _base_typemap(base), base
        blocks += tm.repeat_blocks(blen, tm.extent, disp)
        lb = tm.lb + disp
        ub = lb + blen * tm.extent
        lo = lb if lo is None or lb < lo else lo
        hi = ub if hi is None or ub > hi else hi
    if lo is None:
        return Typemap((), lb=0, extent=0)
    return Typemap(blocks, lb=lo, extent=hi - lo)


def _fmt_seq(seq: Sequence[int], limit: int = 4) -> str:
    """Compact list rendering for provenance names: [0,4,8] or '12 entries'."""
    seq = list(seq)
    if len(seq) > limit:
        return f"{len(seq)} entries"
    return "[" + ",".join(str(v) for v in seq) + "]"


def contiguous(count: int, base: Datatype) -> DerivedDatatype:
    """MPI_Type_contiguous: ``count`` consecutive elements of ``base``."""
    if count < 0:
        raise TypeError_(f"contiguous count must be >= 0, got {count}")
    tm = _base_typemap(base).repeat(count)
    return DerivedDatatype(tm, "contiguous",
                           name=f"contiguous({count},{base.shortname})",
                           children=(base,), params={"count": count})


def vector(count: int, blocklength: int, stride: int, base: Datatype) -> DerivedDatatype:
    """MPI_Type_vector: ``count`` blocks of ``blocklength`` elements, block
    starts ``stride`` *elements* apart."""
    return hvector(count, blocklength, stride * base.extent, base,
                   _name=f"vector({count},{blocklength},{stride},{base.shortname})")


def hvector(count: int, blocklength: int, stride_bytes: int, base: Datatype,
            _name: str = "") -> DerivedDatatype:
    """MPI_Type_create_hvector: like vector with the stride in bytes."""
    if count < 0 or blocklength < 0:
        raise TypeError_("vector count/blocklength must be >= 0")
    block = _base_typemap(base).repeat(blocklength)
    tm = block.repeat(count, stride_bytes=stride_bytes)
    name = _name or f"hvector({count},{blocklength},{stride_bytes}B,{base.shortname})"
    return DerivedDatatype(tm, "hvector" if not _name else "vector",
                           name=name, children=(base,),
                           params={"count": count, "blocklength": blocklength,
                                   "stride_bytes": stride_bytes})


def indexed(blocklengths: Sequence[int], displacements: Sequence[int],
            base: Datatype) -> DerivedDatatype:
    """MPI_Type_indexed: displacements in multiples of the base extent."""
    ext = base.extent
    return hindexed([b for b in blocklengths],
                    [d * ext for d in displacements], base,
                    _kind="indexed")


def hindexed(blocklengths: Sequence[int], displacements: Sequence[int],
             base: Datatype, _kind: str = "hindexed") -> DerivedDatatype:
    """MPI_Type_create_hindexed: displacements in bytes."""
    if len(blocklengths) != len(displacements):
        raise TypeError_("blocklengths and displacements must have equal length")
    _base_typemap(base)  # refused even when every block is empty
    tm = _entries_typemap(blocklengths, displacements, repeat(base))
    name = (f"{_kind}({_fmt_seq(blocklengths)},{_fmt_seq(displacements)},"
            f"{base.shortname})")
    return DerivedDatatype(tm, _kind, name=name,
                           children=(base,),
                           params={"blocklengths": list(blocklengths),
                                   "displacements": list(displacements)})


def indexed_block(blocklength: int, displacements: Sequence[int],
                  base: Datatype) -> DerivedDatatype:
    """MPI_Type_create_indexed_block: equal-size blocks."""
    return indexed([blocklength] * len(displacements), displacements, base)


def create_struct(blocklengths: Sequence[int], displacements: Sequence[int],
                  types: Sequence[Datatype]) -> DerivedDatatype:
    """MPI_Type_create_struct: heterogeneous fields at byte displacements.

    This is how the paper's ``struct-simple`` (with its 4-byte C-layout gap
    between ``c`` and ``d``) is expressed as a derived datatype; the gap is
    what pushes the Open MPI engine onto its slow path in Fig. 5.
    """
    if not (len(blocklengths) == len(displacements) == len(types)):
        raise TypeError_("struct argument arrays must have equal length")
    tm = _entries_typemap(blocklengths, displacements, types)
    if len(types) > 4:
        name = f"struct({len(types)} fields)"
    else:
        fields = ",".join(
            (t.shortname if blen == 1 else f"{t.shortname}x{blen}") + f"@{disp}"
            for blen, disp, t in zip(blocklengths, displacements, types))
        name = f"struct({fields})"
    return DerivedDatatype(tm, "struct", name=name,
                           children=tuple(types),
                           params={"blocklengths": list(blocklengths),
                                   "displacements": list(displacements)})


def resized(base: Datatype, lb: int, extent: int) -> DerivedDatatype:
    """MPI_Type_create_resized: override lower bound and extent.

    Used to pad a struct to its C ``sizeof`` (trailing padding) so arrays of
    structs stride correctly.
    """
    tm = _base_typemap(base).resized(lb, extent)
    return DerivedDatatype(tm, "resized",
                           name=f"resized({base.shortname},lb={lb},extent={extent})",
                           children=(base,), params={"lb": lb, "extent": extent})


def subarray(sizes: Sequence[int], subsizes: Sequence[int],
             starts: Sequence[int], base: Datatype,
             order: str = "C") -> DerivedDatatype:
    """MPI_Type_create_subarray: an n-dimensional slab of an n-d array.

    This is the natural datatype for the NAS/WRF halo-exchange patterns in
    DDTBench.
    """
    if not (len(sizes) == len(subsizes) == len(starts)):
        raise TypeError_("subarray argument arrays must have equal length")
    ndims = len(sizes)
    if ndims == 0:
        raise TypeError_("subarray needs at least one dimension")
    for d in range(ndims):
        if subsizes[d] < 0 or starts[d] < 0 or starts[d] + subsizes[d] > sizes[d]:
            raise TypeError_(
                f"subarray dim {d}: start={starts[d]} subsize={subsizes[d]} "
                f"outside size={sizes[d]}")
    if order not in ("C", "F"):
        raise TypeError_(f"order must be 'C' or 'F', got {order!r}")

    dims = list(range(ndims))
    if order == "C":
        dims.reverse()  # innermost (fastest-varying) first

    elem = base.extent
    # Build from the innermost dimension outward.
    stride = elem
    # Strides of each dimension in bytes.
    strides = [0] * ndims
    for d in dims:
        strides[d] = stride
        stride *= sizes[d]
    total_extent = stride  # full array span

    inner = _base_typemap(base)
    for d in dims:
        inner = inner.repeat(subsizes[d], stride_bytes=strides[d])
    offset = sum(starts[d] * strides[d] for d in range(ndims))
    tm = inner.displace(offset).resized(0, total_extent)
    name = (f"subarray({_fmt_seq(sizes)}/{_fmt_seq(subsizes)}"
            f"@{_fmt_seq(starts)},{base.shortname})")
    return DerivedDatatype(tm, "subarray", name=name,
                           children=(base,),
                           params={"sizes": list(sizes),
                                   "subsizes": list(subsizes),
                                   "starts": list(starts), "order": order})


def dup(base: Datatype) -> DerivedDatatype:
    """MPI_Type_dup for derived types."""
    tm = _base_typemap(base)
    return DerivedDatatype(tm, "dup", name=f"dup({base.shortname})",
                           children=(base,))
