"""Static validity and performance checks over datatype typemaps.

:func:`analyze_datatype` walks a committed or uncommitted datatype and
reports structural defects (overlaps, bounds violations, aliasing resizes,
declaration-order hazards) and performance smells (layouts that the
simulated transport in :mod:`repro.ucp.netsim` charges disproportionately
for).  Everything here is *static*: no buffer is packed and no transport is
touched, so the checks are safe to run on arbitrary user-constructed types.

Custom (callback-driven) datatypes have no typemap; for those this module
defers to the static half of :mod:`repro.analyze.contracts`.
"""

from __future__ import annotations

from typing import Optional

from ..core.datatype import Datatype, PredefinedDatatype
from ..ucp.netsim import DEFAULT_PARAMS, LinkParams
from .diagnostics import Diagnostic

#: Minimum merged-block count before the tiny-fragment smell (RPD111) is
#: considered; a struct with three small fields is normal, a thousand
#: 8-byte shards is the pathology the DDT literature measures.
FRAGMENT_SMELL_MIN_BLOCKS = 16

#: Density divisor for the sparse-layout smell (RPD112): flag when the
#: extent is more than this many times the packed size.
SPARSE_EXTENT_FACTOR = 64


def analyze_datatype(dtype: Datatype, params: LinkParams = DEFAULT_PARAMS,
                     path: Optional[str] = None) -> list[Diagnostic]:
    """Return all diagnostics for one datatype (empty list when clean)."""
    if isinstance(dtype, PredefinedDatatype):
        return []
    if getattr(dtype, "is_custom", False):
        # No typemap to inspect; run the transport-free signature checks.
        from .contracts import check_callback_signatures
        return check_callback_signatures(
            dtype.callbacks, inorder=getattr(dtype, "inorder", False),
            subject=dtype.name, path=path)

    tm = dtype.typemap
    subject = dtype.name
    kind = getattr(dtype, "kind", "")
    diags: list[Diagnostic] = []

    def emit(code: str, message: str, hint: str = ""):
        diags.append(Diagnostic(code, message, hint=hint, file=path,
                                subject=subject))

    if not tm.blocks:
        emit("RPD106",
             "typemap is empty: every transfer of this type moves 0 bytes",
             hint="drop the zero-length blocks or send count=0 of a real type")
        return diags

    # -- overlap (RPD101) ------------------------------------------------
    by_addr = sorted(tm.blocks, key=lambda b: (b.offset, b.end))
    overlaps = [(a, b) for a, b in zip(by_addr, by_addr[1:]) if a.end > b.offset]
    if overlaps:
        a, b = overlaps[0]
        emit("RPD101",
             f"{len(overlaps)} overlapping block pair(s); first: "
             f"[{a.offset},{a.end}) overlaps [{b.offset},{b.end}) — "
             f"receiving into this type writes the same bytes twice",
             hint="increase the stride or fix the displacement list so "
                  "blocks are disjoint")

    # -- bounds (RPD102/RPD103/RPD104) -----------------------------------
    if tm.size > 0:
        if tm.extent <= 0:
            emit("RPD103",
                 f"extent is {tm.extent} but the type packs {tm.size} bytes; "
                 f"arrays of this type collapse onto one element",
                 hint=f"resize with extent >= true extent ({tm.true_extent})")
        elif tm.true_lb < tm.lb or tm.true_ub > tm.ub:
            if kind == "resized":
                emit("RPD104",
                     f"resized extent {tm.extent} is smaller than the true "
                     f"extent {tm.true_extent}; consecutive array elements "
                     f"alias each other",
                     hint=f"use extent >= {tm.true_extent}, or keep the "
                          f"overlap only for deliberate interleaving")
            else:
                emit("RPD102",
                     f"data spans [{tm.true_lb},{tm.true_ub}) but the "
                     f"declared window is [{tm.lb},{tm.ub}); displacements "
                     f"fall outside the element",
                     hint="fix the displacements or declare explicit bounds "
                          "with resized()")

    # -- declaration vs address order (RPD105) ---------------------------
    # A block's scalars ascend; the walk turns back where a block starts
    # below the last scalar of the block before it.
    blocks = tm.blocks
    if any(b.offset < a.end - a.length // a.nscalars
           for a, b in zip(blocks, blocks[1:])):
        emit("RPD105",
             "pack order (declaration order) walks addresses non-"
             "monotonically; in-order consumers see bytes out of address "
             "order and the pack engine loses its sequential access pattern",
             hint="declare fields/blocks in increasing address order where "
                  "the wire format allows it")

    # -- performance smells (RPD110/RPD111/RPD112) -----------------------
    merged = tm.merged_blocks()
    soft_limit = params.iov_region_soft_limit()
    if len(merged) > soft_limit:
        emit("RPD110",
             f"{len(merged)} memory regions per element exceeds the "
             f"scatter/gather soft limit ({soft_limit}); per-entry iovec "
             f"overhead will dominate the transfer",
             hint="coalesce regions (larger blocks, contiguous staging) or "
                  "switch to a packing custom datatype")
    else:
        min_frag = min(b.length for b in merged)
        floor = params.min_efficient_region_bytes()
        if len(merged) >= FRAGMENT_SMELL_MIN_BLOCKS and min_frag < floor:
            emit("RPD111",
                 f"{len(merged)} fragments with smallest {min_frag} B, "
                 f"below the {floor} B break-even entry size of the "
                 f"simulated link",
                 hint="batch small blocks into fewer larger regions, or "
                      "pack them in-band")
    if (tm.has_gaps and tm.extent > params.eager_limit
            and tm.size * SPARSE_EXTENT_FACTOR < tm.extent):
        emit("RPD112",
             f"element spans {tm.extent} B of address space but packs only "
             f"{tm.size} B; rendezvous registration pays for the whole span",
             hint="tighten the extent with resized() or transfer the dense "
                  "subset explicitly")
    return diags


def assert_valid_datatype(dtype: Datatype,
                          params: LinkParams = DEFAULT_PARAMS) -> None:
    """Raise :class:`repro.errors.DiagnosticError` on error-severity findings.

    Convenience for library call sites that want a hard gate (the analyzer
    CLI reports instead of raising).
    """
    from ..errors import DiagnosticError
    errors = [d for d in analyze_datatype(dtype, params)
              if d.severity == "error"]
    if errors:
        raise DiagnosticError(
            f"{dtype.name}: {errors[0].message}",
            code=errors[0].mpi_errno, diagnostics=errors)
