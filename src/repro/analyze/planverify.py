"""Static verifier for pack-plan IR: RPD6xx.

The pass pipeline of :mod:`repro.core.planir` rewrites the IR a
:class:`~repro.core.packplan.PackPlan` executes.  A miscompile there would
corrupt every message silently — the packed bytes would simply be wrong —
so this module proves each compilation rather than trusting it:

* **Well-formedness** (RPD600/601/602): the byte-level write set of a
  program — enumerated in the whole units the executor moves, so a unit
  too wide for its leaf leaves wire bytes unwritten — must hit every wire
  offset exactly once (RPD600), read only
  source bytes inside the typemap's true bounds (RPD601), and write the
  wire monotonically in execution order (RPD602 — the property streaming
  consumers such as :class:`~repro.core.packplan.UnpackCursor` rely on).
* **Translation validation** (RPD610): for every rewrite pass, the
  ``wire offset -> source offset`` byte map (:func:`repro.core.planir.
  byte_map`) of the pass output is proven equal to that of its input.  Any
  divergence names the offending pass and the first diverging wire byte.
* **Static cost model** (RPD620): a LogGP-style throughput prediction over
  the final IR from the :mod:`repro.ucp.netsim` parameters, flagging
  layouts whose canonical form is still pathological (call-heavy leaf
  loops, gathers over coalescable runs, degenerate loop nests).

The verifier is wired into ``repro-analyze plans`` (see
:mod:`repro.analyze.cli`) and runs in CI over the full DDTBench corpus; a
seeded miscompile corpus (:data:`MISCOMPILE_CORPUS`) of deliberately buggy
passes proves the validator actually rejects bad rewrites.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional

import numpy as np

from ..core.planir import (CopyBlock, Gather, Pass, Program, Record,
                           StridedLoop, leaves, byte_map, default_pipeline,
                           enumerate_bytes, leaf_calls, lower_typemap,
                           moved_bytes, op_count)
from ..core.typemap import Typemap
from ..ucp.netsim import DEFAULT_PARAMS, LinkParams
from .diagnostics import Diagnostic

__all__ = [
    "check_wellformed", "validate_pipeline", "predict_pack_time",
    "cost_findings", "verify_typemap", "verify_datatype",
    "ddtbench_corpus", "MiscompileFixture", "MISCOMPILE_CORPUS",
    "verify_miscompile_corpus", "PlanReport",
]

#: Mean contiguous-run length (bytes) in a gather index at or above which a
#: strided-copy form would have been cheaper — the "tiny-block gather where
#: coalescing was possible" smell.  DDTBench's genuinely irregular gathers
#: (LAMMPS ~11 B, SPECFEM3D ~4.5 B) stay below it.
GATHER_COALESCABLE_RUN = 32


@dataclass
class PlanReport:
    """Everything one verified compilation produced (CI report material)."""

    subject: str
    blocks: int
    size: int
    extent: int
    executor: str
    passes: tuple[str, ...] = ()
    ops: int = 0
    calls: int = 0
    #: Unit widths (bytes) the plan's copy leaves and gathers execute at.
    units: tuple[int, ...] = ()
    #: Fields in the widest :class:`Record` (0: the plan has none).
    record_width: int = 0
    predicted_mb_s: float = 0.0
    verified: bool = True
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "blocks": self.blocks,
            "size": self.size,
            "extent": self.extent,
            "executor": self.executor,
            "passes": list(self.passes),
            "ops": self.ops,
            "calls": self.calls,
            "units": list(self.units),
            "record_width": self.record_width,
            "predicted_mb_s": round(self.predicted_mb_s, 1),
            "verified": self.verified,
            "findings": [d.code for d in self.diagnostics],
        }


# ---------------------------------------------------------------------------
# well-formedness (RPD600/601/602)
# ---------------------------------------------------------------------------

def check_wellformed(prog: Program, *, path: Optional[str] = None,
                     subject: str = "", stage: str = "") -> list[Diagnostic]:
    """IR invariants over the symbolic byte-level write set.

    ``stage`` names the pipeline point being checked (e.g. a pass name) so
    a finding pinpoints which rewrite introduced the violation.
    """
    diags: list[Diagnostic] = []
    where = f" after pass '{stage}'" if stage else ""

    def emit(code: str, message: str, hint: str = "") -> None:
        diags.append(Diagnostic(code, message + where, hint=hint,
                                file=path, subject=subject))

    src, dst = enumerate_bytes(prog)
    if dst.shape[0] != prog.size:
        emit("RPD600",
             f"program writes {dst.shape[0]} bytes but the typemap packs "
             f"{prog.size}",
             hint="every wire byte must be written exactly once")
    if dst.shape[0]:
        uniq = np.unique(dst)
        if uniq.shape[0] != dst.shape[0]:
            # First wire offset written more than once.
            order = np.sort(dst)
            dup = int(order[:-1][order[:-1] == order[1:]][0])
            emit("RPD600",
                 f"wire offset {dup} is written more than once",
                 hint="destination writes must be disjoint")
        bad_dst = (dst < 0) | (dst >= prog.size)
        if bad_dst.any():
            emit("RPD601",
                 f"wire offset {int(dst[bad_dst][0])} outside "
                 f"[0, {prog.size})")
        bad_src = (src < prog.src_lo) | (src >= prog.src_hi)
        if bad_src.any():
            emit("RPD601",
                 f"source offset {int(src[bad_src][0])} outside the true "
                 f"bounds [{prog.src_lo}, {prog.src_hi})",
                 hint="reads outside true_lb..true_ub touch bytes the "
                      "buffer may not have")
        if dst.shape[0] > 1:
            steps = np.diff(dst)
            if (steps <= 0).any():
                at = int(np.argmax(steps <= 0))
                emit("RPD602",
                     f"wire offsets not monotone: byte {int(dst[at + 1])} "
                     f"written after byte {int(dst[at])}",
                     hint="streaming unpack relies on front-to-back wire "
                          "order")
    return diags


# ---------------------------------------------------------------------------
# translation validation (RPD610)
# ---------------------------------------------------------------------------

def validate_pipeline(tm: Typemap,
                      pipeline: Iterable[Pass] | None = None, *,
                      path: Optional[str] = None, subject: str = ""
                      ) -> tuple[Program, tuple[str, ...], list[Diagnostic]]:
    """Run ``pipeline`` with every pass translation-validated.

    Returns ``(final program, applied pass names, diagnostics)``.  Each
    pass's output byte map is proven equal to its input byte map; the first
    divergence is reported as RPD610 naming the pass and the first
    diverging wire byte.  Well-formedness is checked on the initial
    lowering and re-checked after every pass that changed the program.
    """
    if pipeline is None:
        pipeline = default_pipeline()
    prog = lower_typemap(tm)
    diags = check_wellformed(prog, path=path, subject=subject)
    before = byte_map(prog)
    applied: list[str] = []
    for p in pipeline:
        new = p(prog)
        if new.ops == prog.ops:
            continue
        after = byte_map(new)
        if not np.array_equal(before, after):
            ne = before != after
            first = int(np.argmax(ne))
            diags.append(Diagnostic(
                "RPD610",
                f"pass '{p.name}' changed the byte map: wire byte {first} "
                f"read source {int(before[first])} before, "
                f"{int(after[first])} after "
                f"({int(ne.sum())} byte(s) diverge)",
                hint="the rewrite is not semantics-preserving; its output "
                     "must not be executed",
                file=path, subject=subject))
        diags.extend(check_wellformed(new, path=path, subject=subject,
                                      stage=p.name))
        applied.append(p.name)
        prog, before = new, after
    return prog, tuple(applied), diags


# ---------------------------------------------------------------------------
# static cost model (RPD620)
# ---------------------------------------------------------------------------

def predict_pack_time(prog: Program,
                      params: LinkParams = DEFAULT_PARAMS) -> float:
    """Predicted seconds to pack one element with the final IR.

    Each leaf numpy call (a :class:`Record` is one) pays the FFI-boundary
    ``callback_overhead``; copies stream at ``copy_bandwidth``; a gather
    additionally pays the per-scalar ``elem_cost`` for every lane its index
    addresses (the same per-entry model the derived-datatype slow path is
    charged), so a 4-byte-lane gather costs a quarter of a byte gather.
    """
    if prog.size == 0:
        return 0.0
    nbytes = moved_bytes(prog.ops)
    t = leaf_calls(prog.ops) * params.callback_overhead
    t += nbytes / params.copy_bandwidth
    lanes = sum(op.src_index.shape[0] for op in prog.ops
                if isinstance(op, Gather))
    t += lanes * params.elem_cost
    return t


def _gather_runs(idx: np.ndarray) -> int:
    """Number of maximal contiguous runs in a gather (lane) index."""
    if idx.shape[0] <= 1:
        return idx.shape[0]
    return int(np.count_nonzero(np.diff(idx) != 1)) + 1


def cost_findings(prog: Program, params: LinkParams = DEFAULT_PARAMS, *,
                  path: Optional[str] = None,
                  subject: str = "") -> list[Diagnostic]:
    """RPD620 perf smells over the *final* (post-pipeline) IR."""
    diags: list[Diagnostic] = []

    def emit(message: str, hint: str) -> None:
        diags.append(Diagnostic("RPD620", message, hint=hint, file=path,
                                subject=subject))

    if prog.size == 0:
        return diags
    calls = leaf_calls(prog.ops)
    soft = params.iov_region_soft_limit()
    if calls > soft:
        mb_s = prog.size / predict_pack_time(prog, params) / 1e6
        emit(f"final IR needs {calls} numpy calls per element "
             f"(soft limit {soft}); predicted pack rate {mb_s:.0f} MB/s",
             hint="the layout defeats stride canonicalization and gather "
                  "formation (too large, or its rows alias); consider "
                  "restructuring the datatype")
    for op in prog.ops:
        if isinstance(op, Gather):
            runs = _gather_runs(op.src_index)
            mean_run = op.nbytes / max(runs, 1)
            if mean_run >= GATHER_COALESCABLE_RUN and runs <= soft:
                emit(f"byte gather over {runs} contiguous runs of "
                     f"{mean_run:.0f} bytes on average — coalesced copies "
                     f"would stream at memcpy rate",
                     hint="gather formation fired on a coalescable layout; "
                          "regularize the block spacing so stride "
                          "canonicalization can roll the runs into a loop")
        elif isinstance(op, StridedLoop):
            # Degenerate nest: an inner loop whose body moves fewer bytes
            # per iteration than one call's overhead is worth.
            inner_bytes = moved_bytes(op.body)
            if (op.count > 1 and leaf_calls(op.body) > 1
                    and inner_bytes < params.min_efficient_region_bytes()):
                emit(f"loop nest moves {inner_bytes} bytes per iteration "
                     f"across {leaf_calls(op.body)} calls",
                     hint="degenerate loop nest survived collapsing")
    return diags


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def verify_typemap(tm: Typemap, *, params: LinkParams = DEFAULT_PARAMS,
                   path: Optional[str] = None,
                   subject: str = "") -> PlanReport:
    """Verify one typemap's full compilation; the one-stop entry point.

    Runs the exact pipeline :class:`~repro.core.packplan.PackPlan`
    compiles, translation-validating every pass, then applies the static
    cost model to the final IR.
    """
    final, applied, diags = validate_pipeline(tm, path=path,
                                              subject=subject)
    diags.extend(cost_findings(final, params, path=path, subject=subject))
    t = predict_pack_time(final, params)
    kind = "gather" if any(isinstance(op, Gather) for op in final.ops) \
        else "slices"
    if tm.is_contiguous:
        kind = "contig"
    final_leaves = [op for op, _ in leaves(final.ops)]
    report = PlanReport(
        subject=subject or repr(tm),
        blocks=len(tm.merged_blocks()),
        size=tm.size, extent=tm.extent, executor=kind,
        passes=applied, ops=op_count(final.ops),
        calls=leaf_calls(final.ops),
        units=tuple(sorted({op.unit for op in final_leaves
                            if not isinstance(op, Record)})),
        record_width=max((len(op.fields) for op in final_leaves
                          if isinstance(op, Record)), default=0),
        predicted_mb_s=(tm.size / t / 1e6) if t > 0 else float("inf"),
        verified=not any(d.severity == "error" for d in diags),
        diagnostics=diags)
    return report


def verify_datatype(dtype, *, params: LinkParams = DEFAULT_PARAMS,
                    path: Optional[str] = None,
                    subject: str = "") -> PlanReport:
    """Verify the one plan a datatype compiles to."""
    name = subject or getattr(dtype, "name", "") or type(dtype).__name__
    return verify_typemap(dtype.typemap, params=params, path=path,
                          subject=name)


def ddtbench_corpus() -> list[tuple[str, object]]:
    """``(name, derived datatype)`` for every registered DDTBench workload."""
    from .subjects import ddtbench_workloads
    return [(name, w.derived_datatype()) for name, w in ddtbench_workloads()]


# ---------------------------------------------------------------------------
# seeded miscompile corpus
# ---------------------------------------------------------------------------

def _map_first_block(ops: tuple, fn) -> tuple:
    """Apply ``fn`` to the first CopyBlock found (depth-first, loop bodies
    and record fields included), once."""
    out = list(ops)
    for i, op in enumerate(out):
        if isinstance(op, CopyBlock):
            out[i] = fn(op)
            return tuple(out)
        if isinstance(op, StridedLoop):
            new = replace(op, body=_map_first_block(op.body, fn))
        elif isinstance(op, Record):
            new = replace(op, fields=_map_first_block(op.fields, fn))
        else:
            continue
        if new != op:
            out[i] = new
            return tuple(out)
    return tuple(out)


def _bug_drop_tail(prog: Program) -> Program:
    ops = prog.ops
    if len(ops) > 1:
        return prog.with_ops(ops[:-1])
    if len(ops) == 1 and isinstance(ops[0], StridedLoop) \
            and ops[0].count > 1:
        lp = ops[0]
        return prog.with_ops((StridedLoop(lp.count - 1, lp.src_stride,
                                          lp.dst_stride, lp.body),))
    return prog


def _bug_shift_src(prog: Program) -> Program:
    return prog.with_ops(_map_first_block(
        prog.ops, lambda b: replace(b, src_off=b.src_off + 1)))


def _bug_reorder(prog: Program) -> Program:
    ops = prog.ops
    if len(ops) > 1:
        return prog.with_ops(tuple(reversed(ops)))
    if len(ops) == 1 and isinstance(ops[0], Record):
        return prog.with_ops((Record(tuple(reversed(ops[0].fields))),))
    return prog


def _bug_unit_too_wide(prog: Program) -> Program:
    return prog.with_ops(_map_first_block(
        prog.ops, lambda b: replace(b, unit=2 * b.unit)))


def _bug_record_fields_swapped(prog: Program) -> Program:
    out = list(prog.ops)
    for i, op in enumerate(out):
        if isinstance(op, Record):
            a, b, *rest = op.fields
            out[i] = Record((replace(a, src_off=b.src_off),
                             replace(b, src_off=a.src_off), *rest))
            break
    return prog.with_ops(out)


def _bug_reverse_gather(prog: Program) -> Program:
    return prog.with_ops(tuple(
        Gather(op.src_index[::-1], op.dst_off, op.unit)
        if isinstance(op, Gather) else op for op in prog.ops))


def _bug_duplicate(prog: Program) -> Program:
    if prog.ops:
        return prog.with_ops(prog.ops + (prog.ops[0],))
    return prog


def _bug_stride_off_by_one(prog: Program) -> Program:
    out = list(prog.ops)
    for i, op in enumerate(out):
        if isinstance(op, StridedLoop):
            out[i] = StridedLoop(op.count, op.src_stride + 1,
                                 op.dst_stride, op.body)
            return prog.with_ops(tuple(out))
    return prog


def _fixture_struct() -> Typemap:
    """Three separated blocks: fuses into one three-field Record."""
    from ..core import INT32, create_struct, resized
    t = create_struct([1, 1, 1], [0, 8, 20], [INT32, INT32, INT32])
    return resized(t, 0, 32).typemap


def _fixture_vector() -> Typemap:
    """A 16-row vector: canonicalizes to a single StridedLoop."""
    from ..core import FLOAT64, vector
    return vector(16, 2, 4, FLOAT64).typemap


def _fixture_vector_i32() -> Typemap:
    """16 rows of three int32: one StridedLoop over a 12-byte leaf that the
    pipeline runs at 4-byte units (8 does not divide it)."""
    from ..core import INT32, vector
    return vector(16, 3, 4, INT32).typemap


def _fixture_run_list() -> Typemap:
    """48 four-byte runs at irregular offsets, spelled as a run list (what a
    DDTBench ``RunLayout`` hands the compiler): a 4-byte-lane Gather."""
    return Typemap.from_runs([(4 * (i * i % 97), 4) for i in range(48)], 400)


@dataclass(frozen=True)
class MiscompileFixture:
    """One deliberately buggy rewrite and the typemap that exposes it."""

    name: str
    description: str
    #: Codes the verifier MUST emit when this bug runs (a subset check —
    #: collateral findings are allowed).
    expected_codes: frozenset
    bug: Pass
    typemap_factory: Callable[[], Typemap]

    def pipeline(self) -> tuple[Pass, ...]:
        """The default pipeline with the buggy pass appended."""
        return default_pipeline() + (self.bug,)

    def verify(self, *, path: Optional[str] = None) -> list[Diagnostic]:
        """Run the verifier against the seeded bug; returns its findings."""
        _, _, diags = validate_pipeline(self.typemap_factory(),
                                        self.pipeline(), path=path,
                                        subject=self.name)
        return diags


#: The seeded corpus.  Each entry exercises a distinct detection channel:
#: byte-map divergence (RPD610), duplicate or missing wire writes (RPD600),
#: and wire order inversion (RPD602 — the byte *map* is unchanged, so only
#: the well-formedness walk can catch it).
MISCOMPILE_CORPUS: tuple[MiscompileFixture, ...] = (
    MiscompileFixture(
        "drop-tail", "silently drops the final op / loop iteration",
        frozenset({"RPD610"}),
        Pass("bug:drop-tail", _bug_drop_tail), _fixture_vector),
    MiscompileFixture(
        "shift-src", "reads every block one byte late",
        frozenset({"RPD610"}),
        Pass("bug:shift-src", _bug_shift_src), _fixture_struct),
    MiscompileFixture(
        "stride-off-by-one", "grows the source stride of a loop by one",
        frozenset({"RPD610"}),
        Pass("bug:stride-off-by-one", _bug_stride_off_by_one),
        _fixture_vector),
    MiscompileFixture(
        "reorder", "reverses op order (byte map unchanged)",
        frozenset({"RPD602"}),
        Pass("bug:reorder", _bug_reorder), _fixture_struct),
    MiscompileFixture(
        "duplicate", "emits the first op twice (byte map unchanged)",
        frozenset({"RPD600"}),
        Pass("bug:duplicate", _bug_duplicate), _fixture_struct),
    MiscompileFixture(
        "unit-too-wide", "doubles a leaf's unit past what divides its "
        "length (the tail of every block is never moved)",
        frozenset({"RPD600"}),
        Pass("bug:unit-too-wide", _bug_unit_too_wide), _fixture_vector_i32),
    MiscompileFixture(
        "record-fields-swapped", "exchanges the source offsets of a "
        "record's first two fields",
        frozenset({"RPD610"}),
        Pass("bug:record-fields-swapped", _bug_record_fields_swapped),
        _fixture_struct),
    MiscompileFixture(
        "run-list-gather-reversed", "reads the lanes of the gather a run "
        "list compiles to back to front", frozenset({"RPD610"}),
        Pass("bug:reverse-gather", _bug_reverse_gather), _fixture_run_list),
)


def verify_miscompile_corpus(*, path: Optional[str] = None
                             ) -> tuple[list[Diagnostic], list[str], int]:
    """Run every seeded fixture; returns ``(findings, missed, nfiles)``
    like the mutant and race corpora.

    ``missed`` names fixtures whose expected codes did NOT all fire — a
    regression in the verifier itself.  CI asserts findings are non-empty
    and ``missed`` is empty.  ``nfiles`` is 0: the fixtures are in-memory
    typemaps, not files.
    """
    findings: list[Diagnostic] = []
    missed: list[str] = []
    for fx in MISCOMPILE_CORPUS:
        diags = fx.verify(path=path)
        findings.extend(diags)
        got = {d.code for d in diags}
        if not fx.expected_codes <= got:
            missed.append(f"{fx.name}: expected {sorted(fx.expected_codes)}, "
                          f"got {sorted(got)}")
    return findings, missed, 0
