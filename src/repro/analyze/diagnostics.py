"""Diagnostic model and the stable ``RPD###`` code table.

Every finding the analyzers emit is a :class:`Diagnostic` carrying a code
from :data:`CODE_TABLE`.  Codes are stable across releases (new checks get
new numbers; retired checks leave holes), severities are fixed per code, and
each code maps onto the closest MPI error class so findings promoted to
exceptions (:class:`repro.errors.DiagnosticError`) stay dispatchable by
``MPI_ERR_*`` value.

Numbering scheme:

* ``RPD1xx`` — datatype/typemap validity and layout performance smells,
* ``RPD2xx`` — custom-datatype callback contract violations,
* ``RPD3xx`` — MPI-usage lints on application source files,
* ``RPD4xx`` — dynamic findings from the runtime sanitizer,
* ``RPD5xx`` — whole-program communication-flow verification
  (:mod:`repro.analyze.flow`), plus tool notices (``RPD590``),
* ``RPD6xx`` — pack-plan IR verification (:mod:`repro.analyze.planverify`):
  well-formedness invariants, translation validation of the rewrite passes,
  and the static cost model's perf smells,
* ``RPD7xx`` — protocol model checking and transport conformance
  (:mod:`repro.analyze.protomodel` / :mod:`repro.analyze.protoconform`):
  exhaustively explored interleaving violations (deadlock, loss,
  duplicate delivery, pool misuse, ULFM breaks, retry divergence) and
  model/implementation divergence on live traffic,
* ``RPD8xx`` — concurrency and transport portability
  (:mod:`repro.analyze.races`): per-attribute lockset inference over the
  fabric classes (unsynchronized shared state, GIL-atomicity reliance),
  the lock-order graph (inversions, blocking under a lock), and the wire
  audit that decides what a process-boundary transport must copy versus
  map (by-reference payload aliasing, non-serializable envelope fields).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from ..errors import (MPI_ERR_ARG, MPI_ERR_BUFFER, MPI_ERR_COMM,
                      MPI_ERR_INTERN, MPI_ERR_OTHER, MPI_ERR_PENDING,
                      MPI_ERR_PROC_FAILED, MPI_ERR_REQUEST, MPI_ERR_TAG,
                      MPI_ERR_TRUNCATE, MPI_ERR_TYPE, error_name)

#: JSON schema version of every ``--format json`` / ``--report`` document;
#: bump only on incompatible output changes.
SCHEMA_VERSION = 1

#: Severity levels, most severe first.  ``perf`` findings (smells) and
#: ``notice`` findings (tool status, e.g. incomplete analysis or an unused
#: suppression) are reported only under ``--strict``.
SEVERITIES = ("error", "warning", "perf", "notice")

#: Severities hidden unless ``--strict`` is given.
STRICT_ONLY_SEVERITIES = frozenset({"perf", "notice"})

_SEVERITY_RANK = {s: i for i, s in enumerate(SEVERITIES)}


@dataclass(frozen=True)
class CodeInfo:
    """Static metadata of one diagnostic code."""

    code: str
    severity: str
    mpi_errno: int
    title: str

    @property
    def mpi_error_name(self) -> str:
        return error_name(self.mpi_errno)


def _c(code: str, severity: str, mpi_errno: int, title: str) -> CodeInfo:
    return CodeInfo(code, severity, mpi_errno, title)


#: The full registry.  Text in ``title`` is the generic description; each
#: emitted Diagnostic carries a specific ``message`` as well.
CODE_TABLE: dict[str, CodeInfo] = {c.code: c for c in (
    # -- datatype validity (typecheck.py) --------------------------------
    _c("RPD101", "error", MPI_ERR_TYPE,
       "typemap blocks overlap in memory"),
    _c("RPD102", "error", MPI_ERR_TYPE,
       "block displacement outside the declared [lb, lb+extent) window"),
    _c("RPD103", "error", MPI_ERR_TYPE,
       "non-positive extent on a datatype that carries data"),
    _c("RPD104", "warning", MPI_ERR_TYPE,
       "resized extent smaller than the true extent (elements alias)"),
    _c("RPD105", "warning", MPI_ERR_TYPE,
       "declaration (pack) order differs from address order"),
    _c("RPD106", "warning", MPI_ERR_TYPE,
       "empty typemap: the datatype packs zero bytes"),
    _c("RPD110", "perf", MPI_ERR_TYPE,
       "region count per element exceeds the iovec soft limit"),
    _c("RPD111", "perf", MPI_ERR_TYPE,
       "many fragments below the efficient scatter/gather entry size"),
    _c("RPD112", "perf", MPI_ERR_TYPE,
       "sparse layout: extent vastly exceeds the packed size"),
    # -- callback contracts (contracts.py) -------------------------------
    _c("RPD201", "error", MPI_ERR_ARG,
       "callback signature cannot accept the documented argument count"),
    _c("RPD202", "warning", MPI_ERR_ARG,
       "pack_fn/unpack_fn provided asymmetrically"),
    _c("RPD203", "warning", MPI_ERR_ARG,
       "inorder datatype without both pack_fn and unpack_fn"),
    _c("RPD210", "error", MPI_ERR_OTHER,
       "query packed-size promise disagrees with pack output"),
    _c("RPD211", "error", MPI_ERR_OTHER,
       "pack -> unpack -> pack roundtrip does not reproduce the stream"),
    _c("RPD212", "error", MPI_ERR_OTHER,
       "region_count_fn promise disagrees with region_fn result"),
    _c("RPD213", "warning", MPI_ERR_OTHER,
       "per-operation state is leaked or freed an unexpected number of times"),
    _c("RPD214", "error", MPI_ERR_OTHER,
       "callback raised or returned an invalid value during the harness"),
    # -- MPI-usage lints (lint.py) ---------------------------------------
    _c("RPD300", "error", MPI_ERR_ARG,
       "source file could not be parsed or imported"),
    _c("RPD301", "warning", MPI_ERR_TAG,
       "send/recv tag constants do not match within the file"),
    _c("RPD302", "error", MPI_ERR_REQUEST,
       "nonblocking request is never waited on"),
    _c("RPD303", "warning", MPI_ERR_BUFFER,
       "buffer modified between nonblocking post and wait"),
    _c("RPD304", "warning", MPI_ERR_PENDING,
       "unconditional blocking send before blocking recv (deadlock risk)"),
    # -- runtime sanitizer (repro.sanitize) ------------------------------
    _c("RPD400", "error", MPI_ERR_BUFFER,
       "buffers of concurrent requests overlap with a writer"),
    _c("RPD401", "error", MPI_ERR_BUFFER,
       "send buffer modified while the send was in flight"),
    _c("RPD402", "error", MPI_ERR_BUFFER,
       "receive buffer modified between post and delivery"),
    _c("RPD410", "error", MPI_ERR_TYPE,
       "send and receive type signatures do not match"),
    _c("RPD411", "error", MPI_ERR_TRUNCATE,
       "message longer than the matched receive (truncation)"),
    _c("RPD420", "warning", MPI_ERR_REQUEST,
       "request never completed before its rank finished"),
    _c("RPD421", "warning", MPI_ERR_PENDING,
       "message was sent but never received"),
    _c("RPD430", "error", MPI_ERR_OTHER,
       "packed-size promise disagrees between sender and receiver"),
    _c("RPD431", "error", MPI_ERR_OTHER,
       "region count/length disagreement on live traffic"),
    _c("RPD432", "warning", MPI_ERR_OTHER,
       "custom-datatype per-operation state is allocated but never freed"),
    _c("RPD440", "error", MPI_ERR_PENDING,
       "distributed deadlock: cyclic or hopeless wait-for dependency"),
    _c("RPD450", "error", MPI_ERR_PROC_FAILED,
       "fragment lost on the wire with no reliability protocol to recover it"),
    _c("RPD451", "error", MPI_ERR_OTHER,
       "corrupted payload delivered to the application (CRC mismatch)"),
    _c("RPD452", "error", MPI_ERR_PROC_FAILED,
       "reliability retry budget exhausted; transfer abandoned"),
    # -- static communication-flow verifier (flow.py / commgraph.py) ------
    _c("RPD500", "error", MPI_ERR_PENDING,
       "static deadlock: cycle in the blocking wait-for graph"),
    _c("RPD501", "warning", MPI_ERR_PENDING,
       "send is never received by any rank"),
    _c("RPD502", "error", MPI_ERR_PENDING,
       "receive can never be matched by any send"),
    _c("RPD510", "error", MPI_ERR_TYPE,
       "static type-signature mismatch between matched send and receive"),
    _c("RPD511", "error", MPI_ERR_TRUNCATE,
       "message statically larger than the matched receive (truncation)"),
    _c("RPD520", "error", MPI_ERR_COMM,
       "ranks reach different collectives, or in different orders"),
    _c("RPD530", "notice", MPI_ERR_OTHER,
       "flow analysis incomplete: a value escaped the abstract domain"),
    _c("RPD590", "notice", MPI_ERR_OTHER,
       "unused noqa suppression"),
    # -- pack-plan IR verifier (planverify.py) ----------------------------
    _c("RPD600", "error", MPI_ERR_INTERN,
       "plan IR writes overlapping wire (destination) offsets"),
    _c("RPD601", "error", MPI_ERR_INTERN,
       "plan IR source offset outside the typemap's true bounds"),
    _c("RPD602", "error", MPI_ERR_INTERN,
       "plan IR wire offsets are not monotone in execution order"),
    _c("RPD610", "error", MPI_ERR_INTERN,
       "rewrite pass miscompiled the plan: byte map changed"),
    _c("RPD620", "perf", MPI_ERR_TYPE,
       "final plan IR predicted slow by the static cost model"),
    # -- protocol model checker (protomodel.py / protoconform.py) ---------
    _c("RPD700", "error", MPI_ERR_PENDING,
       "protocol deadlock: a reachable quiescent state leaves ranks stuck"),
    _c("RPD701", "error", MPI_ERR_OTHER,
       "lost message: send completed, payload never delivered, no failure "
       "reported"),
    _c("RPD702", "error", MPI_ERR_OTHER,
       "delivery the seq/CRC layer must suppress (duplicate or corrupt) "
       "reached the application"),
    _c("RPD703", "error", MPI_ERR_INTERN,
       "pool-buffer leak or double-recycle along a protocol path"),
    _c("RPD704", "error", MPI_ERR_PROC_FAILED,
       "ULFM violation: operation succeeded against a crashed peer without "
       "MPI_ERR_PROC_FAILED"),
    _c("RPD710", "error", MPI_ERR_OTHER,
       "retry-budget divergence: retransmission loop exceeds its progress "
       "bound"),
    _c("RPD720", "error", MPI_ERR_INTERN,
       "model/implementation divergence: live transport disagrees with the "
       "protocol model"),
    # -- concurrency & transport portability (races.py) -------------------
    _c("RPD800", "error", MPI_ERR_INTERN,
       "unsynchronized shared mutable state: attribute of a lock-owning "
       "class written outside every lock"),
    _c("RPD801", "error", MPI_ERR_INTERN,
       "GIL-atomicity reliance: compound read-modify-write or "
       "check-then-act on shared state outside any lock"),
    _c("RPD802", "error", MPI_ERR_PENDING,
       "lock-order inversion: two locks are acquired in opposite orders "
       "on different paths"),
    _c("RPD803", "warning", MPI_ERR_PENDING,
       "blocking call or user callback executed while holding a lock"),
    _c("RPD810", "warning", MPI_ERR_BUFFER,
       "user buffer aliased by reference across the rank boundary on the "
       "wire envelope"),
    _c("RPD811", "warning", MPI_ERR_TYPE,
       "non-serializable object placed on the wire envelope"),
)}


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a code plus its concrete evidence and location."""

    code: str
    message: str
    #: Fix-it suggestion; empty when no mechanical fix exists.
    hint: str = ""
    #: Source file the finding is attributed to (lint / --import runs).
    file: Optional[str] = None
    line: int = 0
    col: int = 0
    #: What was analyzed: a datatype name, callback name, or variable.
    subject: str = ""

    def __post_init__(self):
        if self.code not in CODE_TABLE:
            raise KeyError(f"unknown diagnostic code {self.code!r}")

    @property
    def info(self) -> CodeInfo:
        return CODE_TABLE[self.code]

    @property
    def severity(self) -> str:
        return self.info.severity

    @property
    def mpi_errno(self) -> int:
        return self.info.mpi_errno

    def to_dict(self) -> dict:
        """JSON-stable rendering (schema v1; key set is frozen)."""
        return {
            "code": self.code,
            "severity": self.severity,
            "mpi_error": self.info.mpi_error_name,
            "message": self.message,
            "hint": self.hint,
            "file": self.file,
            "line": self.line,
            "col": self.col,
            "subject": self.subject,
        }

    def format_text(self) -> str:
        # Columns are stored 0-based (AST col_offset; JSON keeps the raw
        # value) but rendered 1-based, the flake8/editor convention.
        loc = ""
        if self.file:
            loc = f"{self.file}:{self.line}:{self.col + 1}: " if self.line \
                else f"{self.file}: "
        subj = f" [{self.subject}]" if self.subject else ""
        hint = f"\n    hint: {self.hint}" if self.hint else ""
        return f"{loc}{self.code} {self.severity}: {self.message}{subj}{hint}"


def severity_rank(severity: str) -> int:
    """Sort key: 0 for error, larger for milder levels."""
    return _SEVERITY_RANK[severity]


def sort_diagnostics(diags) -> list[Diagnostic]:
    """Stable ordering used by every reporter: file, line, col, code."""
    return sorted(diags, key=lambda d: (d.file or "", d.line, d.col, d.code,
                                        d.subject))


def tally(diags) -> dict:
    """The ``by_code``/``by_severity`` counts of every JSON summary."""
    return {f"by_{attr}": dict(sorted(Counter(
        getattr(d, attr) for d in diags).items()))
        for attr in ("code", "severity")}
