"""Error codes and exception hierarchy.

The paper stresses that the custom-datatype callbacks propagate failures via
return values (``MPI_SUCCESS`` or an error code), because serialization
libraries can fail on invalid data.  In Python the natural equivalent is an
exception hierarchy; every callback failure is wrapped into an
:class:`MPIError` carrying the closest MPI error class so that applications
can still dispatch on numeric codes.
"""

from __future__ import annotations

# Numeric error classes, mirroring the MPI standard's error classes that the
# prototype maps callback failures onto.
MPI_SUCCESS = 0
MPI_ERR_BUFFER = 1
MPI_ERR_COUNT = 2
MPI_ERR_TYPE = 3
MPI_ERR_TAG = 4
MPI_ERR_COMM = 5
MPI_ERR_RANK = 6
MPI_ERR_REQUEST = 7
MPI_ERR_ROOT = 8
MPI_ERR_GROUP = 9
MPI_ERR_OP = 10
MPI_ERR_TOPOLOGY = 11
MPI_ERR_DIMS = 12
MPI_ERR_ARG = 13
MPI_ERR_UNKNOWN = 14
MPI_ERR_TRUNCATE = 15
MPI_ERR_OTHER = 16
MPI_ERR_INTERN = 17
MPI_ERR_PENDING = 18
MPI_ERR_IN_STATUS = 19
MPI_ERR_NO_MEM = 20
# ULFM-style fault-tolerance classes (MPI 4.x / User-Level Failure
# Mitigation): surfaced by the fault-injected fabric when a peer process
# crashed or a transfer could not be recovered by the reliability protocol.
MPI_ERR_PROC_FAILED = 21
MPI_ERR_REVOKED = 22
MPI_ERR_PROC_FAILED_PENDING = 23

#: Symbolic name for every code above, generated from the module globals so
#: the table can never fall out of sync with a newly added ``MPI_ERR_*``.
_ERROR_NAMES = {
    value: name
    for name, value in sorted(vars().items())
    if name == "MPI_SUCCESS" or name.startswith("MPI_ERR_")
}

#: One-line descriptions (the MPI_Error_string analogue).
_ERROR_STRINGS = {
    MPI_SUCCESS: "no error",
    MPI_ERR_BUFFER: "invalid buffer pointer",
    MPI_ERR_COUNT: "invalid count argument",
    MPI_ERR_TYPE: "invalid datatype argument",
    MPI_ERR_TAG: "invalid tag argument",
    MPI_ERR_COMM: "invalid communicator",
    MPI_ERR_RANK: "invalid rank",
    MPI_ERR_REQUEST: "invalid request (handle)",
    MPI_ERR_ROOT: "invalid root",
    MPI_ERR_GROUP: "invalid group",
    MPI_ERR_OP: "invalid operation",
    MPI_ERR_TOPOLOGY: "invalid topology",
    MPI_ERR_DIMS: "invalid dimension argument",
    MPI_ERR_ARG: "invalid argument of some other kind",
    MPI_ERR_UNKNOWN: "unknown error",
    MPI_ERR_TRUNCATE: "message truncated on receive",
    MPI_ERR_OTHER: "known error not in this list",
    MPI_ERR_INTERN: "internal MPI (implementation) error",
    MPI_ERR_PENDING: "pending request",
    MPI_ERR_IN_STATUS: "error code is in status",
    MPI_ERR_NO_MEM: "memory is exhausted",
    MPI_ERR_PROC_FAILED: "a peer process has failed",
    MPI_ERR_REVOKED: "the communicator has been revoked",
    MPI_ERR_PROC_FAILED_PENDING: "a pending operation may never complete "
                                 "because a potential peer has failed",
}


def error_name(code: int) -> str:
    """Return the symbolic name for an MPI error class."""
    return _ERROR_NAMES.get(code, f"MPI_ERR_UNKNOWN({code})")


def error_string(code: int) -> str:
    """Human-readable description of an error class (MPI_Error_string)."""
    try:
        return f"{_ERROR_NAMES[code]}: {_ERROR_STRINGS[code]}"
    except KeyError:
        return f"MPI_ERR_UNKNOWN({code}): unrecognized error class"


def error_code(name: str) -> int:
    """Inverse of :func:`error_name`; raises KeyError for unknown names."""
    for code, known in _ERROR_NAMES.items():
        if known == name:
            return code
    raise KeyError(f"unknown MPI error class name {name!r}")


class ReproError(Exception):
    """Base class for all errors raised by this package."""

    def __reduce__(self):
        # Subclasses format their message from several constructor
        # arguments, which pickle's default (``cls(*self.args)``) cannot
        # replay.  Rebuild without ``__init__`` instead: the formatted
        # ``args`` plus the attribute dict are the whole exception, so
        # every error crosses a process boundary (acknowledgement frames,
        # rank reports) with its class, text and attributes intact.
        return (type(self).__new__, (type(self), *self.args),
                self.__dict__ or None)


class MPIError(ReproError):
    """An MPI-level failure carrying a numeric error class.

    Parameters
    ----------
    code:
        One of the ``MPI_ERR_*`` constants.
    message:
        Human-readable description.
    """

    def __init__(self, code: int, message: str = ""):
        self.code = code
        super().__init__(f"{error_name(code)}: {message}" if message else error_name(code))


class TruncationError(MPIError):
    """Receive buffer too small for the matched message."""

    def __init__(self, message: str = ""):
        super().__init__(MPI_ERR_TRUNCATE, message)


class TypeError_(MPIError):
    """Datatype mismatch or malformed datatype construction."""

    def __init__(self, message: str = ""):
        super().__init__(MPI_ERR_TYPE, message)


class CallbackError(MPIError):
    """A user-provided custom-datatype callback failed.

    The original exception (or numeric code returned by the callback) is
    preserved so applications can recover serializer-specific detail.
    """

    def __init__(self, message: str = "", cause: BaseException | None = None,
                 code: int = MPI_ERR_OTHER):
        super().__init__(code, message)
        self.__cause__ = cause


class DiagnosticError(MPIError):
    """Static-analysis findings promoted to a hard failure.

    Raised by :mod:`repro.analyze` entry points that run in enforcing mode;
    carries the diagnostics (each of which maps to an ``MPI_ERR_*`` class via
    its code table entry) so callers can still dispatch numerically.
    """

    def __init__(self, message: str = "", code: int = MPI_ERR_TYPE,
                 diagnostics=()):
        super().__init__(code, message)
        #: The :class:`repro.analyze.Diagnostic` findings behind the failure.
        self.diagnostics = list(diagnostics)


class DeadlockError(MPIError):
    """The runtime sanitizer detected a distributed deadlock.

    Raised in every blocked rank once a wait-for cycle (or a wait on a
    terminated rank) is proven, releasing the job in bounded time instead
    of hitting the wall-clock timeout.  The full cycle evidence lives in
    the job's sanitizer report (diagnostic RPD440).  ``waited_on`` names
    the ended ranks the blocked ranks wait on; it is empty for a wait-for
    cycle.
    """

    def __init__(self, message: str = "", waited_on=()):
        super().__init__(MPI_ERR_PENDING, message)
        self.waited_on = tuple(sorted(waited_on))


class ProcFailedError(MPIError):
    """A peer process crashed or a transfer could not be recovered.

    The ULFM ``MPI_ERR_PROC_FAILED`` class: raised by waits that depend on
    a crashed rank, by sends whose reliability retry budget ran out, and by
    receives matching a message the sender could not get through.  Carries
    the world ranks believed to have failed (``failed_ranks``) so
    applications running under ``MPI_ERRORS_RETURN`` can shrink around
    them.
    """

    def __init__(self, message: str = "", failed_ranks=()):
        super().__init__(MPI_ERR_PROC_FAILED, message)
        self.failed_ranks = tuple(sorted(failed_ranks))


class ProcFailedPendingError(MPIError):
    """A wildcard (ANY_SOURCE) operation may never complete.

    The ULFM ``MPI_ERR_PROC_FAILED_PENDING`` class: some — but not all —
    potential senders of a wildcard receive have failed, so the operation
    is still matchable but can no longer be guaranteed to complete.
    """

    def __init__(self, message: str = "", failed_ranks=()):
        super().__init__(MPI_ERR_PROC_FAILED_PENDING, message)
        self.failed_ranks = tuple(sorted(failed_ranks))


class RevokedError(MPIError):
    """Operation on a communicator that has been revoked (ULFM)."""

    def __init__(self, message: str = ""):
        super().__init__(MPI_ERR_REVOKED, message)


class RankCrashError(ReproError):
    """A fault plan killed this rank at a scheduled virtual time.

    Deliberately *not* an :class:`MPIError`: the crashed process does not
    observe an MPI error class — it simply stops.  Peers observe the crash
    as :class:`ProcFailedError` through the failure detector.
    """

    def __init__(self, rank: int, vtime: float):
        self.rank = rank
        self.vtime = vtime
        super().__init__(f"rank {rank} crashed by fault plan at "
                         f"virtual t={vtime:.3e}s")


class PoolLeakError(ReproError):
    """A job returned its warm worker set with buffers still outstanding.

    Raised by :meth:`repro.ucp.memory.BufferPool.reset_for_job` /
    :meth:`repro.ucp.memory.MemoryTracker.reset_for_job` at the job
    boundary, so a leak in job N is attributed to job N instead of being
    discovered hundreds of jobs later as unexplained pool growth.  Carries
    the offending job's label and the leak size.
    """

    def __init__(self, job: str, outstanding: int, leaked_bytes: int):
        self.job = job
        self.outstanding = outstanding
        self.leaked_bytes = leaked_bytes
        super().__init__(
            f"job {job!r} leaked {outstanding} pool buffer(s) "
            f"({leaked_bytes} bytes) — reset_for_job requires a balanced "
            f"pool at the job boundary")


class TimeBudgetExceeded(ReproError):
    """A rank exhausted its job's virtual-time budget.

    Deliberately *not* an :class:`MPIError` — like a fault-plan crash, the
    rank simply stops where the quota cut it off.  The job service
    classifies the resulting abort as a deterministic quota failure (the
    same program replayed gets the same virtual time), so it is never
    retried.
    """

    def __init__(self, budget: float, now: float):
        self.budget = budget
        self.now = now
        super().__init__(f"virtual-time budget exhausted: t={now:.3e}s "
                         f"exceeds the job's budget of {budget:.3e}s")


class MemoryQuotaError(MPIError):
    """A rank exceeded its job's transient-memory ceiling.

    The ``MPI_ERR_NO_MEM`` class: raised by
    :meth:`repro.ucp.memory.MemoryTracker` accounting when live transient
    bytes would cross the per-job ceiling.  Raised *before* a pool buffer
    is handed out, so the breach never strands pool state.
    """

    def __init__(self, ceiling: int, live_bytes: int, requested: int):
        self.ceiling = ceiling
        self.live_bytes = live_bytes
        self.requested = requested
        super().__init__(
            MPI_ERR_NO_MEM,
            f"transient allocation of {requested} bytes would put "
            f"{live_bytes} live bytes over the job's {ceiling}-byte "
            f"ceiling")


class TransportError(ReproError):
    """Failure inside the simulated UCP transport."""


class RuntimeAbort(ReproError):
    """Raised when a rank in an SPMD job failed; aggregates per-rank errors."""

    def __init__(self, failures: dict[int, BaseException]):
        self.failures = dict(failures)
        #: Sanitizer findings gathered before the abort (set by the runtime
        #: when the job ran with ``sanitize=True``).
        self.sanitizer_report = None
        detail = "; ".join(f"rank {r}: {type(e).__name__}: {e}" for r, e in sorted(failures.items()))
        super().__init__(f"{len(failures)} rank(s) failed: {detail}")
