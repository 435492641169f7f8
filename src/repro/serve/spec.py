"""Job specifications, quotas, retry policy and failure classification.

A :class:`JobSpec` is everything :func:`repro.mpi.run` needs plus the
robustness envelope the service wraps around it: a :class:`QuotaPolicy`
(wall-clock timeout, virtual-time budget, transient-memory ceiling) and a
:class:`RetryPolicy` (budgeted exponential backoff with deterministic
jitter).  :func:`classify_failure` is the retry engine's brain — it decides
whether a dead job died of something worth retrying (a fault-plan crash, a
reliability exhaustion, a mid-flight kill: the ``MPI_ERR_PROC_FAILED``
family) or of something deterministic (a user exception, a type error, a
blown quota) that would fail identically on every replay.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from ..errors import (DeadlockError, MemoryQuotaError, MPIError,
                      ProcFailedError, ProcFailedPendingError,
                      RankCrashError, ReproError, RuntimeAbort,
                      TimeBudgetExceeded)

__all__ = [
    "AdmissionError", "QuotaPolicy", "RetryPolicy", "JobSpec", "JobStatus",
    "RETRYABLE", "DETERMINISTIC", "QUOTA", "classify_failure",
    "SAME_FAULTS",
]


class AdmissionError(ReproError):
    """The service refused a job at the front door.

    ``reason`` is a stable machine-readable code (the metrics bucket):
    ``saturated`` (queue at max depth — load shedding), ``draining`` /
    ``stopped`` (shutdown in progress), ``invalid-quota`` (zero/negative
    timeout or budget), ``invalid-nprocs``, ``invalid-fn``.
    """

    def __init__(self, reason: str, message: str):
        self.reason = reason
        super().__init__(f"[{reason}] {message}")


class JobStatus:
    """Lifecycle states of a job handle (plain strings, JSON-friendly)."""

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    #: Deterministic or quota failure — retrying would reproduce it.
    FAILED = "failed"
    #: Retry budget exhausted on a retryable failure class.
    DEAD_LETTERED = "dead_lettered"
    #: Removed from the queue by drain/kill before it could run.
    CANCELLED = "cancelled"

    TERMINAL = frozenset({COMPLETED, FAILED, DEAD_LETTERED, CANCELLED})


#: Failure classes (:func:`classify_failure` results).
RETRYABLE = "retryable"
DETERMINISTIC = "deterministic"
QUOTA = "quota"


@dataclass(frozen=True)
class QuotaPolicy:
    """Per-job resource ceilings enforced by the service.

    ``wall_timeout`` bounds real elapsed seconds (the deadlock backstop);
    ``time_budget`` bounds *virtual* fabric seconds per rank, enforced at
    the clock so a rank stops exactly at the boundary; ``max_pool_bytes``
    bounds live transient allocations per rank, enforced before any pool
    buffer is handed out.
    """

    wall_timeout: float = 30.0
    time_budget: Optional[float] = None
    max_pool_bytes: Optional[int] = None

    def problems(self) -> list[str]:
        """Validation messages; an empty list means admissible."""
        out = []
        if self.wall_timeout is None or self.wall_timeout <= 0:
            out.append(f"wall_timeout must be positive, got "
                       f"{self.wall_timeout!r}")
        if self.time_budget is not None and self.time_budget <= 0:
            out.append(f"time_budget must be positive, got "
                       f"{self.time_budget!r}")
        if self.max_pool_bytes is not None and self.max_pool_bytes <= 0:
            out.append(f"max_pool_bytes must be positive, got "
                       f"{self.max_pool_bytes!r}")
        return out


@dataclass(frozen=True)
class RetryPolicy:
    """Budgeted exponential backoff with deterministic jitter.

    ``delay_for(attempt, key)`` is a pure function of ``(seed, key,
    attempt)`` — the same CRC-draw discipline as
    :class:`repro.ucp.faults.FaultPlan` — so a replayed chaos run backs
    off identically and tests can assert exact schedules.  ``attempt`` is
    0-based: the delay before retry N of a job that has failed N times.
    """

    max_retries: int = 2
    base_delay: float = 0.005
    max_delay: float = 0.25
    #: Fractional jitter: the delay is scaled by ``1 + jitter * draw``
    #: with ``draw`` uniform in [0, 1).
    jitter: float = 0.5
    #: Whether a wall-clock timeout is worth retrying (off by default:
    #: a deadlock reproduces, and the timed-out attempt's workers must be
    #: retired, making timeout retries doubly expensive).
    retry_on_timeout: bool = False
    seed: int = 0

    def delay_for(self, attempt: int, key: str) -> float:
        raw = min(self.base_delay * (2 ** attempt), self.max_delay)
        draw = zlib.crc32(f"{self.seed}|{key}|{attempt}".encode("ascii")) \
            / 0xFFFFFFFF
        return raw * (1.0 + self.jitter * draw)


class _SameFaults:
    """Sentinel: retries reuse the original fault plan."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SAME_FAULTS"


#: Default for :attr:`JobSpec.retry_faults`: replay the same plan.  Pass
#: None to retry on a pristine fabric (transient-fault semantics: the
#: crash happened once), or a different plan for staged chaos.
SAME_FAULTS = _SameFaults()


@dataclass
class JobSpec:
    """One job: the SPMD program plus its robustness envelope."""

    fn: Callable | Sequence[Callable]
    name: str = "job"
    nprocs: int = 2
    params: Any = None
    engine_config: Any = None
    faults: Any = None
    reliability: Any = None
    #: Backend override; None inherits the service's transport.
    transport: Optional[str] = None
    quota: QuotaPolicy = field(default_factory=QuotaPolicy)
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Fault plan for retry attempts (attempt >= 1).  The default,
    #: :data:`SAME_FAULTS`, replays the original plan — deterministic
    #: crashes then deterministically exhaust the retry budget and land
    #: in the dead-letter list, which is sometimes exactly the test.
    retry_faults: Any = SAME_FAULTS
    sanitize: bool = False
    trace_messages: bool = False
    #: Free-form labels carried through to reports.
    tags: dict = field(default_factory=dict)

    def problems(self) -> list[str]:
        out = self.quota.problems()
        if self.nprocs < 1:
            out.append(f"nprocs must be >= 1, got {self.nprocs}")
        if callable(self.fn):
            pass
        elif isinstance(self.fn, (list, tuple)):
            if len(self.fn) != self.nprocs:
                out.append(f"got {len(self.fn)} rank functions for "
                           f"nprocs={self.nprocs}")
        else:
            out.append(f"fn must be a callable or a sequence of rank "
                       f"functions, got {type(self.fn).__name__}")
        if self.retry.max_retries < 0:
            out.append(f"max_retries must be >= 0, got "
                       f"{self.retry.max_retries}")
        return out

    def faults_for_attempt(self, attempt: int) -> Any:
        if attempt == 0 or isinstance(self.retry_faults, _SameFaults):
            return self.faults
        return self.retry_faults


def _classify_one(exc: BaseException) -> str:
    if isinstance(exc, (TimeBudgetExceeded, MemoryQuotaError, TimeoutError)):
        return QUOTA
    if isinstance(exc, (ProcFailedError, ProcFailedPendingError,
                        RankCrashError)):
        return RETRYABLE
    if isinstance(exc, MPIError):
        # Every other MPI error class (truncation, type mismatch, user
        # callback failure...) reproduces on replay.
        return DETERMINISTIC
    return DETERMINISTIC


def classify_failure(exc: BaseException) -> tuple[str, BaseException]:
    """Classify a job failure; returns ``(class, root_cause)``.

    For a :class:`~repro.errors.RuntimeAbort` the per-rank failures are
    classified individually and the *most deterministic* class wins
    (``deterministic`` > ``quota`` > ``retryable``): when rank 0 raises
    ``ValueError`` and its peers observe ``MPI_ERR_PROC_FAILED`` through
    the failure detector, the proc-failed errors are collateral — retrying
    would replay the ``ValueError``.  So is the sanitizer's
    ``DeadlockError`` on a wait whose awaited ranks all failed in the same
    abort (a wait on a peer that *returned* is a real deadlock).  The
    returned root cause is the highest-precedence failure (lowest rank
    breaking ties), which is what a dead-letter entry records.
    """
    if isinstance(exc, RuntimeAbort):
        precedence = {DETERMINISTIC: 0, QUOTA: 1, RETRYABLE: 2}
        best: tuple[int, int, str, BaseException] | None = None
        for rank, failure in sorted(exc.failures.items()):
            if isinstance(failure, DeadlockError) and failure.waited_on \
                    and all(r in exc.failures for r in failure.waited_on):
                # The sanitizer's verdict on a wait whose peers all failed
                # in this abort: collateral, like a ProcFailedError.
                cls = RETRYABLE
            else:
                cls = _classify_one(failure)
            entry = (precedence[cls], rank, cls, failure)
            if best is None or entry[:2] < best[:2]:
                best = entry
        if best is None:  # pragma: no cover - RuntimeAbort is never empty
            return DETERMINISTIC, exc
        return best[2], best[3]
    return _classify_one(exc), exc
