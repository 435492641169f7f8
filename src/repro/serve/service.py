"""The fault-hardened job service: warm workers, quotas, retries, drain.

:class:`JobService` is a long-lived scheduler that accepts a bounded queue
of :class:`~repro.serve.spec.JobSpec` and runs each on one of ``slots``
scheduler threads through :func:`repro.mpi.run`.  What makes it a
*service* rather than a loop over ``run()``:

* **Warm worker sets** — each job's per-rank
  :class:`~repro.ucp.memory.MemoryTracker` (and its size-classed
  :class:`~repro.ucp.memory.BufferPool`) comes from a :class:`WarmSetBank`
  keyed by ``nprocs`` and goes back after the job, so pooled buffers and
  the process-wide PackPlan LRU survive across jobs.  Between jobs every
  tracker passes :meth:`~repro.ucp.memory.MemoryTracker.reset_for_job`,
  which *asserts* pool balance — a leak in job N is attributed to job N.
* **Admission control** — a bounded queue with load shedding: when the
  queue is at ``max_queue`` the submit is rejected with a reason instead
  of absorbing unbounded backlog.
* **Quotas** — wall-clock timeout (the deadlock backstop), a virtual-time
  budget enforced *at the clock* (ranks stop exactly at the boundary),
  and a transient-memory ceiling enforced before any buffer is handed
  out.  Budget and ceiling are installed at rank entry, on the rank's own
  thread in the rank's own process, so every backend enforces them the
  same way.
* **Retry engine** — failures are classified
  (:func:`~repro.serve.spec.classify_failure`); only the
  ``MPI_ERR_PROC_FAILED`` family retries, with budgeted exponential
  backoff + deterministic jitter; budget exhaustion lands the job in the
  dead-letter list with its last error attached.
* **Chaos kills** — :meth:`JobHandle.kill` aborts a job through the
  fabric's ULFM failure detector: every blocked wait raises
  ``MPI_ERR_PROC_FAILED`` in bounded time, rank threads join cleanly, and
  teardown returns every pool buffer — a kill leaks nothing.
* **Drain semantics** — :meth:`JobService.shutdown` stops admission,
  finishes in-flight jobs (or kills them with ``drain=False``), cancels
  queued ones and returns a full accounting.

Thread contract: the queue, lifecycle state and in-flight table are
guarded by ``self._cv`` (one condition around one lock); each
:class:`JobHandle`'s mutable fields are guarded by the handle's own lock;
:class:`WarmSetBank` has its own lock.  Scheduler slots never call user
code or ``run()`` while holding any of them.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from ..core.typecache import plan_cache_info
from ..errors import PoolLeakError, RuntimeAbort
from ..mpi.runtime import JobResult, run
from ..ucp.faults import FaultPlan
from ..ucp.memory import MemoryTracker
from ..ucp.netsim import BudgetedClock
from ..ucp.transport import TransportUnavailableError, create_transport
from .metrics import ServiceMetrics
from .spec import (QUOTA, RETRYABLE, AdmissionError, JobSpec, JobStatus,
                   QuotaPolicy, classify_failure)

__all__ = ["JobService", "JobHandle", "WarmSetBank"]


class WarmSetBank:
    """Recycled per-rank memory-tracker sets, keyed by rank count.

    ``checkout(nprocs)`` hands out a warm set when one is banked (the
    pools' free lists still hold the previous jobs' buffers) or builds a
    fresh one; ``checkin`` re-arms every tracker through
    :meth:`~repro.ucp.memory.MemoryTracker.reset_for_job` and banks it.
    A set that fails the balance assertion — or that belonged to a
    timed-out job whose abandoned rank threads might still touch it — is
    *retired* (dropped) instead of banked, so one bad job can never
    poison the warm path for its successors.
    """

    def __init__(self, max_sets_per_size: int = 8):
        self._lock = threading.Lock()
        self._free: dict[int, list[list[MemoryTracker]]] = {}
        self.max_sets_per_size = max_sets_per_size
        self.created = 0
        self.warm_hits = 0
        self.retired = 0
        self.checked_out = 0

    def checkout(self, nprocs: int) -> list[MemoryTracker]:
        with self._lock:
            sets = self._free.get(nprocs)
            if sets:
                self.warm_hits += 1
                self.checked_out += 1
                return sets.pop()
            self.created += 1
            self.checked_out += 1
        return [MemoryTracker() for _ in range(nprocs)]

    def checkin(self, trackers: list[MemoryTracker], job: str,
                dirty: bool = False) -> Optional[PoolLeakError]:
        """Return a set; banks it warm, or retires it.

        Returns the :class:`~repro.errors.PoolLeakError` when the job
        left buffers outstanding (the set is retired and the leak is the
        caller's to account), None otherwise.
        """
        with self._lock:
            self.checked_out -= 1
        if dirty:
            with self._lock:
                self.retired += 1
            return None
        leak: Optional[PoolLeakError] = None
        for tracker in trackers:
            try:
                tracker.reset_for_job(job)
            except PoolLeakError as exc:
                leak = exc
        with self._lock:
            if leak is not None:
                self.retired += 1
                return leak
            sets = self._free.setdefault(len(trackers), [])
            if len(sets) < self.max_sets_per_size:
                sets.append(trackers)
            else:
                self.retired += 1
        return None

    def snapshot(self) -> dict:
        with self._lock:
            banked = {n: len(sets) for n, sets in self._free.items() if sets}
            outstanding = sum(
                t.pool.snapshot()["outstanding"]
                for sets in self._free.values() for s in sets for t in s)
            pooled_bytes = sum(
                t.pool.snapshot()["pooled_bytes"]
                for sets in self._free.values() for s in sets for t in s)
            return {"created": self.created, "warm_hits": self.warm_hits,
                    "retired": self.retired,
                    "checked_out": self.checked_out,
                    "banked_sets": banked,
                    "banked_outstanding": outstanding,
                    "banked_pooled_bytes": pooled_bytes}


class JobHandle:
    """The caller's view of one submitted job.

    All mutable fields are guarded by the handle's own lock; readers use
    the snapshot properties.  ``wait()`` blocks on a terminal state.
    """

    def __init__(self, job_id: int, spec: JobSpec):
        self.id = job_id
        self.spec = spec
        self._lock = threading.Lock()
        self._status = JobStatus.QUEUED
        self._done = threading.Event()
        self._detector = None
        self._kill_reason: Optional[str] = None
        self._error: Optional[BaseException] = None
        self._error_class: Optional[str] = None
        self.attempts = 0
        self.result: Optional[JobResult] = None
        self.submitted_at = time.monotonic()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None

    # -- read side ---------------------------------------------------------

    @property
    def status(self) -> str:
        with self._lock:
            return self._status

    @property
    def error(self) -> Optional[BaseException]:
        with self._lock:
            return self._error

    @property
    def error_class(self) -> Optional[str]:
        """Failure classification (``retryable``/``deterministic``/
        ``quota``) of the last failed attempt, None while healthy."""
        with self._lock:
            return self._error_class

    @property
    def queue_latency(self) -> Optional[float]:
        with self._lock:
            if self.started_at is None:
                return None
            return self.started_at - self.submitted_at

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state."""
        return self._done.wait(timeout=timeout)

    # -- state transitions (service threads) -------------------------------

    def _set_status(self, status: str) -> None:
        with self._lock:
            self._status = status
            if status == JobStatus.RUNNING and self.started_at is None:
                self.started_at = time.monotonic()
            if status in JobStatus.TERMINAL:
                self.finished_at = time.monotonic()
        if status in JobStatus.TERMINAL:
            self._done.set()

    def _record_failure(self, cls: str, root: BaseException) -> None:
        with self._lock:
            self._error = root
            self._error_class = cls

    # -- kill machinery ----------------------------------------------------

    def kill(self, reason: str = "killed by service") -> bool:
        """Kill a queued or running job.

        Aborts the job through its fabric's ULFM failure detector: every
        rank parked in a blocking call (``recv``, ``send``, ``probe``,
        ``mprobe``, ``waitany``, ``waitsome``) observes ``job aborted`` and
        raises ``MPI_ERR_PROC_FAILED`` in bounded time.  The kill is one-shot —
        it takes down the current attempt; whether the job retries is the
        retry policy's call (a kill is classified retryable, like any
        proc failure).  A queued job's kill is armed and fires at its
        next attempt's rank entry, on every backend.  Returns False when
        the job is terminal, or running with no detector the driver can
        reach: a pristine fabric has none (give the job
        ``reliability=True`` to make it killable), nor does a backend
        without a shared address space (``shm``).
        """
        with self._lock:
            if self._status in JobStatus.TERMINAL:
                return False
            detector = self._detector
            if detector is None:
                if self._status == JobStatus.RUNNING:
                    return False
                self._kill_reason = reason
                return True
        detector.abort_job(f"job killed: {reason}")
        return True

    def _take_kill_reason(self) -> Optional[str]:
        """The reason of a kill armed while queued, consumed so that only
        the attempt starting now fires it."""
        with self._lock:
            reason, self._kill_reason = self._kill_reason, None
        return reason

    def _attach_detector(self, fabric) -> None:
        """The ``fabric_hook``: capture the running-kill handle (driver
        thread, before any rank starts)."""
        injector = fabric.injector
        with self._lock:
            self._detector = injector.detector if injector is not None \
                else None

    def _detach_detector(self) -> None:
        with self._lock:
            self._detector = None

    def describe(self) -> dict:
        """JSON-friendly summary (the report/dead-letter row)."""
        with self._lock:
            err = self._error
            return {
                "id": self.id,
                "name": self.spec.name,
                "status": self._status,
                "attempts": self.attempts,
                "error": (f"{type(err).__name__}: {err}"
                          if err is not None else None),
                "error_class": self._error_class,
                "queue_latency_ms": (
                    (self.started_at - self.submitted_at) * 1e3
                    if self.started_at is not None else None),
                "tags": dict(self.spec.tags),
            }


def _rank_entry(fn, quota: QuotaPolicy, kill_reason: Optional[str]):
    """Wrap rank function ``fn``: the one way into a job's ranks.

    The wrapper runs first on the rank's own thread, in the rank's own
    process, so it works alike on every backend: it installs the
    virtual-time budget and the memory ceiling on the rank's worker, and
    fires a kill that was armed while the job was queued.
    """
    def entry(comm):
        worker = comm.worker
        if quota.time_budget is not None:
            worker.clock = BudgetedClock(quota.time_budget,
                                         start=worker.clock.now)
        if quota.max_pool_bytes is not None:
            worker.memory.byte_ceiling = quota.max_pool_bytes
        if kill_reason is not None:
            worker.fabric.injector.detector.abort_job(
                f"job killed: {kill_reason}")
        return fn(comm)
    return entry


class JobService:
    """A long-lived scheduler running jobs over warm workers.

    Parameters
    ----------
    slots:
        Scheduler threads (jobs running concurrently).  Each slot drives
        one job at a time; the job's ranks are the transport's business.
    max_queue:
        Bounded queue depth; submissions beyond it are load-shed with
        :class:`~repro.serve.spec.AdmissionError` ``[saturated]``.
    transport:
        Default backend for jobs that don't override it.  Warm worker
        sets and kills of running jobs need
        ``supports_shared_address_space`` (inproc/asyncio); quotas and
        kills of queued jobs work on every backend.
    """

    def __init__(self, slots: int = 2, max_queue: int = 64,
                 transport: Optional[str] = None, name: str = "repro.serve"):
        if slots < 1:
            raise ValueError(f"need at least one slot, got {slots}")
        if max_queue < 1:
            raise ValueError(f"need a positive queue depth, got {max_queue}")
        self.name = name
        self.slots = slots
        self.max_queue = max_queue
        self._transport_name = transport
        #: Probe instance: capability flags only, never runs a job.
        probe = create_transport(transport)
        self.transport = probe.name
        self._warm_capable = probe.supports_shared_address_space
        self.metrics = ServiceMetrics()
        self.bank = WarmSetBank()
        self._cv = threading.Condition()
        self._queue: list[JobHandle] = []
        self._inflight: dict[int, JobHandle] = {}
        self._state = "running"
        self._next_id = 0
        self.dead_letters: list[JobHandle] = []
        self._started_at = time.monotonic()
        self._threads = [
            threading.Thread(target=self._slot_loop, args=(i,),
                             name=f"{name}-slot-{i}", daemon=True)
            for i in range(slots)]
        for t in self._threads:
            t.start()

    # -- admission ---------------------------------------------------------

    def submit(self, spec: JobSpec) -> JobHandle:
        """Admit one job or raise :class:`AdmissionError` with a reason.

        Admission is where invalid quotas die: a zero or negative
        wall-clock timeout (or budget/ceiling) is rejected here, never
        scheduled.  A full queue is load-shed (``[saturated]``) — the
        caller decides whether to back off and resubmit.
        """
        self.metrics.inc("submitted")
        problems = spec.problems()
        if problems:
            reason = "invalid-quota" if spec.quota.problems() else (
                "invalid-nprocs" if spec.nprocs < 1 else "invalid-fn")
            self.metrics.rejected(reason)
            raise AdmissionError(reason,
                                 f"job {spec.name!r}: " + "; ".join(problems))
        with self._cv:
            if self._state != "running":
                self.metrics.rejected(self._state)
                raise AdmissionError(
                    self._state,
                    f"job {spec.name!r}: service is {self._state}, not "
                    f"accepting new jobs")
            if len(self._queue) >= self.max_queue:
                self.metrics.rejected("saturated")
                raise AdmissionError(
                    "saturated",
                    f"job {spec.name!r}: queue depth {len(self._queue)} is "
                    f"at max_queue={self.max_queue}; load shed — back off "
                    f"and resubmit")
            self._next_id += 1
            handle = JobHandle(self._next_id, spec)
            self._queue.append(handle)
            self.metrics.inc("accepted")
            self._cv.notify()
        return handle

    # -- scheduler slots ---------------------------------------------------

    def _slot_loop(self, slot: int) -> None:
        while True:
            with self._cv:
                while not self._queue and self._state == "running":
                    self._cv.wait(timeout=0.5)
                if not self._queue:
                    # draining/stopping with an empty queue: slot retires.
                    return
                handle = self._queue.pop(0)
                self._inflight[handle.id] = handle
            try:
                handle._set_status(JobStatus.RUNNING)
                latency = handle.queue_latency
                if latency is not None:
                    self.metrics.observe_queue_latency(latency)
                self._execute(handle, slot)
            finally:
                with self._cv:
                    self._inflight.pop(handle.id, None)
                    self._cv.notify_all()

    def _execute(self, handle: JobHandle, slot: int) -> None:
        """Run one job through the retry engine to a terminal state."""
        spec = handle.spec
        attempt = 0
        while True:
            t0 = time.monotonic()
            error = self._run_attempt(handle, attempt)
            elapsed = time.monotonic() - t0
            handle.attempts = attempt + 1
            if error is None:
                result = handle.result
                msgs = sum(result.msgs_delivered) if result is not None \
                    else 0
                vtime = result.max_clock if result is not None else 0.0
                self.metrics.observe_run(elapsed, msgs, vtime)
                self._aggregate_sanitizer(result)
                handle._set_status(JobStatus.COMPLETED)
                self.metrics.inc("completed")
                return
            cls, root = classify_failure(error)
            if cls == QUOTA and isinstance(root, TimeoutError) \
                    and spec.retry.retry_on_timeout:
                cls = RETRYABLE
            handle._record_failure(cls, root)
            self.metrics.observe_run(elapsed, 0, 0.0)
            with self._cv:
                still_running = self._state == "running"
            if cls == RETRYABLE and still_running \
                    and attempt < spec.retry.max_retries:
                self.metrics.inc("retries")
                delay = spec.retry.delay_for(
                    attempt, f"{spec.name}#{handle.id}")
                if delay > 0:
                    # Interruptible backoff: a shutdown wakes the slot.
                    with self._cv:
                        self._cv.wait(timeout=delay)
                attempt += 1
                continue
            if cls == RETRYABLE:
                handle._set_status(JobStatus.DEAD_LETTERED)
                with self._cv:
                    self.dead_letters.append(handle)
                self.metrics.inc("dead_lettered")
            else:
                handle._set_status(JobStatus.FAILED)
                self.metrics.inc("failed")
                self.metrics.inc("failed_quota" if cls == QUOTA
                                 else "failed_deterministic")
            return

    def _run_attempt(self, handle: JobHandle,
                     attempt: int) -> Optional[BaseException]:
        """One ``run()`` under the robustness envelope.

        Returns None on success (result stored on the handle) or the
        exception that killed the attempt.  Warm trackers are checked out
        and — leak-asserted — back in here, whatever happens in between.
        """
        spec = handle.spec
        transport = spec.transport if spec.transport is not None \
            else self._transport_name
        warm = self._warm_capable and spec.transport is None
        if spec.transport is not None:
            # Per-job override: probe its capabilities, don't assume ours.
            try:
                warm = create_transport(
                    spec.transport).supports_shared_address_space
            except TransportUnavailableError as exc:
                return exc
        kill_reason = handle._take_kill_reason()
        faults = spec.faults_for_attempt(attempt)
        reliability = spec.reliability
        if faults is None and reliability is None \
                and (spec.quota.time_budget is not None
                     or kill_reason is not None):
            # A budget trip (or a kill) must release the *other* ranks'
            # blocked waits too, which takes a failure detector — and a
            # pristine fabric has none.  An empty fault plan buys exactly
            # the detector: no scheduled faults, no reliability protocol.
            faults = FaultPlan()
        fns = [spec.fn] * spec.nprocs if callable(spec.fn) else spec.fn
        fns = [_rank_entry(f, spec.quota, kill_reason) for f in fns]
        trackers = self.bank.checkout(spec.nprocs) if warm else None

        dirty = False
        error: Optional[BaseException] = None
        try:
            handle.result = run(fns, nprocs=spec.nprocs, params=spec.params,
                                engine_config=spec.engine_config,
                                timeout=spec.quota.wall_timeout,
                                trace_messages=spec.trace_messages,
                                sanitize=spec.sanitize,
                                faults=faults,
                                reliability=reliability,
                                transport=transport,
                                memory_trackers=trackers,
                                fabric_hook=handle._attach_detector
                                if warm else None)
        except RuntimeAbort as exc:
            error = exc
            if any(isinstance(f, TimeoutError)
                   for f in exc.failures.values()):
                # Wall-timeout abandon: rank threads may still be alive
                # and touching these pools — never bank them again.
                dirty = True
        except BaseException as exc:  # noqa: BLE001 - slot must survive
            error = exc
        finally:
            handle._detach_detector()
            if trackers is not None:
                leak = self.bank.checkin(
                    trackers, job=f"{spec.name}#{handle.id}/a{attempt}",
                    dirty=dirty)
                if leak is not None:
                    self.metrics.inc("pool_leaks")
                    if error is None:
                        error = leak
                if dirty:
                    self.metrics.inc("pools_retired")
        return error

    def _aggregate_sanitizer(self, result: Optional[JobResult]) -> None:
        report = getattr(result, "sanitizer_report", None)
        if report is None:
            return
        findings = getattr(report, "diagnostics", None) or []
        leaks = sum(1 for d in findings
                    if getattr(d, "code", "") in ("RPD420", "RPD421"))
        if findings:
            self.metrics.inc("sanitizer_findings", len(findings))
        if leaks:
            self.metrics.inc("leaked_requests", leaks)

    # -- lifecycle ---------------------------------------------------------

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until the queue is empty and nothing is in flight."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cv:
            while self._queue or self._inflight:
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._cv.wait(timeout=min(0.5, remaining)
                              if remaining is not None else 0.5)
            return True

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = None) -> dict:
        """SIGTERM semantics: stop admission, settle, account.

        ``drain=True`` finishes in-flight jobs and cancels queued ones;
        ``drain=False`` additionally kills in-flight jobs through their
        detectors.  Idempotent.  Returns the final :meth:`report`, whose
        ``shutdown`` section counts what was cancelled/killed.
        """
        with self._cv:
            already = self._state != "running"
            self._state = "draining"
            cancelled = self._queue
            self._queue = []
            inflight = list(self._inflight.values())
            self._cv.notify_all()
        for handle in cancelled:
            handle._record_failure(
                "cancelled",
                AdmissionError("draining", "cancelled at shutdown"))
            handle._set_status(JobStatus.CANCELLED)
            self.metrics.inc("cancelled")
        killed = 0
        if not drain:
            for handle in inflight:
                if handle.kill("service shutdown"):
                    killed += 1
                    self.metrics.inc("kills")
        for t in self._threads:
            t.join(timeout=timeout)
        with self._cv:
            self._state = "stopped"
        report = self.report()
        report["shutdown"] = {"already_shut_down": already,
                              "cancelled_queued": len(cancelled),
                              "killed_inflight": killed,
                              "drained": drain}
        return report

    def __enter__(self) -> "JobService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)

    # -- introspection -----------------------------------------------------

    @property
    def state(self) -> str:
        with self._cv:
            return self._state

    def queue_depth(self) -> int:
        with self._cv:
            return len(self._queue)

    def inflight(self) -> list[JobHandle]:
        with self._cv:
            return list(self._inflight.values())

    def report(self) -> dict:
        """The JSON snapshot endpoint (``repro-serve --report``)."""
        snap = self.metrics.snapshot()
        with self._cv:
            state = self._state
            depth = len(self._queue)
            inflight = len(self._inflight)
            dead = [h.describe() for h in self.dead_letters]
        snap.update({
            "service": self.name,
            "state": state,
            "slots": self.slots,
            "max_queue": self.max_queue,
            "transport": self.transport,
            "queue_depth": depth,
            "inflight": inflight,
            "pool_bank": self.bank.snapshot(),
            "plan_cache": plan_cache_info(),
            "dead_letters": dead,
        })
        return snap
