"""Transport backend interface: how bytes move between ranks.

The fabric's object model (workers, matchers, clocks, protocols, faults) is
transport-agnostic; everything that actually *moves a message* — depositing
it at the destination matcher, returning staging chunks to the sender's
pool, telling a blocked rendezvous sender the receiver arrived — funnels
through one :class:`Transport` instance per fabric.  Backends differ only
in how they cross the rank boundary:

* ``inproc``   — ranks are threads, the deposit is a method call (the
  seed semantics; every baseline is measured here).
* ``asyncio``  — ranks are threads but every message is serialized through
  a localhost socket pair, the portability proof for the RPD810/811
  envelope rules.
* ``shm``      — ranks are forked processes; payloads live in per-rank
  ``multiprocessing.shared_memory`` arenas and cross by (rank, offset)
  reference, so PackPlans execute directly into the shared segment.

The netsim cost model, wire envelope, transitions table and fault layer are
shared: every virtual-time number a backend reports is computed from the
same envelope fields, which is what the conformance matrix
(tests/transport/) asserts.

Threading contract: :meth:`Transport.submit` runs on the sending rank's
thread, :meth:`Transport.release_chunks` / :meth:`Transport.on_delivered` on
the receiving rank's thread.  A remote plane reads its frames on the rank's
own thread where a process hosts one rank (``Worker.progress``, driven from
the park and test paths), and on one reader thread where it hosts several;
such a reader thread must stay out of user callbacks (deposits into a
:class:`TagMatcher` are the only fabric mutation it may perform — the
matcher is locked for exactly this reason).

Exits are written once, here, for every backend: a *rank* ends in
:func:`rank_main`, is torn down by :func:`quiesce` and described by one
:class:`RankReport`, and :func:`conclude_job` turns the reports into the
``JobResult`` or the ``RuntimeAbort``; a *message's* chunks go home through
:meth:`Transport.release_chunks`.  The drivers (below and in ``shm.py``) keep
what really differs: how ranks are spawned and joined, and how a report
reaches the driver.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from ...errors import RankCrashError, RuntimeAbort, TransportError
from . import envelope as env

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..context import Fabric, UcpConfig, Worker
    from ..wire import WireMessage


class TransportUnavailableError(TransportError):
    """The selected backend cannot run on this platform/configuration.

    Raised by :func:`repro.ucp.transport.create_transport` (unknown or
    platform-unsupported backend) and by
    :meth:`Transport.check_job_supported` (backend exists but cannot run
    this particular job, e.g. ``sanitize=True`` on ``shm``).  The message
    always names the backend and the remedy so CLI users see a clear error
    instead of a traceback from deep inside ``multiprocessing``.
    """


class Transport:
    """One job's message-movement backend.

    A transport instance is created per job (it may hold sockets, pipes or
    shared-memory segments) and attached to the fabric at construction.
    The default implementations encode the in-process semantics; remote
    backends override the seams marked below.
    """

    #: Registry name (``--transport`` value).
    name = "base"
    #: Whether ``SendRequest.cancel`` can retract an in-flight message.
    supports_cancel = True
    #: Whether ranks run in the driver's address space (threaded SPMD).
    #: When False, closure side effects inside rank functions are invisible
    #: to the caller and arbitrary live objects cannot ride messages; the
    #: sanitizer (one cross-rank shared object), warm memory trackers and
    #: ``fabric_hook`` need it.
    supports_shared_address_space = True

    # -- job gating --------------------------------------------------------

    @classmethod
    def available(cls) -> tuple[bool, str]:
        """``(True, "")``, or False and why this platform can't run it."""
        return True, ""

    def check_job_supported(self, sanitize: bool = False) -> None:
        """Raise :class:`TransportUnavailableError` if this job can't run."""
        if sanitize and not self.supports_shared_address_space:
            raise TransportUnavailableError(
                f"transport '{self.name}' does not support sanitize=True "
                f"(the sanitizer needs one shared address space); use "
                f"--transport inproc or asyncio")

    # -- send path (sending rank's thread) ---------------------------------

    def deposit_for(self, worker: "Worker", dst_index: int
                    ) -> Callable[["WireMessage"], None]:
        """The callable that lands a message in rank ``dst_index``'s
        matcher — all the fault injector knows of the destination, so one
        fault layer drives every backend.  In-process it is the matcher's
        ``deposit`` itself; remote backends serialize onto their data plane.
        """
        return worker.fabric.workers[dst_index].matcher.deposit

    def submit(self, worker: "Worker", dst_index: int, msg: "WireMessage",
               model) -> None:
        """Move one injected message toward its destination matcher (the
        deposit callable is resolved once per destination and kept in
        ``worker.deposits``)."""
        deposit = worker.deposits.get(dst_index)
        if deposit is None:
            deposit = worker.deposits[dst_index] = \
                self.deposit_for(worker, dst_index)
        fi = worker.fabric.injector
        if fi is None:
            deposit(msg)
        else:
            fi.transmit(worker, dst_index, deposit, msg, model)

    def try_cancel_send(self, worker: "Worker", dst_index: int,
                        msg: "WireMessage") -> bool:
        """Retract an unmatched message (MPI_Cancel on a send).

        In-process backends reach into the destination matcher; remote
        backends cannot race the remote match and conservatively refuse
        (MPI allows cancel to simply not succeed).
        """
        if not self.supports_cancel:
            return False
        if not worker.fabric.worker(dst_index).matcher.retract(msg):
            return False
        self.release_chunks(worker, msg)
        msg.mark_failed(worker.clock.now, TransportError("send cancelled"))
        return True

    # -- message exits -----------------------------------------------------

    def release_chunks(self, worker: "Worker", msg: "WireMessage") -> None:
        """Give a message's chunks back to the pool they came from.

        The one seam every message exit goes through: delivered or failed
        (``Worker.deliver``), cancelled, lost on the wire, unclaimed at job
        end (:func:`quiesce`); ``worker`` is whichever local worker lets
        go.  Only the chunks a pool handed out for the message
        (``msg.pooled``) go back, into the sender's pool, in one
        ``release_all``; user-buffer views cost nothing, and so does every
        receiver-side message of a remote backend, whose sender releases
        its staging when the acknowledgement arrives.
        """
        pooled = msg.pooled
        if pooled:
            msg.pooled = []
            worker.fabric.workers[msg.header.source].memory.pool \
                .release_all(pooled)
        msg.chunks = []

    def on_delivered(self, recv_worker: "Worker", msg: "WireMessage",
                     error: BaseException | None = None) -> None:
        """Delivery completed (or raised ``error``); remote backends
        acknowledge — or NACK — the sender here."""

    def sweep_pending(self, worker: "Worker") -> None:
        """Teardown: give up on ``worker``'s unacknowledged sends (remote
        backends release their staging here)."""

    def in_transit(self, src: int, dst: int) -> bool:
        """Whether a frame from rank ``src`` to rank ``dst`` is read in
        part, or whole but not yet delivered (any thread may ask; the
        sanitizer's deadlock verdict waits for it).  In-process a message
        is never between ranks."""
        return False


@dataclass
class RankReport:
    """How one rank ended and what it left behind — plain data.

    :func:`rank_main` fills ``result``/``failure``/``crashed``;
    :meth:`snapshot` the rest, after :func:`quiesce` (``memory`` is None
    until then).  The ``shm`` driver receives it over a pipe, so the
    failure pickles as an ``encode_error`` blob (degrades, never raises).
    """

    rank: int
    result: Any = None
    #: What the rank's function raised (an application failure).
    failure: Optional[BaseException] = None
    #: Crashed by the fault plan — part of the experiment, not a failure.
    crashed: bool = False
    #: Final virtual time.
    clock: float = 0.0
    #: ``MemoryTracker.snapshot()`` (with ``"pool"``), plus the rank's
    #: ``"reliability"`` counters on a fault-injected fabric.
    memory: Optional[dict] = None
    trace: list = field(default_factory=list)
    #: Messages delivered to the application.
    delivered: int = 0
    #: Fault/recovery events of the channels this rank sends on.
    fault_trace: dict = field(default_factory=dict)

    def snapshot(self, fabric: "Fabric") -> None:
        worker = fabric.worker(self.rank)
        self.clock = worker.clock.now
        self.memory = worker.memory.snapshot()
        self.trace = list(worker.trace)
        self.delivered = worker.delivered_msgs
        injector = fabric.injector
        if injector is not None:
            self.memory["reliability"] = injector.stats[self.rank].snapshot()
            self.fault_trace = injector.traces(src=self.rank)

    def __getstate__(self) -> dict:
        return {**self.__dict__, "failure": env.encode_error(self.failure)}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.failure = env.decode_error(self.failure)


def rank_main(fabric: "Fabric", rank: int, fn: Callable,
              engine_config=None) -> RankReport:
    """Run one rank's function and classify how it ended.

    The only code, on any backend, that builds the rank's ``Communicator``
    and tells injector, detector and sanitizer whether the rank returned,
    was crashed by the fault plan, or raised.  Never raises.
    """
    from ...mpi.comm import Communicator

    worker = fabric.worker(rank)
    injector, san = fabric.injector, worker.sanitizer
    report = RankReport(rank)
    comm = Communicator(worker, len(fabric.workers), comm_id=0,
                        engine_config=engine_config)
    try:
        report.result = fn(comm)
    except RankCrashError:
        # A crash *scheduled by the fault plan* is part of the experiment,
        # not an application failure: record it, drop the rank's in-flight
        # state, let the survivors finish.
        report.crashed = True
        if injector is not None:
            injector.drop_rank(rank)
    except BaseException as exc:  # report, don't kill the interpreter
        report.failure = exc
        # Peers blocked on this rank must not hang on its corpse.
        fabric.detector.mark_dead(rank, f"{type(exc).__name__}: {exc}")
    else:
        if injector is not None:
            injector.flush_rank(rank)
        fabric.detector.mark_finished(rank)
    if san is not None:
        if report.crashed or report.failure is not None:
            san.rank_failed(rank)
        else:
            san.finalize_rank(rank)
    return report


def quiesce(fabric: "Fabric", ranks: Sequence[int], failed: bool) -> None:
    """The one teardown of the ranks this process hosts, safe only once
    their functions ended and the data plane drained (pools quiescent).

    The sanitizer's RPD421 sweep goes first — it must still see the
    unclaimed messages.  Then messages nobody will ever claim and sends
    nobody acknowledged give their chunks back, and on a faulted or failed
    job whatever is still outstanding is force-reclaimed: faults never
    masquerade as pool leaks, and the job service gets its warm trackers
    back balanced.
    """
    transport = fabric.transport
    workers = [fabric.worker(r) for r in ranks]
    san = workers[0].sanitizer
    if san is not None and not failed:
        san.finalize_job(fabric)
    for w in workers:
        for msg in w.matcher.unmatched_messages():
            transport.release_chunks(w, msg)
        transport.sweep_pending(w)
    if failed or fabric.injector is not None:
        for w in workers:
            w.memory.pool.reclaim()


def conclude_job(reports: Sequence[Optional[RankReport]], fabric,
                 transport: str, timeout: float, san=None):
    """The ``JobResult`` of the reports — or the ``RuntimeAbort``: a failure
    per rank that failed and a ``TimeoutError`` per rank that never
    reported (``None``), so callers (the job service's warm-pool hygiene and
    quota classification) see the root cause *and* that ranks were left
    running.
    """
    from ...mpi.runtime import JobResult

    failures: dict[int, BaseException] = {}
    for r, rep in enumerate(reports):
        if rep is None:
            failures[r] = TimeoutError(
                f"rank {r} still running after {timeout}s (deadlock?)")
        elif rep.failure is not None:
            failures[r] = rep.failure
    if not failures:
        # Every function returned, yet a rank process never got through
        # its teardown (only a remote driver can see this).
        failures = {rep.rank: TimeoutError(
            f"rank {rep.rank} returned but its teardown did not finish "
            f"within {timeout}s") for rep in reports if rep.memory is None}
    if failures:
        abort = RuntimeAbort(failures)
        if san is not None:
            abort.sanitizer_report = san.report(aborted=True,
                                                failures=failures)
        raise abort

    fault_trace: dict[str, list] = {}
    for rep in reports:
        fault_trace.update(rep.fault_trace)
    return JobResult(
        results=[rep.result for rep in reports],
        fabric=fabric,
        clocks=[rep.clock for rep in reports],
        memory=[rep.memory for rep in reports],
        traces=[rep.trace for rep in reports],
        sanitizer_report=san.report() if san is not None else None,
        reliability=[rep.memory["reliability"] for rep in reports
                     if "reliability" in rep.memory],
        fault_trace=fault_trace,
        crashed=[rep.rank for rep in reports if rep.crashed],
        transport=transport,
        msgs_delivered=[rep.delivered for rep in reports],
    )


class ThreadedTransport(Transport):
    """Shared SPMD driver for backends whose ranks are threads.

    ``inproc`` and ``asyncio`` both run one Python thread per rank over a
    single fabric; they differ only in the data plane, which the ``wire``/
    ``unwire`` hooks install.  The rank lifecycle, teardown and result
    assembly are the module-level functions above; what is left here is
    spawning and joining threads under the deadlock timeout.
    """

    def wire(self, fabric: "Fabric") -> None:
        """Install the data plane before rank threads start."""

    def unwire(self, fabric: "Fabric", reports: Sequence[RankReport]) -> None:
        """Drain and dismantle the data plane after rank threads join; a
        rank the plane failed gets that failure in its report."""

    def abandon(self, fabric: "Fabric") -> None:
        """Dismantle without draining (deadlock-timeout path)."""

    def run_job(self, fns: Sequence[Callable], nprocs: int,
                config: "UcpConfig", engine_config=None,
                timeout: float = 120.0, sanitize: bool = False,
                memory_trackers=None, fabric_hook=None):
        from ..context import UcpContext

        fabric = UcpContext(config).create_fabric(
            nprocs, transport=self, memory_trackers=memory_trackers)

        san = None
        if sanitize:
            from ...sanitize import JobSanitizer
            san = JobSanitizer(nprocs, in_transit=self.in_transit)
            for w in fabric.workers:
                w.sanitizer = san

        self.wire(fabric)
        if fabric_hook is not None:
            # Job-service seam: runs on the driver thread after the data
            # plane is wired and before any rank thread starts, so the
            # hook captures the fabric's failure detector (the running
            # kill handle) race-free.
            fabric_hook(fabric)

        reports: list[Optional[RankReport]] = [None] * nprocs

        def worker_main(rank: int) -> None:
            reports[rank] = rank_main(fabric, rank, fns[rank], engine_config)

        threads = [threading.Thread(target=worker_main, args=(r,),
                                    name=f"mpi-rank-{r}", daemon=True)
                   for r in range(nprocs)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=timeout)
        # A rank whose thread is still alive has no report — and must not
        # grow one while the job is being concluded.
        reports = [None if t.is_alive() else rep
                   for t, rep in zip(threads, reports)]
        if None in reports:
            # Live threads may still touch the pools: no teardown.
            self.abandon(fabric)
        else:
            self.unwire(fabric, reports)
            quiesce(fabric, range(nprocs),
                    failed=any(rep.failure is not None for rep in reports))
            for rep in reports:
                rep.snapshot(fabric)
        return conclude_job(reports, fabric, self.name, timeout, san)
