"""SPMD runtime: run rank functions over a swappable transport backend.

:func:`run` is the ``mpiexec`` of the simulator::

    from repro.mpi import run

    def main(comm):
        if comm.rank == 0:
            comm.send(data, dest=1)
        else:
            comm.recv(buf, source=0)

    result = run(main, nprocs=2)

How ranks execute depends on the transport backend (see
:mod:`repro.ucp.transport`): ``inproc`` (default) and ``asyncio`` run one
thread per rank over a shared fabric (threads of the process that outlive
the job and take the next job's ranks), ``shm`` forks one process per rank
with shared-memory arenas.  Exceptions in any rank abort the job and are
re-raised as :class:`~repro.errors.RuntimeAbort` with all per-rank
failures attached.  A wall-clock ``timeout`` converts distributed
deadlocks (e.g. two blocking rendezvous sends facing each other) into
errors instead of hangs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from ..errors import RankCrashError, RuntimeAbort  # noqa: F401  (re-export)
from ..ucp.context import Fabric, UcpConfig
from ..ucp.faults import FaultPlan, ReliabilityConfig
from ..ucp.netsim import DEFAULT_PARAMS, LinkParams
from ..ucp.transport import create_transport
from .comm import Communicator
from .engine import EngineConfig


@dataclass
class JobResult:
    """Everything a bench or test wants to know after a job."""

    results: list[Any]
    fabric: Fabric
    #: Final virtual time per rank (seconds).
    clocks: list[float] = field(default_factory=list)
    #: Memory tracker snapshots per rank.
    memory: list[dict[str, int]] = field(default_factory=list)
    #: Per-rank message traces (when tracing was enabled).
    traces: list[list[dict]] = field(default_factory=list)
    #: Sanitizer findings (a SanitizeReport when the job ran with
    #: ``sanitize=True``; None otherwise).
    sanitizer_report: Any = None
    #: Per-rank reliability counters (:class:`repro.ucp.faults.
    #: ReliabilityStats` snapshots); empty on a pristine fabric.
    reliability: list[dict] = field(default_factory=list)
    #: Per-channel fault/recovery event logs (``"src->dst"`` ->
    #: event dicts); deterministic for a given fault-plan seed.
    fault_trace: dict[str, list] = field(default_factory=dict)
    #: Ranks the fault plan crashed.  A scheduled crash is not an
    #: application failure: surviving ranks' results are still returned
    #: (their ``results`` entry), the crashed rank's entry stays None.
    crashed: list[int] = field(default_factory=list)
    #: Name of the transport backend the job ran on.
    transport: str = "inproc"
    #: Messages delivered to the application per rank (always counted —
    #: no tracing needed).  The job service aggregates this into msgs/s.
    msgs_delivered: list[int] = field(default_factory=list)

    @property
    def max_clock(self) -> float:
        return max(self.clocks) if self.clocks else 0.0


def run(fn: Callable[[Communicator], Any] | Sequence[Callable[[Communicator], Any]],
        nprocs: int = 2,
        params: Optional[LinkParams] = None,
        engine_config: Optional[EngineConfig] = None,
        timeout: float = 120.0,
        trace_messages: bool = False,
        sanitize: bool = False,
        faults: Optional[FaultPlan | dict] = None,
        reliability: Optional[ReliabilityConfig | dict | bool] = None,
        transport: Optional[str] = None,
        memory_trackers: Optional[Sequence] = None,
        fabric_hook: Optional[Callable] = None,
        ) -> JobResult:
    """Run an SPMD job.

    Parameters
    ----------
    fn:
        Either one function (same code on every rank, branching on
        ``comm.rank``) or a sequence of ``nprocs`` per-rank functions.
    nprocs:
        Number of ranks.
    params:
        Link/cost-model overrides (ablations change these).
    engine_config:
        Engine-level knobs (e.g. out-of-order fragment delivery).
    timeout:
        Wall-clock seconds before the job is declared deadlocked.
    sanitize:
        Attach the :mod:`repro.sanitize` dynamic verifier.  Findings land
        on ``JobResult.sanitizer_report`` (clean runs) or on the raised
        :class:`~repro.errors.RuntimeAbort`'s ``sanitizer_report``.  With
        the sanitizer attached, distributed deadlocks are detected and
        aborted in bounded time instead of burning the whole ``timeout``.
    faults:
        A :class:`~repro.ucp.faults.FaultPlan` (or its dict form) of
        seeded wire faults and rank crash/stall events.  None — the
        default — leaves the fabric pristine and allocates no fault
        machinery at all.
    reliability:
        The recovery protocol: True or a
        :class:`~repro.ucp.faults.ReliabilityConfig` (or its dict form)
        enables per-fragment CRC + sequencing with ACK/NACK-driven
        retransmission, charged through virtual time.
    transport:
        Backend name (``inproc``/``shm``/``asyncio``); None defers to the
        ``REPRO_TRANSPORT`` environment variable, then ``inproc``.
        Raises :class:`~repro.ucp.transport.TransportUnavailableError`
        when the backend cannot run on this platform or cannot run this
        job (e.g. ``sanitize=True`` on ``shm``).
    memory_trackers:
        Warm per-rank :class:`~repro.ucp.memory.MemoryTracker` instances
        to install instead of fresh ones — the job-service seam that lets
        buffer pools survive across jobs.  Only supported by backends
        whose ranks share the driver's address space
        (``supports_shared_address_space``).
    fabric_hook:
        Callable invoked on the driver thread with the live
        :class:`~repro.ucp.context.Fabric` after the data plane is wired
        and before any rank starts — the running-kill seam: the job
        service captures ``fabric.detector`` with it (every fabric has
        one, pristine included), so a kill can reach a job that is
        already running.  Same backend support as
        ``memory_trackers``; the hook never runs in a forked rank process.
    """
    if callable(fn):
        fns = [fn] * nprocs
    else:
        fns = list(fn)
        if len(fns) != nprocs:
            raise ValueError(f"got {len(fns)} rank functions for nprocs={nprocs}")

    if faults is not None and not isinstance(faults, FaultPlan):
        faults = FaultPlan.from_dict(faults)
    if reliability is not None and not isinstance(reliability,
                                                  ReliabilityConfig):
        reliability = ReliabilityConfig.from_dict(reliability)
    config = UcpConfig(params=params if params is not None else DEFAULT_PARAMS,
                       trace_messages=trace_messages,
                       faults=faults, reliability=reliability)

    backend = create_transport(transport)
    backend.check_job_supported(sanitize=sanitize)
    extra = {}
    if memory_trackers is not None or fabric_hook is not None:
        if not backend.supports_shared_address_space:
            from ..ucp.transport.base import TransportUnavailableError
            raise TransportUnavailableError(
                f"transport '{backend.name}' does not support warm worker "
                f"reuse (memory_trackers/fabric_hook need ranks in the "
                f"driver's address space); use --transport inproc or "
                f"asyncio")
        extra = {"memory_trackers": memory_trackers,
                 "fabric_hook": fabric_hook}
    return backend.run_job(fns, nprocs, config,
                           engine_config=engine_config,
                           timeout=timeout, sanitize=sanitize, **extra)
