"""Context, workers, endpoints and transport requests.

Mirrors the UCP object model the paper's prototype builds on: a *context*
holds configuration, each rank owns a *worker* (progress engine + tag
matcher + virtual clock), and *endpoints* connect worker pairs.  A
:class:`Fabric` bundles the workers of one job.

Threading/time contract:

* Each worker's clock and callbacks run only on its own rank's thread.
* ``tag_send`` charges the sender and deposits a :class:`WireMessage` at the
  destination; data is copied at injection for eager protocols, or pulled by
  the receiver at delivery for rendezvous protocols (blocking the sender's
  ``wait()`` until then — real MPI rendezvous semantics, including the
  classic both-sides-blocking-send deadlock).
* All receive-side data movement happens in ``RecvRequest.wait()`` on the
  receiving thread, so user unpack callbacks never run on a foreign thread.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..errors import (MPIError, ProcFailedPendingError, TransportError,
                      TruncationError)
from . import constants
from .faults import (FailureDetector, FaultInjector, FaultPlan,
                     ReliabilityConfig, fragment_bounds, fragment_crcs)
from .memory import MemoryTracker
from .netsim import DEFAULT_PARAMS, CostModel, LinkParams, VirtualClock
from .protocols import WAIT_SEMANTICS, plan_send
from .tagmatch import PostedRecv, TagMatcher
from .transitions import crc_reject
from .wire import WireHeader, WireMessage, copy_chunks, materialize


@dataclass(frozen=True)
class UcpConfig:
    """Per-job transport configuration."""

    params: LinkParams = field(default_factory=lambda: DEFAULT_PARAMS)
    #: Record every message injection/delivery into per-worker trace lists
    #: (useful for debugging protocols and asserted by tests).
    trace_messages: bool = False
    #: Seeded schedule of wire faults and rank crash/stall events
    #: (:class:`repro.ucp.faults.FaultPlan`).  None — the default — means a
    #: pristine fabric: no fault machinery is even constructed, so the
    #: default path is byte-identical to a build without this feature.
    faults: Optional[FaultPlan] = None
    #: Reliability (sequencing/CRC/ACK/retransmission) protocol
    #: configuration; None means the fabric is treated as already reliable
    #: (which it is, unless ``faults`` says otherwise).
    reliability: Optional[ReliabilityConfig] = None

    @property
    def frag_size(self) -> int:
        return self.params.frag_size


class UcpContext:
    """Factory for fabrics (the UCP context analogue)."""

    def __init__(self, config: UcpConfig | None = None):
        self.config = config or UcpConfig()

    def create_fabric(self, nworkers: int, transport=None,
                      memory_trackers=None) -> "Fabric":
        return Fabric(nworkers, self.config, transport=transport,
                      memory_trackers=memory_trackers)


class Fabric:
    """All workers of one job plus their shared configuration.

    ``transport`` is the message-movement backend
    (:class:`repro.ucp.transport.Transport`); None selects the in-process
    threads backend, preserving the seed semantics byte for byte.
    """

    def __init__(self, nworkers: int, config: UcpConfig, transport=None,
                 memory_trackers=None):
        if nworkers < 1:
            raise TransportError(f"need at least one worker, got {nworkers}")
        if memory_trackers is not None and len(memory_trackers) != nworkers:
            raise TransportError(
                f"got {len(memory_trackers)} warm memory trackers for "
                f"{nworkers} workers")
        self.config = config
        self.model = CostModel(config.params)
        self._intra_model = CostModel(config.params.intra_node_variant())
        #: Ranks that raised, crashed or finished, and a fatal abort — on
        #: every fabric (a remote plane swaps in its ``PlaneDetector``).
        self.detector = FailureDetector(nworkers)
        #: Fault/reliability interposer; None on a pristine fabric so the
        #: default send/recv paths carry zero extra work.
        self.injector: Optional[FaultInjector] = None
        if config.faults is not None or config.reliability is not None:
            self.injector = FaultInjector(nworkers, config.faults,
                                          config.reliability)
        if transport is None:
            from .transport.inproc import InprocTransport
            transport = InprocTransport()
        self.transport = transport
        self.workers = [
            Worker(i, self, memory=(memory_trackers[i]
                                    if memory_trackers is not None
                                    else None))
            for i in range(nworkers)]

    def worker(self, index: int) -> "Worker":
        return self.workers[index]

    def pair_model(self, src: int, dst: int) -> CostModel:
        """Cost model for a rank pair (intra-node pairs use shared memory)."""
        if self.config.params.same_node(src, dst):
            return self._intra_model
        return self.model


class SendRequest:
    """Handle for an injected message."""

    def __init__(self, worker: "Worker", msg: WireMessage,
                 dst: int | None = None):
        self._worker = worker
        self.msg = msg
        #: Destination worker index — the wait-for target of a blocking
        #: rendezvous wait (filled by Endpoint.tag_send).
        self.dst = dst
        #: Human label for sanitizer deadlock evidence (set by the engine).
        self.san_detail = ""

    def test(self) -> bool:
        if not self.msg.rndv or self.msg.completed.is_set():
            return True
        progress = self._worker.progress
        while progress is not None and progress():
            if self.msg.completed.is_set():
                return True
        return False

    def waiting_on(self) -> tuple[tuple[int, ...], str]:
        """``(targets, what)`` of a blocking wait on this request."""
        what = self.san_detail or (
            f"send of {self.msg.total_bytes} bytes to rank {self.dst}")
        return (self.dst,), (
            f"{what} ({WAIT_SEMANTICS[self.msg.header.protocol]})")

    def wait(self, timeout: float | None = None) -> None:
        """Block until the message no longer needs the send buffer."""
        if self.msg.rndv:
            fi = self._worker.fabric.injector
            if fi is not None:
                fi.on_progress(self._worker)
            self._worker.park(self.msg.completed, *self.waiting_on(),
                              timeout=timeout, messages=(self.msg,))
            # Rendezvous completion happens at the receiver's clock.
            self._worker.clock.merge(self.msg.completion_time)
            err = self.msg.error
            if err is not None:
                if isinstance(err, MPIError):
                    # Reliability exhaustion / peer failure: surface the
                    # MPI error class itself, not a transport wrapper.
                    raise err
                raise TransportError(
                    f"receiver failed to deliver this message: {err}")

    def cancel(self) -> bool:
        """Withdraw the message if no receive has matched it yet.

        Returns True when the message was retracted from the destination's
        unexpected queue; its staging chunks go back to the sender's pool
        (through ``Transport.release_chunks``, like every message exit) so
        a cancelled send leaves no pool residue.  False (and no effect)
        once a receive has matched — MPI's "cancel either completes or the
        operation completes, never both".
        """
        if self.dst is None or self.msg.completed.is_set():
            return False
        return self._worker.fabric.transport.try_cancel_send(
            self._worker, self.dst, self.msg)


@dataclass(slots=True)
class RecvInfo:
    """Completion information (the transport-level Status)."""

    source: int
    tag: int
    nbytes: int
    entry_lengths: tuple[int, ...]
    packed_entries: int


class RecvRequest:
    """Handle for a posted receive; delivery runs inside :meth:`wait`."""

    def __init__(self, worker: "Worker", posted: PostedRecv, data,
                 peers=None):
        self._worker = worker
        self._posted = posted
        self._data = data
        #: Worker indices that could satisfy this receive (None = any rank);
        #: the wait-for targets of a blocking wait under the sanitizer.
        self.peers = peers
        #: Human label for sanitizer deadlock evidence (set by the engine).
        self.san_detail = ""
        self.info: Optional[RecvInfo] = None

    def test(self) -> bool:
        """True when a message has matched (data may still need delivery)."""
        if self.info is not None or self._posted.matched.is_set():
            return True
        progress = self._worker.progress
        while progress is not None and progress():
            if self._posted.matched.is_set():
                return True
        return False

    def waiting_on(self) -> tuple[Optional[tuple[int, ...]], str]:
        """``(targets, what)`` of a blocking wait on this request."""
        return self.peers, self.san_detail or "recv (posted tag match)"

    def wait(self, timeout: float | None = None) -> RecvInfo:
        if self.info is not None:
            return self.info
        fi = self._worker.fabric.injector
        if fi is not None:
            fi.on_progress(self._worker)
        matched = self._posted.matched
        if not matched.is_set():  # matched already: nothing to wait for
            self._worker.park(matched, *self.waiting_on(), timeout=timeout)
        self.info = self._worker.deliver(self._posted.msg, self._data)
        return self.info

    def cancel(self) -> bool:
        """Withdraw an unmatched posted receive.

        True when the receive was removed from the matcher before any
        message matched it; False (and no effect) otherwise.  Data-side
        cleanup (un-booking a modelled bounce buffer) is the caller's job —
        see ``repro.mpi.requests.Request.cancel``.
        """
        if self.info is not None or self._posted.matched.is_set():
            return False
        return self._worker.matcher.cancel(self._posted)


class Worker:
    """One rank's transport engine."""

    def __init__(self, index: int, fabric: Fabric,
                 memory: MemoryTracker | None = None):
        self.index = index
        self.fabric = fabric
        self.config = fabric.config
        self.model = fabric.model
        self.clock = VirtualClock()
        self.matcher = TagMatcher()
        #: Allocation accounting + buffer pool.  Normally fresh per job;
        #: the job service passes a recycled (warm) tracker so pooled
        #: buffers survive across jobs on the same worker slot.
        self.memory = memory if memory is not None else MemoryTracker()
        #: Messages this rank delivered to the application (cheap counter,
        #: always on — the job service aggregates it into msgs/s).
        self.delivered_msgs = 0
        #: Job-level sanitizer (attached by ``repro.mpi.run(sanitize=True)``;
        #: None means every check is skipped at zero cost).
        self.sanitizer = None
        #: Message trace (populated when the config enables tracing).
        self.trace: list[dict] = []
        #: Per-rank message-id counter; see :meth:`next_msg_id`.  Touched
        #: only by this rank's own thread (the tag_send contract).
        self._msg_seq = 0
        #: Destination index -> the transport's deposit callable for it
        #: (``Transport.deposit_for``), resolved on the first send there.
        self.deposits: dict = {}
        #: This rank's progress engine, ``progress(timeout=0.0) -> bool``:
        #: deliver the next frame sent to this rank — reading its channels,
        #: and waiting up to ``timeout`` seconds (None: until one comes),
        #: when none is read yet — and say whether one was.  Set by a
        #: remote plane whose process hosts this rank alone; None when
        #: someone else delivers (in-process, a reader thread), so the park
        #: and test paths pay one attribute check.
        self.progress = None

    # -- message ids ------------------------------------------------------

    def next_msg_id(self) -> int:
        """A message id unique across ranks *and* deterministic per rank.

        Ids are namespaced ``(rank+1) << 40 | counter`` instead of drawn
        from the process-global allocator: a global counter's values
        depend on thread interleaving (and cannot exist at all when ranks
        are separate processes), while namespaced ids make traces
        byte-identical across every transport backend — the conformance
        matrix diffs them directly.
        """
        self._msg_seq += 1
        return ((self.index + 1) << 40) | self._msg_seq

    # -- endpoints --------------------------------------------------------

    def endpoint(self, dst: int) -> "Endpoint":
        return Endpoint(self, dst)

    # -- receive ------------------------------------------------------------

    def tag_recv(self, tag: int, data,
                 mask: int = constants.TAG_FULL_MASK,
                 peers=None) -> RecvRequest:
        """Post a receive; complete it with ``RecvRequest.wait()``.

        ``peers`` optionally names the worker indices that could satisfy
        this receive (wait-for targets for the sanitizer's deadlock
        detector); None means any rank.
        """
        posted = self.matcher.post(tag, mask)
        return RecvRequest(self, posted, data, peers=peers)

    def tag_probe(self, tag: int, mask: int = constants.TAG_FULL_MASK,
                  remove: bool = False, block: bool = False,
                  timeout: float | None = None,
                  peers=None) -> Optional[WireMessage]:
        """Probe the unexpected queue (mprobe semantics with remove=True);
        it never holds a message an already-*posted* receive consumed.  A
        blocking probe parks as a receive posted with the same pattern
        would: ``peers`` are the ranks that could send it (None: any)."""
        self.clock.advance(self.model.probe_time())
        progress = self.progress
        deadline = None if timeout is None else _time.monotonic() + timeout
        while True:
            if block:
                # Cleared ahead of the scan: a deposit racing it re-sets it.
                self.matcher.arrival.clear()
            msg = self.matcher.probe(tag, mask, remove=remove)
            if msg is not None:
                break
            if not block:
                # Non-blocking: take this rank's frames until one matches
                # or none is left.
                if progress is not None and progress():
                    continue
                break
            self.park(self.matcher.arrival, peers,
                      "mprobe" if remove else "probe",
                      timeout=None if deadline is None
                      else max(deadline - _time.monotonic(), 0.0))
        if msg is not None:
            # The probe observed the envelope, which cannot arrive earlier
            # than one wire latency after the sender injected it.
            self.clock.merge(msg.send_ready + self.model.params.latency)
        return msg

    # -- the one blocking wait ------------------------------------------------

    def park(self, wake, targets, what: str, timeout: float | None = None,
             ready=None, messages=()) -> None:
        """Park this rank until ``wake`` is set — the only place a rank
        blocks (DESIGN.md, "One blocking wait").

        ``targets`` are the worker indices that could satisfy the wait
        (None: a wildcard, any other rank); ``what`` names it in errors and
        deadlock evidence.  A wait no single event ends passes ``wake=None``
        and its condition as ``ready``.  One loop: nap — on ``wake`` for
        at most ``POLL_PERIOD``, or, for a rank with a ``progress`` engine,
        in it until the next frame (a detector change reaches it as one) —
        and only when a nap ends without its wake ask the failure
        detector, then the sanitizer (before the first nap too on such a
        rank, or once the job is aborted).  A rank holds its *own* hopeless
        verdict back ``index * VERDICT_GRACE`` so the lowest blocked rank
        raises first, and tests ``ready`` once more before it raises: a
        peer deposits before it finishes.  ``messages`` are the rendezvous
        sends the wait completes: once a receiver claimed one, the
        sanitizer counts the wait as the transport's, not a rank's.
        """
        fabric, san, progress = self.fabric, self.sanitizer, self.progress
        detector = fabric.detector
        ready = ready or wake.is_set
        if progress is not None:
            nap, period = progress, None
        else:
            nap = wake.wait if wake is not None else _time.sleep
            period = constants.POLL_PERIOD
        # Without a fault plan the sanitizer judges a wait whose peers
        # ended (RPD440 names the wait-for picture); the detector still
        # ends it on an abort.
        ended = san is None or fabric.injector is not None
        wildcard = targets is None
        if wildcard:
            targets = [r for r in range(len(fabric.workers))
                       if r != self.index]
        deadline = None if timeout is None else _time.monotonic() + timeout
        hopeless_since = None
        # A progress rank may have taken the frames that end this wait
        # before it parked; an abort ends every wait that has to wait.
        ask = progress is not None or detector.aborted is not None
        if san is not None:
            san.enter_wait(self.index, targets, ready, what,
                           self.clock.now, messages)
        try:
            while not ready():
                tick = period
                if ask:
                    verdict = detector.check_hopeless(targets, what, ended)
                    if san is not None:
                        san.check_wait(analyze=verdict is None)
                    if verdict is not None:
                        aborted = detector.aborted is not None
                        now = _time.monotonic()
                        hopeless_since = hopeless_since or now
                        hold = 0.0 if aborted else hopeless_since \
                            + self.index * constants.VERDICT_GRACE - now
                        if hold <= 0.0:
                            if ready():  # satisfied since the loop looked
                                return
                            if wildcard and verdict.failed_ranks \
                                    and not aborted:
                                # ULFM: a wildcard wait whose potential
                                # sender failed is *pending*, not failed.
                                raise ProcFailedPendingError(
                                    f"wildcard {what}: {verdict}",
                                    failed_ranks=verdict.failed_ranks)
                            raise verdict
                        tick = hold if tick is None else min(tick, hold)
                if deadline is not None:
                    left = deadline - _time.monotonic()
                    if left <= 0.0:
                        break
                    tick = left if tick is None else min(tick, left)
                nap(tick)
                ask = True
            else:
                return
        finally:
            if san is not None:
                san.leave_wait(self.index)
        raise TransportError(
            f"rank {self.index}: {what} timed out waiting on "
            + ("any rank" if wildcard
               else "rank(s) " + ",".join(str(t) for t in targets)))

    # -- delivery (receiver thread only) ------------------------------------

    def deliver(self, msg: WireMessage, data) -> RecvInfo:
        """Land the message in the receive descriptor ``data`` and charge
        receive-side time; an ``mprobe``'d message is received here too.

        One capacity check, then ``data.land(msg)`` — the receive contract
        of :mod:`repro.ucp.dtypes`.  The one receive-side exit of a
        message: whatever the descriptor kind, and whether the delivery
        succeeded or raised, the wire chunks go back exactly once, here,
        *before* the sender is completed — a chunk handed to a receive
        callback is valid only during that call (the paper's C contract).
        Release and completion cross the rank boundary through the
        transport: a pool release and an event set in-process, one
        acknowledgement frame remotely.  A failed delivery releases a
        blocked rendezvous sender with the error and re-raises.
        """
        fi = self.fabric.injector
        if fi is not None:
            # Crash/stall checkpoint *ahead of* the delivery: a rank the
            # plan kills here dies holding a claimed message (its sender
            # learns from the failure detector, teardown reclaims the
            # chunks) — that is a rank exit, not a failed delivery.
            fi.on_progress(self)
        transport = self.fabric.transport
        error = None
        try:
            info = self._deliver(msg, data)
        except BaseException as exc:
            error = exc
        transport.release_chunks(self, msg)
        if error is None:
            msg.mark_complete(self.clock.now)
        else:
            msg.mark_failed(self.clock.now, error)
        transport.on_delivered(self, msg, error)
        if error is not None:
            raise error
        return info

    def _verify_crcs(self, msg: WireMessage) -> None:
        """Check the envelope's per-fragment CRCs against the payload.

        Only reachable on a fault-injected fabric (pristine fabrics never
        stamp ``frag_crcs``).  A mismatch means corruption reached the
        application — counted per receiver and reported as RPD451 — but
        the data is still delivered: without the reliability protocol
        there is nothing to retransmit from.
        """
        bounds = fragment_bounds(msg.chunks, self.config.frag_size)
        actual = fragment_crcs(msg.chunks, bounds)
        expected = msg.header.frag_crcs
        bad = crc_reject(expected, actual)
        if not bad:
            return
        fi = self.fabric.injector
        if fi is not None:
            fi.stats[self.index].add(corrupted_delivered=len(bad))
        if self.sanitizer is not None:
            hdr = msg.header
            self.sanitizer.emit(
                "RPD451",
                f"message #{hdr.seq} from rank {hdr.source}: {len(bad)} "
                f"fragment(s) failed CRC verification at delivery; "
                f"corrupted payload reaches the application",
                rank=self.index,
                hint="enable the reliability protocol "
                     "(run(..., reliability=True)) so corrupted fragments "
                     "are NACKed and retransmitted")

    def _deliver(self, msg: WireMessage, data) -> RecvInfo:
        # Both only ever set on a fault-injected fabric.
        if msg.poisoned is not None:
            # The sender's reliability retry budget ran out; the envelope
            # arrived so this wait terminates, but the data never did.
            self.clock.merge(msg.delivery_time(self.clock.now))
            raise msg.poisoned
        if msg.header.frag_crcs:
            self._verify_crcs(msg)
        if self.sanitizer is not None:
            # Signature-match and truncation checks run before any data
            # moves, so a finding is reported even when delivery raises.
            self.sanitizer.on_deliver(self.index, msg, data)
        arrival = msg.delivery_time(self.clock.now)
        self.clock.merge(arrival)
        self.clock.advance(msg.recv_cost)

        hdr = msg.header
        cap = data.capacity
        if cap is not None and hdr.total_bytes > cap:
            raise TruncationError(
                f"rank {self.index}: message {hdr.msg_id} from rank "
                f"{hdr.source} (tag {constants.unpack_tag(hdr.tag)[2]}) is "
                f"{hdr.total_bytes} bytes, the receive takes at most {cap}")
        chunks = msg.chunks
        if msg.rndv and chunks and not isinstance(chunks[0], np.ndarray) \
                and chunks[0].plan is not data.plan:
            # A deferred source lands as it is only in its own layout.
            materialize(msg, self.fabric.workers[hdr.source].memory.pool)
        data.land(msg)

        self.delivered_msgs += 1
        if self.config.trace_messages:
            self.trace.append({
                "event": "recv", "peer": hdr.source,
                "msg_id": hdr.msg_id, "tag": hdr.tag,
                "bytes": hdr.total_bytes, "protocol": hdr.protocol,
                "entries": len(hdr.entry_lengths),
                "t": self.clock.now})
        return RecvInfo(source=hdr.source, tag=hdr.tag,
                        nbytes=hdr.total_bytes,
                        entry_lengths=hdr.entry_lengths,
                        packed_entries=hdr.packed_entries)


class Endpoint:
    """A directed sender->receiver connection.

    Holds the destination *index*, not the destination worker: on remote
    backends the peer lives in another process and all that exists locally
    is its address.
    """

    def __init__(self, src: Worker, dst_index: int):
        self.src = src
        self.dst_index = dst_index
        self.model = src.fabric.pair_model(src.index, dst_index)

    def tag_send(self, tag: int, data, force_rndv: bool = False
                 ) -> SendRequest:
        """Inject a message toward this endpoint's destination.

        ``data`` is any send descriptor (the send contract of
        :mod:`repro.ucp.dtypes`); its ``signature`` rides on the envelope
        for the sanitizer's type-matching check.  ``force_rndv`` requests
        synchronous-send semantics: a contiguous message always takes the
        rendezvous path, so the sender's ``wait()`` cannot return before
        the matching receive ran.
        """
        worker = self.src
        fi = worker.fabric.injector
        if fi is not None:
            # Crash/stall checkpoint before any staging work happens, so a
            # crashed rank neither packs nor injects.
            fi.on_progress(worker)
        model = self.model
        entries = data.entries()
        plan = plan_send(data, model, force_rndv=force_rndv)

        worker.clock.advance(plan.sender_cost)
        if plan.eager_copy:
            # Staged into this pool; a deferred source is built there.
            # The descriptor's own pooled entries stay the message's too.
            chunks = copy_chunks(entries, worker.memory.pool)
            pooled = (*chunks, *data.pooled)
        else:
            pooled = data.pooled
            # Rendezvous/iov: the envelope carries the sender's live views
            # by design — the in-process stand-in for RDMA get.  The
            # in-process backend delivers the alias as-is; the remote
            # backends (``RemoteTransportMixin``) replace it with staged
            # memory or an arena mapping at encode time (see DESIGN.md,
            # transport portability).
            chunks = entries  # noqa: RPD810
        lengths = tuple(map(len, chunks))  # the entries' byte counts
        header = WireHeader(
            tag=tag, source=worker.index,
            total_bytes=sum(lengths),
            entry_lengths=lengths,
            packed_entries=data.packed_entries,
            protocol=plan.protocol,
            signature=data.signature,
            msg_id=worker.next_msg_id())
        msg = WireMessage(header, chunks, send_ready=worker.clock.now,
                          wire_time=plan.wire_time, rndv=plan.rndv,
                          recv_cost=plan.recv_cost, pooled=pooled)
        if worker.config.trace_messages:
            worker.trace.append({
                "event": "send", "peer": self.dst_index,
                "msg_id": header.msg_id, "tag": header.tag,
                "bytes": header.total_bytes, "protocol": plan.protocol,
                "entries": len(header.entry_lengths),
                "t": worker.clock.now})
        worker.fabric.transport.submit(worker, self.dst_index, msg, model)
        return SendRequest(worker, msg, dst=self.dst_index)
