"""The frame plane shared by the process/socket-boundary backends.

The in-process fabric completes a send by sharing objects: the receiver
sets the sender's ``threading.Event`` and releases staging into the
sender's pool directly.  Across a boundary both become *frames*:

``msg`` frame
    The portable envelope document plus the payload (raw bytes on the
    socket plane, ``(rank, offset, nbytes)`` arena references on the
    shared-memory plane).

``ack`` frame
    Receiver → sender after delivery (or delivery failure): carries the
    ``msg_id``, the receiver's completion virtual time, and an optional
    pickled error.  The sender resolves it against its
    :class:`PendingTable` — releasing staging chunks and completing the
    original message — which is exactly the "control-plane fields move
    off the envelope into a local request table keyed by msg_id" move
    DESIGN.md's transport-portability section called for.

Both remote backends run the same plane; they differ only in how bytes
cross and in how many ranks one process hosts:

* one channel type — each directed rank pair is one
  ``multiprocessing.connection.Connection`` (an OS pipe on ``shm``, a
  ``socketpair`` on ``asyncio``), written only by its source rank's thread;
* one demux loop per process (:class:`FramePlane`): wait on the inbound
  ends, receive, ``deliver_frame``; ``bye`` or EOF ends a channel;
* one detector rule (:class:`PlaneDetector`).

Per-channel frame order is FIFO, which the fault layer's reorder/duplicate
machinery already assumes; faults are resolved sender-side *before*
encoding, so a corrupted or delayed message crosses the boundary exactly as
the inproc receiver would have seen it.
"""

from __future__ import annotations

import threading
from functools import partial
from multiprocessing.connection import wait
from typing import Optional

from ...errors import TransportError
from ..faults import FailureDetector
from ..wire import WireMessage
from . import envelope as env

#: Frame kind tags (first element of every frame tuple).
MSG = "msg"
ACK = "ack"
BYE = "bye"      # the channel's writer is done: nothing follows
DEAD = "dead"    # detector frame: the subject rank died (reason follows)
DONE = "done"    # detector frame: the subject rank finished cleanly
ABORT = "abort"  # detector frame: MPI_ERRORS_ARE_FATAL fired

#: Seconds between the demux loop's looks at its halt flag while every
#: channel is quiet (only the abandon path ever sets it).
HALT_POLL = 0.1


class PendingTable:
    """Sender-side table of in-flight messages keyed by ``msg_id``.

    Owns the RPD811 control plane that used to ride the envelope: the
    completion event, the error slot and the staging chunks all stay here,
    on the registered original; the acknowledgement frame carries only the
    key and plain data.

    Thread contract: ``register`` runs on the sending rank's thread,
    ``pop``/``drain`` on the demux thread — hence the lock.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: dict[int, WireMessage] = {}

    def register(self, msg: WireMessage) -> None:
        with self._lock:
            self._entries[msg.header.msg_id] = msg

    def pop(self, msg_id: int) -> Optional[WireMessage]:
        """The message an acknowledgement is for (None for unknown ids —
        late acks after a sweep)."""
        with self._lock:
            return self._entries.pop(msg_id, None)

    def drain(self) -> list[WireMessage]:
        """Every message nobody acknowledged (job teardown)."""
        with self._lock:
            msgs = list(self._entries.values())
            self._entries.clear()
        return msgs


class PlaneDetector(FailureDetector):
    """The failure detector of one process on the frame plane.

    One rule, whatever the number of ranks a process hosts: a rank's finish
    or death must not outrun its last frames (a peer that saw "rank 1
    finished" before rank 1's final message landed would fail a receive
    inproc completes).  So ``mark_dead``/``mark_finished`` ride the subject
    rank's own outgoing channels, FIFO behind its data frames, and a
    process applies one once every rank it hosts, other than the subject,
    has read it — at once when it hosts no such rank.  One rank per process
    (``shm``) applies on the first read, all ranks in one process
    (``asyncio``) on the (n-1)th.  ``abort_job`` poisons every wait
    unconditionally: it applies here at once and is framed only to ranks
    hosted in other processes.
    """

    def __init__(self, nprocs: int, transport: "RemoteTransportMixin",
                 hosted):
        super().__init__(nprocs)
        self._transport = transport
        self._hosted = frozenset(hosted)
        #: Detector frame -> hosted ranks that have read it.
        self._reads: dict[tuple, int] = {}

    # -- local transitions (a hosted rank's thread) -------------------------

    def mark_dead(self, rank: int, reason: str = "process failed") -> None:
        self._ride(rank, (DEAD, rank, reason))

    def mark_finished(self, rank: int) -> None:
        self._ride(rank, (DONE, rank))

    def abort_job(self, reason: str) -> bool:
        first = super().abort_job(reason)
        src = min(self._hosted)
        for dst in range(self.nprocs):
            if dst not in self._hosted:
                self._transport.try_send(src, dst, (ABORT, reason))
        return first

    def _ride(self, rank: int, frame: tuple) -> None:
        sent = [self._transport.try_send(rank, dst, frame)
                for dst in range(self.nprocs) if dst != rank]
        if not all(sent) or not self._hosted - {rank}:
            # No hosted reader, or the plane is already dismantled (the
            # abandon path): apply here so surviving waits still end.
            self._apply(frame)

    # -- frames read by a hosted rank (demux thread) ------------------------

    def apply_remote(self, frame: tuple) -> None:
        if frame[0] != ABORT:
            with self._lock:
                reads = self._reads[frame] = self._reads.get(frame, 0) + 1
            if reads != len(self._hosted - {frame[1]}):
                return
        self._apply(frame)

    def _apply(self, frame: tuple) -> None:
        kind, *args = frame
        {DEAD: super().mark_dead, DONE: super().mark_finished,
         ABORT: super().abort_job}[kind](*args)


class FramePlane:
    """One process's ends of the plane and its demux loop.

    ``hosted`` are the ranks the process runs; ``outbound`` maps
    ``(src, dst)`` to the connection ``src`` writes, ``inbound`` maps every
    connection a hosted rank reads to its ``(src, dst)``.  The loop starts
    at construction.
    """

    def __init__(self, transport: "RemoteTransportMixin", fabric, hosted,
                 outbound: dict, inbound: dict):
        self.out = outbound
        self.pending = {r: PendingTable() for r in hosted}
        self._transport = transport
        self._lock = threading.Lock()
        #: Hosted rank -> the first exception its frames raised.
        self._errors: dict[int, BaseException] = {}
        self._halt = threading.Event()
        self._thread = threading.Thread(
            target=self._demux_loop, args=(fabric, dict(inbound)),
            name="ucp-demux-" + ",".join(str(r) for r in hosted),
            daemon=True)
        self._thread.start()

    def _demux_loop(self, fabric, live: dict) -> None:
        """The one frame loop: wait on the inbound ends, receive, deliver.
        ``bye`` or EOF ends a channel; an exception escaping delivery is
        the receiving rank's, and the loop keeps draining."""
        while live and not self._halt.is_set():
            for conn in wait(list(live), timeout=HALT_POLL):
                src, dst = live[conn]
                try:
                    frame = conn.recv()
                except (EOFError, OSError):
                    frame = (BYE,)
                if frame[0] == BYE:
                    del live[conn]
                    continue
                try:
                    self._transport.deliver_frame(fabric.worker(dst), src,
                                                  frame)
                except Exception as exc:
                    self._fail(dst, exc)

    def _fail(self, rank: int, exc: BaseException) -> None:
        with self._lock:
            self._errors.setdefault(rank, exc)

    def close(self, reports, timeout: Optional[float] = None) -> None:
        """Drain the plane once every hosted rank has returned.

        A ``bye`` goes out behind the last frame of every outgoing channel
        and the loop runs until each inbound channel's ``bye``; what it
        could not deliver — or a plane still not drained after ``timeout``
        — becomes the failure of the receiving rank's report.
        """
        for src, dst in self.out:
            self._transport.try_send(src, dst, (BYE,))
        self._thread.join(timeout)
        if self._thread.is_alive():
            self.halt()
            for r in self.pending:
                self._fail(r, TimeoutError(
                    f"frames still in flight after {timeout}s"))
        with self._lock:
            errors = dict(self._errors)
        for rep in reports:
            if rep.rank in errors and rep.failure is None:
                rep.failure = TransportError(
                    f"{self._transport.name} transport I/O failure on rank "
                    f"{rep.rank}: {errors[rep.rank]!r}")

    def halt(self) -> None:
        """Stop the loop without draining (ranks may still be running)."""
        self._halt.set()
        self._thread.join(timeout=10.0)


class RemoteTransportMixin:
    """What the ``shm`` and ``asyncio`` backends share: send, deliver and
    acknowledge frames over one :class:`FramePlane`.

    Concrete backends provide ``encode_payload(worker, msg)`` /
    ``materialize_payload(src_rank, payload)`` — how chunks cross (raw
    bytes vs arena references) — and hand this process's channel ends to
    :meth:`open_plane`.
    """

    rndv_aliases_buffers = False
    supports_cancel = False

    def open_plane(self, fabric, hosted, outbound: dict,
                   inbound: dict) -> None:
        """Start this process's :class:`FramePlane`; on a fault-injected
        fabric its detector becomes the :class:`PlaneDetector`."""
        if fabric.injector is not None:
            fabric.injector.detector = PlaneDetector(
                len(fabric.workers), self, hosted)
        self.plane = FramePlane(self, fabric, hosted, outbound, inbound)

    def pending_for(self, rank: int) -> PendingTable:
        return self.plane.pending[rank]

    def send_frame(self, src_rank: int, dst_rank: int, frame) -> None:
        """Write one frame on channel ``src_rank -> dst_rank`` (only ever
        from ``src_rank``'s thread: one writer per channel, no lock)."""
        try:
            self.plane.out[(src_rank, dst_rank)].send(frame)
        except (OSError, ValueError) as exc:
            raise TransportError(
                f"{self.name} transport channel {src_rank}->{dst_rank} "
                f"closed: {exc}") from exc

    def try_send(self, src_rank: int, dst_rank: int, frame) -> bool:
        """``send_frame`` to a peer that may be gone: False if it is."""
        try:
            self.send_frame(src_rank, dst_rank, frame)
        except TransportError:
            return False
        return True

    # -- sender side -------------------------------------------------------

    def deposit_for(self, worker, dst_index: int):
        """Deposit by frame.  The whole fault layer — drop/corrupt/
        duplicate/reorder/delay, the reliability retransmission schedule,
        CRC stamping — runs unchanged on the sender's thread and the
        already-faulted message is what gets encoded onto the wire."""
        if dst_index == worker.index:
            # Self-sends never leave the rank; keep in-process semantics.
            return super().deposit_for(worker, dst_index)
        return partial(self.encode_and_send, worker, dst_index)

    def encode_and_send(self, worker, dst_index: int,
                        msg: WireMessage) -> None:
        """Stage, register and emit one message frame (sender thread)."""
        doc = env.encode_envelope(msg)
        payload = self.encode_payload(worker, msg)
        self.pending_for(worker.index).register(msg)
        self.send_frame(worker.index, dst_index, (MSG, doc, payload))

    # -- receiver side -----------------------------------------------------

    def deliver_frame(self, recv_worker, src_rank: int, frame) -> None:
        """Dispatch one inbound frame (demux thread).

        ``msg`` frames become a deposit into the local matcher (the one
        fabric mutation a foreign thread may perform); ``ack`` frames
        resolve the local pending table; detector frames go to the
        :class:`PlaneDetector`, so ULFM waits terminate across processes.
        """
        kind = frame[0]
        if kind == MSG:
            _, doc, payload = frame
            chunks = self.materialize_payload(src_rank, payload)
            msg = env.decode_envelope(doc, chunks)
            recv_worker.matcher.deposit(msg)
        elif kind == ACK:
            _, msg_id, completion_time, err_blob = frame
            msg = self.pending_for(recv_worker.index).pop(msg_id)
            if msg is None:
                return
            self.release_chunks(recv_worker, msg)  # the staging, at last
            if msg.completed.is_set():
                # Already resolved sender-side (poisoned/exhausted
                # transfers are failed at injection): staging only.
                return
            error = env.decode_error(err_blob)
            if error is not None:
                msg.mark_failed(completion_time, error)
            else:
                msg.mark_complete(completion_time)
        elif kind in (DEAD, DONE, ABORT):
            injector = recv_worker.fabric.injector
            if injector is not None:
                injector.detector.apply_remote(frame)
        else:
            raise TransportError(f"unknown transport frame kind {kind!r}")

    # -- message exits -----------------------------------------------------
    # ``release_chunks`` is the base one: receiver-side chunks are
    # transport-materialized (frame bytes, arena views) and foreign to
    # every pool, so letting go of them releases nothing — the sender's
    # staging comes back via the acknowledgement frame.

    def on_delivered(self, recv_worker, msg: WireMessage,
                     error: BaseException | None = None) -> None:
        origin = getattr(msg, "remote_origin", None)
        if origin is not None:
            self.send_frame(recv_worker.index, origin,
                            (ACK, msg.header.msg_id, msg.completion_time,
                             env.encode_error(error)))

    def sweep_pending(self, worker) -> None:
        for msg in self.pending_for(worker.index).drain():
            self.release_chunks(worker, msg)
