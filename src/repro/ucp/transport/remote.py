"""Shared machinery for process/socket-boundary backends.

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

Per-channel frame order is FIFO (a pipe or a stream socket), which the
fault layer's reorder/duplicate machinery already assumes; faults are
resolved sender-side *before* encoding, so a corrupted or delayed message
crosses the boundary exactly as the inproc receiver would have seen it.
"""

from __future__ import annotations

import threading
from functools import partial
from typing import Callable, Optional

from ...errors import TransportError
from ..wire import WireMessage
from . import envelope as env

#: Frame kind tags (first element of every frame tuple).
MSG = "msg"
ACK = "ack"
BYE = "bye"      # rank finished; drain sentinel for demux loops
DEAD = "dead"    # failure-detector broadcast: rank died (reason follows)
DONE = "done"    # failure-detector broadcast: rank finished cleanly
ABORT = "abort"  # failure-detector broadcast: MPI_ERRORS_ARE_FATAL fired


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


class RemoteTransportMixin:
    """The receive/ack halves shared by the ``shm`` and ``asyncio`` planes.

    Concrete backends provide:

    * ``send_frame(src_rank, dst_rank, frame_tuple)`` — FIFO per channel;
    * ``encode_payload(worker, msg)`` / ``materialize_payload(...)`` —
      how chunks cross (raw bytes vs arena references);
    * a pending table per local rank via ``pending_for(rank)``.
    """

    rndv_aliases_buffers = False
    supports_cancel = False

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
        resolve the local pending table.  Detector broadcasts update the
        local failure detector so ULFM waits terminate across processes.
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
                detector = injector.detector
                {DEAD: detector.apply_remote_dead,
                 DONE: detector.apply_remote_finished,
                 ABORT: detector.apply_remote_abort}[kind](*frame[1:])
        elif kind != BYE:
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


class BroadcastingDetector:
    """A :class:`FailureDetector` wrapper that mirrors state to peers.

    On the ``shm`` backend each rank process has its own detector; the
    local transitions (dead / finished / abort) are broadcast as frames so
    every process's detector converges and ULFM blocking-wait semantics
    hold across the boundary.  ``apply_remote_*`` entries apply a peer's
    broadcast without re-broadcasting (no echo storms).
    """

    def __init__(self, inner, broadcast: Callable[[tuple], None]):
        self._inner = inner
        self._broadcast = broadcast
        #: Reason of an abort this rank originated (its own fatal handler
        #: fired before any peer's abort arrived), else None.  The driver
        #: uses it to attribute the job abort deterministically.
        self.abort_origin: Optional[str] = None

    # -- local transitions (broadcast) -------------------------------------

    def mark_dead(self, rank: int, reason: str = "process failed") -> None:
        self._inner.mark_dead(rank, reason)
        self._broadcast((DEAD, rank, reason))

    def mark_finished(self, rank: int) -> None:
        self._inner.mark_finished(rank)
        self._broadcast((DONE, rank))

    def abort_job(self, reason: str) -> None:
        if self._inner.abort_job(reason):
            self.abort_origin = reason
        self._broadcast((ABORT, reason))

    # -- remote applications (no re-broadcast) -----------------------------

    def apply_remote_dead(self, rank: int, reason: str) -> None:
        self._inner.mark_dead(rank, reason)

    def apply_remote_finished(self, rank: int) -> None:
        self._inner.mark_finished(rank)

    def apply_remote_abort(self, reason: str) -> None:
        self._inner.abort_job(reason)

    # -- queries delegate --------------------------------------------------

    def __getattr__(self, name):
        return getattr(self._inner, name)
