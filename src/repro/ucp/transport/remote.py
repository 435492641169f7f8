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
cross and in how ranks are spawned:

* one channel type — each directed rank pair is one connection (an OS
  pipe on ``shm``, a ``socketpair`` on ``asyncio``), written only by its
  source rank's thread with ``Connection.send``'s framing (a length
  prefix and a pickle);
* one frame loop per rank (:meth:`FramePlane.progress`), run by the rank
  itself (MPI's progress-on-call model) while it parks, tests a request
  or probes — up to the frame its call needs —, around each frame it
  writes, and after its function returns until every peer's ``bye``
  (:meth:`RemoteTransportMixin.run_rank`, the one rank lifecycle).  No
  helper thread runs: a frame wakes the one thread that needs it.

Failure detection follows where ranks live: ``asyncio`` ranks are threads
of one fabric and share its in-process detector, as ``inproc`` ranks do;
``shm`` ranks are processes, whose detector changes travel as frames
(:class:`PlaneDetector`).

Per-channel frame order is FIFO, which the fault layer's reorder/duplicate
machinery already assumes; faults are resolved sender-side *before*
encoding, so a corrupted or delayed message crosses the boundary exactly as
the inproc receiver would have seen it.
"""

from __future__ import annotations

import os
import pickle
import select
import struct
import threading
from collections import deque
from functools import partial
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

#: Bytes one read asks a channel for (a pipe's default capacity), unless
#: more of a torn frame is still to come.
READ_SIZE = 1 << 16
#: A frame's length prefix: the 4-byte big-endian size ``Connection.send``
#: writes ahead of the pickle.
_LENGTH = struct.Struct("!i")


class PendingTable:
    """Sender-side table of in-flight messages keyed by ``msg_id``.

    Owns the RPD811 control plane that used to ride the envelope: the
    completion event, the error slot and the staging chunks all stay here,
    on the registered original; the acknowledgement frame carries only the
    key and plain data.

    Thread contract: one rank's table is touched by that rank's thread
    only — ``register`` when it sends, ``pop`` when it takes an
    acknowledgement off its own channels, ``drain`` at its teardown — so
    it needs no lock.
    """

    def __init__(self):
        self._entries: dict[int, WireMessage] = {}

    def register(self, msg: WireMessage) -> None:
        self._entries[msg.header.msg_id] = msg

    def pop(self, msg_id: int) -> Optional[WireMessage]:
        """The message an acknowledgement is for (None for unknown ids —
        late acks after a sweep)."""
        return self._entries.pop(msg_id, None)

    def drain(self) -> list[WireMessage]:
        """Every message nobody acknowledged (job teardown)."""
        msgs = list(self._entries.values())
        self._entries.clear()
        return msgs


class PlaneDetector(FailureDetector):
    """The failure detector of an ``shm`` rank process.

    A rank's finish or death must not outrun its last frames (a peer that
    saw "rank 1 finished" before rank 1's final message landed would fail
    a receive inproc completes).  So ``mark_dead``/``mark_finished`` ride
    the rank's own outgoing channels, FIFO behind its data frames, and a
    peer applies one on the first read; ``abort_job`` is framed to every
    peer.  Each change applies here at once as well.  Every change thus
    reaches a parked peer as a frame, so its progress-engine nap needs no
    period.
    """

    period = None

    def __init__(self, nprocs: int, transport: "RemoteTransportMixin",
                 rank: int):
        super().__init__(nprocs)
        self._transport = transport
        self._rank = rank

    # -- local transitions (the rank's thread) ------------------------------

    def mark_dead(self, rank: int, reason: str = "process failed") -> None:
        super().mark_dead(rank, reason)
        self._frame((DEAD, rank, reason))

    def mark_finished(self, rank: int) -> None:
        super().mark_finished(rank)
        self._frame((DONE, rank))

    def abort_job(self, reason: str) -> bool:
        first = super().abort_job(reason)
        self._frame((ABORT, reason))
        return first

    def _frame(self, frame: tuple) -> None:
        for dst in range(self.nprocs):
            if dst != self._rank:
                self._transport.try_send(self._rank, dst, frame)

    # -- frames a peer sent (the rank's frame loop) -------------------------

    def apply_remote(self, frame: tuple) -> None:
        kind, *args = frame
        {DEAD: super().mark_dead, DONE: super().mark_finished,
         ABORT: super().abort_job}[kind](*args)


class _Inbound:
    """Reader state of one inbound channel: the rank that writes it and
    the bytes of a frame not yet whole."""

    __slots__ = ("src", "partial")

    def __init__(self, src: int):
        self.src = src
        self.partial = bytearray()

    def wanted(self) -> int:
        """How many bytes to ask the next read for: the rest of a torn
        frame in one read, so a large frame costs few wake-ups."""
        buf = self.partial
        if len(buf) < _LENGTH.size:
            return READ_SIZE
        return max(READ_SIZE,
                   _LENGTH.size + _LENGTH.unpack_from(buf)[0] - len(buf))

    def frames(self, data: bytes) -> list:
        """The whole frames ``data`` completes, in order; a torn frame's
        bytes stay behind for the next read."""
        buf = self.partial
        if buf:
            buf += data
            data = buf
        frames, off, end = [], 0, len(data)
        with memoryview(data) as view:
            while end - off >= _LENGTH.size:
                stop = off + _LENGTH.size + _LENGTH.unpack_from(data, off)[0]
                if stop > end:
                    break
                frames.append(pickle.loads(view[off + _LENGTH.size:stop]))
                off = stop
        if data is buf:
            del buf[:off]
        elif off < end:
            buf += data[off:]
        return frames


class FramePlane:
    """One rank's ends of the plane and its one frame loop,
    :meth:`progress`, run by the rank's own thread: as ``Worker.progress``
    from its park, test and probe paths, around each frame it writes, and
    in :meth:`close`.

    ``outbound`` maps each peer to the connection the rank writes to it
    (made non-blocking here), ``inbound`` every connection the rank reads
    to the peer that writes it.

    Frames are delivered one at a time, in arrival order, so a rank takes
    exactly the frames its call needs: those ahead of the one it waits
    for, and that one.  Reading is not delivery: before each frame the
    rank writes, and while a write the channel cannot take yet goes out in
    pieces, the plane reads whatever has come in and keeps it — the
    channels into the writer never stay full, so two ranks flooding each
    other cannot write-deadlock.
    """

    def __init__(self, transport: "RemoteTransportMixin", worker,
                 outbound: dict, inbound: dict):
        self.worker = worker
        self.out = outbound
        self.pending = PendingTable()
        self._transport = transport
        self._ends = [*outbound.values(), *inbound]
        #: Guards ``_live`` (read by ``in_transit`` on any thread), the
        #: ends (``shut`` from the job's thread at a timeout) and ``_error``.
        self._lock = threading.Lock()
        self._closed = False
        #: The first exception a frame's delivery raised.
        self._error: Optional[BaseException] = None
        #: Inbound fd -> reader state; a channel leaves once its ``bye``
        #: is taken off ``_frames``.
        self._live = {conn.fileno(): _Inbound(src)
                      for conn, src in inbound.items()}
        #: ``(fd, channel, frame)`` read but not yet delivered, in arrival
        #: order.
        self._frames: deque = deque()
        self._poll = select.poll()
        #: The thread the rank runs on (``run_rank``): the only one that
        #: drives this loop.  The sanitizer re-tests a parked rank's
        #: ``ready`` on other threads, and a ``Request.test`` in it must
        #: not take this rank's frames.
        self.owner: Optional[int] = None
        for fd in self._live:
            self._poll.register(fd, select.POLLIN)
        for conn in outbound.values():
            os.set_blocking(conn.fileno(), False)
        worker.progress = self.progress

    def progress(self, timeout: Optional[float] = 0.0,
                 writable: Optional[int] = None) -> bool:
        """The one frame loop: deliver the next frame read, and True.

        With none read yet, wait up to ``timeout`` seconds (None: until
        something happens) for an inbound channel to be readable — or the
        outbound fd ``writable`` to take bytes — read every readable
        channel once, and deliver the first whole frame, if any.  False
        means nothing came: no frame delivered, no byte read.  Given
        ``writable``, only read.  ``bye`` or EOF ends a channel; an
        exception escaping delivery is the rank's, and the loop goes on.
        On any thread but the rank's, nothing happens (False)."""
        if threading.get_ident() != self.owner:
            return False
        frames = self._frames
        if writable is not None or not frames:
            if writable is not None:
                self._poll.register(writable, select.POLLOUT)
            try:
                events = self._poll.poll(
                    None if timeout is None else timeout * 1e3)
            finally:
                if writable is not None:
                    self._poll.unregister(writable)
            read = False
            for fd, _ in events:
                chan = self._live.get(fd)
                if chan is None:
                    continue  # ``writable``
                read = True
                try:
                    data = os.read(fd, chan.wanted())
                except OSError:
                    data = b""
                for frame in chan.frames(data) if data else [(BYE,)]:
                    frames.append((fd, chan, frame))
                    if frame[0] == BYE:  # nothing follows
                        self._poll.unregister(fd)
                        break
            if writable is not None or not frames:
                return read
        fd, chan, frame = frames[0]
        if frame[0] == BYE:
            frames.popleft()
            with self._lock:
                del self._live[fd]
        else:
            # Left queued until delivered: ``in_transit`` sees it meanwhile.
            try:
                self._transport.deliver_frame(self.worker, chan.src, frame)
            except Exception as exc:
                with self._lock:
                    if self._error is None:
                        self._error = exc
            finally:
                frames.popleft()
        return True

    def in_transit(self, src: int) -> bool:
        """Whether the channel from ``src`` holds a frame read in part, or
        one read whole and still queued (a frame leaves the queue once its
        delivery returned).  Bytes the rank has not read yet are not seen:
        only its loop polls a channel.  Any thread may ask: the channel
        table is read under the lock, and a ``list`` copy of the frame
        queue is one step under the GIL."""
        with self._lock:
            chan = next((c for c in self._live.values() if c.src == src),
                        None)
        return chan is not None and (bool(chan.partial) or any(
            c is chan for _, c, _ in list(self._frames)))

    def write(self, dst: int, frame) -> None:
        """Write one frame to ``dst`` (the rank's thread only: one writer
        per channel, no lock), length-prefixed like ``Connection.send``.
        Whatever has come in is read first, and a write the channel cannot
        take yet goes out in pieces, the plane reading in between."""
        fd = self.out[dst].fileno()
        body = pickle.dumps(frame, pickle.HIGHEST_PROTOCOL)
        view = memoryview(_LENGTH.pack(len(body)) + body)
        self.progress(writable=fd)
        while view:
            try:
                view = view[os.write(fd, view):]
            except BlockingIOError:
                self.progress(None, writable=fd)

    def close(self, report) -> None:
        """Take the rank's frames until every peer's ``bye``, once its
        function returned, then close its ends.

        A ``bye`` goes out behind the last frame of every outgoing channel
        first.  A frame the rank could not deliver becomes the failure of
        its ``report``.
        """
        for dst in self.out:
            self._transport.try_send(self.worker.index, dst, (BYE,))
        while self._live:
            self.progress(None)
        with self._lock:
            self._closed = True
            for end in self._ends:
                end.close()
        if self._error is not None and report.failure is None:
            report.failure = TransportError(
                f"{self._transport.name} transport I/O failure on rank "
                f"{report.rank}: {self._error!r}")

    def shut(self) -> None:
        """End every channel of the rank without closing a descriptor
        (any thread; socket ends): its reads see EOF, its writes fail.
        The rank's thread may still poll or write them, and a closed
        descriptor's number is the next one opened — the rank closes its
        own ends when its loop has seen every channel end."""
        import socket  # not at module level: every job imports this one

        with self._lock:
            if self._closed:
                return
            for end in self._ends:
                try:
                    end.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass


class RemoteTransportMixin:
    """What the ``shm`` and ``asyncio`` backends share: send, deliver and
    acknowledge frames, one :class:`FramePlane` per rank.

    Concrete backends provide ``encode_payload(worker, msg)`` /
    ``materialize_payload(src_rank, payload)`` — how chunks cross (raw
    bytes vs arena references) — and hand each rank's channel ends to
    :meth:`open_plane`.
    """

    supports_cancel = False

    def __init__(self):
        #: Rank -> its plane (one on an ``shm`` rank process).
        self.planes: dict[int, FramePlane] = {}

    def open_plane(self, fabric, rank: int, outbound: dict,
                   inbound: dict) -> None:
        """Give ``rank`` its :class:`FramePlane`: ``outbound`` maps each
        peer to the end the rank writes, ``inbound`` each end it reads to
        the peer that writes it."""
        self.planes[rank] = FramePlane(self, fabric.worker(rank), outbound,
                                       inbound)

    def run_rank(self, fabric, rank: int, fn, engine_config, ended):
        """One rank's lifecycle, on its own thread, on both remote
        backends: ``rank_main``, whose report goes to ``ended`` before the
        rank waits on any peer (a job that times out on a busy peer still
        names how this rank ended), then the rank's frames until every
        peer's ``bye``."""
        plane = self.planes[rank]
        plane.owner = threading.get_ident()
        report = super().run_rank(fabric, rank, fn, engine_config, ended)
        plane.close(report)
        return report

    def pending_for(self, rank: int) -> PendingTable:
        return self.planes[rank].pending

    def send_frame(self, src_rank: int, dst_rank: int, frame) -> None:
        """Write one frame on channel ``src_rank -> dst_rank`` (only ever
        from ``src_rank``'s thread: one writer per channel, no lock)."""
        try:
            self.planes[src_rank].write(dst_rank, frame)
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
        """Dispatch one inbound frame (the receiving rank's own thread, in
        its frame loop).

        ``msg`` frames become a deposit into the rank's matcher; ``ack``
        frames resolve its pending table; detector frames (``shm`` only)
        go to the :class:`PlaneDetector`, so ULFM waits terminate across
        processes.
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
            recv_worker.fabric.detector.apply_remote(frame)
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

    def in_transit(self, src: int, dst: int) -> bool:
        plane = self.planes.get(dst)
        return plane is not None and plane.in_transit(src)
