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
  ``socketpair`` on ``asyncio``), written only by its source rank's thread
  with ``Connection.send``'s framing (a length prefix and a pickle);
* one frame loop per process (:meth:`FramePlane.progress`): one
  persistent ``select.poll`` registration of the inbound ends, incremental
  reads, ``deliver_frame`` per whole frame, one frame at a time in arrival
  order; ``bye`` or EOF ends a channel;
* one detector rule (:class:`PlaneDetector`).

Who runs the loop follows from how many ranks a process hosts.  An ``shm``
process hosts one rank, and that rank is its own progress engine (MPI's
progress-on-call model): it takes frames while it parks and when it tests
a request or probes — up to the one its call needs — reads (without
delivering) before each frame it writes and while a write cannot go out,
and takes the rest after its function returns, until every peer's
``bye``.  No helper thread runs in a rank process, so a frame costs one
wake-up of the thread that needs it.  The ``asyncio`` process hosts every
rank; a detector frame there is applied only once each hosted rank has
read it, so one reader thread runs the same loop for all of them.

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
import time
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

#: Seconds between the reader thread's looks at its halt flag while every
#: channel is quiet (only the abandon path ever sets it).
HALT_POLL = 0.1
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

    Thread contract: ``register`` runs on the sending rank's thread,
    ``pop``/``drain`` on whichever thread reads the plane — the rank's own
    on ``shm``, the reader thread on ``asyncio`` — hence the lock.
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

    # -- frames read by a hosted rank (the plane's reader) ------------------

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


class _Inbound:
    """Reader state of one inbound channel: the rank that writes it, the
    hosted worker that reads it, and the bytes of a frame not yet whole."""

    __slots__ = ("src", "worker", "partial")

    def __init__(self, src: int, worker):
        self.src = src
        self.worker = worker
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
    """One process's ends of the plane and its one frame loop,
    :meth:`progress`.

    ``hosted`` are the ranks the process runs; ``outbound`` maps
    ``(src, dst)`` to the connection ``src`` writes, ``inbound`` maps every
    connection a hosted rank reads to its ``(src, dst)``.  Who calls the
    loop is fixed by how many ranks the process hosts: one (``shm``) — that
    rank's thread, as ``Worker.progress``, and in :meth:`close`; several
    (``asyncio``) — one reader thread, because a frame another hosted rank
    must also read (the :class:`PlaneDetector` rule) cannot wait for one
    rank's next call.

    Frames are delivered one at a time, in arrival order, so a rank takes
    exactly the frames its call needs: those ahead of the one it waits
    for, and that one.  Reading is not delivery: before each frame a
    rank-driven plane writes, and while a write the channel cannot take
    yet goes out in pieces, the plane reads whatever has come in and keeps
    it — the pipes into the writer never stay full, so two ranks flooding
    each other cannot write-deadlock.
    """

    def __init__(self, transport: "RemoteTransportMixin", fabric, hosted,
                 outbound: dict, inbound: dict):
        hosted = tuple(hosted)
        self.out = outbound
        self.pending = {r: PendingTable() for r in hosted}
        self._transport = transport
        self._lock = threading.Lock()
        #: Hosted rank -> the first exception its frames raised.
        self._errors: dict[int, BaseException] = {}
        #: Inbound fd -> reader state; a channel leaves once its ``bye``
        #: is taken off ``_frames``.
        self._live = {conn.fileno(): _Inbound(src, fabric.worker(dst))
                      for conn, (src, dst) in inbound.items()}
        #: ``(fd, channel, frame)`` read but not yet delivered, in arrival
        #: order.
        self._frames: deque = deque()
        self._poll = select.poll()
        for fd in self._live:
            self._poll.register(fd, select.POLLIN)
        self._halt = threading.Event()
        self._thread = None
        if len(hosted) == 1:
            for conn in outbound.values():
                os.set_blocking(conn.fileno(), False)
            fabric.worker(hosted[0]).progress = self.progress
        else:
            self._thread = threading.Thread(
                target=self._read_loop,
                name="ucp-reader-" + ",".join(str(r) for r in hosted),
                daemon=True)
            self._thread.start()

    def progress(self, timeout: Optional[float] = 0.0,
                 writable: Optional[int] = None) -> bool:
        """The one frame loop: deliver the next frame read, and True.

        With none read yet, wait up to ``timeout`` seconds (None: until
        something happens) for an inbound channel to be readable — or the
        outbound fd ``writable`` to take bytes — read every readable
        channel once, and deliver the first whole frame, if any (False
        when none came).  Given ``writable``, only read.  ``bye`` or EOF
        ends a channel; an exception escaping delivery is the receiving
        rank's, and the loop goes on."""
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
            for fd, _ in events:
                chan = self._live.get(fd)
                if chan is None:
                    continue  # ``writable``
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
                return False
        fd, chan, frame = frames[0]
        if frame[0] == BYE:
            frames.popleft()
            with self._lock:  # read by ``close`` on the driver
                del self._live[fd]
        else:
            # Left queued until delivered: ``in_transit`` sees it meanwhile.
            try:
                self._transport.deliver_frame(chan.worker, chan.src, frame)
            except Exception as exc:
                self._fail(chan.worker.index, exc)
            finally:
                frames.popleft()
        return True

    def in_transit(self, src: int, dst: int) -> bool:
        """Whether the channel ``src -> dst`` (``dst`` hosted here) holds
        a frame read in part, or one read whole and still queued (a frame
        leaves the queue once its delivery returned).  Bytes the loop has
        not read yet are not seen: only the loop polls a channel.  Any
        thread may ask: the channel table is copied under the lock, and a
        ``list`` copy of the frame queue is one step under the GIL."""
        with self._lock:
            chans = [c for c in self._live.values()
                     if c.src == src and c.worker.index == dst]
        return any(c.partial for c in chans) or any(
            c in chans for _, c, _ in list(self._frames))

    def _read_loop(self) -> None:
        while self._live and not self._halt.is_set():
            self.progress(HALT_POLL)

    def write(self, key: tuple[int, int], frame) -> None:
        """Write one frame on channel ``key`` (its source rank's thread
        only: one writer per channel, no lock), length-prefixed like
        ``Connection.send``.  A rank-driven plane first reads whatever
        has come in, and a write the channel cannot take yet goes out in
        pieces, the plane reading in between."""
        fd = self.out[key].fileno()
        body = pickle.dumps(frame, pickle.HIGHEST_PROTOCOL)
        view = memoryview(_LENGTH.pack(len(body)) + body)
        if self._thread is None:
            self.progress(writable=fd)
        while view:
            try:
                view = view[os.write(fd, view):]
            except BlockingIOError:
                self.progress(None, writable=fd)

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
        if self._thread is None:
            end = None if timeout is None else time.monotonic() + timeout
            while self._live and (end is None or time.monotonic() < end):
                self.progress(None if end is None
                              else max(end - time.monotonic(), 0.0))
        else:
            self._thread.join(timeout)
            if self._thread.is_alive():
                self.halt()
        if self._live:
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
        """Stop the reader thread without draining (ranks may still be
        running)."""
        self._halt.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)


class RemoteTransportMixin:
    """What the ``shm`` and ``asyncio`` backends share: send, deliver and
    acknowledge frames over one :class:`FramePlane`.

    Concrete backends provide ``encode_payload(worker, msg)`` /
    ``materialize_payload(src_rank, payload)`` — how chunks cross (raw
    bytes vs arena references) — and hand this process's channel ends to
    :meth:`open_plane`.
    """

    supports_cancel = False

    def open_plane(self, fabric, hosted, outbound: dict,
                   inbound: dict) -> None:
        """Start this process's :class:`FramePlane`; the fabric's detector
        becomes the :class:`PlaneDetector`."""
        fabric.detector = PlaneDetector(len(fabric.workers), self, hosted)
        self.plane = FramePlane(self, fabric, hosted, outbound, inbound)

    def pending_for(self, rank: int) -> PendingTable:
        return self.plane.pending[rank]

    def send_frame(self, src_rank: int, dst_rank: int, frame) -> None:
        """Write one frame on channel ``src_rank -> dst_rank`` (only ever
        from ``src_rank``'s thread: one writer per channel, no lock)."""
        try:
            self.plane.write((src_rank, dst_rank), frame)
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
        """Dispatch one inbound frame (the plane's reader: the receiving
        rank's own thread on ``shm``, the reader thread on ``asyncio``).

        ``msg`` frames become a deposit into the local matcher (the one
        fabric mutation a reader thread may perform); ``ack`` frames
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
        plane = getattr(self, "plane", None)
        return plane is not None and plane.in_transit(src, dst)
