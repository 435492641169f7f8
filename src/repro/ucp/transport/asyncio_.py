"""The asyncio/socket backend: every message crosses a real socket.

Ranks are still threads (so clocks, the sanitizer and the fault layer work
exactly as inproc), but the data plane is a mesh of ``socket.socketpair()``
streams — one per directed rank pair — drained by one asyncio event loop
on a dedicated I/O thread.  Nothing object-shaped crosses: envelopes go
through the portable codec, payloads as raw bytes, completion as ack
frames resolved against per-rank pending tables.

This is the portability *proof* for the RPD810/811 envelope rules: if any
send path still aliased live buffers or carried a live handle on the
envelope, this backend would fail to frame it.  It is not a performance
backend (every payload is serialized twice per hop); ``shm`` is the fast
process-boundary plane.

Single-writer discipline: the frames of channel ``i -> j`` are written
only by rank ``i``'s thread (sends at injection, acks at delivery — both
run on the owning rank's thread), so writes need no lock.  The I/O thread
only reads, and its only fabric mutations are matcher deposits and
pending-table resolutions, both locked.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading

from ...errors import TransportError
from . import envelope as env
from .base import ThreadedTransport
from .remote import DEAD, DONE, PendingTable, RemoteTransportMixin

_LEN = struct.Struct(">Q")


class _OrderedDetector:
    """Channel-ordered view of the shared failure detector.

    On the socket plane a rank's last frames can still be in flight when
    its thread reaches ``mark_finished``/``mark_dead``.  Applying the
    transition to the (shared) detector immediately would let a peer's
    blocking wait observe "rank finished" *before* that rank's final
    message is deposited — a state unreachable on inproc, where deposits
    are synchronous.  Instead the transition rides the rank's outgoing
    channels as DONE/DEAD frames (FIFO behind its data frames) and the
    I/O thread applies it once *every* channel has drained past it, so no
    observer can be ahead of its own channel.  ``abort_job`` stays
    immediate: it poisons blocking waits unconditionally, exactly as the
    inproc shared detector does.
    """

    def __init__(self, inner, transport: "AsyncioTransport", nprocs: int):
        self._inner = inner
        self._transport = transport
        self._nprocs = nprocs
        self._fanout = nprocs - 1
        self._count_lock = threading.Lock()
        self._counts: dict[tuple, int] = {}

    def _ride_channels(self, rank: int, frame, apply) -> None:
        if self._fanout == 0:
            apply()
            return
        try:
            for j in range(self._nprocs):
                if j != rank:
                    self._transport.send_frame(rank, j, frame)
        except TransportError:
            # Data plane already dismantled (abandon path): apply
            # directly so surviving waits still terminate.
            apply()

    # -- local transitions (rank's own thread) -----------------------------

    def mark_dead(self, rank: int, reason: str = "process failed") -> None:
        self._ride_channels(rank, (DEAD, rank, reason),
                            lambda: self._inner.mark_dead(rank, reason))

    def mark_finished(self, rank: int) -> None:
        self._ride_channels(rank, (DONE, rank),
                            lambda: self._inner.mark_finished(rank))

    def abort_job(self, reason: str) -> None:
        self._inner.abort_job(reason)

    # -- remote applications (I/O thread) ----------------------------------

    def _drained(self, key) -> bool:
        with self._count_lock:
            n = self._counts.get(key, 0) + 1
            self._counts[key] = n
            return n >= self._fanout

    def apply_remote_dead(self, rank: int, reason: str) -> None:
        if self._drained(("dead", rank)):
            self._inner.mark_dead(rank, reason)

    def apply_remote_finished(self, rank: int) -> None:
        if self._drained(("done", rank)):
            self._inner.mark_finished(rank)

    def apply_remote_abort(self, reason: str) -> None:
        self._inner.abort_job(reason)

    # -- queries delegate --------------------------------------------------

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _Channel:
    """Receive state of one directed socket stream (I/O thread only)."""

    __slots__ = ("src", "dst", "sock", "buf", "open")

    def __init__(self, src: int, dst: int, sock: socket.socket):
        self.src = src
        self.dst = dst
        self.sock = sock
        self.buf = bytearray()
        self.open = True


class AsyncioTransport(RemoteTransportMixin, ThreadedTransport):
    """Rank threads exchanging framed messages over localhost sockets."""

    name = "asyncio"

    def __init__(self):
        #: Guards the cross-thread state below (the I/O thread closes
        #: channels and records errors while the driver thread tears
        #: down).
        self._lock = threading.Lock()
        self._writers: dict[tuple[int, int], socket.socket] = {}
        self._channels: dict[int, _Channel] = {}
        self._pending: list[PendingTable] = []
        self._loop = None
        self._io_thread: threading.Thread | None = None
        self._drained = threading.Event()
        self._open_channels = 0
        self._io_error: BaseException | None = None

    # -- plane lifecycle ---------------------------------------------------

    def wire(self, fabric) -> None:
        import asyncio

        n = len(fabric.workers)
        self._pending = [PendingTable() for _ in range(n)]
        with self._lock:
            self._loop = asyncio.new_event_loop()
        readers = []
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                wsock, rsock = socket.socketpair()
                wsock.setblocking(True)
                rsock.setblocking(False)
                self._writers[(i, j)] = wsock
                readers.append(_Channel(i, j, rsock))
        with self._lock:
            self._open_channels = len(readers)
        if not readers:
            self._drained.set()
        for ch in readers:
            self._channels[ch.sock.fileno()] = ch
            self._loop.add_reader(ch.sock.fileno(), self._on_readable,
                                  fabric, ch)
        if fabric.injector is not None:
            fabric.injector.detector = _OrderedDetector(
                fabric.injector.detector, self, n)
        self._io_thread = threading.Thread(
            target=self._loop.run_forever, name="ucp-asyncio-io",
            daemon=True)
        self._io_thread.start()

    def unwire(self, fabric) -> None:
        # Ranks have joined, so every frame is already written; half-close
        # the write ends and let the reader callbacks drain to EOF — a
        # deterministic flush of in-flight acks before pool snapshots.
        for sock in self._writers.values():
            try:
                sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass
        drained = self._drained.wait(timeout=30.0)
        self._teardown()
        if not drained:
            raise TransportError(
                "asyncio transport failed to drain in-flight frames")
        with self._lock:
            io_error = self._io_error
        if io_error is not None:
            raise TransportError(
                f"asyncio transport I/O failure: {io_error}") from io_error

    def abandon(self, fabric) -> None:
        """Timeout path: dismantle without draining (ranks still alive)."""
        self._teardown()

    def _record_io_error(self, exc: BaseException) -> None:
        with self._lock:
            if self._io_error is None:
                self._io_error = exc

    def _teardown(self) -> None:
        with self._lock:
            loop = self._loop
            self._loop = None
        if loop is None:
            return

        def _stop() -> None:
            for ch in self._channels.values():
                if ch.open:
                    try:
                        loop.remove_reader(ch.sock.fileno())
                    except Exception:
                        pass
                    ch.open = False
            loop.stop()

        loop.call_soon_threadsafe(_stop)
        if self._io_thread is not None:
            self._io_thread.join(timeout=10.0)
        if not loop.is_running():
            loop.close()
        for ch in self._channels.values():
            ch.sock.close()
        for sock in self._writers.values():
            sock.close()

    # -- sender side -------------------------------------------------------

    def pending_for(self, rank: int) -> PendingTable:
        return self._pending[rank]

    def send_frame(self, src_rank: int, dst_rank: int, frame) -> None:
        blob = pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL)
        sock = self._writers[(src_rank, dst_rank)]
        try:
            sock.sendall(_LEN.pack(len(blob)) + blob)
        except OSError as exc:
            raise TransportError(
                f"asyncio transport channel {src_rank}->{dst_rank} "
                f"closed: {exc}") from exc

    def encode_payload(self, worker, msg) -> list[bytes]:
        return env.chunk_bytes(msg.chunks)

    def materialize_payload(self, src_rank: int, payload):
        return env.bytes_chunks(payload)

    # -- I/O thread --------------------------------------------------------

    def _on_readable(self, fabric, ch: _Channel) -> None:
        try:
            data = ch.sock.recv(1 << 20)
        except BlockingIOError:
            return
        except OSError as exc:
            self._record_io_error(exc)
            self._close_channel(ch)
            return
        if not data:
            self._close_channel(ch)
            return
        ch.buf.extend(data)
        try:
            for frame in self._drain_frames(ch):
                self.deliver_frame(fabric.worker(ch.dst), ch.src, frame)
        except BaseException as exc:  # record; the drain must not die
            self._record_io_error(exc)

    @staticmethod
    def _drain_frames(ch: _Channel):
        frames = []
        buf = ch.buf
        while True:
            if len(buf) < _LEN.size:
                break
            (need,) = _LEN.unpack_from(buf, 0)
            if len(buf) < _LEN.size + need:
                break
            frames.append(pickle.loads(bytes(buf[_LEN.size:_LEN.size + need])))
            del buf[:_LEN.size + need]
        return frames

    def _close_channel(self, ch: _Channel) -> None:
        if not ch.open:
            return
        ch.open = False
        with self._lock:
            loop = self._loop
        if loop is not None:
            try:
                loop.remove_reader(ch.sock.fileno())
            except Exception:
                pass
        with self._lock:
            self._open_channels -= 1
            drained = self._open_channels <= 0
        if drained:
            self._drained.set()
