"""The ``asyncio`` backend: the socket plane — every message crosses a real
socket.

Ranks are still threads (so clocks, the sanitizer and the fault layer work
exactly as inproc), but the data plane is the frame plane of
:mod:`.remote` over a mesh of ``multiprocessing.Pipe(duplex=True)``
connections — a ``socketpair`` per directed rank pair on POSIX — drained
by one demux thread for all ranks.  Nothing object-shaped crosses:
envelopes go through the portable codec, payloads as raw bytes,
completion as ack frames resolved against per-rank pending tables.  The
backend keeps its historical id; it no longer runs an event loop.

This is the portability *proof* for the RPD810/811 envelope rules: if any
send path still aliased live buffers or carried a live handle on the
envelope, this backend would fail to frame it.  It is not a performance
backend (every payload is serialized twice per hop); ``shm`` is the fast
process-boundary plane.

Single-writer discipline: the frames of channel ``i -> j`` are written
only by rank ``i``'s thread (sends at injection, acks at delivery — both
run on the owning rank's thread), so writes need no lock; the driver
writes the final ``bye`` frames only after every rank thread joined.
"""

from __future__ import annotations

from multiprocessing import Pipe

from ..wire import materialize
from . import envelope as env
from .base import ThreadedTransport
from .remote import RemoteTransportMixin

#: Seconds a plane whose writers all returned may take to drain.
DRAIN_TIMEOUT = 30.0


class AsyncioTransport(RemoteTransportMixin, ThreadedTransport):
    """Rank threads exchanging framed messages over localhost sockets."""

    name = "asyncio"

    def wire(self, fabric) -> None:
        n = len(fabric.workers)
        channels = {(i, j): Pipe(duplex=True) for i in range(n)
                    for j in range(n) if i != j}
        self._ends = [end for pair in channels.values() for end in pair]
        self.open_plane(fabric, range(n),
                        {key: ends[1] for key, ends in channels.items()},
                        {ends[0]: key for key, ends in channels.items()})

    def unwire(self, fabric, reports) -> None:
        self.plane.close(reports, timeout=DRAIN_TIMEOUT)
        self._close_ends()

    def abandon(self, fabric) -> None:
        """Timeout path: dismantle without draining (ranks still alive)."""
        self.plane.halt()
        self._close_ends()

    def _close_ends(self) -> None:
        for end in self._ends:
            end.close()

    def encode_payload(self, worker, msg) -> list[bytes]:
        # A deferred source is built into the sender's staging, which the
        # acknowledgement releases like any packed temp.
        materialize(msg, worker.memory.pool)
        return env.chunk_bytes(msg.chunks)

    def materialize_payload(self, src_rank: int, payload):
        return env.bytes_chunks(payload)
