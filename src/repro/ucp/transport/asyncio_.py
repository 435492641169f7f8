"""The ``asyncio`` backend: the socket plane — every message crosses a real
socket.

Ranks are still threads of one fabric (so clocks, the sanitizer, the fault
layer and the failure detector work exactly as inproc), but the data
plane is the frame plane of :mod:`.remote` over a mesh of
``socket.socketpair`` connections, one per directed rank pair.  Each rank
thread runs its own plane, exactly as an ``shm`` rank process does: it
reads its inbound sockets when it parks, tests or probes, writes through
non-blocking outbound ends (reading while a write cannot go out), and
after its function returns takes its frames until every peer's ``bye``.
No other thread runs.  Nothing object-shaped crosses: envelopes go
through the portable codec, payloads as raw bytes, completion as ack
frames resolved against each rank's pending table.  The backend keeps its
historical id; it runs no event loop.

This is the portability *proof* for the RPD810/811 envelope rules: if any
send path still aliased live buffers or carried a live handle on the
envelope, this backend would fail to frame it.  It is not a performance
backend (every payload is serialized twice per hop); ``shm`` is the fast
process-boundary plane.

Single-writer discipline: the frames of channel ``i -> j`` are written
only by rank ``i``'s thread (sends at injection, acks at delivery, its
``bye`` at the end — all on the owning rank's thread), so writes need no
lock, and every socket is closed by the rank that uses it.
"""

from __future__ import annotations

import socket

from ..wire import materialize
from . import envelope as env
from .base import ThreadedTransport
from .remote import RemoteTransportMixin


class AsyncioTransport(RemoteTransportMixin, ThreadedTransport):
    """Rank threads exchanging framed messages over localhost sockets."""

    name = "asyncio"

    def wire(self, fabric) -> None:
        n = len(fabric.workers)
        # (read end, write end) of each directed channel.
        channels = {(i, j): socket.socketpair() for i in range(n)
                    for j in range(n) if i != j}
        for r in range(n):
            self.open_plane(fabric, r,
                            {j: channels[r, j][1] for j in range(n) if j != r},
                            {channels[i, r][0]: i for i in range(n) if i != r})

    def abandon(self, fabric) -> None:
        """Timeout path: shut every channel down; each rank thread closes
        its own ends once its loop saw them end."""
        for plane in self.planes.values():
            plane.shut()

    def encode_payload(self, worker, msg) -> list[bytes]:
        # A deferred source is built into the sender's staging, which the
        # acknowledgement releases like any staging chunk.
        materialize(msg, worker.memory.pool)
        return env.chunk_bytes(msg.chunks)

    def materialize_payload(self, src_rank: int, payload):
        return env.bytes_chunks(payload)
