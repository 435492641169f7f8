"""Wire format: what actually travels between workers.

A :class:`WireMessage` is the simulator's packet: a header plus the payload
*descriptor*.  For eager sends the payload is a list of copied chunks; for
rendezvous/iov sends it is a reference to the sender's live buffers that the
receiver pulls at match time (the simulation's stand-in for RDMA get).

The header carries the per-entry lengths.  This is engine-internal metadata —
the very information the paper's Section VI says MPI would need to expose via
extended ``MPI_Probe``/``MPI_Get_count`` to avoid multi-message protocols.
Our prototype controls both ends of the wire, so it rides in the header;
the *user-visible* strategies that lack such an engine (``pickle-oob``) still
pay for an explicit lengths message, reproducing the paper's baseline.

Which chunks a message releases: only those a pool handed out for it,
recorded in :attr:`WireMessage.pooled` where they are acquired —
:func:`copy_chunks` (eager staging), :func:`materialize` (a deferred
source built), the engine's pooled packed stream of a custom type (the
send descriptor's ``pooled``) and a remote backend's arena staging.  Every
exit of the message (``Transport.release_chunks``) hands that list back to
the sender's pool in one ``release_all``: one lock per message, however
many entries it has, and nothing for a region or any other view of user
memory.
"""

from __future__ import annotations

import _thread
import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


class _MsgIdAllocator:
    """Lock-guarded monotone message-id source.

    ``next(itertools.count())`` looks atomic but only is so by accident of
    the GIL (RPD801): a free-threaded interpreter, or any runtime that
    preempts mid-``next``, can hand two ranks the same id and break every
    completion/retransmission path keyed on ``msg_id``.
    """

    def __init__(self, start: int = 1):
        self._lock = threading.Lock()
        self._next = start

    def allocate(self) -> int:
        with self._lock:
            val = self._next
            self._next += 1
            return val


_msg_ids = _MsgIdAllocator()


class Latch:
    """A one-shot event, the per-message completion signal
    (``PostedRecv.matched``, ``WireMessage.completed``): one raw lock, held
    from creation (unless ``preset``) until ``set`` releases it; ``wait``
    acquires and releases it, so every waiter passes.  ``_thread``, not
    ``threading.Lock``: another thread releases it, and it guards nothing
    the lockset witness could check.  An event that is cleared and set
    again (``TagMatcher.arrival``) stays a ``threading.Event``.
    """

    __slots__ = ("_lock", "_pending")

    def __init__(self, preset: bool = False):
        self._lock = _thread.allocate_lock()
        #: One entry until the first ``set`` pops it; ``dict.pop`` is
        #: atomic, so of racing setters exactly one releases the lock.
        self._pending = {} if preset else {0: True}
        if not preset:
            self._lock.acquire()

    def is_set(self) -> bool:
        return not self._pending

    def set(self) -> None:
        if self._pending.pop(0, False):
            self._lock.release()

    def wait(self, timeout: float | None = None) -> bool:
        """True once set; False if ``timeout`` seconds passed first."""
        if self._pending and self._lock.acquire(
                True, -1 if timeout is None else max(timeout, 0)):
            self._lock.release()
        return not self._pending


@dataclass(slots=True)
class WireHeader:
    """Metadata visible to matching and probing."""

    tag: int                     # packed transport tag (comm | src | user)
    source: int                  # sending worker index
    total_bytes: int             # payload size over all entries
    #: Per-entry byte lengths; a single-entry list for contiguous messages.
    entry_lengths: tuple[int, ...] = ()
    #: How many leading entries are packed in-band data (the rest are
    #: memory regions) — the custom-datatype engine's framing.
    packed_entries: int = 0
    #: Protocol chosen by the sender ("eager" / "rndv" / "iov").
    protocol: str = "eager"
    #: Canonical type signature of the send — an RLE tuple of
    #: ``(scalar_code, count)`` pairs, or None when the sender cannot state
    #: one statically (custom datatypes).  Carried on the envelope so the
    #: sanitizer can enforce MPI type-matching rules at match time.
    signature: tuple | None = None
    #: Per-channel sequence number stamped by the fault injector
    #: (:mod:`repro.ucp.faults`); -1 on a fabric without fault injection.
    seq: int = -1
    #: CRC32 of every reliability fragment of the payload; empty on a
    #: fabric without fault injection.  Receivers verify these at
    #: delivery, which is how corruption is detected (and, with the
    #: reliability protocol, NACKed and retransmitted).
    frag_crcs: tuple[int, ...] = ()
    msg_id: int = field(default_factory=_msg_ids.allocate)


class WireMessage:
    """One in-flight message.

    Parameters
    ----------
    header:
        The :class:`WireHeader`.
    chunks:
        Payload entries.  Eager: private uint8 arrays (staging chunks from
        :func:`copy_chunks`; sender buffers may be reused immediately).
        Rendezvous: live read views of the sender's buffers, pulled when the
        receiver completes the match — or, in-process, one deferred source
        standing for a derived datatype's packed bytes (see
        :func:`materialize`).
    send_ready:
        Sender virtual time at which the payload is ready to move.
    sender_cost_charged:
        Bookkeeping so tests can verify cost symmetry.
    pooled:
        The chunks the sender's pool handed out for this message (see
        :attr:`pooled`).
    """

    def __init__(self, header: WireHeader, chunks: Sequence[np.ndarray],
                 send_ready: float, wire_time: float, rndv: bool,
                 recv_cost: float, pooled: Sequence[np.ndarray] = ()):
        self.header = header
        self.chunks = list(chunks)
        #: Every chunk the sender's pool handed out for this message —
        #: eager staging (:func:`copy_chunks`), a custom type's packed
        #: stream, a deferred source built by :func:`materialize`, a remote
        #: backend's arena staging.  Recorded where it is acquired, kept
        #: when a chunk leaves :attr:`chunks` (a corrupted or re-staged
        #: entry) and given back in one go at the message's exit
        #: (``Transport.release_chunks``); user-buffer views are never in
        #: it, so they cost the exit nothing.
        self.pooled = list(pooled)
        self.send_ready = send_ready
        self.wire_time = wire_time
        self.rndv = rndv
        self.recv_cost = recv_cost
        #: Set when the receiver has pulled the data (rendezvous senders
        #: block on this; eager senders never wait).
        self.completed = Latch()  # noqa: RPD811
        #: Completion virtual time, filled by the receiver at delivery.
        self.completion_time: float | None = None
        #: Receive-side failure (e.g. truncation).  Set before completion so
        #: a blocked rendezvous sender is released with an error instead of
        #: hanging forever.
        self.error: BaseException | None = None  # noqa: RPD811
        #: Set by the fault injector when the reliability retry budget ran
        #: out: the envelope still arrives (so the receiver unblocks) but
        #: delivery raises this instead of moving data.
        self.poisoned: BaseException | None = None  # noqa: RPD811
        #: msg_id of the original when this message is an injected
        #: duplicate (fault plans with ``duplicate > 0``).
        self.duplicate_of: int | None = None

    @property
    def total_bytes(self) -> int:
        return self.header.total_bytes

    def delivery_time(self, recv_ready: float) -> float:
        """Virtual time at which the payload lands at the receiver.

        Eager data is already on the wire when the receiver looks;
        rendezvous transfers cannot start before both sides are ready.
        """
        start = max(self.send_ready, recv_ready) if self.rndv else self.send_ready
        return start + self.wire_time

    def mark_complete(self, t: float) -> None:
        self.completion_time = t
        self.completed.set()

    def mark_failed(self, t: float, exc: BaseException) -> None:
        """Release any waiting sender with the receive-side failure."""
        self.error = exc
        self.completion_time = t
        self.completed.set()


def copy_chunks(buffers: Sequence, pool) -> list[np.ndarray]:
    """Stage a list of send entries as private wire chunks of ``pool`` (a
    :class:`repro.ucp.memory.BufferPool`); they are the message's
    ``pooled`` chunks, which the delivery path returns to the sender's pool
    once the payload has been scattered.  A 1-D uint8
    view is copied into a pool chunk; a deferred source (a derived
    datatype's bound packed stream) is built straight into one — the one
    pass that makes its bytes."""
    out = []
    for b in buffers:
        if isinstance(b, np.ndarray):
            chunk = pool.acquire(b.shape[0])
            chunk[:] = b
        else:
            chunk = b.materialize(pool)
        out.append(chunk)
    return out


def materialize(msg: WireMessage, pool) -> None:
    """Build every deferred source among ``msg.chunks`` (the receive
    contract in :mod:`repro.ucp.dtypes`) once, into a chunk of ``pool``
    (the sender's).  From then on the chunk is the message's: it joins
    ``msg.pooled`` and goes back through ``Transport.release_chunks`` like
    any staging chunk."""
    chunks = msg.chunks
    for i, c in enumerate(chunks):
        if not isinstance(c, np.ndarray):
            chunks[i] = c = c.materialize(pool)
            msg.pooled.append(c)
