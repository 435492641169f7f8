"""Transport data descriptors — the ``UCP_DATATYPE_*`` analogues.

The paper's prototype selects among UCP datatypes when moving a message:
``UCP_DATATYPE_CONTIG`` for a single contiguous buffer,
``UCP_DATATYPE_IOV`` for scatter/gather (the custom-datatype path:
"the packed data is the first element in the iovec list, following which the
iovec array is filled with any memory region pointers"), and
``UCP_DATATYPE_GENERIC`` for callback-driven packing.  These descriptor
classes carry the same information for our simulated transport.

The send contract.  Every send descriptor exposes the same six things,
and ``Endpoint.tag_send`` and ``plan_send`` use nothing else:

* ``kind`` and ``total_bytes`` — all ``transitions.select_protocol`` needs.
* ``entries(frag_size, pool)`` — the payload as 1-D uint8 views (or one
  deferred source, below); GENERIC runs its pack pipeline here, into
  fragments from ``pool``.
* ``packed_entries`` — how many leading entries are in-band packed data.
* ``entry_count`` — the entry count the cost model charges.  GENERIC
  knows both counts once ``entries`` ran.
* ``signature`` — the sender's type signature for the envelope, set at
  construction; None unless the sanitizer is attached.

The receive contract.  Every receive descriptor exposes the same five
things, and ``Worker.deliver`` uses nothing else:

* ``capacity`` — the most payload bytes the receive takes, or None for any
  size.  Delivery checks it once, for every kind, before any byte moves: a
  larger message raises the one ``TruncationError`` (receiver, sender,
  ``msg_id``, user tag, message bytes, capacity), which also fails a
  rendezvous sender; the wire chunks still go back.
* ``land(msg)`` — moves the message's wire chunks into the receive.  They
  are valid only during the call (``Worker.deliver`` gives them back to
  their sender when it returns or raises): a callback copies what it keeps.
* ``signature`` — the expected type signature, set at construction; None
  unless the sanitizer is attached (``JobSanitizer.on_deliver`` compares it
  with the envelope's).
* ``kind`` — the UCP datatype it stands for; ``"handler"`` for a custom
  receive, whose callbacks do their own copying.
* ``plan`` — the pack plan a derived receive lands through; None on
  every other receive.

Deferred sources.  An in-process rendezvous of a derived datatype sends a
:class:`DeferredData`: its one entry is a deferred source (the engine's
``repro.core.packplan.PackedSource``) that stands for the packed bytes
without building them — ``len()`` is their count, ``plan`` the layout
they come from, ``materialize(pool)`` builds them.  ``Worker.deliver``
hands it as it is only to a receive whose ``plan`` is the source's (one
copy, layout to layout); for any other receive it first materializes the
source once into a chunk of the sender's pool, which then goes back like
every chunk.  The remote backends materialize at encode time, so no
deferred source crosses a process boundary.

The MPI engine sends :class:`ContigData`, :class:`DeferredData` (a
derived rendezvous) and :class:`IovData` (a custom type) and receives
into :class:`ContigData` and :class:`CallbackData`.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from ..errors import TransportError, TruncationError
from .constants import DATATYPE_CONTIG, DATATYPE_GENERIC, DATATYPE_IOV


def _u8view(buf, writable: bool) -> np.ndarray:
    if isinstance(buf, np.ndarray):
        if not buf.flags.c_contiguous:
            raise TransportError("transport buffers must be C-contiguous")
        v = buf.view(np.uint8).reshape(-1)
    else:
        mv = memoryview(buf)
        if not mv.contiguous:
            raise TransportError("transport buffers must be contiguous")
        v = np.frombuffer(mv, dtype=np.uint8)
    if writable and not v.flags.writeable:
        raise TransportError("receive buffer is read-only")
    return v


class ContigData:
    """UCP_DATATYPE_CONTIG: one contiguous buffer of ``nbytes``."""

    kind = DATATYPE_CONTIG
    packed_entries = 0
    entry_count = 1
    plan = None

    def __init__(self, buffer: Any, nbytes: int | None = None,
                 writable: bool = False, signature=None):
        self.view = _u8view(buffer, writable)
        self.nbytes = self.total_bytes = self.capacity = (
            self.view.shape[0] if nbytes is None else int(nbytes))
        self.signature = signature
        if self.nbytes > self.view.shape[0]:
            raise TransportError(
                f"ContigData length {self.nbytes} exceeds buffer of "
                f"{self.view.shape[0]} bytes")

    def entries(self, frag_size: int = 0, pool=None) -> list[np.ndarray]:
        return [self.view[: self.nbytes]]

    def land(self, msg) -> None:
        """Receive side: lay the wire chunks end to end into the buffer."""
        pos = 0
        for chunk in msg.chunks:
            n = chunk.shape[0]
            self.view[pos:pos + n] = chunk
            pos += n


class DeferredData:
    """UCP_DATATYPE_CONTIG over one deferred source (send only): the
    packed bytes are built — or copied straight into the receiver's
    layout — when the message lands, not at injection."""

    kind = DATATYPE_CONTIG
    packed_entries = 0
    entry_count = 1

    def __init__(self, source, signature=None):
        self.source = source
        self.total_bytes = len(source)
        self.signature = signature

    def entries(self, frag_size: int = 0, pool=None) -> list:
        return [self.source]


class IovData:
    """UCP_DATATYPE_IOV: an ordered list of contiguous entries.

    ``packed_entries`` marks how many leading entries are in-band packed
    data (custom-datatype framing); pure scatter/gather uses 0.
    ``entry_count`` is what the cost model charges per-entry overhead for
    (``plan_send``): the real entry count unless the sender models more —
    the MPI engine ships a custom type's packed stream as *one* entry and
    books it as the ``frag_size`` fragments of the paper's pipeline, the
    way a derived :class:`CallbackData` carries a modelled size.  As a
    receive, each chunk lands in the entry at its position: the entry
    counts must agree and no chunk may outgrow its entry.
    """

    kind = DATATYPE_IOV
    signature = None
    plan = None

    def __init__(self, buffers: Sequence[Any], writable: bool = False,
                 packed_entries: int = 0, entry_count: int | None = None):
        self._views = [_u8view(b, writable) for b in buffers]
        self.packed_entries = packed_entries
        if not 0 <= packed_entries <= len(self._views):
            raise TransportError(
                f"packed_entries {packed_entries} out of range for "
                f"{len(self._views)} entries")
        self.entry_count = (len(self._views) if entry_count is None
                            else int(entry_count))
        self.total_bytes = self.capacity = sum(
            v.shape[0] for v in self._views)

    def entries(self, frag_size: int = 0, pool=None) -> list[np.ndarray]:
        return list(self._views)

    def land(self, msg) -> None:
        chunks = msg.chunks
        if len(chunks) != len(self._views):
            raise TruncationError(
                f"iov message with {len(chunks)} entries into "
                f"{len(self._views)} receive entries")
        for chunk, entry in zip(chunks, self._views):
            if chunk.shape[0] > entry.shape[0]:
                raise TruncationError(
                    f"iov entry of {chunk.shape[0]} bytes into a "
                    f"{entry.shape[0]}-byte entry")
            entry[: chunk.shape[0]] = chunk


class GenericData:
    """UCP_DATATYPE_GENERIC: callback-driven pack/unpack pipeline.

    Send side supplies ``pack(offset, dst) -> used`` and ``total_bytes``;
    receive side supplies ``unpack(offset, src)`` and takes at most
    ``total_bytes``.  The transport drives the callbacks fragment by
    fragment (``frag_size`` picked by the worker config), charging
    per-fragment overhead.  ``src`` is a wire chunk, valid only during the
    call: ``Worker.deliver`` returns every chunk to its sender's pool when
    the delivery ends — copy what you keep.
    """

    kind = DATATYPE_GENERIC
    signature = None
    plan = None

    def __init__(self, total_bytes: int,
                 pack: Callable[[int, np.ndarray], int] | None = None,
                 unpack: Callable[[int, np.ndarray], None] | None = None):
        if total_bytes < 0:
            raise TransportError(f"negative generic size {total_bytes}")
        if pack is None and unpack is None:
            raise TransportError("GenericData needs a pack or unpack callback")
        self.total_bytes = self.capacity = total_bytes
        self.pack = pack
        self.unpack = unpack
        self.packed_entries = self.entry_count = 0  # set by entries()

    def land(self, msg) -> None:
        if self.unpack is None:
            raise TransportError("GenericData has no unpack callback (send-only)")
        offset = 0
        for chunk in msg.chunks:
            self.unpack(offset, chunk)
            offset += chunk.shape[0]

    def entries(self, frag_size: int, pool=None) -> list[np.ndarray]:
        """Run the pack pipeline; returns the fragment list.

        With ``pool`` the fragment scratch is pool-acquired; the caller owns
        the fragments and returns them once they are staged on the wire —
        unless the pack callback fails, which gives every one back first.
        """
        if self.pack is None:
            raise TransportError("GenericData has no pack callback (recv-only)")
        frags: list[np.ndarray] = []
        offset = 0
        try:
            while offset < self.total_bytes:
                nbytes = min(frag_size, self.total_bytes - offset)
                dst = (np.empty(nbytes, dtype=np.uint8) if pool is None
                       else pool.acquire(nbytes))
                frags.append(dst)
                used = self.pack(offset, dst)
                if not isinstance(used, int) or used <= 0 or used > dst.shape[0]:
                    raise TransportError(f"generic pack returned invalid used={used!r}")
                frags[-1] = dst[:used]
                offset += used
        except BaseException:
            if pool is not None:
                for frag in frags:
                    pool.release(frag)
            raise
        self.packed_entries = self.entry_count = len(frags)
        return frags


class CallbackData:
    """A receive that lands through a callable: ``land`` *is* the callable.

    The MPI engine's two non-contiguous receives.  A derived datatype is a
    CONTIG receive of ``capacity`` bytes whose buffer is modelled, not
    built: ``land(msg)`` runs the typemap unpack straight out of the wire
    chunks, or copies a deferred source of its ``plan`` layout to layout.
    A custom datatype is a ``"handler"`` receive of any size:
    ``land(msg)`` unpacks the in-band stream, *then* queries the regions
    (their placement may depend on the unpacked data) and scatters into
    them.  Both run on the receiving thread.
    """

    #: None here; the engine's derived receive overrides it with a
    #: property that looks the plan up only when asked.
    plan = None

    def __init__(self, land: Callable[[Any], None],
                 capacity: int | None = None, kind: str = "handler",
                 signature=None):
        self.land = land
        self.capacity = capacity
        self.kind = kind
        self.signature = signature
