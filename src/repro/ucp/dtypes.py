"""Transport data descriptors — the ``UCP_DATATYPE_*`` analogues.

The paper's prototype picks one UCP datatype per message:
``UCP_DATATYPE_CONTIG`` for a single contiguous buffer and
``UCP_DATATYPE_IOV`` for scatter/gather (the custom-datatype path:
"the packed data is the first element in the iovec list, following which the
iovec array is filled with any memory region pointers").  These descriptor
classes carry the same information for our simulated transport.  UCX's
third kind, the GENERIC pack-callback pipeline driven fragment by
fragment, has no descriptor here: a custom type's pack callback fills
its IOV's packed entry in one window (its pipeline is charged on the
``frag_size`` grid, see :mod:`repro.mpi.engine`), and a derived type
sends a deferred source (below).

The send contract.  Every send descriptor exposes the same six things,
and ``Endpoint.tag_send`` and ``plan_send`` use nothing else:

* ``kind`` and ``total_bytes`` — all ``transitions.select_protocol`` needs.
* ``entries()`` — the payload as 1-D uint8 views, or one deferred source.
* ``packed_entries`` — how many leading entries are in-band packed data.
* ``entry_count`` — the entry count the cost model charges.
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

Deferred sources.  Every send of a derived datatype is a
:class:`DeferredData`: its one entry is a deferred source (the engine's
``repro.core.packplan.PackedSource``) that stands for the packed bytes
without building them — ``len()`` is their count, ``plan`` the layout
they come from, ``materialize(pool)`` builds them, once, into a chunk of
the sender's pool that then goes back like every chunk.  The ucp layer
builds them at the first place they must exist:

* eager: ``copy_chunks`` at injection, as the message's staging chunk;
* a fault-injected fabric: ``FaultInjector.transmit``, before it stamps
  the fragment CRCs (faults corrupt and duplicate real bytes);
* a remote backend's rendezvous: its ``encode_payload`` (arena slab or
  staging buffer), so no deferred source crosses a process boundary;
* an in-process rendezvous: ``Worker.deliver`` hands the source as it
  is to a receive whose ``plan`` is the source's (one copy, layout to
  layout) and builds it first for any other receive.

The MPI engine sends :class:`ContigData`, :class:`DeferredData` (a
derived type) and :class:`IovData` (a custom type) and receives into
:class:`ContigData` and :class:`CallbackData`.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from ..errors import TransportError, TruncationError
from .constants import DATATYPE_CONTIG, DATATYPE_IOV


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

    def entries(self) -> list[np.ndarray]:
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
    packed bytes are built where they first must exist — or copied
    straight into the receiver's layout — not by the engine."""

    kind = DATATYPE_CONTIG
    packed_entries = 0
    entry_count = 1

    def __init__(self, source, signature=None):
        self.source = source
        self.total_bytes = len(source)
        self.signature = signature

    def entries(self) -> list:
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

    def entries(self) -> list[np.ndarray]:
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
