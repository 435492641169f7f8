"""Transport data descriptors — the ``UCP_DATATYPE_*`` analogues.

The paper's prototype selects among UCP datatypes when moving a message:
``UCP_DATATYPE_CONTIG`` for a single contiguous buffer,
``UCP_DATATYPE_IOV`` for scatter/gather (the custom-datatype path:
"the packed data is the first element in the iovec list, following which the
iovec array is filled with any memory region pointers"), and
``UCP_DATATYPE_GENERIC`` for callback-driven packing.  These descriptor
classes carry the same information for our simulated transport.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from ..errors import TransportError
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

    def __init__(self, buffer: Any, nbytes: int | None = None,
                 writable: bool = False):
        self.view = _u8view(buffer, writable)
        self.nbytes = self.view.shape[0] if nbytes is None else int(nbytes)
        if self.nbytes > self.view.shape[0]:
            raise TransportError(
                f"ContigData length {self.nbytes} exceeds buffer of "
                f"{self.view.shape[0]} bytes")

    @property
    def total_bytes(self) -> int:
        return self.nbytes

    def entries(self) -> list[np.ndarray]:
        return [self.view[: self.nbytes]]

    def scatter(self, chunks: Sequence[np.ndarray]) -> None:
        """Receive side: lay the wire chunks end to end into the buffer."""
        pos = 0
        for chunk in chunks:
            n = chunk.shape[0]
            self.view[pos:pos + n] = chunk
            pos += n


class ScatterData:
    """A CONTIG receive whose buffer is modelled, not built: same capacity
    check as :class:`ContigData`, then ``scatter(chunks)`` — the MPI engine's
    derived-datatype unpack — moves the payload out of the wire chunks."""

    kind = DATATYPE_CONTIG

    def __init__(self, nbytes: int, scatter: Callable[[Sequence], None]):
        self.nbytes = self.total_bytes = int(nbytes)
        self.scatter = scatter


class IovData:
    """UCP_DATATYPE_IOV: an ordered list of contiguous entries.

    ``packed_entries`` marks how many leading entries are in-band packed
    data (custom-datatype framing); pure scatter/gather uses 0.
    ``entry_count`` is what the cost model charges per-entry overhead for
    (``plan_send``): the real entry count unless the sender models more —
    the MPI engine ships a custom type's packed stream as *one* entry and
    books it as the ``frag_size`` fragments of the paper's pipeline, the
    way :class:`ScatterData` carries a modelled size.
    """

    kind = DATATYPE_IOV

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

    @property
    def total_bytes(self) -> int:
        return sum(v.shape[0] for v in self._views)

    def entries(self) -> list[np.ndarray]:
        return list(self._views)


class GenericData:
    """UCP_DATATYPE_GENERIC: callback-driven pack/unpack pipeline.

    Send side supplies ``pack(offset, dst) -> used`` and ``total_bytes``;
    receive side supplies ``unpack(offset, src)``.  The transport drives the
    callbacks fragment by fragment (``frag_size`` picked by the worker
    config), charging per-fragment overhead.  ``src`` is a wire chunk, valid
    only during the call: ``Worker.deliver`` returns every chunk to its
    sender's pool when the delivery ends — copy what you keep.
    """

    kind = DATATYPE_GENERIC

    def __init__(self, total_bytes: int,
                 pack: Callable[[int, np.ndarray], int] | None = None,
                 unpack: Callable[[int, np.ndarray], None] | None = None):
        if total_bytes < 0:
            raise TransportError(f"negative generic size {total_bytes}")
        if pack is None and unpack is None:
            raise TransportError("GenericData needs a pack or unpack callback")
        self._total = total_bytes
        self.pack = pack
        self.unpack = unpack

    @property
    def total_bytes(self) -> int:
        return self._total

    def pack_entries(self, frag_size: int, pool=None) -> list[np.ndarray]:
        """Run the pack pipeline; returns the fragment list.

        With ``pool`` the fragment scratch is pool-acquired; the caller owns
        the fragments and returns them once they are staged on the wire.
        """
        if self.pack is None:
            raise TransportError("GenericData has no pack callback (recv-only)")
        frags: list[np.ndarray] = []
        offset = 0
        while offset < self._total:
            nbytes = min(frag_size, self._total - offset)
            dst = (np.empty(nbytes, dtype=np.uint8) if pool is None
                   else pool.acquire(nbytes))
            used = self.pack(offset, dst)
            if not isinstance(used, int) or used <= 0 or used > dst.shape[0]:
                raise TransportError(f"generic pack returned invalid used={used!r}")
            frags.append(dst[:used])
            offset += used
        return frags


class HandlerData:
    """Receive descriptor that defers scattering to a callback.

    The handler runs on the receiving thread at delivery time with the full
    :class:`~repro.ucp.wire.WireMessage`; it is how the MPI engine implements
    custom-datatype receives, where the destination of the region entries can
    depend on just-unpacked in-band data.  The handler returns the number of
    payload bytes it consumed (for truncation checking).

    Lifetime: ``msg.chunks`` are valid only while the handler runs.  When it
    returns (or raises) ``Worker.deliver`` gives them back to the sender —
    eager staging returns to its pool, a remote sender's slab is freed by
    the acknowledgement — so a handler copies what it keeps.
    """

    kind = "handler"

    def __init__(self, handler: Callable[[Any], int],
                 max_bytes: int | None = None):
        self.handler = handler
        #: Optional cap used for truncation detection before delivery.
        self.max_bytes = max_bytes

    @property
    def total_bytes(self) -> int:
        return -1 if self.max_bytes is None else self.max_bytes
