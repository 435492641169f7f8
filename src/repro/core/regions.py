"""Memory regions (the iovec model of Listing 5).

A :class:`Region` is a contiguous run of memory that the transport may send
or receive *directly*, without packing — the zero-copy half of the custom
datatype API.  On the send side regions are read; on the receive side they
are written, so writability is validated lazily by the engine.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..errors import MPI_ERR_BUFFER, MPIError
from .datatype import BYTE, Datatype

#: The uint8 descriptor a 1-D byte array already carries (numpy hands out
#: one instance per builtin type).
_U8 = np.dtype(np.uint8)


class Region:
    """One scatter/gather entry: a contiguous buffer plus its MPI type.

    Parameters
    ----------
    buffer:
        Any contiguous buffer-protocol object (numpy array, memoryview,
        bytearray, bytes on the send side).
    nbytes:
        Length in bytes; defaults to the whole buffer.
    datatype:
        Predefined MPI type of the region's elements (metadata the paper's
        ``MPI_Type_custom_region_function`` exposes so implementations could
        apply heterogeneity conversions; our homogeneous simulator only
        validates it).

    A region is a value the engine reads once per transfer: the constructor
    validates in one pass and keeps the flat uint8 view (a 1-D uint8 array
    is its own view), which the engine then sends from or scatters into.
    Two regions are equal when they cover the same buffer object with the
    same length and datatype.
    """

    __slots__ = ("buffer", "nbytes", "datatype", "_view")

    def __init__(self, buffer: Any, nbytes: int | None = None,
                 datatype: Datatype = BYTE):
        if isinstance(buffer, np.ndarray):
            if not buffer.flags.c_contiguous:
                raise MPIError(MPI_ERR_BUFFER, "region buffer must be C-contiguous")
            if buffer.ndim != 1:
                # Flattened first: a 0-d array's dtype cannot change.
                view = buffer.reshape(-1).view(dtype=_U8)
            elif buffer.dtype is not _U8:
                view = buffer.view(dtype=_U8)
            else:
                view = buffer
        else:
            mv = memoryview(buffer)
            if not mv.contiguous:
                raise MPIError(MPI_ERR_BUFFER, "region buffer must be contiguous")
            view = np.frombuffer(mv, dtype=np.uint8)
        size = view.shape[0]
        if nbytes is None:
            nbytes = size
        elif nbytes < 0:
            raise MPIError(MPI_ERR_BUFFER, f"negative region length {nbytes}")
        elif nbytes > size:
            raise MPIError(
                MPI_ERR_BUFFER,
                f"region length {nbytes} exceeds buffer of {size} bytes")
        if datatype is not BYTE:
            if not datatype.is_predefined:
                raise MPIError(MPI_ERR_BUFFER,
                               "region datatype must be a predefined type")
            if nbytes % datatype.size:
                raise MPIError(
                    MPI_ERR_BUFFER,
                    f"region length {nbytes} not a multiple of "
                    f"{datatype.name} size {datatype.size}")
        self.buffer = buffer
        self.nbytes = nbytes
        self.datatype = datatype
        #: Flat uint8 view of ``buffer``, built once: the engine reads or
        #: writes every region through it on every transfer.
        self._view = view

    def __repr__(self) -> str:
        return (f"Region(buffer={self.buffer!r}, nbytes={self.nbytes!r}, "
                f"datatype={self.datatype!r})")

    def __eq__(self, other):
        if not isinstance(other, Region):
            return NotImplemented
        return (self.buffer is other.buffer and self.nbytes == other.nbytes
                and self.datatype == other.datatype)

    def view(self) -> np.ndarray:
        """Flat uint8 view of the underlying buffer."""
        return self._view

    def writable_view(self) -> np.ndarray:
        """Flat writable uint8 view (receive side)."""
        if not self._view.flags.writeable:
            raise MPIError(MPI_ERR_BUFFER, "receive region buffer is read-only")
        return self._view

    def read_bytes(self) -> np.ndarray:
        """The region's bytes (length-trimmed read view)."""
        return self._view[: self.nbytes]


def total_region_bytes(regions: Sequence[Region]) -> int:
    """Sum of region lengths."""
    return sum(r.nbytes for r in regions)


def region_lengths(regions: Sequence[Region]) -> list[int]:
    """Per-region byte lengths, in order."""
    return [r.nbytes for r in regions]
