"""Memory regions (the iovec model of Listing 5).

A :class:`Region` is a contiguous run of memory that the transport may send
or receive *directly*, without packing — the zero-copy half of the custom
datatype API.  On the send side regions are read; on the receive side they
are written, so writability is validated lazily by the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from ..errors import MPI_ERR_BUFFER, MPIError
from .datatype import BYTE, Datatype


@dataclass
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
    """

    buffer: Any
    nbytes: int | None = None
    datatype: Datatype = field(default_factory=lambda: BYTE)
    #: Flat uint8 view of ``buffer``, built once: the engine reads or writes
    #: every region through it on every transfer.
    _view: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.buffer, np.ndarray):
            if not self.buffer.flags.c_contiguous:
                raise MPIError(MPI_ERR_BUFFER, "region buffer must be C-contiguous")
            view = self.buffer.view(np.uint8).reshape(-1)
        else:
            mv = memoryview(self.buffer)
            if not mv.contiguous:
                raise MPIError(MPI_ERR_BUFFER, "region buffer must be contiguous")
            view = np.frombuffer(mv, dtype=np.uint8)
        self._view = view
        if self.nbytes is None:
            self.nbytes = view.shape[0]
        if self.nbytes < 0:
            raise MPIError(MPI_ERR_BUFFER, f"negative region length {self.nbytes}")
        if self.nbytes > view.shape[0]:
            raise MPIError(
                MPI_ERR_BUFFER,
                f"region length {self.nbytes} exceeds buffer of {view.shape[0]} bytes")
        if not self.datatype.is_predefined:
            raise MPIError(MPI_ERR_BUFFER,
                           "region datatype must be a predefined type")
        if self.nbytes % self.datatype.size:
            raise MPIError(
                MPI_ERR_BUFFER,
                f"region length {self.nbytes} not a multiple of "
                f"{self.datatype.name} size {self.datatype.size}")

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
