"""The custom datatype API — the paper's primary contribution.

:func:`type_create_custom` is the Python rendering of the paper's
``MPI_Type_create_custom`` (Listing 2): it binds the seven application
callbacks plus a context and the ``inorder`` flag into a
:class:`CustomDatatype` usable anywhere a datatype argument is accepted.

The module also hosts the two *operation drivers* that implement the staged
callback choreography of Section III:

* :class:`CustomSendOperation` — allocate state, query the packed size, pack
  fragment by fragment, then extract memory regions;
* :class:`CustomRecvOperation` — allocate state, unpack each incoming
  fragment (in order by default), and only then ask the receive side for its
  regions (so region placement may depend on just-unpacked metadata, which is
  exactly what the pickle-5 out-of-band strategy needs).

The drivers move real bytes and count real callback invocations
(``ncallbacks``).  The pack loop fills *one* buffer: every fragment is a view
of it and nothing is allocated per fragment, so the engine can hand it a
pooled wire buffer and offer ``pack_fn`` the whole stream as one window while
unit tests drive any window size through the same loop.  What the network
model charges is :mod:`repro.mpi.engine`'s business: it swaps the real
pack/unpack calls for the modelled ``frag_size`` grid.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from ..errors import CallbackError, MPI_ERR_COUNT, MPI_ERR_TYPE, MPIError
from .callbacks import (CallbackSet, OperationState, PackFn, QueryFn,
                        RegionCountFn, RegionFn, StateFn, StateFreeFn,
                        UnpackFn, invoke)
from .datatype import Datatype
from .regions import Region, region_lengths


class CustomDatatype(Datatype):
    """A datatype whose packing is driven by application callbacks.

    Create with :func:`type_create_custom`; the constructor accepts the same
    arguments directly.
    """

    def __init__(self, callbacks: CallbackSet, inorder: bool = False,
                 name: str = "custom"):
        self.callbacks = callbacks
        #: When True the application requires fragments to be packed and
        #: unpacked in increasing-offset order, inhibiting out-of-order
        #: transport optimizations (Listing 2's ``inorder`` flag).
        self.inorder = bool(inorder)
        self.name = name

    @property
    def is_custom(self) -> bool:
        return True

    @property
    def size(self) -> int:
        raise MPIError(MPI_ERR_TYPE,
                       "custom datatypes have no static size; the packed size "
                       "is per-buffer (query callback)")

    @property
    def extent(self) -> int:
        raise MPIError(MPI_ERR_TYPE, "custom datatypes have no static extent")

    @property
    def typemap(self):
        raise MPIError(MPI_ERR_TYPE, "custom datatypes have no typemap")

    def signature(self, count: int = 1):
        """Custom datatypes serialize per-buffer; no static signature."""
        return None


def type_create_custom(query_fn: QueryFn,
                       pack_fn: Optional[PackFn] = None,
                       unpack_fn: Optional[UnpackFn] = None,
                       region_count_fn: Optional[RegionCountFn] = None,
                       region_fn: Optional[RegionFn] = None,
                       state_fn: Optional[StateFn] = None,
                       state_free_fn: Optional[StateFreeFn] = None,
                       context: Any = None,
                       inorder: bool = False,
                       name: str = "custom") -> CustomDatatype:
    """Create a custom datatype (the paper's ``MPI_Type_create_custom``).

    Parameters mirror Listing 2, with C out-parameters turned into return
    values (see :mod:`repro.core.callbacks` for each signature).
    """
    cb = CallbackSet(query_fn=query_fn, pack_fn=pack_fn, unpack_fn=unpack_fn,
                     region_count_fn=region_count_fn, region_fn=region_fn,
                     state_fn=state_fn, state_free_fn=state_free_fn,
                     context=context)
    return CustomDatatype(cb, inorder=inorder, name=name)


class CustomSendOperation:
    """Send-side driver: state -> query -> pack loop -> regions.

    Use as a context manager so the state-free callback always runs::

        with CustomSendOperation(dtype, buf, count) as op:
            frags = op.pack_fragments(frag_size)
            regions = op.regions()
    """

    def __init__(self, dtype: CustomDatatype, buf: Any, count: int):
        if count < 0:
            raise MPIError(MPI_ERR_COUNT, f"negative count {count}")
        self.dtype = dtype
        self.buf = buf
        self.count = count
        self._op_state = OperationState(dtype.callbacks, buf, count)
        self.ncallbacks = 0  # accounting for the cost model
        self._packed_size: int | None = None

    def __enter__(self) -> "CustomSendOperation":
        self._op_state.__enter__()
        if self.dtype.callbacks.state_fn is not None:
            self.ncallbacks += 1
        return self

    def __exit__(self, *exc_info) -> None:
        if self.dtype.callbacks.state_free_fn is not None:
            self.ncallbacks += 1
        self._op_state.__exit__(*exc_info)

    @property
    def state(self) -> Any:
        return self._op_state.state

    def packed_size(self) -> int:
        """Invoke the query callback (cached for the operation)."""
        if self._packed_size is None:
            cb = self.dtype.callbacks
            n = invoke("query_fn", cb.query_fn, self.state, self.buf, self.count)
            self.ncallbacks += 1
            if not isinstance(n, int) or n < 0:
                raise CallbackError(f"query_fn must return a non-negative int, got {n!r}")
            self._packed_size = n
        return self._packed_size

    def pack_fragments(self, frag_size: int,
                       out: np.ndarray | None = None) -> list[np.ndarray]:
        """Run the pack loop; returns the packed fragments in order.

        The stream is packed into one buffer of ``packed_size()`` bytes —
        ``out`` when given (the engine's pooled wire buffer), else a fresh
        one — and every fragment is a view of it.  ``frag_size`` caps the
        window each ``pack_fn`` call is offered: the engine offers the
        whole stream, tests any grid.  The pack callback may fill its window
        only partially (the paper allows postponing data that does not align
        with the fragment size), in which case the fragment is trimmed and
        the next window starts right behind it, so the fragments laid end to
        end are always ``out[:packed_size()]``.  A pack callback that makes
        no progress is an error (would loop forever).
        """
        if frag_size <= 0:
            raise MPIError(MPI_ERR_COUNT, f"fragment size must be positive, got {frag_size}")
        total = self.packed_size()
        cb = self.dtype.callbacks
        if total > 0 and cb.pack_fn is None:
            raise CallbackError(
                f"type {self.dtype.name!r} reports packed_size={total} but has no pack_fn")
        if out is None:
            out = np.empty(total, dtype=np.uint8)
        elif out.shape[0] < total:
            raise MPIError(MPI_ERR_COUNT,
                           f"{out.shape[0]}-byte buffer for a {total}-byte packed stream")
        frags: list[np.ndarray] = []
        offset = 0
        while offset < total:
            dst = out[offset:offset + min(frag_size, total - offset)]
            used = invoke("pack_fn", cb.pack_fn, self.state, self.buf,
                          self.count, offset, dst)
            self.ncallbacks += 1
            if not isinstance(used, int) or used < 0 or used > dst.shape[0]:
                raise CallbackError(
                    f"pack_fn returned invalid used={used!r} for a {dst.shape[0]}-byte fragment")
            if used == 0:
                raise CallbackError("pack_fn made no progress (used == 0)")
            frags.append(dst[:used])
            offset += used
        return frags

    def regions(self) -> list[Region]:
        """Invoke the region pair; returns [] for pack-only types."""
        cb = self.dtype.callbacks
        if not cb.has_regions:
            return []
        n = invoke("region_count_fn", cb.region_count_fn, self.state,
                   self.buf, self.count)
        self.ncallbacks += 1
        if not isinstance(n, int) or n < 0:
            raise CallbackError(f"region_count_fn must return a non-negative int, got {n!r}")
        if n == 0:
            return []
        regs = invoke("region_fn", cb.region_fn, self.state, self.buf,
                      self.count, n)
        self.ncallbacks += 1
        regs = list(regs)
        if len(regs) != n:
            raise CallbackError(
                f"region_fn returned {len(regs)} regions, region_count_fn promised {n}")
        for i, r in enumerate(regs):
            if not isinstance(r, Region):
                raise CallbackError(f"region_fn entry {i} is not a Region: {r!r}")
        return regs


class CustomRecvOperation:
    """Receive-side driver: state -> unpack loop -> regions.

    Fragments are delivered via :meth:`unpack_fragment`; the engine delivers
    the packed stream as the one chunk it arrived in (our prototype, like
    the paper's, always provides in-order unpacking; out-of-order delivery
    of ``frag_size`` slices is exercised by the ``inorder`` ablation).
    :meth:`recv_regions` must only be called after all packed data is
    unpacked — region placement may depend on it.
    """

    def __init__(self, dtype: CustomDatatype, buf: Any, count: int):
        if count < 0:
            raise MPIError(MPI_ERR_COUNT, f"negative count {count}")
        self.dtype = dtype
        self.buf = buf
        self.count = count
        self._op_state = OperationState(dtype.callbacks, buf, count)
        self.ncallbacks = 0
        self.bytes_unpacked = 0

    def __enter__(self) -> "CustomRecvOperation":
        self._op_state.__enter__()
        if self.dtype.callbacks.state_fn is not None:
            self.ncallbacks += 1
        return self

    def __exit__(self, *exc_info) -> None:
        if self.dtype.callbacks.state_free_fn is not None:
            self.ncallbacks += 1
        self._op_state.__exit__(*exc_info)

    @property
    def state(self) -> Any:
        return self._op_state.state

    def expected_packed_size(self) -> int:
        """Ask the receive side's query callback for its packed size.

        The engine validates this against the incoming wire header; a
        mismatch is a truncation-style error.  Receivers whose packed size
        cannot be known before data arrives (e.g. pickle deserialization —
        the limitation the paper's Section VI discusses) may return ``None``
        from the query callback, reported here as ``-1``, in which case the
        engine trusts the wire header.
        """
        cb = self.dtype.callbacks
        n = invoke("query_fn", cb.query_fn, self.state, self.buf, self.count)
        self.ncallbacks += 1
        if n is None:
            return -1
        if not isinstance(n, int) or n < 0:
            raise CallbackError(f"query_fn must return a non-negative int or None, got {n!r}")
        return n

    def unpack_fragment(self, offset: int, frag) -> None:
        """Deliver one packed fragment at its virtual offset."""
        cb = self.dtype.callbacks
        if cb.unpack_fn is None:
            raise CallbackError(
                f"type {self.dtype.name!r} received packed data but has no unpack_fn")
        frag = np.asarray(frag, dtype=np.uint8)
        invoke("unpack_fn", cb.unpack_fn, self.state, self.buf, self.count,
               offset, frag)
        self.ncallbacks += 1
        self.bytes_unpacked += frag.shape[0]

    def recv_regions(self, expected_lengths: Sequence[int],
                     maybe_none: bool = False) -> list[Region]:
        """Obtain writable receive regions and validate their lengths.

        ``expected_lengths`` comes from the wire header (the engine-internal
        answer to the paper's "receive side must know the exact length of
        individual components" limitation).  ``maybe_none``: it is ``[0]``
        from a message that cannot tell one empty region from none (one
        0-byte CONTIG entry stands for both), so the receiver's own count
        decides — zero bytes move either way.
        """
        cb = self.dtype.callbacks
        if not expected_lengths or (maybe_none and not cb.has_regions):
            return []
        if not cb.has_regions:
            raise CallbackError(
                f"incoming message carries {len(expected_lengths)} regions but "
                f"type {self.dtype.name!r} has no region callbacks")
        n = invoke("region_count_fn", cb.region_count_fn, self.state,
                   self.buf, self.count)
        self.ncallbacks += 1
        if maybe_none and n == 0:
            return []
        if n != len(expected_lengths):
            raise MPIError(
                MPI_ERR_TYPE,
                f"receive side reports {n} regions, sender sent {len(expected_lengths)}")
        regs = list(invoke("region_fn", cb.region_fn, self.state, self.buf,
                           self.count, n))
        self.ncallbacks += 1
        if len(regs) != n:
            raise CallbackError(
                f"region_fn returned {len(regs)} regions, region_count_fn promised {n}")
        for reg, expected in zip(regs, expected_lengths):
            if reg.nbytes != expected:
                raise MPIError(
                    MPI_ERR_TYPE,
                    f"region length mismatch: sender {list(expected_lengths)}, "
                    f"receiver {region_lengths(regs)}")
        return regs


def pack_all(dtype: CustomDatatype, buf: Any, count: int,
             frag_size: int = 8192) -> tuple[bytes, list[Region]]:
    """Convenience/testing helper: run a full send-side pass.

    Returns the concatenated packed stream and the region list.
    """
    with CustomSendOperation(dtype, buf, count) as op:
        frags = op.pack_fragments(frag_size)
        regions = op.regions()
    packed = b"".join(bytes(f) for f in frags)
    return packed, regions


def unpack_all(dtype: CustomDatatype, buf: Any, count: int, packed: bytes,
               region_data: Sequence[bytes] = (),
               frag_size: int = 8192) -> None:
    """Convenience/testing helper: run a full receive-side pass.

    Splits ``packed`` into fragments, delivers them in order, then copies
    ``region_data`` into the receiver's regions.
    """
    with CustomRecvOperation(dtype, buf, count) as op:
        offset = 0
        data = memoryview(packed)
        while offset < len(data):
            step = min(frag_size, len(data) - offset)
            op.unpack_fragment(offset, np.frombuffer(data[offset:offset + step],
                                                     dtype=np.uint8))
            offset += step
        regs = op.recv_regions([len(d) for d in region_data])
        for reg, payload in zip(regs, region_data):
            reg.writable_view()[: reg.nbytes] = np.frombuffer(payload, dtype=np.uint8)
