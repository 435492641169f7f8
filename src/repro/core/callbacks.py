"""Callback protocols and lifecycle for the custom datatype API.

These are the Python equivalents of the C function typedefs in the paper's
Listings 3-5.  The translation rules, applied uniformly:

* C out-parameters become return values (``packed_size``, ``used``,
  ``region_count``, the region arrays).
* The C ``int`` error-code return becomes an exception; any exception raised
  by a callback is wrapped in :class:`~repro.errors.CallbackError` so the
  engine can abort the operation cleanly (the paper: "Errors are propagated
  through return values ... Error handling is crucial for serialization
  libraries that can fail in the case of invalid data").
* ``void *state`` is an arbitrary Python object returned by the state
  callback and threaded through every subsequent call.
* Destination/source fragment buffers are writable/readonly ``memoryview``-
  compatible numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from ..errors import CallbackError
from .regions import Region


@runtime_checkable
class StateFn(Protocol):
    """``MPI_Type_custom_state_function`` (Listing 3).

    Called once per MPI operation touching a custom-type buffer; returns the
    per-operation state object (may be ``None`` for stateless types).
    """

    def __call__(self, context: Any, buf: Any, count: int) -> Any: ...


@runtime_checkable
class StateFreeFn(Protocol):
    """``MPI_Type_custom_state_free_function`` (Listing 3)."""

    def __call__(self, state: Any) -> None: ...


@runtime_checkable
class QueryFn(Protocol):
    """``MPI_Type_custom_query_function`` (Listing 4): total packed bytes."""

    def __call__(self, state: Any, buf: Any, count: int) -> int: ...


@runtime_checkable
class PackFn(Protocol):
    """``MPI_Type_custom_pack_function`` (Listing 4).

    Pack bytes starting at virtual ``offset`` of the packed stream into
    ``dst`` (a writable uint8 numpy view); return the number of bytes
    written.  Partial fills are allowed — the engine calls again with the
    advanced offset and the window right behind what was written.  The
    window is never longer than what is left of the stream and may be all
    of it: the engine offers the whole packed stream in one call.

    ``dst`` arrives **dirty**: it is pool memory (the message's wire buffer,
    as ``GenericData.entries`` hands out), not zeroed.  Every byte the
    returned ``used`` claims goes on the wire, so a byte claimed but not
    written is the callback's bug.
    """

    def __call__(self, state: Any, buf: Any, count: int, offset: int,
                 dst: Any) -> int: ...


@runtime_checkable
class UnpackFn(Protocol):
    """``MPI_Type_custom_unpack_function`` (Listing 4).

    Consume one incoming fragment ``src`` located at virtual ``offset`` of
    the packed stream.  The engine delivers the whole packed stream as one
    fragment (the ``ooo_fragments`` ablation: ``frag_size`` slices of it).

    Lifetime: ``src`` is the transport's memory (a wire chunk, on ``shm`` a
    view into the *sender's* arena) and is valid only during the call — the
    paper's C contract.  Copy what you keep; the buffer is reused as soon
    as the message is delivered, on every backend.
    """

    def __call__(self, state: Any, buf: Any, count: int, offset: int,
                 src: Any) -> None: ...


@runtime_checkable
class RegionCountFn(Protocol):
    """``MPI_Type_custom_region_count_function`` (Listing 5)."""

    def __call__(self, state: Any, buf: Any, count: int) -> int: ...


@runtime_checkable
class RegionFn(Protocol):
    """``MPI_Type_custom_region_function`` (Listing 5).

    Returns the list of :class:`~repro.core.regions.Region`; its length must
    equal the preceding region-count answer.
    """

    def __call__(self, state: Any, buf: Any, count: int,
                 region_count: int) -> Sequence[Region]: ...


@dataclass(frozen=True)
class CallbackSet:
    """The seven callbacks plus context, as passed to type creation.

    Only ``query_fn`` is mandatory.  ``pack_fn``/``unpack_fn`` are required
    whenever the query can report a nonzero packed size; the region pair is
    required for types exposing memory regions.  Validation of these
    conditional requirements happens at operation time (the engine cannot
    know the query's answer earlier).
    """

    query_fn: QueryFn
    pack_fn: Optional[PackFn] = None
    unpack_fn: Optional[UnpackFn] = None
    region_count_fn: Optional[RegionCountFn] = None
    region_fn: Optional[RegionFn] = None
    state_fn: Optional[StateFn] = None
    state_free_fn: Optional[StateFreeFn] = None
    context: Any = None

    def __post_init__(self):
        if self.query_fn is None:
            raise TypeError("query_fn is required")
        if not callable(self.query_fn):
            raise TypeError("query_fn must be callable")
        for name in ("pack_fn", "unpack_fn", "region_count_fn", "region_fn",
                     "state_fn", "state_free_fn"):
            fn = getattr(self, name)
            if fn is not None and not callable(fn):
                raise TypeError(f"{name} must be callable or None")
        if (self.region_count_fn is None) != (self.region_fn is None):
            raise TypeError("region_count_fn and region_fn must be provided together")

    @property
    def has_regions(self) -> bool:
        return self.region_fn is not None


def invoke(name: str, fn: Callable, *args):
    """Call a user callback, translating failures into CallbackError."""
    try:
        return fn(*args)
    except CallbackError:
        raise
    except Exception as exc:  # serializers can raise anything
        raise CallbackError(f"custom-datatype callback {name!r} failed", cause=exc)


class OperationState:
    """Lifecycle manager for the per-operation state object.

    Mirrors the paper's rule that the state is allocated when an MPI
    operation first touches the buffer and freed when the operation
    completes.  Usable as a context manager so the free callback runs even
    when a later callback fails.
    """

    def __init__(self, callbacks: CallbackSet, buf: Any, count: int):
        self._cb = callbacks
        self.buf = buf
        self.count = count
        self.state: Any = None
        self._alive = False

    def __enter__(self) -> "OperationState":
        if self._cb.state_fn is not None:
            self.state = invoke("state_fn", self._cb.state_fn,
                                self._cb.context, self.buf, self.count)
        self._alive = True
        return self

    def __exit__(self, *exc_info) -> None:
        if self._alive and self._cb.state_free_fn is not None:
            self._alive = False
            invoke("state_free_fn", self._cb.state_free_fn, self.state)
        else:
            self._alive = False


class _Staging:
    """Per-operation staging of a whole packed stream (sub-stream windows)."""

    __slots__ = ("packed", "filled")

    def __init__(self):
        self.packed: np.ndarray | None = None
        self.filled = 0


def whole_stream_callbacks(packed_size: Callable[[Any, int], int],
                           pack_whole: Callable[[Any, int, Any], Any],
                           unpack_whole: Callable[[Any, Any, int], Any]):
    """``(state_fn, pack_fn, unpack_fn)`` for a type whose kernels move the
    whole packed stream at once.

    ``packed_size(buf, count)`` is the stream length, ``pack_whole(buf,
    count, out)`` fills exactly that many bytes of ``out`` and
    ``unpack_whole(src, buf, count)`` consumes them.  A window that covers
    the stream — what the engine offers — is packed into and unpacked out of
    directly, with no intermediate.  Only sub-stream windows (a test driving
    a fragment grid, the out-of-order ablation) stage the stream in the
    per-operation state: the pack side doles it out, the unpack side scatters
    once every byte has arrived, in whatever order.
    """

    def state_fn(context, buf, count):
        return _Staging()

    def pack_fn(state, buf, count, offset, dst):
        total = packed_size(buf, count)
        if offset == 0 and dst.shape[0] >= total:
            pack_whole(buf, count, dst[:total])
            return total
        if state.packed is None:
            state.packed = np.empty(total, dtype=np.uint8)
            pack_whole(buf, count, state.packed)
        step = min(dst.shape[0], total - offset)
        dst[:step] = state.packed[offset:offset + step]
        return step

    def unpack_fn(state, buf, count, offset, src):
        total = packed_size(buf, count)
        if offset == 0 and src.shape[0] >= total:
            unpack_whole(src[:total], buf, count)
            return
        if state.packed is None:
            state.packed = np.empty(total, dtype=np.uint8)
        state.packed[offset:offset + src.shape[0]] = src
        state.filled += src.shape[0]
        if state.filled >= total:
            unpack_whole(state.packed, buf, count)

    return state_fn, pack_fn, unpack_fn
