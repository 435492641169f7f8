"""High-level custom-datatype construction from declarative field specs.

RSMPI generates MPI type-creation calls from ``#[derive]`` procedural macros
on struct definitions; the paper notes that an extended Rust MPI "may
implement macros to automatically generate manual packing".  This module is
the Python analogue: describe a struct once with :class:`Field` entries and
:class:`StructSpec` derives all seven custom-datatype callbacks —

* scalar fields and small/forced-inline arrays are *packed* (gathered into
  the in-band stream),
* large fixed arrays are exposed as *memory regions* (zero-copy),
* dynamic arrays additionally put their lengths into the packed stream so
  the receive side can allocate before its regions are queried — exactly the
  two-stage choreography of Section III.

Objects are plain Python instances with one attribute per field (scalars as
numbers, arrays as 1-D numpy arrays).  ``count > 1`` sends a sequence of
such objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from ..errors import CallbackError
from .custom import CustomDatatype, type_create_custom
from .datatype import from_numpy_dtype
from .regions import Region

#: Arrays at least this large default to the region (zero-copy) path.
DEFAULT_REGION_THRESHOLD = 512

#: numpy dtype of the in-band length headers for dynamic fields.
_LEN_DTYPE = np.dtype("<i8")


@dataclass(frozen=True)
class Field:
    """One struct field.

    Parameters
    ----------
    name:
        Attribute name on the Python object.
    dtype:
        numpy scalar dtype of the field's elements.
    shape:
        ``None`` for a scalar, an ``int`` for a fixed-length 1-D array, or
        the string ``"dynamic"`` for a variable-length 1-D array whose
        length travels in the packed stream.
    region:
        Force the array onto (True) or off (False) the zero-copy region
        path; ``None`` picks by size against the spec threshold.  Scalars
        are always packed.
    """

    name: str
    dtype: str | np.dtype
    shape: int | str | None = None
    region: bool | None = None

    def __post_init__(self):
        object.__setattr__(self, "dtype", np.dtype(self.dtype))
        if isinstance(self.shape, str) and self.shape != "dynamic":
            raise ValueError(f"shape must be None, an int, or 'dynamic', got {self.shape!r}")
        if isinstance(self.shape, int) and self.shape < 0:
            raise ValueError(f"negative fixed shape {self.shape}")
        if self.shape is None and self.region:
            raise ValueError(f"scalar field {self.name!r} cannot be a region")

    @property
    def is_scalar(self) -> bool:
        return self.shape is None

    @property
    def is_dynamic(self) -> bool:
        return self.shape == "dynamic"

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize


class StructSpec:
    """A declarative struct description deriving custom-type callbacks."""

    def __init__(self, fields: Sequence[Field], name: str = "struct",
                 region_threshold: int = DEFAULT_REGION_THRESHOLD):
        if not fields:
            raise ValueError("StructSpec needs at least one field")
        names = [f.name for f in fields]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate field names in {names}")
        self.fields = tuple(fields)
        self.name = name
        self.region_threshold = region_threshold

    # -- classification ---------------------------------------------------

    def _field_is_region(self, f: Field, nbytes: int) -> bool:
        if f.is_scalar:
            return False
        if f.region is not None:
            return f.region
        return nbytes >= self.region_threshold

    def _objs(self, buf: Any, count: int) -> list[Any]:
        if count == 1 and not isinstance(buf, (list, tuple)):
            return [buf]
        objs = list(buf)
        if len(objs) < count:
            raise CallbackError(
                f"buffer holds {len(objs)} objects, count is {count}")
        return objs[:count]

    def _array(self, obj: Any, f: Field) -> np.ndarray:
        arr = getattr(obj, f.name, None)
        if arr is None and isinstance(f.shape, int):
            # Receive side of a fixed-shape region field: allocate the
            # destination on first touch.
            arr = np.empty(f.shape, dtype=f.dtype)
            setattr(obj, f.name, arr)
        arr = np.ascontiguousarray(arr, dtype=f.dtype)
        if arr.ndim != 1:
            arr = arr.reshape(-1)
        if isinstance(f.shape, int) and arr.shape[0] != f.shape:
            raise CallbackError(
                f"field {f.name!r} expected length {f.shape}, got {arr.shape[0]}")
        return arr

    # -- send-side layout ---------------------------------------------------

    def _packed_parts(self, obj: Any) -> list[np.ndarray]:
        """In-band byte chunks of one object, in field order."""
        parts: list[np.ndarray] = []
        for f in self.fields:
            if f.is_scalar:
                parts.append(np.asarray(getattr(obj, f.name), dtype=f.dtype)
                             .reshape(1).view(np.uint8))
                continue
            arr = self._array(obj, f)
            nbytes = arr.nbytes
            if f.is_dynamic:
                parts.append(np.asarray(arr.shape[0], dtype=_LEN_DTYPE)
                             .reshape(1).view(np.uint8))
            if not self._field_is_region(f, nbytes):
                parts.append(arr.view(np.uint8).reshape(-1))
        return parts

    def _send_regions(self, obj: Any) -> list[Region]:
        regs: list[Region] = []
        for f in self.fields:
            if f.is_scalar:
                continue
            arr = self._array(obj, f)
            if self._field_is_region(f, arr.nbytes):
                regs.append(Region(arr, datatype=from_numpy_dtype(f.dtype)))
        return regs

    # -- derived callbacks --------------------------------------------------

    def custom_datatype(self, inorder: bool = False) -> CustomDatatype:
        """Derive the custom datatype for this spec."""
        spec = self

        class _State:
            """Per-operation cache of the in-band stream (send) or the
            incremental parse position (recv)."""

            __slots__ = ("packed", "cursor", "filled", "objs")

            def __init__(self):
                self.packed: np.ndarray | None = None
                self.cursor = 0
                self.filled = 0
                self.objs: list[Any] | None = None

        def state_fn(context, buf, count):
            return _State()

        def state_free_fn(state):
            state.packed = None

        def _ensure_packed(state: _State, buf, count) -> np.ndarray:
            if state.packed is None:
                objs = spec._objs(buf, count)
                parts: list[np.ndarray] = []
                for o in objs:
                    parts.extend(spec._packed_parts(o))
                state.packed = (np.concatenate(parts) if parts
                                else np.empty(0, dtype=np.uint8))
            return state.packed

        def query_fn(state, buf, count):
            return int(_ensure_packed(state, buf, count).shape[0])

        def pack_fn(state, buf, count, offset, dst):
            packed = _ensure_packed(state, buf, count)
            step = min(dst.shape[0], packed.shape[0] - offset)
            dst[:step] = packed[offset:offset + step]
            return int(step)

        def unpack_fn(state, buf, count, offset, src):
            # Accumulate fragments; whenever they cover the stream without a
            # hole up to the highest byte seen, attempt a parse.  The stream
            # is self-delimiting (field sizes are known, dynamic lengths are
            # in-band), so the parse succeeds exactly when the full stream
            # has arrived and raises on a short one, to be retried on a
            # later fragment.  Fragments may arrive at arbitrary offsets, so
            # this derivation tolerates out-of-order delivery; the engine's
            # one whole-stream window costs one parse.
            if state.packed is None:
                state.packed = np.zeros(0, dtype=np.uint8)
            end = offset + src.shape[0]
            if end > state.packed.shape[0]:
                grown = np.zeros(end, dtype=np.uint8)
                grown[: state.packed.shape[0]] = state.packed
                state.packed = grown
            state.packed[offset:end] = src
            state.cursor = max(state.cursor, end)
            state.filled += src.shape[0]
            if state.filled < state.cursor:
                return  # a hole: earlier bytes are still on their way
            try:
                _parse(state, buf, count)
            except Exception:
                state.objs = None  # incomplete; retry later

        def _parse(state: _State, buf, count) -> list[Any]:
            """Decode the accumulated stream into the receive objects."""
            if state.objs is not None:
                return state.objs
            objs = spec._objs(buf, count)
            data = state.packed if state.packed is not None else np.empty(0, np.uint8)
            pos = 0

            def take(nbytes: int) -> np.ndarray:
                nonlocal pos
                if pos + nbytes > data.shape[0]:
                    raise CallbackError(
                        f"packed stream of {data.shape[0]} bytes ends inside "
                        f"a {nbytes}-byte field at offset {pos}")
                pos += nbytes
                return data[pos - nbytes:pos]

            for o in objs:
                for f in spec.fields:
                    if f.is_scalar:
                        val = take(f.itemsize).view(f.dtype)[0]
                        setattr(o, f.name, f.dtype.type(val))
                        continue
                    if f.is_dynamic:
                        ln = int(take(_LEN_DTYPE.itemsize).view(_LEN_DTYPE)[0])
                    else:
                        ln = int(f.shape)
                    nbytes = ln * f.itemsize
                    if spec._field_is_region(f, nbytes):
                        # Allocate the destination now; the region pass fills it.
                        setattr(o, f.name, np.empty(ln, dtype=f.dtype))
                    else:
                        setattr(o, f.name, take(nbytes).copy().view(f.dtype))
            state.objs = objs
            return objs

        def region_count_fn(state, buf, count):
            if state.packed is not None and state.objs is None and state.cursor:
                # Receive side: parse the stream before exposing regions.
                _parse(state, buf, count)
            if state.objs is not None:
                objs = state.objs
            else:
                objs = spec._objs(buf, count)
                _ensure_packed(state, buf, count)
            return sum(len(spec._send_regions(o)) for o in objs)

        def region_fn(state, buf, count, region_count):
            objs = state.objs if state.objs is not None else spec._objs(buf, count)
            regs: list[Region] = []
            for o in objs:
                regs.extend(spec._send_regions(o))
            return regs

        return type_create_custom(
            query_fn=query_fn, pack_fn=pack_fn, unpack_fn=unpack_fn,
            region_count_fn=region_count_fn, region_fn=region_fn,
            state_fn=state_fn, state_free_fn=state_free_fn,
            inorder=inorder, name=f"custom:{spec.name}")
