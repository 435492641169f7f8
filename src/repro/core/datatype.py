"""Datatype base classes and predefined types.

This mirrors the MPI taxonomy the paper works against:

* :class:`PredefinedDatatype` — ``MPI_BYTE``, ``MPI_INT32_T`` and friends,
  each mapped to a numpy dtype so buffers can be handled vectorized.
* :class:`DerivedDatatype` — built from a :class:`~repro.core.typemap.Typemap`
  by the constructors in :mod:`repro.core.derived`.
* The custom datatypes of the paper's new API live in
  :mod:`repro.core.custom` and also subclass :class:`Datatype`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .typemap import Typemap, scalar_typemap


class Datatype:
    """Base class of everything usable as an MPI datatype argument."""

    #: Human-readable name, e.g. ``"MPI_INT32_T"`` or ``"vector(4, 2, 8)"``.
    name: str = "MPI_DATATYPE_NULL"
    #: The pack plan bound on first use (``repro.core.typecache.bound_plan``);
    #: None until then, and again after ``clear_plan_cache()``.
    _plan = None

    @property
    def size(self) -> int:
        """Packed bytes per element (MPI_Type_size)."""
        raise NotImplementedError

    @property
    def extent(self) -> int:
        """Span in memory per element (MPI_Type_get_extent)."""
        raise NotImplementedError

    @property
    def lb(self) -> int:
        return 0

    @property
    def ub(self) -> int:
        return self.lb + self.extent

    @property
    def is_predefined(self) -> bool:
        return False

    @property
    def is_custom(self) -> bool:
        """True for the paper's new custom (callback-driven) datatypes."""
        return False

    @property
    def is_contiguous(self) -> bool:
        """True when pack is the identity and the engine may skip packing."""
        return False

    @property
    def typemap(self) -> Typemap:
        raise NotImplementedError

    def signature(self, count: int = 1) -> Optional[tuple]:
        """Canonical flattened type signature of ``count`` elements.

        Returns run-length ``(basic, n)`` pairs where ``basic`` is a numpy
        style scalar code (``"f8"``, ``"i4"``, ``"u1"``...), e.g.
        ``(("i4", 2), ("f8", 1))`` for a struct of two ints and a double.
        Displacements are erased, so two datatypes with equal signatures
        move the same scalar sequence regardless of layout — MPI's
        send/recv matching rule, used by the runtime sanitizer.  Custom
        (callback-driven) datatypes have no static signature and return
        ``None``.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        sig = self.typemap.signature()
        if count == 0 or not sig:
            return ()
        if count == 1:
            return sig
        if len(sig) == 1:
            code, n = sig[0]
            return ((code, n * count),)
        runs: list[list] = []
        for _ in range(count):
            for code, n in sig:
                if runs and runs[-1][0] == code:
                    runs[-1][1] += n
                else:
                    runs.append([code, n])
        return tuple((c, n) for c, n in runs)

    @property
    def shortname(self) -> str:
        """Compact provenance label used inside constructor names and
        analyzer diagnostics (``MPI_DOUBLE`` -> ``double``)."""
        return self.name

    def __getstate__(self) -> dict:
        # A bound plan is this process's cache entry, not part of the type:
        # a copy or an unpickled type binds its own on first use.
        state = self.__dict__.copy()
        state.pop("_plan", None)
        return state

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class PredefinedDatatype(Datatype):
    """A fixed-size scalar type with a numpy equivalent."""

    def __init__(self, name: str, np_dtype: Optional[np.dtype]):
        self.name = name
        #: numpy dtype for vectorized handling; None only for MPI_BYTE-like
        #: raw types (which use uint8).
        self.np_dtype = np.dtype(np_dtype) if np_dtype is not None else np.dtype(np.uint8)
        self._size = int(self.np_dtype.itemsize)
        #: numpy-style scalar code ("f8", "i4", ...), the signature atom.
        self.scalar_code = f"{self.np_dtype.kind}{self._size}"
        self._typemap = scalar_typemap(self._size, scalar=self.scalar_code)

    @property
    def size(self) -> int:
        return self._size

    @property
    def extent(self) -> int:
        return self._size

    @property
    def is_predefined(self) -> bool:
        return True

    @property
    def is_contiguous(self) -> bool:
        return True

    @property
    def typemap(self) -> Typemap:
        return self._typemap

    @property
    def shortname(self) -> str:
        """Lowercased C-style spelling: ``MPI_INT32_T`` -> ``int32``."""
        n = self.name
        if n.startswith("MPI_"):
            n = n[4:]
        if n.endswith("_T"):
            n = n[:-2]
        return n.lower()


class DerivedDatatype(Datatype):
    """A committed derived datatype wrapping a typemap.

    Parameters
    ----------
    tm:
        The composed typemap.
    kind:
        Constructor kind ("contiguous", "vector", ...) for introspection
        (the MPI envelope/contents queries).
    children:
        The base datatypes this type was built from.
    """

    def __init__(self, tm: Typemap, kind: str, name: str = "",
                 children: tuple[Datatype, ...] = (),
                 params: dict | None = None):
        self._tm = tm
        self.kind = kind
        self.name = name or f"{kind}(size={tm.size}, extent={tm.extent})"
        self.children = children
        #: Constructor arguments (MPI_Type_get_contents analogue); see
        #: :mod:`repro.core.introspect`.
        self.params = dict(params or {})
        self._committed = False

    @property
    def size(self) -> int:
        return self._tm.size

    @property
    def extent(self) -> int:
        return self._tm.extent

    @property
    def lb(self) -> int:
        return self._tm.lb

    @property
    def typemap(self) -> Typemap:
        return self._tm

    @property
    def is_contiguous(self) -> bool:
        return self._tm.is_contiguous

    @property
    def has_gaps(self) -> bool:
        return self._tm.has_gaps

    @property
    def nscalars(self) -> int:
        return self._tm.nscalars

    def commit(self) -> "DerivedDatatype":
        """MPI_Type_commit.  Idempotent; returns self for chaining."""
        self._committed = True
        return self

    @property
    def committed(self) -> bool:
        return self._committed


# --- predefined instances --------------------------------------------------

BYTE = PredefinedDatatype("MPI_BYTE", np.uint8)
CHAR = PredefinedDatatype("MPI_CHAR", np.int8)
INT8 = PredefinedDatatype("MPI_INT8_T", np.int8)
UINT8 = PredefinedDatatype("MPI_UINT8_T", np.uint8)
INT16 = PredefinedDatatype("MPI_INT16_T", np.int16)
UINT16 = PredefinedDatatype("MPI_UINT16_T", np.uint16)
INT32 = PredefinedDatatype("MPI_INT32_T", np.int32)
UINT32 = PredefinedDatatype("MPI_UINT32_T", np.uint32)
INT64 = PredefinedDatatype("MPI_INT64_T", np.int64)
UINT64 = PredefinedDatatype("MPI_UINT64_T", np.uint64)
FLOAT32 = PredefinedDatatype("MPI_FLOAT", np.float32)
FLOAT64 = PredefinedDatatype("MPI_DOUBLE", np.float64)
COMPLEX64 = PredefinedDatatype("MPI_C_FLOAT_COMPLEX", np.complex64)
COMPLEX128 = PredefinedDatatype("MPI_C_DOUBLE_COMPLEX", np.complex128)

#: All predefined datatypes by name.
PREDEFINED: dict[str, PredefinedDatatype] = {
    t.name: t
    for t in (BYTE, CHAR, INT8, UINT8, INT16, UINT16, INT32, UINT32,
              INT64, UINT64, FLOAT32, FLOAT64, COMPLEX64, COMPLEX128)
}

_NP_TO_PREDEFINED: dict[np.dtype, PredefinedDatatype] = {}
for _t in (INT8, UINT8, INT16, UINT16, INT32, UINT32, INT64, UINT64,
           FLOAT32, FLOAT64, COMPLEX64, COMPLEX128):
    _NP_TO_PREDEFINED.setdefault(_t.np_dtype, _t)


def from_numpy_dtype(dt: np.dtype | str) -> PredefinedDatatype:
    """Map a scalar numpy dtype to the matching predefined MPI type."""
    dt = np.dtype(dt)
    try:
        return _NP_TO_PREDEFINED[dt]
    except KeyError:
        raise KeyError(f"no predefined MPI datatype for numpy dtype {dt!r}") from None
