"""Datatype introspection and marshalling.

Two MPI facilities the paper's ecosystem leans on:

* **Envelope/contents** (``MPI_Type_get_envelope`` /
  ``MPI_Type_get_contents``): recover how a derived type was constructed.
  Every constructor in :mod:`repro.core.derived` records its arguments, so
  :func:`get_envelope` and :func:`get_contents` reproduce the MPI queries.
  (Displacement-style parameters are always reported in *bytes*, also for
  the element-stride constructors.)

* **Marshalling** (Kimpe, Goodell, Ross — EuroMPI'10, the paper's ref [25]):
  serialize a datatype *description* to bytes so another process can
  reconstruct an equivalent type, plus the equivalence test that makes the
  roundtrip checkable.  :func:`marshal` / :func:`unmarshal` walk the
  constructor tree; :func:`equivalent` compares *typemaps* (the strong,
  layout-level notion of equivalence — two differently-constructed types
  with the same typemap are equivalent).

Custom (callback-driven) datatypes are code, not data, and cannot be
marshalled — attempting it raises, mirroring the fundamental asymmetry the
paper discusses between declarative and programmatic datatypes.
"""

from __future__ import annotations

import json
from typing import Any

from ..errors import TypeError_
from .datatype import PREDEFINED, Datatype, DerivedDatatype, PredefinedDatatype
from . import derived as _d

#: Constructor kinds that take a single base type.
_SINGLE_BASE = {"contiguous", "vector", "hvector", "indexed", "hindexed",
                "resized", "subarray", "dup"}

#: Format tag so future layout changes stay detectable.
_FORMAT = "repro-datatype-v1"


def get_envelope(dtype: Datatype) -> tuple[str, int]:
    """(combiner kind, number of input datatypes) — MPI_Type_get_envelope."""
    if isinstance(dtype, PredefinedDatatype):
        return "named", 0
    if isinstance(dtype, DerivedDatatype):
        return dtype.kind, len(dtype.children)
    raise TypeError_(f"{dtype.name}: custom datatypes have no envelope "
                     f"(they are defined by callbacks, not constructors)")


def get_contents(dtype: Datatype) -> tuple[dict[str, Any], tuple[Datatype, ...]]:
    """(constructor parameters, input datatypes) — MPI_Type_get_contents."""
    if isinstance(dtype, PredefinedDatatype):
        return {}, ()
    if isinstance(dtype, DerivedDatatype):
        return dict(dtype.params), tuple(dtype.children)
    raise TypeError_(f"{dtype.name}: custom datatypes have no contents")


def _describe(dtype: Datatype) -> dict[str, Any]:
    if isinstance(dtype, PredefinedDatatype):
        return {"kind": "named", "name": dtype.name}
    if isinstance(dtype, DerivedDatatype):
        return {"kind": dtype.kind,
                "params": dict(dtype.params),
                "children": [_describe(c) for c in dtype.children]}
    raise TypeError_(
        f"{dtype.name}: custom datatypes cannot be marshalled — their "
        f"behaviour lives in application callbacks")


def marshal(dtype: Datatype) -> bytes:
    """Serialize a (pre)derived datatype description to bytes."""
    return json.dumps({"format": _FORMAT, "type": _describe(dtype)},
                      sort_keys=True).encode()


def _rebuild(desc: dict[str, Any]) -> Datatype:
    kind = desc["kind"]
    if kind == "named":
        try:
            return PREDEFINED[desc["name"]]
        except KeyError:
            raise TypeError_(f"unknown predefined type {desc['name']!r}") from None
    children = [_rebuild(c) for c in desc.get("children", [])]
    p = desc.get("params", {})
    if kind == "contiguous":
        return _d.contiguous(p["count"], children[0])
    if kind in ("vector", "hvector"):
        return _d.hvector(p["count"], p["blocklength"], p["stride_bytes"],
                          children[0])
    if kind in ("indexed", "hindexed"):
        return _d.hindexed(p["blocklengths"], p["displacements"], children[0])
    if kind == "struct":
        return _d.create_struct(p["blocklengths"], p["displacements"], children)
    if kind == "resized":
        return _d.resized(children[0], p["lb"], p["extent"])
    if kind == "subarray":
        return _d.subarray(p["sizes"], p["subsizes"], p["starts"], children[0],
                           order=p.get("order", "C"))
    if kind == "dup":
        return _d.dup(children[0])
    raise TypeError_(f"cannot rebuild datatype kind {kind!r}")


def unmarshal(data: bytes) -> Datatype:
    """Reconstruct a datatype from :func:`marshal` output.

    The result is *equivalent* to the original (identical typemap); derived
    types are returned uncommitted.
    """
    try:
        doc = json.loads(bytes(data))
    except (ValueError, TypeError) as exc:
        raise TypeError_(f"malformed datatype description: {exc}") from None
    if doc.get("format") != _FORMAT:
        raise TypeError_(f"unsupported datatype format {doc.get('format')!r}")
    return _rebuild(doc["type"])


def equivalent(a: Datatype, b: Datatype) -> bool:
    """Layout-level datatype equivalence: identical typemaps.

    Stronger than MPI's signature equivalence (which ignores gaps): two
    types are equivalent here iff they pack/unpack identically for every
    buffer and carry the same scalars, i.e. same bounds, same merged runs
    in the same order and same signature — however each type splits its
    runs into blocks.
    """
    if a.is_custom or b.is_custom:
        raise TypeError_("custom datatypes have no typemap to compare")
    return a.typemap == b.typemap
