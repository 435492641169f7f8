"""Swappable transport backends for the simulated fabric.

Selection precedence: an explicit ``transport=`` argument (or
``--transport`` CLI flag) wins, then the ``REPRO_TRANSPORT`` environment
variable, then the default ``inproc``.

================  =========================================================
``inproc``        Threads + shared objects (the seed semantics; every
                  baseline and every capability: faults, sanitizer,
                  cancel).
``shm``           One forked process per rank + shared-memory arenas;
                  PackPlans execute directly into the shared segment
                  (multi-core packing, zero bounce-buffer copy); frames on
                  pipes, read by the rank itself (no helper thread in a
                  rank process).  Faults yes, sanitizer no.
``asyncio``       The socket plane: threads + localhost socket pairs, read
                  by each rank thread itself, no event loop; every
                  envelope is framed through the portable codec (the
                  RPD810/811 portability proof).  Full capability, not a
                  perf plane.
================  =========================================================

Both remote backends share one frame plane (:mod:`.remote`): one channel
type, one frame loop per rank, run by the rank itself, and one rank
lifecycle; no backend starts a thread of its own.
"""

from __future__ import annotations

import os

from .base import Transport, TransportUnavailableError
from .envelope import assert_portable, decode_envelope, encode_envelope
from .inproc import InprocTransport
from .remote import PendingTable

__all__ = [
    "Transport", "TransportUnavailableError",
    "InprocTransport", "PendingTable",
    "assert_portable", "encode_envelope", "decode_envelope",
    "TRANSPORT_NAMES", "DEFAULT_TRANSPORT", "ENV_VAR",
    "available_transports", "create_transport", "resolve_transport_name",
]

#: Environment variable consulted when no explicit transport is given.
ENV_VAR = "REPRO_TRANSPORT"

DEFAULT_TRANSPORT = "inproc"

#: All registered backend names, in documentation order.
TRANSPORT_NAMES = ("inproc", "shm", "asyncio")


def _backend_class(name: str):
    if name == "inproc":
        return InprocTransport
    if name == "shm":
        from .shm import ShmTransport
        return ShmTransport
    if name == "asyncio":
        from .asyncio_ import AsyncioTransport
        return AsyncioTransport
    raise TransportUnavailableError(
        f"unknown transport {name!r}; available: "
        f"{', '.join(TRANSPORT_NAMES)}")


def available_transports() -> dict[str, str]:
    """Map of backend name -> "" (available) or the unavailability reason."""
    out = {}
    for name in TRANSPORT_NAMES:
        ok, why = _backend_class(name).available()
        out[name] = "" if ok else why
    return out


def resolve_transport_name(name: str | None = None) -> str:
    """Apply the selection precedence and validate the name."""
    if name is None:
        name = os.environ.get(ENV_VAR) or DEFAULT_TRANSPORT
    name = name.strip().lower()
    if name not in TRANSPORT_NAMES:
        raise TransportUnavailableError(
            f"unknown transport {name!r}; available: "
            f"{', '.join(TRANSPORT_NAMES)} "
            f"(set via transport=/--transport or ${ENV_VAR})")
    return name


def create_transport(name: str | None = None) -> Transport:
    """Instantiate one job's transport backend (validating availability)."""
    name = resolve_transport_name(name)
    cls = _backend_class(name)
    ok, why = cls.available()
    if not ok:
        raise TransportUnavailableError(
            f"transport '{name}' is unavailable on this platform: {why}; "
            f"available: "
            f"{', '.join(n for n, w in available_transports().items() if not w)}")
    return cls()
