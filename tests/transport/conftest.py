"""Transport conformance fixtures.

The matrix contract: a job is a pure function of (program, config, seed) —
the backend may change how bytes move, never what arrives or when in
virtual time.  ``run_matrix`` runs one job on every practicable backend
and asserts results, clocks and message traces are identical to inproc.
"""

from __future__ import annotations

import pytest

from repro.mpi.runtime import run
from repro.ucp.transport import TRANSPORT_NAMES, available_transports

_AVAILABLE = available_transports()


def require_backend(name: str) -> None:
    """Skip (with the platform's reason) when a backend can't run here."""
    reason = _AVAILABLE.get(name)
    if reason:
        pytest.skip(f"transport '{name}' unavailable: {reason}")


@pytest.fixture(params=TRANSPORT_NAMES)
def backend(request) -> str:
    """Every registered backend, skipping unavailable ones with a reason."""
    require_backend(request.param)
    return request.param


@pytest.fixture(params=[n for n in TRANSPORT_NAMES if n != "inproc"])
def remote_backend(request) -> str:
    """The process/socket-boundary backends only."""
    require_backend(request.param)
    return request.param


def run_matrix(fn, nprocs: int, backends=TRANSPORT_NAMES, **kwargs) -> dict:
    """Run one job per backend; assert observables match inproc exactly.

    Returns ``{backend: JobResult}`` (unavailable backends omitted).
    Traces are compared event-for-event — virtual-time identity is the
    strong form of the conformance contract, byte-identical results the
    weak one — and every rank must end with the books inproc ends with.
    """
    results = {}
    for name in backends:
        if _AVAILABLE.get(name):
            continue
        results[name] = run(fn, nprocs=nprocs, transport=name,
                            trace_messages=True, **kwargs)
    ref = results["inproc"]
    for name, got in results.items():
        if name == "inproc":
            continue
        assert got.results == ref.results, \
            f"{name}: results diverge from inproc"
        assert got.clocks == ref.clocks, \
            f"{name}: virtual clocks diverge from inproc"
        assert got.crashed == ref.crashed, \
            f"{name}: crash accounting diverges from inproc"
        assert got.traces == ref.traces, \
            f"{name}: message traces diverge from inproc"
        assert books(got) == books(ref), \
            f"{name}: pool outstanding / live bytes diverge from inproc"
    return results


def books(result) -> list[tuple[int, int]]:
    """Per rank: (pool buffers outstanding, tracker live bytes)."""
    return [(m["pool"]["outstanding"], m["live_bytes"])
            for m in result.memory]
