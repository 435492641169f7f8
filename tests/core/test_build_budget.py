"""The Python budget of building and compiling a datatype.

A derived datatype holds one block per declared run (``docs/performance.md``,
"Building and committing a datatype"), so a DDTBench-scale type costs its
run count in work, not its scalar count.  These tests count that work with
``sys.setprofile`` — deterministic, unlike wall time — and pin the block
counts that a return to one block per scalar would multiply.
"""

import sys

import pytest

from repro.core import FLOAT64, contiguous
from repro.core.packplan import PackPlan
from repro.ddtbench import make_workload
from repro.ddtbench.registry import WORKLOADS
from repro.types.structs import struct_simple_datatype, struct_vec_datatype

#: Python-level calls the LAMMPS ``hindexed`` build may take (6,144 runs;
#: about 18k at the time of writing, 1.5M with one block per scalar).
LAMMPS_BUILD_CALLS = 100_000
#: ... and a cold compile of its pack plan (about 37k; was 1.2M).
LAMMPS_COMPILE_CALLS = 150_000
#: ``struct_simple_datatype()``: every ``serve_jobs`` rank builds it per
#: job, so it must never cost more than it did with per-scalar blocks.
STRUCT_SIMPLE_CALLS = 139


def python_calls(fn):
    """``(Python-level calls, result)`` of ``fn()``."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return calls, result


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_ddtbench_type_has_one_block_per_run(name):
    w = make_workload(name)
    assert len(w.derived_datatype().typemap.blocks) == w.layout.run_count


def test_declared_runs_are_blocks():
    assert len(struct_vec_datatype().typemap.blocks) == 3
    assert len(contiguous(4096, FLOAT64).typemap.blocks) == 1


def test_lammps_build_and_compile_budget():
    w = make_workload("LAMMPS")
    calls, t = python_calls(w.derived_datatype)
    assert calls <= LAMMPS_BUILD_CALLS, calls
    calls, _ = python_calls(lambda: PackPlan(t.typemap))
    assert calls <= LAMMPS_COMPILE_CALLS, calls


def test_struct_simple_build_budget():
    struct_simple_datatype()  # first-call imports and caches
    calls, _ = python_calls(struct_simple_datatype)
    assert calls <= STRUCT_SIMPLE_CALLS, calls
