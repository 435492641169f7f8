"""``RunLayout.gather``/``scatter`` — the layout's pack plan — against a
byte-index implementation (kept here as the reference), on every registry
workload: from NAS_LU_x's single copy over MILC's one strided copy to
LAMMPS_full's 4-byte-lane gather.  And the rule that makes the differential
worth having: one plan per layout, whichever way the layout is spelled."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import clear_plan_cache, pack_plan, plan_cache_info
from repro.ddtbench.base import RunLayout
from repro.ddtbench.registry import WORKLOADS, all_workloads, make_workload


def _byte_index(layout: RunLayout):
    """(memory byte, packed byte) index pairs, grouped by run length."""
    pos_starts = np.zeros(layout.run_count, dtype=np.int64)
    np.cumsum(layout.runs[:-1, 1], out=pos_starts[1:])
    for ln in np.unique(layout.runs[:, 1]):
        sel = layout.runs[:, 1] == ln
        span = np.arange(ln)[None, :]
        yield ((layout.runs[sel, 0][:, None] + span).ravel(),
               (pos_starts[sel][:, None] + span).ravel())


def gather_reference(layout: RunLayout, buf: np.ndarray) -> np.ndarray:
    out = np.empty(layout.total_bytes, dtype=np.uint8)
    src = buf.view(np.uint8).reshape(-1)
    for mem, pos in _byte_index(layout):
        out[pos] = src[mem]
    return out


def scatter_reference(layout: RunLayout, packed: np.ndarray,
                      buf: np.ndarray) -> None:
    dst = buf.view(np.uint8).reshape(-1)
    for mem, pos in _byte_index(layout):
        dst[mem] = packed[pos]


@pytest.fixture(params=list(WORKLOADS))
def workload(request):
    return make_workload(request.param)


def test_gather_matches_the_byte_index(workload):
    layout, buf = workload.layout, workload.make_send_buffer()
    want = gather_reference(layout, buf)
    assert want.tobytes() == workload.manual_pack(buf).tobytes()
    assert layout.gather(buf).tobytes() == want.tobytes()
    # Into the caller's buffer — exact size, and a longer (dirty) window.
    for room in (0, 24):
        out = np.full(layout.total_bytes + room, 0xA5, dtype=np.uint8)
        assert layout.gather(buf, out=out) is out
        assert out[:layout.total_bytes].tobytes() == want.tobytes()
        assert (out[layout.total_bytes:] == 0xA5).all()


def test_scatter_matches_the_byte_index(workload):
    layout = workload.layout
    packed = gather_reference(layout, workload.make_send_buffer())
    packed.flags.writeable = False  # a wire chunk
    want = workload.make_recv_buffer()
    scatter_reference(layout, packed, want)
    got = workload.make_recv_buffer()
    layout.scatter(packed, got)
    assert got.tobytes() == want.tobytes()
    # From a longer window (the fragment the engine hands unpack_fn).
    got = workload.make_recv_buffer()
    layout.scatter(np.concatenate([packed, packed[:24]]), got)
    assert got.tobytes() == want.tobytes()


def test_the_copy_program_is_decided_once(workload):
    """It is the pack plan behind the layout's key — the very object the
    user's hindexed spelling compiles to — and a layout that holds it never
    goes back to the cache."""
    layout, derived = workload.layout, workload.derived_datatype()
    assert layout.typemap.layout_key() == derived.typemap.layout_key()
    buf, recv = workload.make_send_buffer(), workload.make_recv_buffer()
    packed = layout.gather(buf)
    assert layout.plan is pack_plan(derived)
    before = plan_cache_info()
    for _ in range(100):
        layout.gather(buf, out=packed)
        layout.scatter(packed, recv)
    assert plan_cache_info() == before
    assert workload.exchanged_equal(buf, recv)


def test_one_plan_per_workload():
    """All 12 workloads, by both spellings, in either order: 12 compiles
    and 12 cache entries, not 24."""
    clear_plan_cache()
    workloads = all_workloads()
    assert len(workloads) == 12
    for i, w in enumerate(workloads):
        if i % 2:
            assert w.layout.plan is pack_plan(w.derived_datatype())
        else:
            assert pack_plan(w.derived_datatype()) is w.layout.plan
    info = plan_cache_info()
    assert (info["size"], info["misses"], info["hits"]) == (12, 12, 12)


def test_a_short_buffer_is_refused():
    """Before any byte moves, naming the bytes needed and the bytes given —
    whichever kernel the plan would have run."""
    for w in all_workloads():
        layout = w.layout
        need, have = layout.buffer_bytes, layout.buffer_bytes - 8
        with pytest.raises(ValueError,
                           match=f"{have}-byte buffer .* layout needs {need}"):
            layout.gather(np.zeros(have, dtype=np.uint8))
        out = np.full(layout.total_bytes - 8, 0xA5, dtype=np.uint8)
        with pytest.raises(ValueError,
                           match=f"layout needs {layout.total_bytes}"):
            layout.gather(w.make_send_buffer(), out=out)
        assert (out == 0xA5).all()
        recv = w.make_recv_buffer()
        flat = recv.view(np.uint8).reshape(-1)
        with pytest.raises(ValueError,
                           match=f"layout needs {layout.total_bytes}"):
            layout.scatter(np.ones(layout.total_bytes - 8, dtype=np.uint8),
                           recv)
        with pytest.raises(ValueError, match=f"layout needs {need}"):
            layout.scatter(np.ones(layout.total_bytes, dtype=np.uint8),
                           flat[:have])
        assert not flat.any()


def test_overlapping_runs_scatter_in_run_order():
    """200 runs, each overlapping the next: the last run to name a byte
    wins, at any run count (a fancy-index scatter leaves it unspecified)."""
    runs = [(3 * i, 8) for i in range(200)]
    layout = RunLayout(runs, 3 * 200 + 8)
    packed = np.random.default_rng(5).integers(
        0, 256, size=layout.total_bytes, dtype=np.uint8)
    want = np.zeros(layout.buffer_bytes, dtype=np.uint8)
    for i, (off, ln) in enumerate(runs):
        want[off:off + ln] = packed[8 * i:8 * i + 8]
    got = np.zeros_like(want)
    layout.scatter(packed, got)
    assert got.tobytes() == want.tobytes()
    assert layout.plan.executor == "slices"
    assert layout.gather(got).tobytes() == gather_reference(layout, got).tobytes()
