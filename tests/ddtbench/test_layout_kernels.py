"""``RunLayout.gather``/``scatter`` against the byte-index implementation
they replaced (kept here as the reference), on every registry workload —
from MILC's 8 runs (slice copies) to LAMMPS_full's 8192 (one cached lane
index)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ddtbench.base import RunLayout
from repro.ddtbench.registry import WORKLOADS, make_workload


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


def test_the_copy_program_is_decided_once(workload, monkeypatch):
    layout, buf = workload.layout, workload.make_send_buffer()
    packed = layout.gather(buf)
    program = layout._copy_program()
    copies, index, _ = program
    assert (index is None) == (layout.merged().run_count
                               <= RunLayout.SLICE_COPY_MAX_RUNS)
    # Building a program needs the merged runs; from here on that fails.
    monkeypatch.setattr(RunLayout, "merged", None)
    layout.gather(buf, out=packed)
    layout.scatter(packed, workload.make_recv_buffer())
    assert layout._copy_program() is program
    assert layout._copy_program()[1] is index


def test_a_short_buffer_is_refused():
    layout = make_workload("WRF_x_vec").layout  # lane index, mode="clip"
    with pytest.raises(ValueError, match="layout needs"):
        layout.gather(np.zeros(layout.buffer_bytes - 8, dtype=np.uint8))
    with pytest.raises(ValueError, match="layout needs"):
        layout.scatter(np.zeros(layout.total_bytes - 8, dtype=np.uint8),
                       np.zeros(layout.buffer_bytes, dtype=np.uint8))
