"""RunLayout machinery tests."""

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from repro.core.planir import (GATHER_MIN_CALLS, MIN_REPS, StridedLoop,
                               leaves)
from repro.ddtbench.base import RunLayout

from .test_layout_kernels import gather_reference


class TestValidation:
    def test_basic(self):
        lay = RunLayout([(0, 4), (8, 4)], 16)
        assert lay.total_bytes == 8
        assert lay.run_count == 2

    def test_empty(self):
        lay = RunLayout([], 16)
        assert lay.total_bytes == 0
        assert lay.run_count == 0

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            RunLayout([(0, 0)], 16)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            RunLayout([(12, 8)], 16)
        with pytest.raises(ValueError):
            RunLayout([(-1, 4)], 16)


class TestMerged:
    def test_adjacent_in_order_merged(self):
        lay = RunLayout([(0, 4), (4, 4), (12, 4)], 16)
        m = lay.merged()
        assert m.runs.tolist() == [[0, 8], [12, 4]]

    def test_non_adjacent_kept(self):
        lay = RunLayout([(0, 4), (8, 4)], 16)
        assert lay.merged().run_count == 2

    def test_out_of_order_not_merged(self):
        lay = RunLayout([(4, 4), (0, 4)], 16)
        assert lay.merged().run_count == 2

    def test_merge_preserves_bytes(self):
        lay = RunLayout([(0, 2), (2, 2), (4, 2), (10, 2)], 16)
        assert lay.merged().total_bytes == lay.total_bytes


class TestGatherScatter:
    def test_gather(self):
        buf = np.arange(16, dtype=np.uint8)
        lay = RunLayout([(2, 3), (10, 2)], 16)
        assert lay.gather(buf).tolist() == [2, 3, 4, 10, 11]

    def test_gather_respects_run_order(self):
        buf = np.arange(16, dtype=np.uint8)
        lay = RunLayout([(10, 2), (2, 3)], 16)
        assert lay.gather(buf).tolist() == [10, 11, 2, 3, 4]

    def test_scatter_inverse(self):
        buf = np.arange(32, dtype=np.uint8)
        lay = RunLayout([(1, 5), (10, 1), (20, 7)], 32)
        packed = lay.gather(buf)
        out = np.zeros(32, dtype=np.uint8)
        lay.scatter(packed, out)
        assert np.array_equal(lay.gather(out), packed)
        # untouched bytes stay zero
        mask = np.zeros(32, dtype=bool)
        for off, ln in lay.runs:
            mask[off:off + ln] = True
        assert (out[~mask] == 0).all()

    def test_gather_into_provided(self):
        buf = np.arange(16, dtype=np.uint8)
        lay = RunLayout([(0, 4)], 16)
        out = np.zeros(4, dtype=np.uint8)
        lay.gather(buf, out=out)
        assert out.tolist() == [0, 1, 2, 3]

    def test_empty_layout(self):
        lay = RunLayout([], 8)
        assert lay.gather(np.zeros(8, np.uint8)).shape == (0,)
        lay.scatter(np.zeros(0, np.uint8), np.zeros(8, np.uint8))


#: What each shape of run list is there to reach in the plan compiler.
SHAPES = {
    "bytes": "up to 20 byte-granular runs anywhere (they may overlap)",
    "aligned": "4/8-byte-aligned runs: widen-units",
    "strided": "constant-stride runs: canonicalize-strides",
    "irregular": ">= GATHER_MIN_CALLS irregular runs: form-gather",
    "adjacent": "runs adjacent in order and memory: coalesce-blocks",
    "overlapping": "each run overlaps the next: write order is observable",
}


@st.composite
def layouts(draw, shape=None):
    shape = shape or draw(st.sampled_from(sorted(SHAPES)))
    if shape == "bytes":
        nbytes = draw(st.integers(16, 512))
        lens = draw(st.lists(st.integers(1, 16), max_size=20))
        return RunLayout([(draw(st.integers(0, nbytes - ln)), ln)
                          for ln in lens], nbytes)
    # Ascending runs, the gap after each one chosen by the shape; a negative
    # gap starts the next run inside this one.
    unit = draw(st.sampled_from([1, 4, 8] if shape != "aligned" else [4, 8]))
    floor = {"irregular": GATHER_MIN_CALLS, "strided": MIN_REPS}.get(shape, 2)
    n = draw(st.integers(floor, floor + 80))
    if shape == "strided":
        lens = [draw(st.integers(1, 6))] * n
        gaps = [draw(st.integers(1, 9))] * n
    else:
        lens = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
        gap = {"adjacent": st.sampled_from([0, 0, 3]),
               "overlapping": st.integers(-1, 0)}.get(shape, st.integers(1, 9))
        gaps = draw(st.lists(gap, min_size=n, max_size=n))
    runs, off, end = [], unit * draw(st.integers(0, 3)), 0
    for ln, gap in zip(lens, gaps):
        runs.append((off, ln * unit))
        end = max(end, off + ln * unit)
        off += (ln + gap) * unit
    order = draw(st.sampled_from(["ascending", "descending", "shuffled"]))
    if order == "descending":
        runs.reverse()
    elif order == "shuffled":
        draw(st.randoms(use_true_random=False)).shuffle(runs)
    return RunLayout(runs, end + unit * draw(st.integers(0, 2)))


def kernels(lay: RunLayout) -> set:
    """What the layout's plan executes: ``(leaf kind, unit)`` per leaf, plus
    ``"loop"``/``"merged"``/``"ordered"`` for a strided loop / coalesced
    runs / a write order kept across more runs than a gather would take."""
    ir = lay.plan.ir
    found = {(type(op).__name__, getattr(op, "unit", None))
             for op, _ in leaves(ir.ops)}
    if any(isinstance(op, StridedLoop) for op in ir.ops):
        found.add("loop")
    if lay.plan.nblocks < lay.run_count:
        found.add("merged")
    if ir.order_observable and lay.run_count > GATHER_MIN_CALLS:
        found.add("ordered")
    return found


class TestProperties:
    @given(layouts())
    def test_gather_scatter_roundtrip(self, lay):
        rng = np.random.default_rng(7)
        buf = rng.integers(0, 256, size=lay.buffer_bytes, dtype=np.uint8)
        packed = lay.gather(buf)
        assert packed.shape[0] == lay.total_bytes
        out = np.zeros_like(buf)
        lay.scatter(packed, out)
        assert np.array_equal(lay.gather(out), packed)

    @given(layouts())
    def test_merged_gathers_identically(self, lay):
        rng = np.random.default_rng(8)
        buf = rng.integers(0, 256, size=lay.buffer_bytes, dtype=np.uint8)
        assert np.array_equal(lay.gather(buf), lay.merged().gather(buf))

    @given(layouts())
    def test_merged_never_more_runs(self, lay):
        assert lay.merged().run_count <= lay.run_count

    @settings(max_examples=200)
    @given(layouts(), st.integers(0, 2**32 - 1))
    def test_the_plan_moves_the_bytes_the_runs_name(self, lay, seed):
        rng = np.random.default_rng(seed)
        buf = rng.integers(0, 256, size=lay.buffer_bytes, dtype=np.uint8)
        packed = lay.gather(buf)
        assert packed.tobytes() == gather_reference(lay, buf).tobytes()
        # Scatter an independent stream, so write order shows: the oracle
        # copies run by run, a later run overwriting an earlier one.
        stream = rng.integers(0, 256, size=lay.total_bytes, dtype=np.uint8)
        want = buf.copy()
        pos = 0
        for off, ln in lay.runs:
            want[off:off + ln] = stream[pos:pos + ln]
            pos += ln
        lay.scatter(stream, buf)
        assert buf.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape, kernel", [
        ("irregular", ("Gather", 1)), ("irregular", ("Gather", 4)),
        ("aligned", ("CopyBlock", 8)), ("aligned", ("Record", None)),
        ("strided", "loop"), ("adjacent", "merged"),
        ("overlapping", "ordered"),
    ], ids=str)
    def test_the_strategy_reaches_every_kernel(self, shape, kernel):
        # Only that an example exists is asserted: search with find's own
        # budget, but don't shrink what it found.
        find(layouts(shape), lambda lay: kernel in kernels(lay),
             settings=settings(max_examples=2000, phases=[Phase.generate],
                               database=None))
