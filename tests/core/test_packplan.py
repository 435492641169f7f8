"""Pack-plan engine tests: equivalence with the reference engine, cursor
pipelines, and plan-cache behaviour."""

import gc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (BYTE, FLOAT32, FLOAT64, INT16, INT32, PackCursor,
                        UnpackCursor, clear_plan_cache, contiguous,
                        create_struct, hindexed, lower_typemap, pack,
                        pack_plan,
                        pack_reference, pack_window_reference, packed_size,
                        plan_cache_info, required_span, resized, unpack,
                        unpack_reference, unpack_window_reference, vector)
from repro.ddtbench.registry import make_workload
from repro.errors import MPIError
from repro.types import make_struct_simple, struct_simple_datatype
from tests.core.test_derived import _build, _trees


def corpus():
    """(name, dtype, src, count) tuples spanning the layouts we ship."""
    entries = []
    t = struct_simple_datatype()
    entries.append(("struct-simple", t, make_struct_simple(64), 64))
    v = vector(16, 1, 2, FLOAT64)
    rng = np.random.default_rng(3)
    entries.append(("vector-f64", v,
                    rng.integers(0, 256, required_span(v, 32),
                                 dtype=np.uint8), 32))
    for name in ("WRF_x_vec", "WRF_y_vec", "MILC", "NAS_MG_x"):
        w = make_workload(name)
        entries.append((f"ddtbench-{name}", w.derived_datatype(),
                        w.make_send_buffer(), 1))
    return entries


def short_final_t():
    """extent 16 but true_ub 4: the buffer may stop 12 bytes short."""
    return resized(create_struct([1], [0], [INT32]), 0, 16)


class TestPlanEquivalence:
    @pytest.mark.parametrize("name,t,src,count",
                             corpus(), ids=[e[0] for e in corpus()])
    def test_pack_matches_reference(self, name, t, src, count):
        assert bytes(pack(t, src, count)) == \
            bytes(pack_reference(t, src, count))

    @pytest.mark.parametrize("name,t,src,count",
                             corpus(), ids=[e[0] for e in corpus()])
    def test_unpack_matches_reference(self, name, t, src, count):
        packed = pack(t, src, count)
        span = required_span(t, count)
        a = np.full(span, 0xA5, dtype=np.uint8)
        b = np.full(span, 0xA5, dtype=np.uint8)
        unpack(t, a, count, packed)
        unpack_reference(t, b, count, packed)
        assert bytes(a) == bytes(b)

    @pytest.mark.parametrize("name,t,src,count",
                             corpus(), ids=[e[0] for e in corpus()])
    def test_unaligned_windows_match_reference(self, name, t, src, count):
        total = packed_size(t, count)
        # Deliberately element-misaligned offsets and lengths.
        for off, ln in [(0, min(7, total)), (3, min(11, total - 3)),
                        (total // 2 - 1, min(13, total - total // 2 + 1)),
                        (max(0, total - 5), min(5, total))]:
            with PackCursor(t, src, count) as cur:
                w = bytes(cur.window(off, ln))
            r = pack_window_reference(t, src, count, off, ln)
            assert w == bytes(r), (off, ln)

    def test_count_zero(self):
        t = struct_simple_datatype()
        empty = np.zeros(0, dtype=np.uint8)
        assert pack(t, empty, 0).shape == (0,)
        assert bytes(pack(t, empty, 0)) == bytes(pack_reference(t, empty, 0))
        unpack(t, empty, 0, np.zeros(0, dtype=np.uint8))  # must not raise

    def test_short_final_element(self):
        """A buffer ending at the last element's true_ub (< extent)."""
        t = short_final_t()
        count = 5
        span = required_span(t, count)
        assert span == 4 * 16 + 4
        rng = np.random.default_rng(9)
        src = rng.integers(0, 256, span, dtype=np.uint8)
        p = pack(t, src, count)
        assert bytes(p) == bytes(pack_reference(t, src, count))
        out = np.zeros(span, dtype=np.uint8)
        unpack(t, out, count, p)
        ref = np.zeros(span, dtype=np.uint8)
        unpack_reference(t, ref, count, p)
        assert bytes(out) == bytes(ref)

    def test_error_messages_match_reference(self):
        t = struct_simple_datatype()
        src = make_struct_simple(4)
        with pytest.raises(MPIError) as plan_err:
            pack(t, src, 4, out=np.zeros(1, dtype=np.uint8))
        with pytest.raises(MPIError) as ref_err:
            pack_reference(t, src, 4, out=np.zeros(1, dtype=np.uint8))
        assert str(plan_err.value) == str(ref_err.value)


class TestCursors:
    @pytest.mark.parametrize("frag", [1, 7, 64, 8192])
    def test_pack_cursor_tiles_full_pack(self, frag):
        t = struct_simple_datatype()
        src = make_struct_simple(100)
        full = pack(t, src, 100)
        total = full.shape[0]
        with PackCursor(t, src, 100) as cur:
            off = 0
            while off < total:
                ln = min(frag, total - off)
                assert bytes(cur.window(off, ln)) == \
                    bytes(full[off:off + ln]), off
                off += ln

    def test_pack_cursor_random_fragments(self):
        t = struct_simple_datatype()
        src = make_struct_simple(200)
        full = pack(t, src, 200)
        total = full.shape[0]
        rng = np.random.default_rng(11)
        with PackCursor(t, src, 200) as cur:
            off = 0
            while off < total:
                ln = min(int(rng.integers(1, 9000)), total - off)
                assert bytes(cur.window(off, ln)) == bytes(full[off:off + ln])
                off += ln

    @pytest.mark.parametrize("frag", [1, 7, 64, 8192])
    def test_unpack_cursor_in_order(self, frag):
        t = struct_simple_datatype()
        src = make_struct_simple(100)
        full = pack(t, src, 100)
        total = full.shape[0]
        dst = np.zeros(required_span(t, 100), dtype=np.uint8)
        with UnpackCursor(t, dst, 100) as cur:
            off = 0
            while off < total:
                ln = min(frag, total - off)
                cur.write(off, full[off:off + ln])
                off += ln
        assert bytes(pack(t, dst, 100)) == bytes(full)

    def test_unpack_cursor_out_of_order(self):
        """Shuffled fragments read-modify-write the elements they touch
        but must still reassemble correctly."""
        t = struct_simple_datatype()
        src = make_struct_simple(100)
        full = pack(t, src, 100)
        total = full.shape[0]
        rng = np.random.default_rng(13)
        frags = []
        off = 0
        while off < total:
            ln = min(int(rng.integers(1, 1500)), total - off)
            frags.append((off, full[off:off + ln]))
            off += ln
        rng.shuffle(frags)
        dst = np.zeros(required_span(t, 100), dtype=np.uint8)
        with UnpackCursor(t, dst, 100) as cur:
            for off, data in frags:
                cur.write(off, data)
        assert bytes(pack(t, dst, 100)) == bytes(full)

    def test_cursors_on_ddtbench_count_one(self):
        """count=1 workloads exercise the intra-element windowed paths."""
        w = make_workload("MILC")
        t = w.derived_datatype()
        src = w.make_send_buffer()
        full = pack(t, src, 1)
        total = full.shape[0]
        with PackCursor(t, src, 1) as cur:
            off = 0
            while off < total:
                ln = min(8192, total - off)
                assert bytes(cur.window(off, ln)) == bytes(full[off:off + ln])
                off += ln
        dst = np.zeros(required_span(t, 1), dtype=np.uint8)
        with UnpackCursor(t, dst, 1) as cur:
            off = 0
            while off < total:
                ln = min(8192, total - off)
                cur.write(off, full[off:off + ln])
                off += ln
        assert bytes(pack(t, dst, 1)) == bytes(full)

    def test_pack_cursor_window_out_of_range(self):
        t = struct_simple_datatype()
        src = make_struct_simple(4)
        with PackCursor(t, src, 4) as cur:
            with pytest.raises(MPIError):
                cur.window(79, 5)

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview,
                                      np.asarray],
                             ids=["bytes", "bytearray", "memoryview",
                                  "ndarray"])
    def test_unpack_cursor_accepts_any_buffer(self, wrap):
        """Regression: ``write`` used ``np.asarray(frag, dtype=uint8)``,
        which parses a ``bytes`` fragment as an integer literal."""
        t = struct_simple_datatype()
        full = pack(t, make_struct_simple(8), 8)
        total = full.shape[0]
        dst = np.zeros(required_span(t, 8), dtype=np.uint8)
        with UnpackCursor(t, dst, 8) as cur:
            for off in range(0, total, 7):
                cur.write(off, wrap(full[off:off + 7]))
        assert bytes(pack(t, dst, 8)) == bytes(full)


# -- property-based ----------------------------------------------------------

@st.composite
def random_struct(draw):
    nfields = draw(st.integers(1, 5))
    fields = []
    offset = 0
    for _ in range(nfields):
        offset += draw(st.integers(0, 8))
        ftype = draw(st.sampled_from([INT32, FLOAT64]))
        blen = draw(st.integers(1, 4))
        fields.append((blen, offset, ftype))
        offset += blen * ftype.size
    extent = offset + draw(st.integers(0, 8))
    t = create_struct([f[0] for f in fields], [f[1] for f in fields],
                      [f[2] for f in fields])
    return resized(t, 0, extent)


class TestPlanProperties:
    @given(random_struct(), st.integers(0, 24))
    def test_pack_equals_reference(self, t, count):
        rng = np.random.default_rng(0)
        src = rng.integers(0, 256, max(t.extent * count, 1), dtype=np.uint8)
        assert bytes(pack(t, src, count)) == \
            bytes(pack_reference(t, src, count))

    @given(random_struct(), st.integers(1, 16), st.integers(1, 97))
    def test_cursor_windows_tile_reference_pack(self, t, count, step):
        rng = np.random.default_rng(1)
        src = rng.integers(0, 256, t.extent * count, dtype=np.uint8)
        full = pack_reference(t, src, count)
        total = full.shape[0]
        with PackCursor(t, src, count) as cur:
            off = 0
            while off < total:
                ln = min(step, total - off)
                assert bytes(cur.window(off, ln)) == bytes(full[off:off + ln])
                off += ln

    @settings(deadline=None)
    @given(random_struct(), st.integers(1, 16), st.integers(1, 97))
    def test_unpack_cursor_matches_reference_windows(self, t, count, step):
        rng = np.random.default_rng(2)
        src = rng.integers(0, 256, t.extent * count, dtype=np.uint8)
        full = pack_reference(t, src, count)
        total = full.shape[0]
        a = np.full(t.extent * count, 0xEE, dtype=np.uint8)
        b = np.full(t.extent * count, 0xEE, dtype=np.uint8)
        with UnpackCursor(t, a, count) as cur:
            off = 0
            while off < total:
                ln = min(step, total - off)
                cur.write(off, full[off:off + ln])
                off += ln
        off = 0
        while off < total:
            ln = min(step, total - off)
            unpack_window_reference(t, b, count, off, full[off:off + ln])
            off += ln
        assert bytes(a) == bytes(b)


@st.composite
def aliasing_struct(draw):
    """``random_struct`` resized to an extent *below* its true upper bound:
    successive elements overlap in memory, so unpack write order matters."""
    t = draw(random_struct())
    true_ub = t.typemap.true_ub
    return resized(t, 0, draw(st.integers(1, true_ub - 1)))


class TestAliasingLayouts:
    """The one place a per-count plan variant ever differed."""

    @settings(deadline=None)
    @given(aliasing_struct(), st.sampled_from([0, 1, 2, 7]))
    def test_plan_matches_reference(self, t, count):
        rng = np.random.default_rng(4)
        span = max(required_span(t, count), 1)
        src = rng.integers(0, 256, span, dtype=np.uint8)
        packed = pack(t, src, count)
        assert bytes(packed) == bytes(pack_reference(t, src, count))
        a = np.full(span, 0xEE, dtype=np.uint8)
        b = np.full(span, 0xEE, dtype=np.uint8)
        unpack(t, a, count, packed)
        unpack_reference(t, b, count, packed)
        assert bytes(a) == bytes(b)


# -- kernel differential -------------------------------------------------------

BASES = [BYTE, INT16, INT32, FLOAT64]  # widest units 1, 2, 4, 8


@st.composite
def strided_blocks(draw):
    """Equal blocks one byte stride apart, lowest displacement ``first``:
    odd displacements and strides, descending order (negative loop strides
    after canonicalization), and strides shorter than a block (send-side
    overlapping blocks)."""
    base = draw(st.sampled_from(BASES))
    nblocks = draw(st.integers(1, 12))
    blocklen = draw(st.integers(1, 3))
    stride = draw(st.integers(-24, 24).filter(bool))
    first = draw(st.integers(0, 5))
    displs = [first + i * abs(stride) for i in range(nblocks)]
    if stride < 0:
        displs.reverse()
    return hindexed([blocklen] * nblocks, displs, base)


@st.composite
def mixed_struct(draw):
    """Fields of any base at arbitrary (odd included) gaps."""
    offset, lens, displs, types = 0, [], [], []
    for _ in range(draw(st.integers(1, 6))):
        offset += draw(st.integers(0, 9))
        base = draw(st.sampled_from(BASES))
        blen = draw(st.integers(1, 4))
        lens.append(blen)
        displs.append(offset)
        types.append(base)
        offset += blen * base.size
    return create_struct(lens, displs, types)


@st.composite
def any_layout(draw):
    """A layout resized to any extent from 1 to past its true upper bound:
    aliasing rows (``extent < true_ub``), a short final element (``extent >
    true_ub``), and ``extent``/``size`` that no unit above 1 divides."""
    t = draw(st.one_of(strided_blocks(), mixed_struct()))
    return resized(t, 0, draw(st.integers(1, t.typemap.true_ub + 9)))


class TestKernelDifferential:
    """Plan kernels against the reference engine over the layouts and the
    buffers they must survive."""

    @settings(deadline=None, max_examples=300)
    @given(any_layout(), st.sampled_from([0, 1, 2, 7]))
    # Rows alias and block 3 of row r lands on block 0 of row r + 1: rolled
    # into a loop, numpy wrote it rows-first, the reference blocks-first.
    @example(resized(hindexed([2] * 4, [0, 4, 8, 12], BYTE), 0, 12), 7)
    def test_plan_matches_reference(self, t, count):
        span = max(required_span(t, count), 1)
        rng = np.random.default_rng(5)
        # An exact-size buffer on an odd address: the last element stops at
        # its true upper bound and no unit above 1 is aligned.
        src = rng.integers(0, 256, span + 1, dtype=np.uint8)[1:]
        ref = pack_reference(t, src, count)
        assert bytes(pack(t, src, count)) == bytes(ref)
        assert bytes(pack(t, bytes(src), count)) == bytes(ref)  # read-only
        # An independent stream, so that where two writes land on one byte
        # it shows which came last.
        wire = rng.integers(0, 256, ref.shape[0], dtype=np.uint8).tobytes()
        want = np.full(span, 0xEE, dtype=np.uint8)
        unpack_reference(t, want, count, wire)
        for wrap in (bytearray, lambda b: memoryview(bytearray(b))):
            got = wrap(b"\xEE" * span)
            unpack(t, got, count, wire)
            assert bytes(got) == bytes(want)

    @settings(deadline=None)
    @given(any_layout(), st.sampled_from([1, 2, 7]), st.integers(1, 97))
    def test_cursor_windows_stay_byte_identical(self, t, count, step):
        span = required_span(t, count)
        rng = np.random.default_rng(6)
        src = rng.integers(0, 256, span, dtype=np.uint8)
        full = pack_reference(t, src, count)
        total = full.shape[0]
        wire = rng.integers(0, 256, total, dtype=np.uint8)
        got = np.full(span, 0xEE, dtype=np.uint8)
        want = np.full(span, 0xEE, dtype=np.uint8)
        with PackCursor(t, src, count) as pc, \
                UnpackCursor(t, got, count) as uc:
            for off in range(0, total, step):
                w = pc.window(off, min(step, total - off))
                assert bytes(w) == bytes(full[off:off + step])
                uc.write(off, wire[off:off + step])
                unpack_window_reference(t, want, count, off,
                                        wire[off:off + step])
        # The cursor scatters whole batches of elements, the reference one
        # window at a time: the same bytes unless write order is observable.
        if not lower_typemap(t.typemap).order_observable:
            assert bytes(got) == bytes(want)


# -- layout-to-layout copy ----------------------------------------------------

class TestCopyInto:
    """``PackPlan.copy_into`` is ``unpack(pack(src))`` with no stream: over
    the datatype trees of the run-granularity suite (negative strides,
    zero-length blocks, aliasing rows, resized), every byte of ``dst`` —
    inside the layout and outside it — ends as the two passes leave it."""

    @settings(deadline=None, max_examples=150)
    @given(st.one_of(_trees, any_layout().map(lambda t: (t, None))),
           st.sampled_from([0, 1, 2, 7]), st.integers(0, 2 ** 32 - 1))
    def test_matches_pack_then_unpack(self, tree, count, seed):
        t = _build(tree)[0] if tree[1] is not None else tree[0]
        plan = pack_plan(t)
        span = max(required_span(t, count), 1) + 8  # bytes past the end
        rng = np.random.default_rng(seed)
        src = rng.integers(0, 256, span, dtype=np.uint8)
        fill = rng.integers(0, 256, span, dtype=np.uint8)
        got, want = fill.copy(), fill.copy()
        if t.typemap.true_lb < 0 and not plan.contiguous and count:
            with pytest.raises(MPIError, match="negative displacements"):
                pack(t, src, count, deferred=True)
            return
        if count:
            plan.copy_into(src, got, count)
        unpack(t, want, count, pack(t, src, count))
        assert bytes(got) == bytes(want)
        # The engine's route: a deferred source unpacked into its plan.
        got[:] = fill
        unpack(t, got, count, pack(t, src, count, deferred=True))
        assert bytes(got) == bytes(want)

    def test_a_source_of_another_plan_is_built_first(self):
        vec = vector(16, 1, 2, FLOAT64)
        con = contiguous(16, FLOAT64)
        src = np.arange(required_span(vec, 3), dtype=np.uint8)
        got = np.zeros(required_span(con, 3), dtype=np.uint8)
        unpack(con, got, 3, pack(vec, src, 3, deferred=True))
        assert bytes(got) == bytes(pack_reference(vec, src, 3))


# -- plan cache --------------------------------------------------------------

class TestPlanCache:
    def setup_method(self):
        clear_plan_cache()

    def teardown_method(self):
        clear_plan_cache()

    def test_hit_on_repeated_pack(self):
        """A datatype looks its plan up once, on first use, and keeps it
        bound: repeating the pack makes no lookup, and an equal layout
        built afresh hits the plan compiled for the first."""
        t = struct_simple_datatype()
        src = make_struct_simple(8)
        pack(t, src, 8)
        info = plan_cache_info()
        assert (info["misses"], info["hits"]) == (1, 0)
        assert t._plan is pack_plan(t)
        before = plan_cache_info()
        pack(t, src, 8)
        unpack(t, make_struct_simple(8), 8, pack(t, src, 8))
        assert plan_cache_info() == before
        pack(struct_simple_datatype(), src, 8)
        assert plan_cache_info()["hits"] == before["hits"] + 1

    def test_hits_split_by_plan_kind(self):
        src = make_struct_simple(8)
        flat = np.arange(4, dtype=np.int32).view(np.uint8)
        for _ in range(2):  # the second round's fresh datatypes hit
            pack(struct_simple_datatype(), src, 8)
            pack(contiguous(4, INT32), flat, 1)
        info = plan_cache_info()
        assert info["contig_hits"] >= 1
        assert info["compiled_hits"] >= 1
        assert info["hits"] == info["contig_hits"] + info["compiled_hits"]

    def test_clear_recompiles_a_bound_plan(self):
        """``clear_plan_cache`` unbinds: a datatype whose plan is bound
        compiles afresh on its next use, and binds the new plan."""
        t = struct_simple_datatype()
        src = make_struct_simple(4)
        want = bytes(pack(t, src, 4))
        old = t._plan
        assert old is not None
        clear_plan_cache()
        assert t._plan is None
        assert bytes(pack(t, src, 4)) == want
        info = plan_cache_info()
        assert (info["size"], info["misses"], info["hits"]) == (1, 1, 0)
        assert t._plan is not old and t._plan is pack_plan(t)

    def test_a_copy_or_pickle_binds_its_own_plan(self):
        """A bound plan is a cache entry of this process, not part of the
        datatype: copies and unpickled types start unbound."""
        import copy
        import pickle
        t = struct_simple_datatype()
        pack(t, make_struct_simple(2), 2)
        for twin in (copy.copy(t), pickle.loads(pickle.dumps(t))):
            assert twin._plan is None
            pack(twin, make_struct_simple(2), 2)
            assert twin._plan is t._plan

    def test_eviction_unbinds(self):
        """A plan the LRU drops is unbound from its datatypes too: they
        look the layout up again instead of holding a second plan per
        layout."""
        from repro.core import typecache
        t = self.make_gapped()
        pack(t, np.zeros(64, dtype=np.uint8), 1)
        assert t._plan is not None
        for extent in range(32, 32 + typecache.PLAN_CACHE_MAXSIZE):
            pack_plan(resized(create_struct([1], [0], [INT32]), 0, extent), 1)
        assert plan_cache_info()["evictions"] >= 1
        assert t._plan is None

    @staticmethod
    def make_gapped(scalar=INT32, extent=24):
        return resized(create_struct([3, 1], [0, 16], [scalar, scalar]),
                       0, extent)

    def test_equal_layouts_share_one_plan(self):
        """One plan per layout: independently built equal typemaps — also
        over a different scalar type — and any count return one object."""
        a, b = self.make_gapped(), self.make_gapped()
        twin = self.make_gapped(FLOAT32)
        assert a.typemap is not b.typemap
        plan = pack_plan(a, 1)
        assert pack_plan(b, 8) is plan
        assert pack_plan(twin, 1) is plan
        assert pack_plan(twin, 8) is plan
        info = plan_cache_info()
        assert (info["size"], info["misses"], info["hits"]) == (1, 1, 3)

    def test_resized_extent_is_a_different_layout(self):
        """Same runs, different extent: rows land elsewhere, so the plans
        must not be shared."""
        narrow, wide = self.make_gapped(), self.make_gapped(extent=32)
        assert pack_plan(narrow, 4) is not pack_plan(wide, 4)
        assert plan_cache_info()["size"] == 2

    def test_rebuilt_datatype_still_hits(self):
        """Plans outlive the datatype they were first compiled for."""
        t = self.make_gapped()
        plan = pack_plan(t, 4)
        del t
        gc.collect()
        assert plan_cache_info()["size"] == 1
        assert pack_plan(self.make_gapped(), 4) is plan
        assert plan_cache_info()["misses"] == 1

    def test_lru_bound(self):
        """The size bound holds over *distinct* layouts."""
        from repro.core import typecache
        for extent in range(8, 8 + typecache.PLAN_CACHE_MAXSIZE + 10):
            pack_plan(resized(create_struct([1], [0], [INT32]), 0, extent), 1)
        info = plan_cache_info()
        assert info["size"] == typecache.PLAN_CACHE_MAXSIZE
        assert info["evictions"] == 10
