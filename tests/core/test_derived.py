"""Derived-datatype constructor tests, each checked against a numpy oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyze.typecheck import analyze_datatype
from repro.core import (BYTE, FLOAT64, INT16, INT32, contiguous,
                        create_struct, dup, hindexed, hvector, indexed,
                        indexed_block, pack, resized, subarray, unpack,
                        vector)
from repro.core.datatype import DerivedDatatype
from repro.core.packing import pack_reference, required_span, \
    unpack_reference
from repro.core.packplan import PackPlan
from repro.core.typemap import Block, Typemap
from repro.errors import TypeError_


def packed_of(dtype, arr, count=1):
    return pack(dtype, arr, count)


class TestContiguous:
    def test_basic(self):
        t = contiguous(4, INT32)
        assert t.size == 16
        assert t.extent == 16
        assert t.is_contiguous
        assert t.kind == "contiguous"

    def test_pack_identity(self):
        t = contiguous(8, INT32)
        a = np.arange(8, dtype=np.int32)
        assert np.array_equal(packed_of(t, a).view(np.int32), a)

    def test_zero_count(self):
        t = contiguous(0, INT32)
        assert t.size == 0

    def test_negative_rejected(self):
        with pytest.raises(TypeError_):
            contiguous(-1, INT32)

    def test_nested(self):
        t = contiguous(3, contiguous(2, FLOAT64))
        assert t.size == 48
        assert t.is_contiguous


class TestVector:
    def test_selects_strided_blocks(self):
        t = vector(3, 2, 4, INT32)
        a = np.arange(12, dtype=np.int32)
        assert packed_of(t, a).view(np.int32).tolist() == [0, 1, 4, 5, 8, 9]

    def test_extent(self):
        t = vector(3, 2, 4, INT32)
        # last block starts at 2*4 elements, ends at +2: extent 10 ints.
        assert t.extent == 40
        assert t.size == 24

    def test_unit_stride_is_contiguous(self):
        assert vector(4, 1, 1, FLOAT64).is_contiguous

    def test_hvector_bytes(self):
        t = hvector(2, 1, 24, FLOAT64)
        a = np.arange(6, dtype=np.float64)
        assert packed_of(t, a).view(np.float64).tolist() == [0.0, 3.0]

    def test_negative_rejected(self):
        with pytest.raises(TypeError_):
            vector(-1, 1, 1, INT32)
        with pytest.raises(TypeError_):
            vector(1, -1, 1, INT32)


class TestIndexed:
    def test_blocks(self):
        t = indexed([2, 1], [0, 4], INT32)
        a = np.arange(8, dtype=np.int32)
        assert packed_of(t, a).view(np.int32).tolist() == [0, 1, 4]

    def test_hindexed_bytes(self):
        t = hindexed([1, 2], [8, 16], INT32)
        a = np.arange(8, dtype=np.int32)
        assert packed_of(t, a).view(np.int32).tolist() == [2, 4, 5]

    def test_indexed_block(self):
        t = indexed_block(2, [0, 4, 6], INT32)
        a = np.arange(8, dtype=np.int32)
        assert packed_of(t, a).view(np.int32).tolist() == [0, 1, 4, 5, 6, 7]

    def test_zero_length_blocks_skipped(self):
        t = indexed([0, 3, 0], [0, 1, 5], INT32)
        assert t.size == 12

    def test_empty(self):
        t = indexed([], [], INT32)
        assert t.size == 0

    def test_mismatched_rejected(self):
        with pytest.raises(TypeError_):
            indexed([1], [0, 1], INT32)

    def test_negative_blocklength_rejected(self):
        with pytest.raises(TypeError_):
            hindexed([-1], [0], INT32)


class TestStruct:
    def test_struct_simple_layout(self):
        t = resized(create_struct([3, 1], [0, 16], [INT32, FLOAT64]), 0, 24)
        assert t.size == 20
        assert t.extent == 24
        assert t.has_gaps
        assert t.nscalars == 4

    def test_pack_matches_structured_dtype(self):
        sd = np.dtype({"names": ["a", "d"], "formats": ["<i4", "<f8"],
                       "offsets": [0, 8], "itemsize": 16})
        arr = np.zeros(3, dtype=sd)
        arr["a"] = [1, 2, 3]
        arr["d"] = [0.5, 1.5, 2.5]
        t = resized(create_struct([1, 1], [0, 8], [INT32, FLOAT64]), 0, 16)
        p = pack(t, arr, 3)
        assert p[:4].view(np.int32)[0] == 1
        assert p[4:12].view(np.float64)[0] == 0.5

    def test_mismatched_args_rejected(self):
        with pytest.raises(TypeError_):
            create_struct([1], [0, 8], [INT32, FLOAT64])

    def test_nested_struct(self):
        inner = create_struct([2], [0], [INT32])
        outer = create_struct([1, 1], [0, 8], [inner, FLOAT64])
        assert outer.size == 16

    def test_custom_cannot_nest(self):
        from repro.core import type_create_custom
        cd = type_create_custom(query_fn=lambda s, b, c: 0)
        with pytest.raises(TypeError_):
            contiguous(2, cd)


class TestResized:
    def test_bounds(self):
        t = resized(contiguous(1, INT32), 0, 16)
        assert t.extent == 16
        assert t.size == 4

    def test_array_of_padded_structs(self):
        t = resized(create_struct([1], [0], [INT32]), 0, 8)
        a = np.arange(8, dtype=np.int32)
        assert pack(t, a, 4).view(np.int32).tolist() == [0, 2, 4, 6]


class TestSubarray:
    def test_2d_c_order(self):
        t = subarray([4, 6], [2, 3], [1, 2], FLOAT64)
        m = np.arange(24, dtype=np.float64).reshape(4, 6)
        assert np.array_equal(packed_of(t, m).view(np.float64),
                              m[1:3, 2:5].ravel())

    def test_3d_c_order(self):
        t = subarray([3, 4, 5], [2, 2, 2], [1, 1, 1], INT32)
        m = np.arange(60, dtype=np.int32).reshape(3, 4, 5)
        assert np.array_equal(packed_of(t, m).view(np.int32),
                              m[1:3, 1:3, 1:3].ravel())

    def test_f_order(self):
        t = subarray([4, 6], [2, 3], [1, 2], FLOAT64, order="F")
        m = np.arange(24, dtype=np.float64).reshape(4, 6, order="F")
        # Fortran order: first dim fastest.
        expect = m[1:3, 2:5].ravel(order="F")
        got = packed_of(t, np.asfortranarray(m).ravel(order="F")
                        .view(np.float64)).view(np.float64)
        assert np.array_equal(got, expect)

    def test_extent_is_whole_array(self):
        t = subarray([4, 6], [2, 3], [0, 0], FLOAT64)
        assert t.extent == 4 * 6 * 8

    def test_out_of_bounds_rejected(self):
        with pytest.raises(TypeError_):
            subarray([4], [3], [2], INT32)

    def test_bad_order_rejected(self):
        with pytest.raises(TypeError_):
            subarray([4], [2], [0], INT32, order="X")

    def test_empty_dims_rejected(self):
        with pytest.raises(TypeError_):
            subarray([], [], [], INT32)


class TestDup:
    def test_same_layout(self):
        t = vector(3, 2, 4, INT32)
        d = dup(t)
        assert d.typemap == t.typemap
        assert d.kind == "dup"


class TestCommit:
    def test_commit_idempotent(self):
        t = contiguous(2, INT32)
        assert not t.committed
        assert t.commit() is t
        assert t.committed
        t.commit()
        assert t.committed


# -- run granularity: one block per declared run -----------------------------
#
# The reference below is the typemap algebra with one block per predefined
# scalar (what every constructor built before blocks became declared runs):
# a typemap is ``(blocks, lb, extent)``, a block ``(offset, length,
# nscalars, scalar)``.  Whatever the block granularity, a datatype must
# pack, merge, sign and bound exactly as this reference does.

def _ref_repeat(m, count, stride=None):
    blocks, lb, ext = m
    if count == 0:
        return [], lb, 0
    stride = ext if stride is None else stride
    travel = stride * (count - 1)
    return ([(o + i * stride, ln, n, c) for i in range(count)
             for o, ln, n, c in blocks],
            lb + min(0, travel), abs(travel) + ext)


def _ref_displace(m, delta):
    blocks, lb, ext = m
    return [(o + delta, ln, n, c) for o, ln, n, c in blocks], lb + delta, ext


def _ref_concat(maps):
    lb = min(m[1] for m in maps)
    ub = max(m[1] + m[2] for m in maps)
    return [b for m in maps for b in m[0]], lb, ub - lb


def _ref_entries(entries):
    parts = [_ref_displace(_ref_repeat(m, blen), disp)
             for blen, disp, m in entries if blen]
    return _ref_concat(parts) if parts else ([], 0, 0)


def _ref_subarray(sizes, subsizes, starts, m, order):
    dims = list(range(len(sizes)))
    if order == "C":
        dims.reverse()
    strides, stride = [0] * len(sizes), m[2]
    for d in dims:
        strides[d] = stride
        stride *= sizes[d]
    inner = m
    for d in dims:
        inner = _ref_repeat(inner, subsizes[d], strides[d])
    offset = sum(s * st for s, st in zip(starts, strides))
    return _ref_displace(inner, offset)[0], 0, stride


def _ref_merged(blocks):
    merged = []
    for o, ln, n, c in blocks:
        if merged and merged[-1][0] + merged[-1][1] == o:
            po, pl, pn, pc = merged[-1]
            merged[-1] = (po, pl + ln, pn + n, pc if pc == c else "")
        else:
            merged.append((o, ln, n, c))
    return merged


def _ref_signature(blocks):
    runs = []
    for _, ln, n, c in blocks:
        code, k = (c, n) if c else ("u1", ln)
        if runs and runs[-1][0] == code:
            runs[-1][1] += k
        else:
            runs.append([code, k])
    return tuple((c, k) for c, k in runs)


_PREDEFINED = st.sampled_from([BYTE, INT16, INT32, FLOAT64])
_small = st.integers(0, 4)


def _extend(children):
    field = st.tuples(_small, st.integers(0, 48), children)
    return st.one_of(
        st.tuples(st.just("contiguous"), _small, children),
        st.tuples(st.just("vector"), _small, _small, st.integers(-3, 5),
                  children),
        st.tuples(st.just("hvector"), _small, _small, st.integers(-40, 40),
                  children),
        st.tuples(st.just("indexed"),
                  st.lists(st.tuples(_small, st.integers(0, 8)),
                           min_size=1, max_size=4), children),
        st.tuples(st.just("hindexed"),
                  st.lists(st.tuples(_small, st.integers(0, 48)),
                           min_size=1, max_size=4), children),
        st.tuples(st.just("struct"), st.lists(field, min_size=1,
                                              max_size=3)),
        st.tuples(st.just("resized"), st.integers(-8, 8),
                  st.integers(0, 48), children),
        st.tuples(st.just("subarray"), st.lists(
            st.integers(1, 4).flatmap(lambda n: st.integers(0, n).flatmap(
                lambda k: st.tuples(st.just(n), st.just(k),
                                    st.integers(0, n - k)))),
            min_size=1, max_size=3),
            st.sampled_from("CF"), children))


_trees = st.recursive(_PREDEFINED.map(lambda t: ("pre", t)), _extend,
                      max_leaves=3)


def _build(tree):
    """``(datatype, per-scalar reference)`` of a constructor tree."""
    kind = tree[0]
    if kind == "pre":
        t = tree[1]
        return t, ([(0, t.size, 1, t.scalar_code)], 0, t.size)
    if kind == "struct":
        built = [(blen, disp, _build(sub)) for blen, disp, sub in tree[1]]
        blens, disps, subs = zip(*built)
        return (create_struct(blens, disps, [b[0] for b in subs]),
                _ref_entries([(blen, disp, b[1]) for blen, disp, b in built]))
    base, ref = _build(tree[-1])
    if kind == "contiguous":
        return contiguous(tree[1], base), _ref_repeat(ref, tree[1])
    if kind in ("vector", "hvector"):
        count, blen, stride = tree[1:4]
        stride_bytes = stride * base.extent if kind == "vector" else stride
        make = vector if kind == "vector" else hvector
        return (make(count, blen, stride, base),
                _ref_repeat(_ref_repeat(ref, blen), count, stride_bytes))
    if kind in ("indexed", "hindexed"):
        blens, disps = [e[0] for e in tree[1]], [e[1] for e in tree[1]]
        unit = base.extent if kind == "indexed" else 1
        make = indexed if kind == "indexed" else hindexed
        return (make(blens, disps, base),
                _ref_entries([(b, d * unit, ref)
                              for b, d in zip(blens, disps)]))
    if kind == "resized":
        return resized(base, tree[1], tree[2]), (ref[0], tree[1], tree[2])
    sizes, subsizes, starts = (list(v) for v in zip(*tree[1]))
    return (subarray(sizes, subsizes, starts, base, order=tree[2]),
            _ref_subarray(sizes, subsizes, starts, ref, tree[2]))


def _declared_runs(tree):
    """Blocks a one-constructor tree over a predefined base declares: its
    non-empty blocks, a vector whose rows tile counting as one run."""
    kind = tree[0]
    if kind == "struct":
        return sum(1 for blen, _, _ in tree[1] if blen)
    size = tree[-1][1].size
    if kind == "contiguous":
        return int(tree[1] > 0)
    if kind in ("vector", "hvector"):
        count, blen, stride = tree[1:4]
        if not (count and blen):
            return 0
        stride_bytes = stride * size if kind == "vector" else stride
        return 1 if count == 1 or stride_bytes == blen * size else count
    if kind == "resized":
        return 1
    return sum(1 for blen, _ in tree[1] if blen)


class TestRunGranularity:
    """Datatypes built one block per declared run are indistinguishable
    from the per-scalar reference on every layout-derived quantity, plan
    and packed byte."""

    @given(_trees)
    @settings(max_examples=150)
    def test_matches_per_scalar_reference(self, tree):
        t, (blocks, lb, extent) = _build(tree)
        tm = t.typemap
        merged = _ref_merged(blocks)
        assert tm.signature() == _ref_signature(blocks)
        assert [(b.offset, b.length, b.nscalars, b.scalar)
                for b in tm.merged_blocks()] == merged
        assert tm.layout_key() == (lb, extent, np.array(
            [(o, ln) for o, ln, _, _ in merged], dtype=np.int64).tobytes())
        assert (tm.size, tm.extent, tm.lb) == (
            sum(b[1] for b in blocks), extent, lb)
        assert tm.true_lb == min((b[0] for b in blocks), default=lb)
        assert tm.true_ub == max((b[0] + b[1] for b in blocks), default=lb)
        assert tm.nscalars == sum(b[2] for b in blocks)
        assert tm.is_contiguous == (len(merged) == 1 and merged[0][0] == lb
                                    and merged[0][1] == extent)
        assert len(tm.blocks) <= len(blocks)

        ref_tm = Typemap([Block(*b) for b in blocks], lb=lb, extent=extent)
        assert tm == ref_tm and hash(tm) == hash(ref_tm)
        ref_t = DerivedDatatype(ref_tm, getattr(t, "kind", "reference"))
        assert ({d.code for d in analyze_datatype(t)}
                == {d.code for d in analyze_datatype(ref_t)})
        plan, ref_plan = PackPlan(tm), PackPlan(ref_tm)
        assert repr(plan.ir.ops) == repr(ref_plan.ir.ops)
        assert (plan.passes, plan.executor) == (ref_plan.passes,
                                                ref_plan.executor)

        if tm.true_lb < 0:
            return
        rng = np.random.default_rng(len(blocks))
        for count in (1, 2):
            span = required_span(t, count)
            buf = rng.integers(0, 256, span, dtype=np.uint8)
            packed = pack(t, buf, count)
            assert np.array_equal(packed,
                                  pack_reference(ref_t, buf, count))
            wire = rng.integers(0, 256, packed.shape[0], dtype=np.uint8)
            got, want = np.zeros(span, np.uint8), np.zeros(span, np.uint8)
            unpack(t, got, count, wire)
            unpack_reference(ref_t, want, count, wire)
            assert np.array_equal(got, want)

    @given(_extend(_PREDEFINED.map(lambda t: ("pre", t))))
    @settings(max_examples=100)
    def test_one_block_per_declared_run(self, tree):
        if tree[0] == "subarray":
            return  # a slab's runs depend on which dimensions are whole
        t, _ = _build(tree)
        assert len(t.typemap.blocks) == _declared_runs(tree)

    def test_ddtbench_scale_shapes(self):
        assert len(contiguous(4096, FLOAT64).typemap.blocks) == 1
        assert len(vector(512, 3, 4, FLOAT64).typemap.blocks) == 512
        assert len(vector(512, 3, 3, FLOAT64).typemap.blocks) == 1
        assert len(subarray([8, 8, 8], [2, 3, 8], [1, 1, 0],
                            INT32).typemap.blocks) == 2
