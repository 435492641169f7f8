"""Typemap algebra unit and property tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import FLOAT32, INT32, contiguous, create_struct, resized
from repro.core.introspect import equivalent
from repro.core.typemap import Block, Typemap, scalar_typemap


# -- Block -------------------------------------------------------------------

class TestBlock:
    def test_basic(self):
        b = Block(4, 8, 2)
        assert b.end == 12
        assert b.shifted(10) == Block(14, 8, 2)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            Block(0, 0)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            Block(0, -4)

    def test_zero_scalars_rejected(self):
        with pytest.raises(ValueError):
            Block(0, 4, 0)


# -- Typemap basics -----------------------------------------------------------

class TestTypemapBasics:
    def test_scalar(self):
        tm = scalar_typemap(8)
        assert tm.size == 8
        assert tm.extent == 8
        assert tm.lb == 0
        assert tm.ub == 8
        assert tm.is_contiguous
        assert not tm.has_gaps
        assert tm.nscalars == 1

    def test_natural_bounds(self):
        tm = Typemap([Block(4, 4), Block(16, 8)])
        assert tm.lb == 4
        assert tm.extent == 20
        assert tm.true_lb == 4
        assert tm.true_ub == 24
        assert tm.size == 12

    def test_explicit_bounds(self):
        tm = Typemap([Block(0, 4)], lb=0, extent=16)
        assert tm.extent == 16
        assert tm.true_extent == 4
        assert not tm.is_contiguous  # padding makes it non-identity

    def test_empty_requires_bounds(self):
        with pytest.raises(ValueError):
            Typemap([])

    def test_empty_with_bounds(self):
        tm = Typemap([], lb=0, extent=0)
        assert tm.size == 0
        assert tm.nscalars == 0

    def test_negative_extent_rejected(self):
        with pytest.raises(ValueError):
            Typemap([Block(0, 4)], lb=0, extent=-1)

    def test_struct_simple_gap(self):
        """The paper's struct-simple: 3 i32 + 4B gap + f64, extent 24."""
        tm = Typemap([Block(0, 12, 3), Block(16, 8, 1)], lb=0, extent=24)
        assert tm.size == 20
        assert tm.has_gaps
        assert tm.nscalars == 4

    def test_struct_no_gap_contiguous(self):
        tm = Typemap([Block(0, 8, 2), Block(8, 8, 1)], lb=0, extent=16)
        assert tm.is_contiguous


# -- merged_blocks -------------------------------------------------------------

class TestMergedBlocks:
    def test_adjacent_merge(self):
        tm = Typemap([Block(0, 4), Block(4, 4), Block(8, 4)])
        merged = tm.merged_blocks()
        assert merged == (Block(0, 12, 3),)

    def test_gap_prevents_merge(self):
        tm = Typemap([Block(0, 4), Block(8, 4)])
        assert len(tm.merged_blocks()) == 2

    def test_out_of_order_not_merged(self):
        # Pack order differs from address order: no merge.
        tm = Typemap([Block(8, 4), Block(0, 4)])
        assert len(tm.merged_blocks()) == 2

    def test_merge_preserves_size_and_scalars(self):
        tm = Typemap([Block(0, 4, 1), Block(4, 8, 2), Block(20, 4, 1)])
        merged = tm.merged_blocks()
        assert sum(b.length for b in merged) == tm.size
        assert sum(b.nscalars for b in merged) == tm.nscalars


# -- algebra -------------------------------------------------------------------

class TestAlgebra:
    def test_displace(self):
        tm = scalar_typemap(4).displace(100)
        assert tm.blocks[0].offset == 100
        assert tm.lb == 100
        assert tm.extent == 4

    def test_repeat_contiguous(self):
        tm = scalar_typemap(4).repeat(3)
        assert tm.size == 12
        assert tm.extent == 12
        assert tm.is_contiguous

    def test_repeat_strided(self):
        tm = scalar_typemap(4).repeat(3, stride_bytes=16)
        assert tm.size == 12
        assert tm.extent == 36  # 2*16 + 4
        assert [b.offset for b in tm.blocks] == [0, 16, 32]
        assert tm.has_gaps

    def test_repeat_zero(self):
        tm = scalar_typemap(4).repeat(0)
        assert tm.size == 0
        assert tm.extent == 0

    def test_repeat_negative_rejected(self):
        with pytest.raises(ValueError):
            scalar_typemap(4).repeat(-1)

    def test_resized(self):
        tm = scalar_typemap(4).resized(0, 32)
        assert tm.extent == 32
        assert tm.size == 4
        assert not tm.is_contiguous

    def test_equality_and_hash(self):
        a = scalar_typemap(8)
        b = scalar_typemap(8)
        assert a == b
        assert hash(a) == hash(b)
        assert a != a.resized(0, 16)

    def test_repr(self):
        assert "size=8" in repr(scalar_typemap(8))


class TestEquality:
    """Typemaps are equal iff they pack and unpack identically and carry
    the same scalars, however their runs are split into blocks."""

    def test_block_granularity_does_not_matter(self):
        one_run = Typemap([Block(0, 12, 3, "i4")], lb=0, extent=12)
        per_scalar = Typemap([Block(o, 4, 1, "i4") for o in (0, 4, 8)],
                             lb=0, extent=12)
        assert one_run == per_scalar == contiguous(3, INT32).typemap
        assert hash(one_run) == hash(per_scalar)
        assert hash(one_run) == hash(contiguous(3, INT32).typemap)

    def test_adjacent_struct_fields_equal_contiguous(self):
        fields = create_struct([1, 1], [0, 4], [INT32, INT32])
        assert fields.typemap == contiguous(2, INT32).typemap
        assert equivalent(fields, contiguous(2, INT32))

    def test_scalar_types_matter(self):
        mixed = create_struct([1, 1], [0, 4], [INT32, FLOAT32])
        assert mixed.typemap != contiguous(2, INT32).typemap
        assert not equivalent(mixed, contiguous(2, INT32))

    def test_gaps_matter(self):
        gap = create_struct([1, 1], [0, 8], [INT32, INT32])
        no_gap = resized(contiguous(2, INT32), 0, 12)
        assert gap.typemap != no_gap.typemap
        assert gap.size == no_gap.size and gap.extent == no_gap.extent


# -- properties ----------------------------------------------------------------

block_lists = st.lists(
    st.tuples(st.integers(0, 200), st.integers(1, 32), st.integers(1, 4)),
    min_size=1, max_size=8,
).map(lambda tl: [Block(o, l, s) for o, l, s in tl])


class TestProperties:
    @given(block_lists, st.integers(1, 5))
    def test_repeat_scales_size(self, blocks, count):
        tm = Typemap(blocks)
        assert tm.repeat(count).size == tm.size * count

    @given(block_lists, st.integers(-100, 100))
    def test_displace_preserves_size_and_extent(self, blocks, delta):
        tm = Typemap(blocks)
        moved = tm.displace(delta)
        assert moved.size == tm.size
        assert moved.extent == tm.extent
        assert moved.nscalars == tm.nscalars

    @given(block_lists)
    def test_merge_is_idempotent_on_size(self, blocks):
        tm = Typemap(blocks)
        merged = tm.merged_blocks()
        assert sum(b.length for b in merged) == tm.size

    @given(block_lists, st.integers(1, 4), st.integers(1, 4))
    def test_repeat_compose(self, blocks, a, b):
        """repeat(a).repeat(b) covers the same bytes as repeat(a*b) when
        strides are natural."""
        tm = Typemap(blocks)
        if tm.lb != 0:
            tm = tm.displace(-tm.lb)
        lhs = tm.repeat(a).repeat(b)
        rhs = tm.repeat(a * b)
        assert lhs.size == rhs.size
        assert [(blk.offset, blk.length) for blk in lhs.blocks] == \
               [(blk.offset, blk.length) for blk in rhs.blocks]
