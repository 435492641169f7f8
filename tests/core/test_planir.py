"""Pack-plan IR tests: lowering, rewrite passes, byte-map preservation,
and executor equivalence (slices vs gather vs the reference engine)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (BYTE, FLOAT64, INT16, INT32, CopyBlock, Gather,
                        PackPlan, Program, Record, StridedLoop, byte_map,
                        contiguous, create_struct, hindexed, lower_typemap,
                        pack, pack_reference, required_span, resized,
                        run_pipeline, unpack, unpack_reference, vector)
from repro.core import planir
from repro.core.planir import IRExecutor
from repro.core.typemap import Typemap
from repro.ddtbench.registry import WORKLOADS, make_workload
from repro.types import struct_simple_datatype

DDTBENCH_NAMES = sorted(WORKLOADS)


def descending_hindexed(nblocks=8, blocklen=4):
    """Blocks adjacent in memory but packed in descending address order:
    the canonical negative-source-stride layout (true_lb stays 0)."""
    displs = [(nblocks - 1 - i) * blocklen for i in range(nblocks)]
    return hindexed([1] * nblocks, displs, INT32)


def short_final_t():
    """extent 16 but true_ub 4: the buffer may stop 12 bytes short."""
    return resized(create_struct([1], [0], [INT32]), 0, 16)


def plan_with(t, executor):
    """The plan of ``t``, re-bound to ``executor`` whatever form-gather
    chose: ``gather`` runs the whole layout as one byte-gather, ``slices``
    runs the pipeline's output short of gather formation."""
    plan = PackPlan(t.typemap)
    prog = lower_typemap(t.typemap)
    if executor == "gather":
        prog = prog.with_ops((Gather(byte_map(prog), 0),))
    else:
        prog, _ = run_pipeline(prog, [p for p in planir.default_pipeline()
                                      if p is not planir.form_gather])
    plan._exec = IRExecutor(prog)
    assert plan._exec.kind == executor
    return plan


class TestLowering:
    def test_one_copy_per_merged_block_dense_wire(self):
        t = create_struct([1, 1], [0, 8], [INT32, INT32])
        prog = lower_typemap(t.typemap)
        assert prog.ops == (CopyBlock(0, 0, 4), CopyBlock(8, 4, 4))
        assert prog.size == 8

    def test_empty_typemap_lowers_to_no_ops(self):
        prog = lower_typemap(Typemap((), lb=0, extent=8))
        assert prog.ops == ()
        assert byte_map(prog).shape == (0,)

    def test_byte_map_of_initial_ir_is_identity_per_block(self):
        t = vector(4, 1, 2, FLOAT64)
        bm = byte_map(lower_typemap(t.typemap))
        expect = np.concatenate(
            [np.arange(i * 16, i * 16 + 8) for i in range(4)])
        assert np.array_equal(bm, expect)


class TestPasses:
    def test_coalesce_merges_adjacent_blocks(self):
        prog = Program((CopyBlock(0, 0, 4), CopyBlock(4, 4, 4),
                        CopyBlock(12, 8, 4)), size=12, extent=16,
                       row_span=16, src_lo=0, src_hi=16)
        out = planir.coalesce_blocks(prog)
        assert out.ops == (CopyBlock(0, 0, 8), CopyBlock(12, 8, 4))

    def test_canonicalize_forms_strided_loop(self):
        t = vector(16, 1, 2, FLOAT64)
        prog, applied = run_pipeline(lower_typemap(t.typemap))
        assert applied == ("canonicalize-strides", "widen-units")
        assert len(prog.ops) == 1
        lp = prog.ops[0]
        assert isinstance(lp, StridedLoop)
        assert (lp.count, lp.src_stride, lp.dst_stride) == (16, 16, 8)

    def test_canonicalize_handles_negative_src_stride(self):
        t = descending_hindexed()
        prog, _ = run_pipeline(lower_typemap(t.typemap))
        (lp,) = prog.ops
        assert isinstance(lp, StridedLoop)
        assert lp.src_stride == -4 and lp.dst_stride == 4
        assert np.array_equal(byte_map(prog),
                              byte_map(lower_typemap(t.typemap)))

    def test_promote_contiguity_turns_gapfree_loop_into_copy(self):
        lp = StridedLoop(4, 8, 8, (CopyBlock(0, 0, 8),))
        prog = Program((lp,), size=32, extent=32, row_span=32,
                       src_lo=0, src_hi=32)
        out = planir.promote_contiguity(prog)
        assert out.ops == (CopyBlock(0, 0, 32),)

    def test_collapse_flattens_perfectly_tiling_nest(self):
        inner = StridedLoop(4, 8, 8, (CopyBlock(0, 0, 4),))
        outer = StridedLoop(3, 32, 32, (inner,))
        prog = Program((outer,), size=48, extent=96, row_span=96,
                       src_lo=0, src_hi=96)
        out = planir.collapse_loops(prog)
        (lp,) = out.ops
        assert (lp.count, lp.src_stride, lp.dst_stride) == (12, 8, 8)
        assert np.array_equal(byte_map(out), byte_map(prog))

    def test_collapse_inlines_single_iteration_loop(self):
        prog = Program((StridedLoop(1, 99, 99, (CopyBlock(3, 0, 4),)),),
                       size=4, extent=16, row_span=16, src_lo=0, src_hi=16)
        out = planir.collapse_loops(prog)
        assert out.ops == (CopyBlock(3, 0, 4),)

    def test_form_gather_respects_aliasing_guard(self):
        # row_span > extent models overlapping elements: vectorized scatter
        # would break write order, so gather must not form.
        ops = tuple(CopyBlock(i * 3, i * 2, 2) for i in range(40))
        prog = Program(ops, size=80, extent=100, row_span=130,
                       src_lo=0, src_hi=130)
        assert planir.form_gather(prog).ops == ops
        disjoint = planir.form_gather(
            Program(ops, size=80, extent=130, row_span=130,
                    src_lo=0, src_hi=130))
        assert isinstance(disjoint.ops[0], Gather)

    @pytest.mark.parametrize("name", DDTBENCH_NAMES)
    def test_pipeline_preserves_byte_map_on_ddtbench(self, name):
        tm = make_workload(name).derived_datatype().typemap
        prog = lower_typemap(tm)
        final, _ = run_pipeline(prog)
        assert np.array_equal(byte_map(final), byte_map(prog)), name

    @pytest.mark.parametrize("name", DDTBENCH_NAMES)
    def test_ddtbench_canonical_form_is_one_call(self, name):
        tm = make_workload(name).derived_datatype().typemap
        final, _ = run_pipeline(lower_typemap(tm))
        assert planir.leaf_calls(final.ops) == 1, \
            "every Table I layout must canonicalize to a single numpy call"


class TestExecutorEquivalence:
    """Satellite: gather/slices equivalence under negative strides,
    zero-count blocks, and short-final-element layouts."""

    def cases(self):
        rng = np.random.default_rng(7)
        out = []
        for name in ("WRF_x_vec", "MILC", "LAMMPS"):
            w = make_workload(name)
            out.append((name, w.derived_datatype(), w.make_send_buffer(), 1))
        t = vector(16, 1, 2, FLOAT64)
        out.append(("vector", t,
                    rng.integers(0, 256, required_span(t, 12),
                                 dtype=np.uint8), 12))
        t = descending_hindexed()
        out.append(("neg-stride", t,
                    rng.integers(0, 256, required_span(t, 9),
                                 dtype=np.uint8), 9))
        t = short_final_t()
        out.append(("short-final", t,
                    rng.integers(0, 256, required_span(t, 5),
                                 dtype=np.uint8), 5))
        return out

    @pytest.mark.parametrize("executor", ["slices", "gather"])
    def test_forced_executor_matches_reference(self, executor):
        for name, t, src, count in self.cases():
            plan = plan_with(t, executor)
            out = np.empty(t.size * count, dtype=np.uint8)
            plan.pack_into(src, count, out)
            assert bytes(out) == bytes(pack_reference(t, src, count)), \
                (name, executor)
            dst = np.full(src.shape[0], 0xA5, dtype=np.uint8)
            ref = np.full(src.shape[0], 0xA5, dtype=np.uint8)
            plan.unpack_into(dst, count, out)
            unpack_reference(t, ref, count, out)
            assert bytes(dst) == bytes(ref), (name, executor)

    def test_zero_count_blocks(self):
        t = contiguous(0, INT32)
        empty = np.zeros(0, dtype=np.uint8)
        assert pack(t, empty, 3).shape == (0,)
        unpack(t, empty, 3, np.zeros(0, dtype=np.uint8))  # must not raise
        plan = PackPlan(t.typemap)
        assert plan.ir.ops == ()
        plan.pack_into(empty, 1, np.zeros(0, dtype=np.uint8))

    def test_gather_executor_on_aliasing_rows_keeps_write_order(self):
        # extent < true_ub: successive elements overlap in memory, where a
        # vectorized fancy scatter would not keep reference write order.
        # No pipeline forms a gather there and the executor refuses one, so
        # even a gather-sized layout unpacks in reference order.
        displs, x = [0], 1
        for _ in range(2 * planir.GATHER_MIN_CALLS):
            x = (x * 1103515245 + 12345) % (1 << 31)  # aperiodic gaps
            displs.append(displs[-1] + 5 + x % 7)
        irregular = hindexed([1] * len(displs), displs, INT32)
        assert PackPlan(irregular.typemap).executor == "gather"
        t = resized(irregular, 0, 4)
        plan = PackPlan(t.typemap)
        assert plan.executor == "slices"
        prog = lower_typemap(t.typemap)
        with pytest.raises(ValueError, match="aliasing rows"):
            IRExecutor(prog.with_ops((Gather(byte_map(prog), 0),)))
        count = 6
        span = required_span(t, count)
        src = np.random.default_rng(21).integers(0, 256, span,
                                                 dtype=np.uint8)
        packed = np.empty(t.size * count, dtype=np.uint8)
        plan.pack_into(src, count, packed)
        assert bytes(packed) == bytes(pack_reference(t, src, count))
        dst = np.zeros(span, dtype=np.uint8)
        ref = np.zeros(span, dtype=np.uint8)
        plan.unpack_into(dst, count, packed)
        unpack_reference(t, ref, count, packed)
        assert bytes(dst) == bytes(ref)


class TestExecutorSelection:
    """The backend is chosen by form-gather alone, from the layout."""

    @pytest.mark.parametrize("name", DDTBENCH_NAMES)
    def test_ddtbench_backends(self, name):
        plan = PackPlan(make_workload(name).derived_datatype().typemap)
        gathers = {"LAMMPS", "LAMMPS_full", "SPECFEM3D_oc"}
        assert plan.executor == ("gather" if name in gathers else "slices")


class TestKernelSelection:
    """What the two kernel passes decide, read off the final IR."""

    def test_struct_simple_is_one_record(self):
        plan = PackPlan(struct_simple_datatype().typemap)
        assert plan.ir.ops == (Record((CopyBlock(0, 0, 12),
                                       CopyBlock(16, 12, 8))),)
        assert plan.passes == ("fuse-records",)
        # One numpy call per message, whatever the count.
        assert planir.leaf_calls(plan.ir.ops) == 1
        assert plan.executor == "slices"

    def test_vector_is_one_8_byte_unit_loop(self):
        plan = PackPlan(vector(16, 1, 2, FLOAT64).typemap)
        assert plan.ir.ops == (
            StridedLoop(16, 16, 8, (CopyBlock(0, 0, 8, unit=8),)),)

    def test_lammps_is_a_4_byte_lane_gather(self):
        t = make_workload("LAMMPS").derived_datatype()
        (g,) = PackPlan(t.typemap).ir.ops
        assert isinstance(g, Gather) and g.unit == 4
        assert g.nbytes == t.size == 4 * g.src_index.shape[0]

    @pytest.mark.parametrize("t,unit", [
        (resized(create_struct([3], [0], [FLOAT64]), 0, 32), 8),
        (resized(create_struct([3], [0], [INT32]), 0, 16), 4),
        (resized(create_struct([3], [2], [INT16]), 0, 10), 2),
        (resized(create_struct([3], [0], [BYTE]), 0, 8), 1),
        # each of displacement, extent and loop stride: one odd multiple of
        # 4 caps an 8-byte layout at 4
        (resized(create_struct([2], [4], [FLOAT64]), 0, 24), 4),
        (resized(create_struct([2], [0], [FLOAT64]), 0, 20), 4),
        (hindexed([1] * 6, [20 * i for i in range(6)], FLOAT64), 4),
        (resized(create_struct([2], [1], [FLOAT64]), 0, 24), 1),
    ], ids=["f64", "i32", "i16", "byte", "displ", "extent", "loop-stride",
            "odd-displ"])
    def test_widest_unit_dividing_every_address(self, t, unit):
        plan = PackPlan(t.typemap)
        assert [op.unit for op, _ in planir.leaves(plan.ir.ops)] == [unit]

    @pytest.mark.parametrize("t", [
        resized(hindexed([2] * 4, [0, 4, 8, 12], INT32), 0, 24),
        hindexed([2] * 4, [0, 4, 8, 12], INT32),
        resized(create_struct([1, 1], [0, 8], [INT32, INT32]), 0, 8),
    ], ids=["aliasing-rows", "overlapping-blocks", "aliasing-struct"])
    def test_order_observable_layouts_keep_the_reference_shape(self, t):
        """No loop, record, gather or wide unit where an unpack writes a
        byte twice: the plan is the reference engine's own op sequence."""
        lowered = lower_typemap(t.typemap)
        assert lowered.order_observable
        plan = PackPlan(t.typemap)
        assert plan.ir.ops == lowered.ops and plan.passes == ()

    def test_record_needs_numpy_to_assign_the_dtype_pair(self, monkeypatch):
        """Eligibility is decided when the plan compiles: a refused pair
        leaves per-leaf unit copies, which still execute."""
        monkeypatch.setattr(planir.np, "can_cast", lambda *a, **k: False)
        t = struct_simple_datatype()
        plan = PackPlan(t.typemap)
        assert plan.ir.ops == (CopyBlock(0, 0, 12, unit=4),
                               CopyBlock(16, 12, 8, unit=4))
        src = np.random.default_rng(3).integers(
            0, 256, required_span(t, 5), dtype=np.uint8)
        out = np.empty(t.size * 5, dtype=np.uint8)
        plan.pack_into(src, 5, out)
        assert bytes(out) == bytes(pack_reference(t, src, 5))


class TestOutOfRangePlansRaise:
    """Views are built by the bounds-checked ndarray constructor: a plan
    that leaves the caller's buffer raises, in both directions, where the
    ``as_strided`` executor read (or wrote) whatever lay past the end."""

    @staticmethod
    def both_directions_raise(ex, mem, wire, count):
        with pytest.raises(ValueError, match="size of buffer"):
            ex.pack(mem, wire.copy(), count)
        with pytest.raises(ValueError, match="size of buffer"):
            ex.unpack(mem.copy(), wire, count)

    @pytest.mark.parametrize("t", [vector(16, 2, 4, FLOAT64),
                                   short_final_t()],
                             ids=["loop", "block"])
    def test_shift_src_mutant_on_an_exact_size_buffer(self, t):
        from repro.analyze.planverify import _bug_shift_src
        count = 3
        mem = np.zeros(required_span(t, count), dtype=np.uint8)
        wire = np.zeros(t.size * count, dtype=np.uint8)
        good = PackPlan(t.typemap).ir
        IRExecutor(good).pack(mem, wire, count)  # the exact size suffices
        self.both_directions_raise(IRExecutor(_bug_shift_src(good)),
                                   mem, wire, count)

    def test_negative_stride_loop_on_a_short_buffer(self):
        t = descending_hindexed()
        plan = PackPlan(t.typemap)
        (lp,) = plan.ir.ops
        assert lp.src_stride < 0  # iteration 0 sits at the highest address
        mem = np.zeros(required_span(t, 2) - 1, dtype=np.uint8)
        wire = np.zeros(t.size * 2, dtype=np.uint8)
        self.both_directions_raise(plan._exec, mem, wire, 2)
        self.both_directions_raise(plan._exec, mem[:t.extent], wire, 2)

    def test_short_wire_buffer(self):
        t = struct_simple_datatype()
        plan = PackPlan(t.typemap)
        mem = np.zeros(required_span(t, 4), dtype=np.uint8)
        wire = np.zeros(t.size * 4 - 1, dtype=np.uint8)
        self.both_directions_raise(plan._exec, mem, wire, 4)


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


@st.composite
def random_descending_hindexed(draw):
    """Blocks at strictly descending displacements (negative strides after
    canonicalization), lowest displacement pinned at 0."""
    nblocks = draw(st.integers(2, 10))
    gap = draw(st.integers(0, 6))
    blocklen = draw(st.integers(1, 3))
    step = blocklen * 4 + gap
    displs = [(nblocks - 1 - i) * step for i in range(nblocks)]
    return hindexed([blocklen] * nblocks, displs, INT32)


class TestPlanIRProperties:
    @settings(deadline=None)
    @given(random_struct(), st.integers(0, 24),
           st.sampled_from(["slices", "gather"]))
    def test_executors_match_reference(self, t, count, executor):
        rng = np.random.default_rng(0)
        src = rng.integers(0, 256, max(required_span(t, count), 1),
                           dtype=np.uint8)
        plan = plan_with(t, executor)
        out = np.empty(t.size * count, dtype=np.uint8)
        if count:
            plan.pack_into(src, count, out)
        assert bytes(out) == bytes(pack_reference(t, src, count))

    @settings(deadline=None)
    @given(random_descending_hindexed(), st.integers(1, 8),
           st.sampled_from(["slices", "gather"]))
    def test_negative_stride_executors_match_reference(self, t, count,
                                                       executor):
        rng = np.random.default_rng(1)
        src = rng.integers(0, 256, required_span(t, count), dtype=np.uint8)
        plan = plan_with(t, executor)
        out = np.empty(t.size * count, dtype=np.uint8)
        plan.pack_into(src, count, out)
        assert bytes(out) == bytes(pack_reference(t, src, count))
        dst = np.full(src.shape[0], 0x5A, dtype=np.uint8)
        ref = np.full(src.shape[0], 0x5A, dtype=np.uint8)
        plan.unpack_into(dst, count, out)
        unpack_reference(t, ref, count, out)
        assert bytes(dst) == bytes(ref)

    @settings(deadline=None)
    @given(random_struct())
    def test_pipeline_always_preserves_byte_map(self, t):
        prog = lower_typemap(t.typemap)
        final, _ = run_pipeline(prog)
        assert np.array_equal(byte_map(final), byte_map(prog))


class TestEnumerateBytes:
    def test_execution_order_across_op_kinds(self):
        """Copies are expanded in batches, but the bytes keep the order
        the ops write them in, whatever op kind comes between."""
        prog = Program((
            CopyBlock(8, 0, 2), Gather([0, 1], dst_off=2),
            Record((CopyBlock(4, 4, 1), CopyBlock(20, 5, 1))),
            StridedLoop(2, 10, 2, (CopyBlock(0, 6, 1), CopyBlock(3, 7, 1))),
            CopyBlock(16, 10, 3, unit=2)),
            size=12, extent=24, row_span=24, src_lo=0, src_hi=24)
        src, dst = planir.enumerate_bytes(prog)
        assert src.tolist() == [8, 9, 0, 1, 4, 20, 0, 3, 10, 13, 16, 17]
        assert dst.tolist() == [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]


# -- stride-search filter ------------------------------------------------------

def exhaustive_canonicalize(ops):
    """``_canonicalize_ops`` as it was before loop starts were decided up
    front: the greedy period search tried at every position."""
    out, i, n = [], 0, len(ops)
    while i < n:
        op = ops[i]
        if isinstance(op, StridedLoop):
            out.append(StridedLoop(op.count, op.src_stride, op.dst_stride,
                                   exhaustive_canonicalize(op.body)))
            i += 1
            continue
        if not isinstance(op, CopyBlock):
            out.append(op)
            i += 1
            continue
        best = None
        for p in range(1, planir.MAX_PERIOD + 1):
            if i + 2 * p > n:
                break
            window = ops[i:i + p]
            if not all(isinstance(w, CopyBlock) for w in window):
                break
            if not all(isinstance(w, CopyBlock) for w in ops[i + p:i + 2 * p]):
                continue
            sd = ops[i + p].src_off - op.src_off
            dd = ops[i + p].dst_off - op.dst_off
            reps = 1
            while i + (reps + 1) * p <= n and all(
                    isinstance(ops[i + reps * p + k], CopyBlock)
                    and ops[i + reps * p + k].src_off
                    == window[k].src_off + reps * sd
                    and ops[i + reps * p + k].dst_off
                    == window[k].dst_off + reps * dd
                    and ops[i + reps * p + k].nbytes == window[k].nbytes
                    for k in range(p)):
                reps += 1
            if reps >= planir.MIN_REPS and (best is None
                                            or reps * p > best[1] * best[0]):
                best = (p, reps, sd, dd)
        if best is not None:
            p, reps, sd, dd = best
            out.append(StridedLoop(reps, sd, dd, tuple(ops[i:i + p])))
            i += reps * p
        else:
            out.append(op)
            i += 1
    return tuple(out)


_offsets = st.integers(0, 64)


@st.composite
def periodic_ops(draw):
    """A pattern of 1..MAX_PERIOD+1 copies repeated at constant strides,
    possibly with one op perturbed, between random prefix/suffix copies;
    now and then a non-copy op or a loop mixed in."""
    def copies(k):
        return [CopyBlock(draw(_offsets), draw(_offsets),
                          draw(st.integers(1, 3))) for _ in range(k)]
    period = draw(st.integers(1, planir.MAX_PERIOD + 1))
    pattern = copies(period)
    sd, dd = draw(st.integers(-24, 24)), draw(st.integers(0, 24))
    reps = draw(st.integers(1, 2 * planir.MIN_REPS))
    ops = copies(draw(st.integers(0, 3)))
    ops += [CopyBlock(b.src_off + r * sd, b.dst_off + r * dd, b.nbytes)
            for r in range(reps) for b in pattern]
    ops += copies(draw(st.integers(0, 3)))
    if ops and draw(st.booleans()):
        j = draw(st.integers(0, len(ops) - 1))
        b = ops[j]
        ops[j] = draw(st.sampled_from([
            CopyBlock(b.src_off + 1, b.dst_off, b.nbytes),
            CopyBlock(b.src_off, b.dst_off, b.nbytes + 1),
            Gather(np.arange(2), b.dst_off),
            StridedLoop(2, 8, 4, (b,)),
        ]))
    return tuple(ops)


class TestStrideSearchFilter:
    """Deciding loop starts up front changes no op the search emits."""

    @settings(max_examples=300)
    @given(periodic_ops())
    def test_matches_exhaustive_search(self, ops):
        assert planir._canonicalize_ops(ops) == exhaustive_canonicalize(ops)

    @given(st.lists(st.builds(CopyBlock, _offsets, _offsets,
                              st.integers(1, 2)),
                    max_size=2 * planir.MIN_REPS - 1))
    def test_short_lists(self, ops):
        ops = tuple(ops)
        assert planir._canonicalize_ops(ops) == exhaustive_canonicalize(ops)

    @pytest.mark.parametrize("name", DDTBENCH_NAMES)
    def test_ddtbench_plans_match_exhaustive_search(self, name):
        tm = make_workload(name).derived_datatype().typemap
        oracle = planir.Pass("canonicalize-strides", lambda p: (
            p if p.order_observable
            else p.with_ops(exhaustive_canonicalize(p.ops))))
        pipeline = [oracle if p is planir.canonicalize_strides else p
                    for p in planir.default_pipeline()]
        ir, passes = run_pipeline(lower_typemap(tm), pipeline)
        plan = PackPlan(tm)
        assert repr(plan.ir.ops) == repr(ir.ops) and plan.ir.ops == ir.ops
        assert plan.passes == passes
