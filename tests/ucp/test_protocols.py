"""Protocol planning tests: selection and cost-split consistency."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TransportError
from repro.ucp.dtypes import ContigData, IovData
from repro.ucp.netsim import CostModel
from repro.ucp.protocols import plan_send

M = CostModel()


def contig(n):
    return ContigData(np.zeros(n, np.uint8))


#: One send descriptor of each kind, ``n`` payload bytes.
SENDS = {
    "contig": contig,
    "iov": lambda n: IovData([np.zeros(n - n // 2, np.uint8),
                              np.zeros(n // 2, np.uint8)]),
}


class TestSelection:
    def test_small_contig_is_eager(self):
        plan = plan_send(contig(64), M)
        assert plan.protocol == "eager"
        assert not plan.rndv
        assert plan.eager_copy

    def test_large_contig_is_rndv(self):
        plan = plan_send(contig(M.params.eager_limit + 1), M)
        assert plan.protocol == "rndv"
        assert plan.rndv
        assert not plan.eager_copy

    def test_boundary_is_eager(self):
        assert plan_send(contig(M.params.eager_limit), M).protocol == "eager"

    def test_iov(self):
        data = IovData([np.zeros(8, np.uint8), np.zeros(16, np.uint8)])
        plan = plan_send(data, M)
        assert plan.protocol == "iov"
        assert plan.rndv and not plan.eager_copy

    def test_no_generic_protocol(self):
        """UCP's GENERIC kind has no descriptor, row or protocol here."""
        from repro.ucp.transitions import select_protocol
        with pytest.raises(ValueError):
            select_protocol("generic", 100, M.params.eager_limit)

    def test_unknown_descriptor_rejected(self):
        with pytest.raises(TransportError):
            plan_send(object(), M)


class TestBoundaryAgreement:
    """Eager/rendezvous cutoff audit: the live planner, the shared
    transition table and the cost model must agree at the exact boundary
    (and everywhere else) — the protocol model checker verifies the same
    table, so disagreement here would let model and implementation drift."""

    def test_exact_cutoff(self):
        from repro.ucp.transitions import message_is_eager, select_protocol
        limit = M.params.eager_limit
        for n, proto in ((limit - 1, "eager"), (limit, "eager"),
                         (limit + 1, "rndv")):
            assert plan_send(contig(n), M).protocol == proto
            assert select_protocol("contig", n, limit) == proto
            assert message_is_eager(n, limit) == (proto == "eager")

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    @pytest.mark.parametrize("force_rndv", [False, True],
                             ids=["send", "ssend"])
    @pytest.mark.parametrize("kind", sorted(SENDS))
    def test_every_kind_follows_the_table(self, kind, force_rndv, delta):
        """Protocol, rendezvous and staging all come from the transition
        table the model checker verifies, for every send kind, at the
        cutoff and either side of it."""
        from repro.ucp.transitions import (protocol_copies_eagerly,
                                           protocol_is_rndv, select_protocol)
        limit = M.params.eager_limit
        n = limit + delta
        data = SENDS[kind](n)
        assert data.kind == kind
        plan = plan_send(data, M, force_rndv=force_rndv)
        assert plan.protocol == select_protocol(kind, n, limit, force_rndv)
        assert plan.rndv == protocol_is_rndv(plan.protocol)
        assert plan.eager_copy == protocol_copies_eagerly(plan.protocol)
        want = "iov" if kind == "iov" else \
            "rndv" if force_rndv or delta > 0 else "eager"
        assert plan.protocol == want

    @given(st.integers(0, 1 << 22))
    def test_planner_follows_shared_table(self, n):
        from repro.ucp.transitions import select_protocol
        assert plan_send(contig(n), M).protocol == select_protocol(
            "contig", n, M.params.eager_limit)

    @given(st.integers(0, 1 << 22))
    def test_cost_model_follows_shared_table(self, n):
        from repro.ucp.transitions import message_is_eager
        want = M.eager_time(n) if message_is_eager(n, M.params.eager_limit) \
            else M.rndv_time(n)
        assert M.contig_time(n) == want


class TestCostSplitConsistency:
    """sender + wire + recv must equal the aggregate model times, so the
    engine and the bench analytics can never disagree."""

    @given(st.integers(0, 1 << 22))
    def test_contig(self, n):
        plan = plan_send(contig(n), M)
        assert plan.total_one_way == pytest.approx(M.contig_time(n), rel=1e-12)

    @given(st.lists(st.integers(1, 1 << 12), min_size=1, max_size=64))
    def test_iov(self, sizes):
        data = IovData([np.zeros(s, np.uint8) for s in sizes])
        plan = plan_send(data, M)
        assert plan.total_one_way == pytest.approx(M.iov_time(sizes), rel=1e-12)

    @given(st.integers(0, 1 << 16))
    def test_all_components_nonnegative(self, n):
        plan = plan_send(contig(n), M)
        assert plan.sender_cost >= 0
        assert plan.wire_time >= 0
        assert plan.recv_cost >= 0
