"""Tag-matching engine tests."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TransportError
from repro.ucp.constants import TAG_FULL_MASK, match_mask, pack_tag
from repro.ucp.context import UcpContext
from repro.ucp.faults import FaultPlan
from repro.ucp.tagmatch import TagMatcher
from repro.ucp.wire import WireHeader, WireMessage


def msg(tag, src=0, nbytes=0):
    hdr = WireHeader(tag=tag, source=src, total_bytes=nbytes,
                     entry_lengths=(nbytes,) if nbytes else ())
    return WireMessage(hdr, [np.zeros(nbytes, np.uint8)] if nbytes else [],
                       send_ready=0.0, wire_time=0.0, rndv=False, recv_cost=0.0)


T = lambda t: pack_tag(0, 0, t)


class TestDepositThenPost:
    def test_unexpected_claimed(self):
        m = TagMatcher()
        m.deposit(msg(T(5)))
        posted = m.post(T(5), TAG_FULL_MASK)
        assert posted.matched.is_set()
        assert posted.msg.header.tag == T(5)

    def test_fifo_per_tag(self):
        m = TagMatcher()
        a, b = msg(T(5), nbytes=1), msg(T(5), nbytes=2)
        m.deposit(a)
        m.deposit(b)
        assert m.post(T(5), TAG_FULL_MASK).msg is a
        assert m.post(T(5), TAG_FULL_MASK).msg is b

    def test_non_matching_skipped(self):
        m = TagMatcher()
        m.deposit(msg(T(1)))
        m.deposit(msg(T(2)))
        assert m.post(T(2), TAG_FULL_MASK).msg.header.tag == T(2)

    def test_wildcard_source(self):
        m = TagMatcher()
        m.deposit(msg(pack_tag(0, 7, 5), src=7))
        posted = m.post(pack_tag(0, 0, 5), match_mask(True, False))
        assert posted.matched.is_set()
        assert posted.msg.header.source == 7


class TestPostThenDeposit:
    def test_posted_matched_by_deposit(self):
        m = TagMatcher()
        posted = m.post(T(9), TAG_FULL_MASK)
        assert not posted.matched.is_set()
        m.deposit(msg(T(9)))
        assert posted.matched.is_set()

    def test_posted_fifo(self):
        m = TagMatcher()
        p1 = m.post(T(9), TAG_FULL_MASK)
        p2 = m.post(T(9), TAG_FULL_MASK)
        m.deposit(msg(T(9), nbytes=1))
        assert p1.matched.is_set() and not p2.matched.is_set()

    def test_unmatched_deposit_queued(self):
        m = TagMatcher()
        m.post(T(1), TAG_FULL_MASK)
        m.deposit(msg(T(2)))
        assert m.pending_counts() == (1, 1)

    def test_cancel(self):
        m = TagMatcher()
        p = m.post(T(1), TAG_FULL_MASK)
        assert m.cancel(p)
        m.deposit(msg(T(1)))
        assert not p.matched.is_set()
        assert not m.cancel(p)  # already removed


class TestProbe:
    def test_probe_peeks(self):
        m = TagMatcher()
        m.deposit(msg(T(3), nbytes=10))
        assert m.probe(T(3), TAG_FULL_MASK).header.total_bytes == 10
        # Still matchable.
        assert m.post(T(3), TAG_FULL_MASK).matched.is_set()

    def test_mprobe_removes(self):
        m = TagMatcher()
        m.deposit(msg(T(3)))
        assert m.probe(T(3), TAG_FULL_MASK, remove=True) is not None
        assert m.probe(T(3), TAG_FULL_MASK) is None

    def test_probe_miss(self):
        assert TagMatcher().probe(T(3), TAG_FULL_MASK) is None

    # Blocking probes park in ``Worker.park`` (the one blocking wait); the
    # matcher only raises ``arrival``.

    def test_wait_probe_blocks_until_deposit(self):
        worker = UcpContext().create_fabric(2).worker(1)
        got = []

        def prober():
            got.append(worker.tag_probe(T(4), block=True))

        t = threading.Thread(target=prober)
        t.start()
        worker.matcher.deposit(msg(T(9)))  # wakes the prober, matches nothing
        worker.matcher.deposit(msg(T(4), nbytes=6))
        t.join(timeout=5)
        assert not t.is_alive()
        assert got[0].header.total_bytes == 6
        # Peeked, not claimed: both messages are still queued.
        assert worker.matcher.pending_counts() == (0, 2)

    def test_wait_probe_timeout(self):
        worker = UcpContext().create_fabric(2).worker(1)
        worker.matcher.deposit(msg(T(9)))
        with pytest.raises(TransportError,
                           match=r"rank 1: probe timed out waiting on any rank"):
            worker.tag_probe(T(4), block=True, timeout=0.05)
        with pytest.raises(TransportError, match=r"mprobe .* rank\(s\) 0"):
            worker.tag_probe(T(4), remove=True, block=True, timeout=0.05,
                             peers=(0,))


def reordered_deposit_order(plan, src, dst, count):
    """Deposit order of ``count`` same-channel messages under the fault
    injector's hold-one reorder semantics, derived purely from the plan's
    seeded draws (mirrors FaultInjector._transmit_raw + flush_rank)."""
    order, held = [], None
    for seq in range(count):
        if plan.message_fates(src, dst, seq)["reorder"] and held is None:
            held = seq
            continue
        order.append(seq)
        if held is not None:
            order.append(held)
            held = None
    if held is not None:
        order.append(held)  # rank-finish flush
    return order


class TestWildcardFifoProperty:
    """MPI non-overtaking for wildcard receives: among the messages of one
    (source, tag, comm) channel, an ANY_SOURCE match must claim them in
    arrival order — under any arrival interleaving the seeded fault plan's
    reorder machinery can produce."""

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2 ** 16), nmsgs=st.integers(2, 6),
           nsrcs=st.integers(2, 3))
    def test_per_source_fifo_under_seeded_reorder(self, seed, nmsgs, nsrcs):
        plan = FaultPlan(seed=seed, reorder=0.5)
        m = TagMatcher()
        # Interleave the channels' (independently reordered) deposits.
        arrival = {src: reordered_deposit_order(plan, src, 0, nmsgs)
                   for src in range(nsrcs)}
        deposited = {src: [] for src in range(nsrcs)}
        for i in range(nmsgs):
            for src in range(nsrcs):
                seq = arrival[src][i]
                m.deposit(msg(pack_tag(0, src, 1), src=src, nbytes=seq + 1))
                deposited[src].append(seq)
        claimed = {src: [] for src in range(nsrcs)}
        for _ in range(nmsgs * nsrcs):
            p = m.post(pack_tag(0, 0, 1), match_mask(True, False))
            assert p.matched.is_set()
            hdr = p.msg.header
            claimed[hdr.source].append(hdr.total_bytes - 1)
        for src in range(nsrcs):
            assert claimed[src] == deposited[src]

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2 ** 16))
    def test_held_message_never_lost(self, seed):
        plan = FaultPlan(seed=seed, reorder=0.9)
        order = reordered_deposit_order(plan, 0, 1, 5)
        assert sorted(order) == list(range(5))


class TestConcurrency:
    def test_many_senders_one_receiver(self):
        m = TagMatcher()
        n = 50
        received = []

        def receiver():
            for _ in range(n):
                p = m.post(pack_tag(0, 0, 1), match_mask(True, False))
                p.matched.wait(5)
                received.append(p.msg.header.source)

        def sender(src):
            m.deposit(msg(pack_tag(0, src, 1), src=src))

        rt = threading.Thread(target=receiver)
        rt.start()
        senders = [threading.Thread(target=sender, args=(i,)) for i in range(n)]
        for s in senders:
            s.start()
        for s in senders:
            s.join()
        rt.join(timeout=10)
        assert not rt.is_alive()
        assert sorted(received) == list(range(n))
