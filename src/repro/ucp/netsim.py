"""Virtual-time network and memory cost model (the hardware substitute).

The paper's evaluation ran on two Dell PowerEdge R7525 servers joined by
ConnectX-5 InfiniBand at 100 Gbps.  We do not have that hardware, so the
transport charges *virtual time* from a LogGP-style cost model instead: every
byte still physically moves (sender buffer -> wire chunk -> receiver buffer,
verified by the tests), but the latency/bandwidth numbers reported by the
benchmark harness come from :class:`CostModel` applied to per-rank
:class:`VirtualClock` instances.

The model's structure — not its absolute constants — is what reproduces the
paper's figures:

* an eager/rendezvous protocol switch for contiguous messages (the Fig. 7
  bandwidth dip for ``manual-pack``),
* per-entry overhead for scatter/gather (iovec) transfers (why many small
  regions lose and few large regions win in Fig. 1 and Fig. 10),
* a vectorized-copy cost for manual packing versus a per-scalar cost for the
  gapped derived-datatype engine (the Fig. 5 vs Fig. 6 contrast),
* allocation cost on the receive side (why no pickle strategy reaches the
  roofline in Figs. 8-9).

See ``repro.bench.calibration`` for the rationale behind each constant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class LinkParams:
    """Calibrated constants for the simulated link and memory system.

    All times are in seconds, all bandwidths in bytes/second.
    """

    #: One-way wire latency per message (ConnectX-5 class).
    latency: float = 1.5e-6
    #: Wire bandwidth; 100 Gbps = 12.5 GB/s.
    bandwidth: float = 12.5e9
    #: Contiguous messages larger than this switch from eager to rendezvous.
    eager_limit: int = 32 * 1024
    #: Extra handshake (RTS/CTS) round-trip paid by the rendezvous protocol.
    rndv_handshake: float = 8.0e-6
    #: Per-byte memory-registration cost paid by rendezvous zero-copy.
    rndv_reg_bandwidth: float = 80e9
    #: Fragment size for the generic (pack-callback) pipeline.
    frag_size: int = 8192
    #: Fixed cost per pipeline fragment (header, descriptor handling).
    per_frag_overhead: float = 50e-9
    #: Fixed cost of taking the scatter/gather (iovec) path at all.
    iov_base_overhead: float = 2.0e-6
    #: Cost per iovec entry (per memory region).
    iov_region_overhead: float = 20e-9
    #: Vectorized pack/copy bandwidth (memcpy through cache).
    copy_bandwidth: float = 8e9
    #: Transport-internal bounce-buffer copy rate.  Higher than user-space
    #: copies because UCX pipelines the eager copy with the wire transfer;
    #: the gap between this and ``rndv_handshake`` is what creates the
    #: eager->rendezvous bandwidth dip of Fig. 7.
    eager_copy_bandwidth: float = 20e9
    #: Per-scalar cost of the typemap-walking derived-datatype engine when a
    #: type contains gaps (the Open MPI slow path the paper measures).
    elem_cost: float = 5e-9
    #: Fixed cost of a fresh allocation (malloc + first-touch base).
    alloc_base: float = 0.3e-6
    #: First-touch page-in bandwidth for fresh allocations.
    alloc_bandwidth: float = 12e9
    #: Cost per custom-datatype callback invocation (FFI boundary).
    callback_overhead: float = 100e-9
    #: Fixed cost per pickle.dumps / pickle.loads call.
    pickle_base: float = 2.0e-6
    #: In-band pickle byte-processing bandwidth.
    pickle_bandwidth: float = 5e9
    #: Cost of an MPI_Mprobe / MPI_Probe round on the receive side.
    probe_overhead: float = 0.5e-6
    #: Per-message software overhead (matching, descriptors) on each side.
    msg_overhead: float = 0.2e-6
    #: Ranks per simulated node; 0 means every pair is inter-node (the
    #: paper's two-server testbed).  When nonzero, pairs on the same node
    #: use the intra-node latency/bandwidth below (shared memory).
    ranks_per_node: int = 0
    #: Intra-node (shared-memory) wire parameters.
    intra_latency: float = 0.3e-6
    intra_bandwidth: float = 40e9

    def intra_node_variant(self) -> "LinkParams":
        """Parameters of a same-node pair: shared-memory wire numbers."""
        return self.with_overrides(latency=self.intra_latency,
                                   bandwidth=self.intra_bandwidth)

    def same_node(self, a: int, b: int) -> bool:
        """True when ranks ``a`` and ``b`` share a simulated node."""
        return (self.ranks_per_node > 0
                and a // self.ranks_per_node == b // self.ranks_per_node)

    def with_overrides(self, **kw) -> "LinkParams":
        """Return a copy with some constants replaced (for ablations)."""
        return replace(self, **kw)

    # -- derived thresholds (consumed by repro.analyze) --------------------

    def min_efficient_region_bytes(self) -> int:
        """Smallest scatter/gather entry worth its per-entry overhead.

        Below this size, ``iov_region_overhead`` exceeds the wire time of
        the entry itself — the "tiny fragment" pathology the DDT
        performance literature warns about.
        """
        return max(1, int(self.iov_region_overhead * self.bandwidth))

    def iov_region_soft_limit(self) -> int:
        """Entry count past which per-entry costs dwarf the iovec base cost.

        At this count the aggregate ``iov_region_overhead`` is an order of
        magnitude above ``iov_base_overhead``; layouts with more regions per
        element should coalesce or fall back to packing.
        """
        return max(1, int(10 * self.iov_base_overhead / self.iov_region_overhead))

    def min_efficient_fragment(self) -> int:
        """Pipeline fragment below which descriptor overhead dominates."""
        return max(1, int(self.per_frag_overhead * self.eager_copy_bandwidth))


DEFAULT_PARAMS = LinkParams()

#: Threshold constants for the default link, exposed for the static analyzer
#: (:mod:`repro.analyze`) and for documentation.  Derived, not tunable —
#: override :class:`LinkParams` fields instead.
MIN_EFFICIENT_REGION_BYTES = DEFAULT_PARAMS.min_efficient_region_bytes()
IOV_REGION_SOFT_LIMIT = DEFAULT_PARAMS.iov_region_soft_limit()
MIN_EFFICIENT_FRAGMENT_BYTES = DEFAULT_PARAMS.min_efficient_fragment()


class VirtualClock:
    """Monotonic virtual clock owned by exactly one rank (thread).

    Ranks advance their own clock for local work (packing, allocation) and
    merge remote timestamps when a message completes, giving a classic
    discrete-event ordering without a central scheduler.
    """

    __slots__ = ("now",)

    def __init__(self, start: float = 0.0):
        self.now = float(start)

    def advance(self, dt: float) -> float:
        """Charge ``dt`` seconds of local work; returns the new time."""
        if dt < 0:
            raise ValueError(f"negative time charge: {dt}")
        self.now += dt
        return self.now

    def merge(self, t: float) -> float:
        """Synchronize with an event that happened at remote time ``t``."""
        if t > self.now:
            self.now = t
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self.now:.9f})"


class BudgetedClock(VirtualClock):
    """A rank clock that enforces a virtual-time budget.

    The job service sets one on the rank's own thread at entry when a job
    carries a virtual-time quota: the first :meth:`advance` or
    :meth:`merge` that crosses the budget raises
    :class:`~repro.errors.TimeBudgetExceeded`, stopping the rank exactly at
    the quota boundary.  The default :class:`VirtualClock` path is
    untouched — unbudgeted jobs pay nothing for this feature.

    The charge that crosses the line is still applied before raising, so
    ``clock.now`` on the aborted rank records where the quota cut it off.
    """

    __slots__ = ("budget",)

    def __init__(self, budget: float, start: float = 0.0):
        super().__init__(start)
        if budget <= 0:
            raise ValueError(f"non-positive virtual-time budget: {budget}")
        self.budget = float(budget)

    def _check(self) -> None:
        if self.now > self.budget:
            from ..errors import TimeBudgetExceeded
            raise TimeBudgetExceeded(self.budget, self.now)

    def advance(self, dt: float) -> float:
        super().advance(dt)
        self._check()
        return self.now

    def merge(self, t: float) -> float:
        super().merge(t)
        self._check()
        return self.now


class CostModel:
    """Pure functions from operation descriptions to virtual seconds."""

    def __init__(self, params: LinkParams = DEFAULT_PARAMS):
        self.params = params

    # -- wire -----------------------------------------------------------

    def wire_time(self, nbytes: int) -> float:
        """Serialization time of ``nbytes`` on the wire (no latency)."""
        return nbytes / self.params.bandwidth

    def eager_time(self, nbytes: int) -> float:
        """One-way time of an eager contiguous message.

        Eager copies through a bounce buffer on both sides (pipelined with
        the wire, hence the faster rate) but pays no handshake.
        """
        p = self.params
        return (p.latency + self.wire_time(nbytes)
                + 2.0 * nbytes / p.eager_copy_bandwidth + p.msg_overhead)

    def rndv_time(self, nbytes: int) -> float:
        """One-way time of a rendezvous (zero-copy) contiguous message."""
        p = self.params
        return (p.latency + p.rndv_handshake + self.wire_time(nbytes)
                + nbytes / p.rndv_reg_bandwidth + p.msg_overhead)

    def contig_time(self, nbytes: int) -> float:
        """One-way time of a contiguous message under protocol selection."""
        from .transitions import message_is_eager
        if message_is_eager(nbytes, self.params.eager_limit):
            return self.eager_time(nbytes)
        return self.rndv_time(nbytes)

    def iov_time(self, entry_sizes: list[int] | tuple[int, ...]) -> float:
        """One-way time of a scatter/gather message.

        The iovec path always behaves like rendezvous (zero-copy of each
        entry) and therefore has no eager/rendezvous discontinuity, which is
        why ``custom`` is smooth across the Fig. 7 dip.
        """
        p = self.params
        total = sum(entry_sizes)
        return (p.latency + p.iov_base_overhead
                + p.iov_region_overhead * len(entry_sizes)
                + self.wire_time(total) + total / p.rndv_reg_bandwidth
                + p.msg_overhead)

    def retransmit_time(self, nbytes: int, nfrags: int) -> float:
        """One reliability retransmission round of ``nfrags`` fragments.

        Charged by the fault injector (:mod:`repro.ucp.faults`) on top of
        the message's normal wire time: the retransmitted bytes cross the
        wire again, each fragment pays its descriptor overhead, and the
        round pays one more message latency.
        """
        return (self.params.latency + self.wire_time(nbytes)
                + self.frag_overhead(nfrags))

    # -- memory ---------------------------------------------------------

    def copy_time(self, nbytes: int) -> float:
        """Vectorized memcpy/pack of ``nbytes``."""
        return nbytes / self.params.copy_bandwidth

    def typemap_pack_time(self, nscalars: int, nbytes: int) -> float:
        """Typemap-walking pack of a *gapped* derived type (slow path).

        The engine pipelines its copies with the transfer (Open MPI does),
        so the copy component runs at the pipelined bounce rate; the
        per-block descriptor walk is what makes gapped types slow.
        """
        return (nscalars * self.params.elem_cost
                + nbytes / self.params.eager_copy_bandwidth)

    def alloc_time(self, nbytes: int) -> float:
        """Fresh allocation incl. first touch."""
        return self.params.alloc_base + nbytes / self.params.alloc_bandwidth

    # -- software layers --------------------------------------------------

    def frag_overhead(self, nfrags: int) -> float:
        """Descriptor cost of ``nfrags`` pipeline fragments."""
        return nfrags * self.params.per_frag_overhead

    def callback_time(self, ncalls: int) -> float:
        """Cost of crossing the custom-datatype callback boundary."""
        return ncalls * self.params.callback_overhead

    def pickle_time(self, inband_bytes: int) -> float:
        """One pickle.dumps or pickle.loads over ``inband_bytes``."""
        return self.params.pickle_base + inband_bytes / self.params.pickle_bandwidth

    def probe_time(self) -> float:
        """One probe/mprobe round."""
        return self.params.probe_overhead
