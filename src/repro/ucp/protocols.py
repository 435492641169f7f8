"""Protocol selection and cost planning for outgoing messages.

Given a data descriptor, :func:`plan_send` decides the transfer protocol and
splits the modelled cost into the three components the virtual-time machinery
needs:

* ``sender_cost`` — charged to the sender's clock at injection,
* ``wire_time`` — the latency + serialization component; for rendezvous-like
  protocols the transfer cannot start before both sides are ready,
* ``recv_cost`` — charged to the receiver's clock at delivery.

The split is arranged so that ``sender_cost + wire_time + recv_cost`` equals
the aggregate times of :class:`repro.ucp.netsim.CostModel`, keeping the bench
analytics and the engine in exact agreement.

Protocol rules (mirroring UCX and the paper's prototype):

* CONTIG <= eager_limit  -> **eager**: copies through bounce buffers on both
  sides, no handshake.  Sender may reuse its buffer immediately.
* CONTIG > eager_limit   -> **rndv**: zero-copy, but pays an RTS/CTS
  handshake and registration.  The switch is the Fig. 7 dip.
* IOV                     -> **iov**: always rendezvous-like scatter/gather
  with per-entry overhead on the descriptor's *modelled* entry count
  (``IovData.entry_count``); no eager/rndv discontinuity (why ``custom`` is
  smooth in Fig. 7).
* GENERIC                 -> **generic**: pack-callback pipeline; fragments
  are eagerly copied (they are transient), with per-fragment overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import TransportError
from .dtypes import ContigData, GenericData, IovData
from .netsim import CostModel
from .transitions import select_protocol


@dataclass(frozen=True)
class SendPlan:
    """Protocol decision plus the three-way cost split."""

    protocol: str           # "eager" | "rndv" | "iov" | "generic"
    sender_cost: float
    wire_time: float
    recv_cost: float
    rndv: bool              # True -> transfer starts at max(send, recv ready)
    eager_copy: bool        # True -> chunks must be copied at injection

    @property
    def total_one_way(self) -> float:
        return self.sender_cost + self.wire_time + self.recv_cost


def plan_send(data, model: CostModel, frag_count: int = 0,
              force_rndv: bool = False) -> SendPlan:
    """Choose protocol and cost split for a descriptor.

    ``frag_count`` is only used for GENERIC (number of pipeline fragments).
    ``force_rndv`` forces the rendezvous protocol regardless of size —
    synchronous-send (MPI_Ssend) semantics, where completion implies the
    receive has started.
    """
    p = model.params
    if isinstance(data, ContigData):
        n = data.total_bytes
        # The eager/rendezvous boundary decision is shared with the protocol
        # model checker (repro.ucp.transitions), so the verified transition
        # table and the live fabric cannot drift apart at the cutoff.
        if select_protocol("contig", n, p.eager_limit, force_rndv) == "eager":
            bounce = n / p.eager_copy_bandwidth
            return SendPlan(
                protocol="eager",
                sender_cost=bounce + 0.5 * p.msg_overhead,
                wire_time=p.latency + model.wire_time(n),
                recv_cost=bounce + 0.5 * p.msg_overhead,
                rndv=False, eager_copy=True)
        return SendPlan(
            protocol="rndv",
            sender_cost=0.5 * p.msg_overhead + n / p.rndv_reg_bandwidth,
            wire_time=p.latency + p.rndv_handshake + model.wire_time(n),
            recv_cost=0.5 * p.msg_overhead,
            rndv=True, eager_copy=False)
    if isinstance(data, IovData):
        n = data.total_bytes
        k = data.entry_count
        half_sg = 0.5 * (p.iov_base_overhead + k * p.iov_region_overhead)
        return SendPlan(
            protocol="iov",
            sender_cost=0.5 * p.msg_overhead + half_sg + n / p.rndv_reg_bandwidth,
            wire_time=p.latency + model.wire_time(n),
            recv_cost=0.5 * p.msg_overhead + half_sg,
            rndv=True, eager_copy=False)
    if isinstance(data, GenericData):
        n = data.total_bytes
        oh = model.frag_overhead(max(frag_count, 1))
        return SendPlan(
            protocol="generic",
            sender_cost=0.5 * p.msg_overhead + 0.5 * oh,
            wire_time=p.latency + model.wire_time(n),
            recv_cost=0.5 * p.msg_overhead + 0.5 * oh,
            rndv=False, eager_copy=True)
    raise TransportError(f"cannot plan a send for descriptor {type(data).__name__}")


def wait_semantics(protocol: str, rndv: bool) -> str:
    """Why a send's ``wait()`` can block under this protocol.

    Used by the sanitizer as evidence text in wait-for edges: eager sends
    complete at injection and can never participate in a deadlock cycle,
    while rendezvous-like protocols block until the matching receive runs.
    """
    if not rndv:
        return "eager: wait cannot block"
    if protocol == "iov":
        return "iov rendezvous: regions are pulled when the receive runs"
    if protocol == "rndv":
        return "rendezvous: blocks until the matching receive runs"
    return f"{protocol}: rendezvous-like, blocks on the receiver"
