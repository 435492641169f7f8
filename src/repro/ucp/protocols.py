"""Protocol selection and cost planning for outgoing messages.

Given a send descriptor, :func:`plan_send` takes the transfer protocol from
the shared transition table (:mod:`repro.ucp.transitions`) and splits the
modelled cost into the three components the virtual-time machinery needs:

* ``sender_cost`` — charged to the sender's clock at injection,
* ``wire_time`` — the latency + serialization component; for rendezvous-like
  protocols the transfer cannot start before both sides are ready,
* ``recv_cost`` — charged to the receiver's clock at delivery.

The split is arranged so that ``sender_cost + wire_time + recv_cost`` equals
the aggregate times of :class:`repro.ucp.netsim.CostModel`, keeping the bench
analytics and the engine in exact agreement.

One cost row per protocol (mirroring UCX and the paper's prototype):

* CONTIG <= eager_limit  -> **eager**: copies through bounce buffers on both
  sides, no handshake.  Sender may reuse its buffer immediately.
* CONTIG > eager_limit   -> **rndv**: zero-copy, but pays an RTS/CTS
  handshake and registration.  The switch is the Fig. 7 dip.
* IOV                     -> **iov**: always rendezvous-like scatter/gather
  with per-entry overhead on the descriptor's *modelled* ``entry_count``;
  no eager/rndv discontinuity (why ``custom`` is smooth in Fig. 7).
* GENERIC                 -> **generic**: pack-callback pipeline; fragments
  are eagerly copied (they are transient), with per-fragment overhead.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

from ..errors import TransportError
from .netsim import CostModel
from .transitions import (protocol_copies_eagerly, protocol_is_rndv,
                          select_protocol)


class SendPlan(NamedTuple):
    """Protocol decision plus the three-way cost split (a plain tuple: one
    is built per message)."""

    protocol: str           # "eager" | "rndv" | "iov" | "generic"
    sender_cost: float
    wire_time: float
    recv_cost: float
    rndv: bool              # True -> transfer starts at max(send, recv ready)
    eager_copy: bool        # True -> chunks must be copied at injection

    @property
    def total_one_way(self) -> float:
        return self.sender_cost + self.wire_time + self.recv_cost


#: Skips the keyword ``__new__`` NamedTuple generates, a Python-level call.
_new_plan = partial(tuple.__new__, SendPlan)


def _eager(p, model, data):
    half = data.total_bytes / p.eager_copy_bandwidth + 0.5 * p.msg_overhead
    return half, p.latency + model.wire_time(data.total_bytes), half


def _rndv(p, model, data):
    n = data.total_bytes
    return (0.5 * p.msg_overhead + n / p.rndv_reg_bandwidth,
            p.latency + p.rndv_handshake + model.wire_time(n),
            0.5 * p.msg_overhead)


def _iov(p, model, data):
    n = data.total_bytes
    half_sg = 0.5 * (p.iov_base_overhead
                     + data.entry_count * p.iov_region_overhead)
    return (0.5 * p.msg_overhead + half_sg + n / p.rndv_reg_bandwidth,
            p.latency + model.wire_time(n), 0.5 * p.msg_overhead + half_sg)


def _generic(p, model, data):
    half = 0.5 * p.msg_overhead \
        + 0.5 * model.frag_overhead(max(data.entry_count, 1))
    return half, p.latency + model.wire_time(data.total_bytes), half


#: protocol -> (cost split, rndv, eager_copy); the two flags are the
#: transition table's, read once here.
_ROWS = {protocol: (cost, protocol_is_rndv(protocol),
                    protocol_copies_eagerly(protocol))
         for protocol, cost in (("eager", _eager), ("rndv", _rndv),
                                ("iov", _iov), ("generic", _generic))}


def plan_send(data, model: CostModel, force_rndv: bool = False) -> SendPlan:
    """Choose protocol and cost split for a send descriptor (the send
    contract of :mod:`repro.ucp.dtypes`; GENERIC after ``entries`` ran).

    ``force_rndv`` requests synchronous-send (MPI_Ssend) semantics, where
    completion implies the receive has started; the protocol model checker
    verifies the same ``select_protocol`` decision.
    """
    p = model.params
    try:
        protocol = select_protocol(data.kind, data.total_bytes,
                                   p.eager_limit, force_rndv)
    except (AttributeError, ValueError):
        raise TransportError(f"cannot plan a send for descriptor "
                             f"{type(data).__name__}") from None
    cost, rndv, eager_copy = _ROWS[protocol]
    return _new_plan((protocol, *cost(p, model, data), rndv, eager_copy))


#: Why a blocked send waits, per rendezvous-like protocol: the sanitizer's
#: evidence text on a wait-for edge (an eager send never blocks).
WAIT_SEMANTICS = {
    "rndv": "rendezvous: blocks until the matching receive runs",
    "iov": "iov rendezvous: regions are pulled when the receive runs",
}
