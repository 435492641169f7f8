"""Simulated UCP transport: tag matching, protocols, virtual-time cost model.

This package is the substitute for UCX/UCP plus the InfiniBand fabric of the
paper's testbed (see DESIGN.md §2).  Real bytes move through it; time is
charged from :class:`~repro.ucp.netsim.CostModel`.
"""

from .constants import (DATATYPE_CONTIG, DATATYPE_GENERIC, DATATYPE_IOV,
                        TAG_FULL_MASK, match_mask, pack_tag, unpack_tag)
from .dtypes import CallbackData, ContigData, GenericData, IovData
from .faults import (FailureDetector, FaultInjector, FaultPlan,
                     ReliabilityConfig, ReliabilityStats)
from .memory import MemoryTracker
from .netsim import (DEFAULT_PARAMS, IOV_REGION_SOFT_LIMIT,
                     MIN_EFFICIENT_FRAGMENT_BYTES, MIN_EFFICIENT_REGION_BYTES,
                     CostModel, LinkParams, VirtualClock)
from .protocols import SendPlan, plan_send
from .tagmatch import PostedRecv, TagMatcher
from .context import (Endpoint, Fabric, RecvInfo, RecvRequest, SendRequest,
                      UcpConfig, UcpContext, Worker)
from .transport import (Transport, TransportUnavailableError,
                        available_transports, create_transport,
                        resolve_transport_name)
from .wire import WireHeader, WireMessage

__all__ = [
    "DATATYPE_CONTIG", "DATATYPE_IOV", "DATATYPE_GENERIC",
    "TAG_FULL_MASK", "pack_tag", "unpack_tag", "match_mask",
    "ContigData", "IovData", "GenericData", "CallbackData",
    "FaultPlan", "ReliabilityConfig", "ReliabilityStats",
    "FaultInjector", "FailureDetector",
    "MemoryTracker",
    "LinkParams", "DEFAULT_PARAMS", "CostModel", "VirtualClock",
    "IOV_REGION_SOFT_LIMIT", "MIN_EFFICIENT_REGION_BYTES",
    "MIN_EFFICIENT_FRAGMENT_BYTES",
    "SendPlan", "plan_send",
    "TagMatcher", "PostedRecv",
    "UcpConfig", "UcpContext", "Fabric", "Worker", "Endpoint",
    "SendRequest", "RecvRequest", "RecvInfo",
    "WireHeader", "WireMessage",
    "Transport", "TransportUnavailableError", "available_transports",
    "create_transport", "resolve_transport_name",
]
