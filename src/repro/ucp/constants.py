"""Transport-level constants (the UCP analogues).

The 64-bit tag-packing scheme mirrors how real MPI implementations run over
UCX: the MPI communicator id and source rank are folded into the UCP tag and
wildcards become mask bits.
"""

from __future__ import annotations

# UCP datatype kinds (UCP_DATATYPE_* analogues).
DATATYPE_CONTIG = "contig"
DATATYPE_IOV = "iov"

#: Seconds between two ticks of the one poll loop, ``Worker.park``.
POLL_PERIOD = 0.005
#: Seconds a "this wait can never complete" verdict is held before it is
#: raised: ``rank`` times for the failure detector's, once (unchanged
#: throughout) for the sanitizer's.
VERDICT_GRACE = 0.025

# Tag packing: | comm (16) | source (16) | user tag (32) |
TAG_USER_BITS = 32
TAG_SOURCE_BITS = 16
TAG_COMM_BITS = 16

TAG_USER_MASK = (1 << TAG_USER_BITS) - 1
#: User tags must stay below this; the range above (up to
#: ``TAG_USER_MASK``) is reserved for collectives and other internal
#: protocols.
MAX_USER_TAG = 1 << 30
TAG_SOURCE_SHIFT = TAG_USER_BITS
TAG_SOURCE_MASK = ((1 << TAG_SOURCE_BITS) - 1) << TAG_SOURCE_SHIFT
TAG_COMM_SHIFT = TAG_USER_BITS + TAG_SOURCE_BITS
TAG_COMM_MASK = ((1 << TAG_COMM_BITS) - 1) << TAG_COMM_SHIFT

TAG_FULL_MASK = (1 << (TAG_USER_BITS + TAG_SOURCE_BITS + TAG_COMM_BITS)) - 1


def pack_tag(comm_id: int, source: int, user_tag: int) -> int:
    """Fold (communicator, source rank, user tag) into one transport tag."""
    if not 0 <= user_tag <= TAG_USER_MASK:
        raise ValueError(f"user tag {user_tag} out of range")
    if not 0 <= source < (1 << TAG_SOURCE_BITS):
        raise ValueError(f"source rank {source} out of range")
    if not 0 <= comm_id < (1 << TAG_COMM_BITS):
        raise ValueError(f"comm id {comm_id} out of range")
    return (comm_id << TAG_COMM_SHIFT) | (source << TAG_SOURCE_SHIFT) | user_tag


def unpack_tag(tag: int) -> tuple[int, int, int]:
    """Inverse of :func:`pack_tag`: returns (comm_id, source, user_tag)."""
    return (tag >> TAG_COMM_SHIFT,
            (tag & TAG_SOURCE_MASK) >> TAG_SOURCE_SHIFT,
            tag & TAG_USER_MASK)


def match_mask(any_source: bool, any_tag: bool) -> int:
    """Mask for tag matching with optional wildcards."""
    mask = TAG_FULL_MASK
    if any_source:
        mask &= ~TAG_SOURCE_MASK
    if any_tag:
        mask &= ~((1 << TAG_USER_BITS) - 1)
    return mask
