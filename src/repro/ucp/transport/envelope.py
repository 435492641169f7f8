"""Portable wire-envelope codec: the RPD810/811 rules made executable.

The RPD8xx portability audit (PR 8) states two rules for anything riding a
:class:`~repro.ucp.wire.WireMessage` across a process boundary:

* **RPD810** — no by-reference payload: rendezvous chunks that alias the
  sender's live buffers must be *staged* (copied into transport-owned
  memory, or mapped by (rank, offset) reference into a shared segment)
  before the envelope leaves the sending process.
* **RPD811** — no non-serializable control plane: ``threading.Event``,
  exception objects and other live handles stay in a sender-local pending
  table keyed by ``msg_id``; only plain data crosses the wire.

This module is the shared implementation of those rules for the remote
backends (``shm``, ``asyncio``): an envelope *document* is a dict of
primitives (int/float/str/bytes/bool/None and tuples/lists/dicts thereof)
and nothing else.  :func:`assert_portable` enforces that invariant — the
conformance tests run every protocol's envelope through it, which is the
"actually pickles across a process boundary" check the in-process seed
never had.
"""

from __future__ import annotations

import pickle

import numpy as np

from ...errors import TransportError
from ..wire import WireHeader, WireMessage

#: WireHeader fields carried verbatim on the envelope document.
HEADER_FIELDS = ("tag", "source", "total_bytes", "entry_lengths",
                 "packed_entries", "protocol", "signature", "seq",
                 "frag_crcs", "msg_id")

#: WireMessage scalar fields carried verbatim (the virtual-time contract:
#: every cost number crosses the wire, so both sides compute identical
#: delivery times regardless of backend).
MESSAGE_FIELDS = ("send_ready", "wire_time", "rndv", "recv_cost",
                  "duplicate_of")

_PORTABLE_SCALARS = (int, float, str, bytes, bool, type(None))


def assert_portable(doc, path: str = "envelope") -> None:
    """Raise :class:`TransportError` unless ``doc`` is plain data.

    This is the runtime teeth of the RPD811 audit: a field that would drag
    a live object (event, lock, ndarray view, exception) onto the wire
    fails here, at the sending side, with the offending path named.
    """
    if isinstance(doc, _PORTABLE_SCALARS):
        return
    if isinstance(doc, (tuple, list)):
        for i, item in enumerate(doc):
            assert_portable(item, f"{path}[{i}]")
        return
    if isinstance(doc, dict):
        for key, value in doc.items():
            if not isinstance(key, (str, int)):
                raise TransportError(
                    f"non-portable envelope key at {path}: {key!r}")
            assert_portable(value, f"{path}[{key!r}]")
        return
    raise TransportError(
        f"non-portable envelope field at {path}: {type(doc).__name__} "
        f"(RPD811: only plain data may cross a process boundary)")


def encode_error(exc: BaseException | None) -> bytes | None:
    """Pickle an exception for an acknowledgement frame.

    Exceptions are user-defined and may be unpicklable; those degrade to a
    :class:`TransportError` carrying the repr, which is the same
    information a remote MPI peer would get.
    """
    if exc is None:
        return None
    try:
        return pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return pickle.dumps(
            TransportError(f"{type(exc).__name__}: {exc}"),
            protocol=pickle.HIGHEST_PROTOCOL)


def decode_error(blob: bytes | None) -> BaseException | None:
    """Inverse of :func:`encode_error`, and as total: a blob that does not
    unpickle here degrades to a :class:`TransportError` carrying its repr
    instead of killing the thread that read the frame."""
    if blob is None:
        return None
    try:
        return pickle.loads(blob)
    except Exception as exc:
        return TransportError(
            f"undecodable error frame ({type(exc).__name__}: {exc}): "
            f"{blob[:200]!r}")


def encode_envelope(msg: WireMessage) -> dict:
    """The portable document for one message (no payload, no handles)."""
    hdr = msg.header
    doc = {f: getattr(hdr, f) for f in HEADER_FIELDS}
    for f in MESSAGE_FIELDS:
        doc[f] = getattr(msg, f)
    # The poisoned marker (reliability retry budget exhausted) is the one
    # exception that legitimately rides the envelope: the receiver must
    # raise it at delivery.  It crosses as a pickle blob, not a live
    # object.
    doc["poisoned"] = encode_error(msg.poisoned)
    assert_portable(doc)
    return doc


def decode_envelope(doc: dict, chunks) -> WireMessage:
    """Rebuild a deliverable :class:`WireMessage` from a document.

    (The RPD810 exemption is deliberate and receiver-side only: ``chunks``
    are already *transport-materialized* — bytes decoded off a socket
    frame or mapped views of a peer's shared arena — so the by-reference
    rule this code exists to enforce has been satisfied upstream.)

    ``chunks`` are the backend-materialized payload entries (bytes decoded
    from a socket frame, or views into a peer's shared-memory arena).  The
    receiver-side message gets fresh local handles (completion event);
    completion flows back to the sender as an acknowledgement frame, never
    as a shared object.
    """
    hdr = WireHeader(
        tag=doc["tag"], source=doc["source"],
        total_bytes=doc["total_bytes"],
        entry_lengths=tuple(doc["entry_lengths"]),
        packed_entries=doc["packed_entries"],
        protocol=doc["protocol"],
        signature=_decode_signature(doc["signature"]),
        msg_id=doc["msg_id"])
    hdr.seq = doc["seq"]
    hdr.frag_crcs = tuple(doc["frag_crcs"])
    msg = WireMessage(hdr, chunks,  # noqa: RPD810
                      send_ready=doc["send_ready"],
                      wire_time=doc["wire_time"],
                      rndv=doc["rndv"],
                      recv_cost=doc["recv_cost"])
    msg.duplicate_of = doc["duplicate_of"]
    msg.poisoned = decode_error(doc["poisoned"])
    #: Rank whose pending table holds the sender-side original; the
    #: receive path acknowledges toward it (None marks a local message).
    msg.remote_origin = doc["source"]
    return msg


def _decode_signature(sig):
    """Signatures are tuples of (code, count) pairs; lists arrive from
    JSON-ish decoders and are normalized back."""
    if sig is None:
        return None
    return tuple(tuple(pair) for pair in sig)


def chunk_bytes(chunks) -> list[bytes]:
    """Serialize payload chunks to raw bytes (the socket data plane)."""
    return [np.ascontiguousarray(c, dtype=np.uint8).tobytes()
            for c in chunks]


def bytes_chunks(payloads) -> list[np.ndarray]:
    """Materialize received payload bytes as delivery chunks.

    Deliveries only *read* chunks, and only during the delivery (the
    callback lifetime contract, see :mod:`repro.ucp.dtypes`),
    so a read-only zero-copy view over the frame bytes suffices.
    """
    return [np.frombuffer(blob, dtype=np.uint8) for blob in payloads]
