"""Wire-envelope codec: the executable RPD810/811 rules.

These are the "actually crosses a process boundary" checks the in-process
seed never had: every envelope must be plain data (`assert_portable`), and
a decode must rebuild a message whose delivery observables are identical
to the original's.
"""

from __future__ import annotations

import inspect
import pickle
import threading

import numpy as np
import pytest

import repro.errors
from repro.core.custom import type_create_custom
from repro.errors import TransportError
from repro.mpi.runtime import run
from repro.ucp.transport.envelope import (assert_portable, bytes_chunks,
                                          chunk_bytes, decode_envelope,
                                          decode_error, encode_envelope,
                                          encode_error)
from repro.ucp.wire import WireHeader, WireMessage


def _msg(protocol="eager", poisoned=None, rndv=False) -> WireMessage:
    hdr = WireHeader(tag=0x42, source=1, total_bytes=12,
                     entry_lengths=(8, 4), packed_entries=2,
                     protocol=protocol, signature=(("d", 1), ("i", 2)),
                     msg_id=(2 << 40) | 7)
    hdr.seq = 5
    hdr.frag_crcs = (123, 456)
    msg = WireMessage(hdr, [np.arange(8, dtype=np.uint8),
                            np.arange(4, dtype=np.uint8) + 100],
                      send_ready=1e-6, wire_time=2e-6, rndv=rndv,
                      recv_cost=3e-6)
    msg.duplicate_of = 9 if protocol == "eager" else None
    msg.poisoned = poisoned
    return msg


class TestAssertPortable:
    def test_plain_data_passes(self):
        assert_portable({"a": 1, "b": (1.5, "x", b"y", None, True),
                         "c": [{"k": 2}]})

    @pytest.mark.parametrize("bad", [
        np.arange(3),                      # live buffer view
        threading.Event(),                 # live handle (RPD811)
        ValueError("boom"),                # live exception object
        {1, 2},                            # unordered, not wire-stable
    ])
    def test_live_objects_rejected(self, bad):
        with pytest.raises(TransportError) as ei:
            assert_portable({"field": bad})
        assert "field" in str(ei.value)  # the offending path is named

    def test_nested_path_named(self):
        with pytest.raises(TransportError) as ei:
            assert_portable({"outer": [{"inner": object()}]})
        assert "inner" in str(ei.value)


class TestEnvelopeRoundtrip:
    def test_header_and_costs_survive(self):
        msg = _msg()
        doc = encode_envelope(msg)
        assert_portable(doc)
        # The document must truly cross a boundary.
        doc = pickle.loads(pickle.dumps(doc))
        out = decode_envelope(doc, [c.copy() for c in msg.chunks])
        assert out.header.tag == msg.header.tag
        assert out.header.source == msg.header.source
        assert out.header.entry_lengths == msg.header.entry_lengths
        assert out.header.protocol == msg.header.protocol
        assert out.header.signature == msg.header.signature
        assert out.header.seq == msg.header.seq
        assert out.header.frag_crcs == msg.header.frag_crcs
        assert out.header.msg_id == msg.header.msg_id
        # Virtual-time contract: every cost number rides the envelope.
        assert out.send_ready == msg.send_ready
        assert out.wire_time == msg.wire_time
        assert out.rndv == msg.rndv
        assert out.recv_cost == msg.recv_cost
        assert out.duplicate_of == msg.duplicate_of
        assert out.remote_origin == msg.header.source

    def test_fresh_local_handles(self):
        """RPD811: the completion event never crosses; the decoded side
        gets its own."""
        msg = _msg()
        msg.completed.set()
        out = decode_envelope(encode_envelope(msg), [])
        assert out.completed is not msg.completed
        assert not out.completed.is_set()

    def test_poisoned_crosses_as_blob(self):
        poison = TransportError("retry budget exhausted")
        doc = encode_envelope(_msg(poisoned=poison))
        assert isinstance(doc["poisoned"], bytes)
        out = decode_envelope(pickle.loads(pickle.dumps(doc)), [])
        assert isinstance(out.poisoned, TransportError)
        assert "exhausted" in str(out.poisoned)

    def test_signature_normalized_from_lists(self):
        doc = encode_envelope(_msg())
        doc["signature"] = [["d", 1], ["i", 2]]  # JSON-ish decoder shape
        out = decode_envelope(doc, [])
        assert out.header.signature == (("d", 1), ("i", 2))


class TestErrorCodec:
    def test_roundtrip(self):
        err = decode_error(encode_error(ValueError("nope")))
        assert isinstance(err, ValueError) and str(err) == "nope"

    def test_none_passthrough(self):
        assert encode_error(None) is None
        assert decode_error(None) is None

    def test_unpicklable_degrades_to_transport_error(self):
        class Evil(Exception):
            def __reduce__(self):
                raise RuntimeError("cannot pickle me")

        err = decode_error(encode_error(Evil("secret")))
        assert isinstance(err, TransportError)
        assert "Evil" in str(err)

    def test_undecodable_blob_degrades_to_transport_error(self):
        """Symmetric with ``encode_error``: the thread that reads an ack
        frame must survive whatever is in it."""
        err = decode_error(b"\x80\x05 not a pickle")
        assert isinstance(err, TransportError)
        assert "not a pickle" in str(err)

    #: One value per constructor parameter name used in ``repro.errors``.
    SAMPLE = {"code": repro.errors.MPI_ERR_TRUNCATE, "message": "went wrong",
              "cause": None, "diagnostics": (), "failed_ranks": {3, 1},
              "rank": 2, "vtime": 1.5e-3, "job": "j#1", "outstanding": 1,
              "leaked_bytes": 64, "budget": 1e-3, "now": 2e-3,
              "ceiling": 100, "live_bytes": 80, "requested": 40,
              "failures": {0: ValueError("boom"), 1: TimeoutError("late")}}

    @pytest.mark.parametrize("cls", [
        c for _, c in inspect.getmembers(repro.errors, inspect.isclass)
        if issubclass(c, BaseException)], ids=lambda c: c.__name__)
    def test_every_error_class_roundtrips(self, cls):
        """Any of them can ride an ack frame or a rank report: class, text
        and attributes must all survive (four of them did not even
        unpickle — multi-argument ``__init__``)."""
        params = [p for p in inspect.signature(cls.__init__).parameters
                  if p in self.SAMPLE]
        exc = cls(**{p: self.SAMPLE[p] for p in params}) \
            if params else cls("went wrong")
        back = decode_error(encode_error(exc))
        assert type(back) is cls
        assert str(back) == str(exc) and back.args == exc.args
        assert repr(vars(back)) == repr(vars(exc))


class TestPayloadCodec:
    def test_chunk_bytes_roundtrip(self):
        chunks = [np.arange(16, dtype=np.uint8),
                  np.zeros(0, dtype=np.uint8)]
        out = bytes_chunks(chunk_bytes(chunks))
        assert len(out) == 2
        assert (out[0] == chunks[0]).all()
        assert out[1].size == 0

    def test_callback_chunks_are_valid_during_the_call(self, backend):
        """The callback lifetime contract (``UnpackFn``): ``src`` holds the
        right bytes while the unpack callback runs and is the transport's
        again afterwards — no backend makes private copies for callbacks,
        and every pool balances once the message is delivered."""
        payload = np.arange(48, dtype=np.uint8)

        def pack(state, buf, count, offset, dst):
            n = min(dst.shape[0], 48 - offset)
            dst[:n] = buf[offset:offset + n]
            return int(n)

        def fn(comm):
            seen = []
            dtype = type_create_custom(
                query_fn=lambda s, b, c: 48, pack_fn=pack,
                unpack_fn=lambda s, b, c, off, src: seen.append(bytes(src)))
            if comm.rank == 0:
                comm.send(payload, dest=1, datatype=dtype)
            else:
                comm.recv(np.empty(48, np.uint8), source=0, datatype=dtype)
            return b"".join(seen)

        res = run(fn, nprocs=2, transport=backend, timeout=30)
        assert res.results[1] == payload.tobytes()
        assert [m["pool"]["outstanding"] for m in res.memory] == [0, 0]
        assert [m["live_bytes"] for m in res.memory] == [0, 0]
