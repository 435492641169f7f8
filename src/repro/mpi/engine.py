"""The transfer engine: datatype-aware send/receive over the transport.

This is the Python analogue of the paper's ``mpicd`` middle layer.  For every
send/receive it selects a transport descriptor and charges virtual time:

========================  ==========================  =========================
datatype                  transport descriptor        modelled cost
========================  ==========================  =========================
predefined / contiguous   CONTIG (zero-copy)          protocol only
derived, non-contiguous   CONTIG over a temp buffer   alloc + typemap walk
                          (the send temp is the       (per-block ``elem_cost``
                          wire chunk; the receive     — the Open MPI gap
                          temp is modelled only)      penalty of Fig. 5)
custom                    IOV: the packed stream as    callbacks + packed-byte
                          one entry (a pooled wire     copies on the
                          buffer ``pack_fn`` fills     ``frag_size`` grid;
                          in one window), then the     regions move zero-copy
                          regions (CONTIG when the
                          whole message is one
                          region)
========================  ==========================  =========================

Modelled grid vs real window: the paper's pipeline packs and unpacks a custom
type fragment by fragment, and that is what the clocks are charged —
``ceil(packed / frag_size)`` pack and unpack callbacks and as many IOV
entries per message.  The bytes move in one window each way: one ``pack_fn``
call straight into the wire buffer, one ``unpack_fn`` call straight out of
it (modelled fragments are accounted, not materialised — the rule the
derived path's two temps already follow).

Receive-side custom delivery runs as a :class:`~repro.ucp.dtypes.HandlerData`
callback on the receiving thread: unpack the in-band stream first, *then*
query the receiver's regions (whose placement may depend on the unpacked
metadata) and scatter into them — the two-stage choreography of Section III.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ..core.custom import (CustomDatatype, CustomRecvOperation,
                           CustomSendOperation)
from ..core.datatype import Datatype
from ..core.packing import pack, unpack
from ..core.packplan import UnpackCursor
from ..errors import MPIError, TruncationError
from ..ucp.context import Endpoint, Worker
from ..ucp.dtypes import ContigData, HandlerData, IovData, ScatterData
from ..ucp.wire import WireMessage
from .requests import Request, Status


@dataclass(frozen=True)
class EngineConfig:
    """Engine-level knobs (transport knobs live in LinkParams)."""

    #: Deliver packed fragments of custom types in reverse order when the
    #: type allows it (``inorder=False``) — the out-of-order ablation.
    ooo_fragments: bool = False


class TransferEngine:
    """Per-rank datatype engine bound to one transport worker."""

    def __init__(self, worker: Worker, config: EngineConfig | None = None):
        self.worker = worker
        self.model = worker.model
        self.config = config or EngineConfig()
        #: One endpoint per destination, built on first send.
        self._endpoints: dict[int, Endpoint] = {}

    @property
    def frag_size(self) -> int:
        return self.worker.config.frag_size

    # ------------------------------------------------------------------
    # send
    # ------------------------------------------------------------------

    def start_send(self, dest: int, tag64: int, buf, count: int,
                   dtype: Datatype, sync: bool = False) -> Request:
        """Start a send; ``sync=True`` gives MPI_Ssend completion semantics:
        every CONTIG transfer is forced onto rendezvous, including a custom
        type that degenerates to one region or to an empty message (only the
        IOV protocol is rendezvous-like on its own)."""
        ep = self._endpoints.get(dest)
        if ep is None:
            ep = self._endpoints[dest] = self.worker.endpoint(dest)
        san = self.worker.sanitizer
        if isinstance(dtype, CustomDatatype):
            req = self._send_custom(ep, tag64, buf, count, dtype, sync=sync)
        elif (tm := dtype.typemap).is_contiguous:
            sig = dtype.signature(count) if san is not None else None
            treq = ep.tag_send(tag64, ContigData(buf, tm.size * count),
                               force_rndv=sync, signature=sig)
            req = Request(treq)
        else:
            req = self._send_derived(ep, tag64, buf, count, dtype, tm,
                                     sync=sync)
        if san is not None:
            self._sanitize_send(san, req, buf, count, dtype, dest, tag64)
        return req

    def _sanitize_send(self, san, req: Request, buf, count: int,
                       dtype: Datatype, dest: int, tag64: int) -> None:
        """Register the send with the sanitizer (shadow buffer + label)."""
        if isinstance(dtype, CustomDatatype):
            san.check_custom_lifecycle(self.worker.index, dtype)
        san.on_send_posted(self.worker.index, req, buf, dtype, count,
                           dest, tag64)
        rec = req._san_record
        if rec is not None and req._req is not None:
            req._req.san_detail = rec.label

    def _send_derived(self, ep, tag64: int, buf, count: int,
                      dtype: Datatype, tm, sync: bool = False) -> Request:
        """Pack through the typemap engine, then send contiguous."""
        nbytes = tm.size * count
        clock = self.worker.clock
        memory = self.worker.memory
        temp = memory.acquire(nbytes, clock, self.model)
        try:
            pack(dtype, buf, count, out=temp)
            nblocks = count * len(tm.merged_blocks())
            clock.advance(self.model.typemap_pack_time(nblocks, nbytes))
            sig = dtype.signature(count) if self.worker.sanitizer is not None \
                else None
            req = ep.tag_send(tag64, ContigData(temp, nbytes),
                              force_rndv=sync, signature=sig)
        except BaseException:
            memory.recycle(temp)  # never injected: the temp is still ours
            raise
        # The temp is the wire chunk now (adopted or aliased): delivery's.
        memory.release(temp)
        return Request(req)

    def _send_custom(self, ep, tag64: int, buf, count: int,
                     dtype: CustomDatatype, sync: bool = False) -> Request:
        """One pass, one buffer: ``pack_fn`` fills a pooled wire buffer in
        one window and that buffer is the message's single packed entry;
        the model still charges the paper's ``frag_size`` pipeline."""
        pool = self.worker.memory.pool
        wire = None
        try:
            with CustomSendOperation(dtype, buf, count) as op:
                total = op.packed_size()
                # Modelled like the fragments it replaces: not booked with
                # the tracker, no first-touch charge.
                wire = pool.acquire(total)
                real = len(op.pack_fragments(max(total, 1), out=wire))
                regions = op.regions()
                modelled = self._charge_callbacks(op, real, total)
            packed = [wire] if total else []
            if not packed and len(regions) == 1:
                # Single contiguous buffer: the prototype prefers CONTIG.
                desc = ContigData(regions[0].read_bytes())
            elif not packed and not regions:
                desc = ContigData(np.empty(0, dtype=np.uint8))
            else:
                desc = IovData(packed + [r.read_bytes() for r in regions],
                               packed_entries=len(packed),
                               entry_count=modelled + len(regions))
            return Request(ep.tag_send(tag64, desc, force_rndv=sync))
        except BaseException:
            if wire is not None:
                pool.release(wire)  # never injected: the buffer is still ours
            raise

    # ------------------------------------------------------------------
    # receive
    # ------------------------------------------------------------------

    def start_recv(self, tag64: int, mask: int, buf, count: int,
                   dtype: Datatype, peers=None) -> Request:
        san = self.worker.sanitizer
        if isinstance(dtype, CustomDatatype):
            desc = HandlerData(self._custom_recv_handler(buf, count, dtype))
            treq = self.worker.tag_recv(tag64, desc, mask, peers=peers)
            req = Request(treq)
        elif (tm := dtype.typemap).is_contiguous:
            desc = ContigData(buf, tm.size * count, writable=True)
            if san is not None:
                desc.expected_signature = dtype.signature(count)
            treq = self.worker.tag_recv(tag64, desc, mask, peers=peers)
            req = Request(treq)
        else:
            desc, finish, unbook = self._derived_delivery(buf, count, dtype,
                                                          tm)
            treq = self.worker.tag_recv(tag64, desc, mask, peers=peers)

            def on_complete() -> Status:
                # Request.wait ran treq.wait() first: the delivery is done.
                status = finish(treq.info)
                unbook()
                return status

            req = Request(treq, on_complete=on_complete, on_cancel=unbook)
        if san is not None:
            self._sanitize_recv(san, req, buf, count, dtype, peers, tag64)
        return req

    def _sanitize_recv(self, san, req: Request, buf, count: int,
                       dtype: Datatype, peers, tag64: int) -> None:
        """Register the receive with the sanitizer (shadow buffer + label)."""
        if isinstance(dtype, CustomDatatype):
            san.check_custom_lifecycle(self.worker.index, dtype)
        san.on_recv_posted(self.worker.index, req, buf, dtype, count,
                           peers, tag64)
        rec = req._san_record
        if rec is not None and req._req is not None:
            req._req.san_detail = rec.label

    def recv_message(self, msg: WireMessage, buf, count: int,
                     dtype: Datatype) -> Status:
        """Mprobe-style receive of an already-claimed message."""
        if isinstance(dtype, CustomDatatype):
            desc = HandlerData(self._custom_recv_handler(buf, count, dtype))
        elif (tm := dtype.typemap).is_contiguous:
            desc = ContigData(buf, tm.size * count, writable=True)
            if self.worker.sanitizer is not None:
                desc.expected_signature = dtype.signature(count)
        else:
            desc, finish, unbook = self._derived_delivery(buf, count, dtype,
                                                          tm)
            try:
                return finish(self.worker.msg_recv(msg, desc))
            finally:
                unbook()
        return Status.from_recv_info(self.worker.msg_recv(msg, desc))

    def _derived_delivery(self, buf, count: int, dtype: Datatype, tm):
        """The one derived receive path: ``(descriptor, finish, unbook)``.

        The baseline's receive temp is booked (first-touch cost, tracker
        accounting, ``byte_ceiling``) but never built: the descriptor unpacks
        the wire chunks straight into ``buf``.  ``finish(info)`` runs after
        the message completed (a rendezvous sender waits for none of it):
        it charges the typemap walk and raises the receiver's own errors.
        """
        size = tm.size
        nbytes = size * count
        clock = self.worker.clock
        memory = self.worker.memory
        memory.reserve(nbytes, clock, self.model)
        error: MPIError | None = None

        def scatter(chunks) -> None:
            nonlocal error
            got = sum(map(len, chunks))  # 1-D uint8 wire chunks
            try:
                if size and got % size:
                    raise TruncationError(
                        f"received {got} bytes, not a whole number of "
                        f"{size}-byte elements")
                nelem = got // size if size else 0
                if len(chunks) == 1:
                    unpack(dtype, buf, nelem, chunks[0])
                    return
                lengths = [c.shape[0] for c in chunks]
                with UnpackCursor(dtype, buf, nelem) as cursor:
                    for offset, chunk in zip(self._offsets(lengths), chunks):
                        cursor.write(offset, chunk)
            except MPIError as exc:
                error = exc  # the receiver's own fault, not the message's

        desc = ScatterData(nbytes, scatter)
        if self.worker.sanitizer is not None:
            desc.expected_signature = dtype.signature(count)

        def finish(info) -> Status:
            if error is not None:
                raise error
            nblocks = (info.nbytes // size if size else 0) \
                * len(tm.merged_blocks())
            clock.advance(self.model.typemap_pack_time(nblocks, info.nbytes))
            return Status.from_recv_info(info)

        return desc, finish, partial(memory.release, nbytes)

    def _custom_recv_handler(self, buf, count: int, dtype: CustomDatatype):
        """Build the delivery handler that runs on the receiving thread."""
        engine = self

        def handler(msg: WireMessage) -> int:
            engine.deliver_custom(msg, buf, count, dtype)
            return msg.header.total_bytes

        return handler

    def deliver_custom(self, msg: WireMessage, buf, count: int,
                       dtype: CustomDatatype) -> None:
        """Scatter one wire message through the custom-type callbacks."""
        hdr = msg.header
        k = hdr.packed_entries
        chunks = msg.chunks
        san = self.worker.sanitizer
        with CustomRecvOperation(dtype, buf, count) as op:
            if san is not None:
                # Contract check on live traffic: what the receiver's query
                # callback promises must be what the sender actually packed.
                # Recv-side queries may legitimately fail on not-yet-filled
                # objects; only a successful, definite promise is compared.
                try:
                    promised = op.expected_packed_size()
                except Exception:
                    promised = -1
                actual = sum(int(n) for n in hdr.entry_lengths[:k])
                san.check_packed_promise(self.worker.index, hdr.source,
                                         dtype, promised, actual)
            packed = list(zip(self._offsets(hdr.entry_lengths[:k]), chunks[:k]))
            frag = self.frag_size
            if self.config.ooo_fragments:
                # The ablation delivers on the modelled grid, not in the one
                # window the message really arrived in.
                packed = [(offset + start, chunk[start:start + frag])
                          for offset, chunk in packed
                          for start in range(0, chunk.shape[0], frag)]
                if not dtype.inorder:
                    packed.reverse()
            for offset, chunk in packed:
                op.unpack_fragment(offset, chunk)
            region_lens = list(hdr.entry_lengths[k:])
            try:
                regions = op.recv_regions(region_lens)
            except MPIError as exc:
                if san is not None:
                    san.report_region_mismatch(self.worker.index,
                                               hdr.source, dtype, exc)
                raise
            for chunk, region in zip(chunks[k:], regions):
                region.writable_view()[: chunk.shape[0]] = chunk
            self._charge_callbacks(op, len(packed), op.bytes_unpacked)

    def _charge_callbacks(self, op, real: int, packed_bytes: int) -> int:
        """Charge a custom operation's callbacks and packed-byte copy as
        the model sees them: ``op.ncallbacks`` counts real invocations, of
        which the ``real`` pack (or unpack) calls are swapped for the
        paper's pipeline, one per ``frag_size`` fragment of the packed
        stream.  Returns that modelled fragment count."""
        modelled = -(-packed_bytes // self.frag_size)
        self.worker.clock.advance(
            self.model.callback_time(op.ncallbacks - real + modelled)
            + self.model.copy_time(packed_bytes))
        return modelled

    @staticmethod
    def _offsets(lengths) -> list[int]:
        out, pos = [], 0
        for n in lengths:
            out.append(pos)
            pos += int(n)
        return out
