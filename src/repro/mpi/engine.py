"""The transfer engine: datatype-aware send/receive over the transport.

This is the Python analogue of the paper's ``mpicd`` middle layer.  For every
send/receive it selects a transport descriptor and charges virtual time:

========================  ==========================  =========================
datatype                  transport descriptor        modelled cost
========================  ==========================  =========================
predefined / contiguous   CONTIG (zero-copy)          protocol only
derived, non-contiguous   CONTIG over a deferred      alloc + typemap walk
                          source: both temps are      (per-block ``elem_cost``
                          modelled; the ucp layer     — the Open MPI gap
                          builds the packed bytes     penalty of Fig. 5), the
                          once where they must        same on every path
                          exist (eager staging, a
                          faulted wire, a remote
                          encode); an in-process
                          rendezvous into the same
                          layout copies layout to
                          layout, one pass
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

Every send leaves through the send contract of :mod:`repro.ucp.dtypes`, on a
descriptor one builder (``TransferEngine._inject``) picks and injects, and
every receive lands through the receive contract, on a descriptor one
builder (``TransferEngine._landing``) picks for ``irecv`` and ``mrecv``
alike.  Custom delivery is a
:class:`~repro.ucp.dtypes.CallbackData` on the receiving thread: unpack the
in-band stream first, *then* query the receiver's regions (whose placement
may depend on the unpacked metadata) and scatter into them — the two-stage
choreography of Section III.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from ..core.custom import (CustomDatatype, CustomRecvOperation,
                           CustomSendOperation)
from ..core.datatype import Datatype
from ..core.packing import pack, unpack
from ..core.packplan import UnpackCursor
from ..core.typecache import bound_plan
from ..errors import MPIError, TruncationError
from ..ucp.context import Endpoint, Worker
from ..ucp.constants import DATATYPE_CONTIG
from ..ucp.dtypes import CallbackData, ContigData, DeferredData, IovData
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
        req = Request(self._inject(ep, tag64, buf, count, dtype, sync))
        san = self.worker.sanitizer
        if san is not None:
            self._sanitize(san.on_send_posted, req, buf, count, dtype, dest,
                           tag64)
        return req

    def _inject(self, ep: Endpoint, tag64: int, buf, count: int,
                dtype: Datatype, sync: bool):
        """The one send-descriptor choice, then the injection.

        Size, contiguity and block count come from the datatype's bound
        plan.  Contiguous: ``buf`` as it is.  Derived: the temp is booked
        with the tracker (booked and given back under one lock: nothing
        holds it) and charged the typemap walk, and ``pack`` only checks
        and binds: the message carries the deferred source, whose bytes
        the ucp layer builds where they first must exist (eager staging, a
        fault-injected wire, a remote encode, a foreign landing) or the
        receiver copies layout to layout.  Custom: one ``pack_fn`` call
        into a pooled wire buffer (not booked, like the modelled fragments
        it stands for), sent as IOV ahead of the regions' byte views (each
        validated once, by its ``Region``) or as CONTIG if nothing is
        packed and at most one region.  That buffer is the message's
        (the descriptor's ``pooled``) once ``tag_send`` returned; if
        anything raises before, it goes straight back — the one "never
        injected" exit.
        """
        worker = self.worker
        memory = worker.memory
        sig = dtype.signature(count) if worker.sanitizer is not None \
            else None
        held = None
        try:
            if isinstance(dtype, CustomDatatype):
                with CustomSendOperation(dtype, buf, count) as op:
                    total = op.packed_size()
                    held = memory.pool.acquire(total)
                    real = len(op.pack_fragments(max(total, 1), out=held))
                    regions = op.regions()
                    modelled = self._charge_callbacks(op, real, total)
                packed = [held] if total else []
                entries = packed + [r.read_bytes() for r in regions]
                if packed or len(entries) > 1:
                    desc = IovData(entries, packed_entries=len(packed),
                                   entry_count=modelled + len(regions),
                                   pooled=packed)
                else:
                    # At most one region and nothing packed: the prototype
                    # prefers CONTIG (the empty buffer for no region).
                    desc = ContigData(entries[0] if entries else held)
            elif (plan := dtype._plan or bound_plan(dtype)).contiguous:
                desc = ContigData(buf, plan.size * count, signature=sig)
            else:
                nbytes = plan.size * count
                # Injected or not, the modelled temp leaves the sender's
                # books at once (bytes the ucp layer builds are the
                # message's).
                memory.book(nbytes, worker.clock, self.model)
                desc = DeferredData(pack(dtype, buf, count, deferred=True),
                                    signature=sig)
                worker.clock.advance(self.model.typemap_pack_time(
                    count * plan.nblocks, nbytes))
            return ep.tag_send(tag64, desc, force_rndv=sync)
        except BaseException:
            if held is not None:
                memory.pool.release(held)  # never injected: still ours
            raise

    def _sanitize(self, posted, req: Request, buf, count: int,
                  dtype: Datatype, peer, tag64: int) -> None:
        """Register a send or receive with the sanitizer (``posted``: its
        ``on_send_posted``/``on_recv_posted``; shadow buffer + label)."""
        if isinstance(dtype, CustomDatatype):
            self.worker.sanitizer.check_custom_lifecycle(self.worker.index,
                                                         dtype)
        posted(self.worker.index, req, buf, dtype, count, peer, tag64)
        rec = req._san_record
        if rec is not None and req._req is not None:
            req._req.san_detail = rec.label

    # ------------------------------------------------------------------
    # receive
    # ------------------------------------------------------------------

    def start_recv(self, tag64: int, mask: int, buf, count: int,
                   dtype: Datatype, peers=None) -> Request:
        desc, finish, unbook = self._landing(buf, count, dtype)
        treq = self.worker.tag_recv(tag64, desc, mask, peers=peers)
        if finish is None:
            req = Request(treq)
        else:
            def on_complete() -> Status:
                # Request.wait ran treq.wait() first: the delivery is done.
                status = finish(treq.info)
                unbook()
                return status

            req = Request(treq, on_complete=on_complete, on_cancel=unbook)
        san = self.worker.sanitizer
        if san is not None:
            self._sanitize(san.on_recv_posted, req, buf, count, dtype, peers,
                           tag64)
        return req

    def recv_message(self, msg: WireMessage, buf, count: int,
                     dtype: Datatype) -> Status:
        """Mprobe-style receive of an already-claimed message."""
        desc, finish, unbook = self._landing(buf, count, dtype)
        if finish is None:
            return Status.from_recv_info(self.worker.deliver(msg, desc))
        try:
            return finish(self.worker.deliver(msg, desc))
        finally:
            unbook()

    def _landing(self, buf, count: int, dtype: Datatype):
        """The one receive-descriptor choice: ``(descriptor, finish, unbook)``.

        A custom type lands through its callbacks, a contiguous one straight
        in ``buf``; ``finish`` and ``unbook`` are None for both.  A derived
        receive's temp is booked (first-touch cost, tracker accounting,
        ``byte_ceiling``) but never built: the descriptor unpacks the wire
        chunks straight into ``buf``, and its ``plan`` is the datatype's
        bound plan (a deferred source of that plan lands as it is).
        ``finish(info)`` runs after the message completed (a rendezvous
        sender waits for none of it): it charges the typemap walk and
        raises the receiver's own errors; ``unbook()`` gives the booking
        back.
        """
        sig = dtype.signature(count) if self.worker.sanitizer is not None \
            else None
        if isinstance(dtype, CustomDatatype):
            return (CallbackData(
                lambda msg: self.deliver_custom(msg, buf, count, dtype)),
                None, None)
        plan = dtype._plan or bound_plan(dtype)
        size = plan.size
        nbytes = size * count
        if plan.contiguous:
            return (ContigData(buf, nbytes, writable=True, signature=sig),
                    None, None)
        clock = self.worker.clock
        memory = self.worker.memory
        memory.reserve(nbytes, clock, self.model)
        error: MPIError | None = None

        def land(msg) -> None:
            nonlocal error
            chunks = msg.chunks
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

        def finish(info) -> Status:
            if error is not None:
                raise error
            nblocks = (info.nbytes // size if size else 0) * plan.nblocks
            clock.advance(self.model.typemap_pack_time(nblocks, info.nbytes))
            return Status.from_recv_info(info)

        desc = CallbackData(land, nbytes, DATATYPE_CONTIG, sig)
        desc.plan = plan  # a deferred source of this plan lands as it is
        return desc, finish, partial(memory.release, nbytes)

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
                regions = op.recv_regions(
                    region_lens, maybe_none=not k and region_lens == [0])
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
