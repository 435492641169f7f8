"""The job-level sanitizer: one instance shared by every rank of a job.

Created by ``repro.mpi.run(..., sanitize=True)`` and attached to each
transport worker (``worker.sanitizer``).  The hooks interpose at four
levels:

* **engine** (``repro.mpi.engine``) — request registration, shadow buffer
  acquisition, signature attachment, custom-callback contract checks;
* **request** (``repro.mpi.requests``) — checksum verification and buffer
  release at wait time;
* **transport wait** (``repro.ucp.context``) — every blocking wait is
  ``Worker.park``, which keeps its wait-for edge here while parked and asks
  :meth:`check_wait` every poll period: cycles end in bounded time;
* **delivery** (``Worker.deliver``) — type-signature and truncation checks
  at the tag matcher, before any data moves.

The two verdicts this shares with the static flow verifier come from
:mod:`repro.analyze.commgraph`, so both give the same answer on the same
program: :func:`~repro.analyze.commgraph.classify_mismatch` decides
whether a delivered message fits its receive (its ``RPD510``/``RPD511``
are reported here as ``RPD410``/``RPD411``, one finding per pairing), and
:func:`~repro.analyze.commgraph.wait_for_verdict` decides which parked
ranks are stuck and names the cycle (``RPD440``).  What only a live job
has stays here: re-checking each wait's ``satisfied`` predicate, the
``VERDICT_GRACE`` hold, the abort and the stack capture.

Thread model: diagnostics and the wait-for graph are locked (any rank may
touch them); per-rank request lists and buffer maps are only touched from
their own rank's thread.
"""

from __future__ import annotations

import os
import sys
import threading
import time
import traceback
from typing import Optional

from ..analyze.commgraph import (MISMATCH_HINTS, classify_mismatch,
                                 wait_for_verdict)
from ..analyze.diagnostics import Diagnostic
from ..errors import DeadlockError
from ..ucp.constants import MAX_USER_TAG, VERDICT_GRACE, unpack_tag
from .buffers import BufferTracker
from .report import SanitizeReport

#: How live traffic reports each :func:`classify_mismatch` code.
_LIVE_MISMATCH = {"RPD510": ("RPD410", "has a mismatched type signature"),
                  "RPD511": ("RPD411", "does not fit the receive")}

_REPRO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _user_site(limit: int = 30) -> str:
    """'file:line' of the innermost stack frame outside this package."""
    for fr in reversed(traceback.extract_stack(limit=limit)):
        fn = os.path.abspath(fr.filename)
        if not fn.startswith(_REPRO_ROOT) and "threading" not in fn:
            return f"{os.path.basename(fr.filename)}:{fr.lineno}"
    return ""


def _fmt_frames(frame, keep: int = 6) -> list[str]:
    """Render a rank's live stack, dropping sanitizer/threading noise."""
    out = []
    for fr in traceback.extract_stack(frame):
        fn = os.path.abspath(fr.filename)
        if fn.startswith(os.path.join(_REPRO_ROOT, "sanitize")):
            continue
        if "threading" in os.path.basename(fn):
            continue
        out.append(f"{os.path.basename(fr.filename)}:{fr.lineno} "
                   f"in {fr.name}")
    return out[-keep:]


class RequestRecord:
    """Sanitizer-side shadow of one nonblocking request."""

    __slots__ = ("job", "rank", "kind", "label", "site", "buffer",
                 "completed", "cancelled")

    def __init__(self, job: "JobSanitizer", rank: int, kind: str,
                 label: str):
        self.job = job
        self.rank = rank
        self.kind = kind
        self.label = label
        self.site = _user_site()
        self.buffer = None
        self.completed = False
        self.cancelled = False

    # Called by Request.wait on the owning thread.

    def before_wait(self) -> None:
        if not self.completed and self.kind == "recv" \
                and self.buffer is not None:
            self.job.buffers.verify_recv(self.buffer)

    def after_wait(self) -> None:
        if self.completed:
            return
        self.completed = True
        if self.buffer is not None:
            if self.kind == "send":
                self.job.buffers.verify_send(self.buffer)
            self.job.buffers.release(self.buffer)

    def mark_cancelled(self) -> None:
        """A successful MPI_Cancel: the operation never ran, so no data
        moved and no completion is owed — release the shadow buffer with
        no verification and exempt the request from the RPD420 sweep."""
        if self.completed:
            return
        self.completed = True
        self.cancelled = True
        if self.buffer is not None:
            self.job.buffers.release(self.buffer)


class WaitEdge:
    """One rank's current blocking dependency in the wait-for graph."""

    __slots__ = ("rank", "targets", "satisfied", "detail", "thread_id",
                 "vtime", "since", "messages")

    def __init__(self, rank: int, targets, satisfied, detail: str,
                 vtime: float, messages=()):
        self.rank = rank
        self.targets = frozenset(targets)
        #: Live predicate (e.g. ``event.is_set``): re-checked during cycle
        #: analysis so a message that lands mid-analysis clears the edge.
        self.satisfied = satisfied
        self.detail = detail
        #: The rendezvous messages whose completion would end the wait.
        self.messages = tuple(messages)
        self.thread_id = threading.get_ident()
        self.vtime = vtime
        #: Wall-clock time the rank parked.
        self.since = time.monotonic()


class JobSanitizer:
    """Dynamic verification state for one SPMD job."""

    def __init__(self, nprocs: int, in_transit=None):
        self.nprocs = nprocs
        #: ``in_transit(src, dst) -> bool``: whether the transport holds a
        #: frame from ``src`` to ``dst`` read in part or not yet delivered
        #: (``Transport.in_transit``); None: nothing is ever in transit.
        self.in_transit = in_transit
        self._lock = threading.Lock()
        self._diags: list[Diagnostic] = []
        self._dedup: set = set()
        self.buffers = BufferTracker(self)
        self._requests: dict[int, list[RequestRecord]] = {
            r: [] for r in range(nprocs)}
        self._edges: dict[int, WaitEdge] = {}
        #: msg_ids of rendezvous messages a receiver has claimed whose
        #: sender has not seen the completion yet.
        self._claimed: set[int] = set()
        #: rank -> wall-clock time it ended.
        self._finished: dict[int, float] = {}
        self.abort = threading.Event()
        self._abort_reason = ""
        #: The ended ranks of a "waiting on finished ranks" verdict
        #: (``DeadlockError.waited_on``); empty for a wait-for cycle.
        self._abort_waited_on: tuple[int, ...] = ()
        self._deadlock_reported = False
        #: Wall-clock time a deadlock check last found a frame in transit.
        self._transit_seen = 0.0

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def emit(self, code: str, message: str, rank: Optional[int] = None,
             hint: str = "", subject: str = "", dedup=None) -> None:
        with self._lock:
            if dedup is not None:
                if dedup in self._dedup:
                    return
                self._dedup.add(dedup)
            subj = subject or (f"rank {rank}" if rank is not None else "")
            self._diags.append(Diagnostic(code, message, hint=hint,
                                          subject=subj))

    def diagnostics(self) -> list[Diagnostic]:
        with self._lock:
            return list(self._diags)

    def report(self, aborted: bool = False, failures=None,
               program: Optional[str] = None) -> SanitizeReport:
        fail = {r: f"{type(e).__name__}: {e}"
                for r, e in (failures or {}).items()}
        return SanitizeReport(nprocs=self.nprocs,
                              diagnostics=self.diagnostics(),
                              aborted=aborted, failures=fail,
                              program=program)

    # ------------------------------------------------------------------
    # labels
    # ------------------------------------------------------------------

    @staticmethod
    def _fmt_tag(tag64: int) -> str:
        _, _, user = unpack_tag(tag64)
        if user >= MAX_USER_TAG:
            return " (internal tag)"
        return f" (tag {user})"

    @staticmethod
    def _fmt_dtype(dtype, count: int) -> str:
        name = getattr(dtype, "shortname", None) or dtype.name
        return f"{count} x {name}"

    # ------------------------------------------------------------------
    # engine hooks (posting)
    # ------------------------------------------------------------------

    @staticmethod
    def _dtype_ranges(dtype, count: int):
        """Byte ranges a datatype's count elements touch in the buffer.

        Custom datatypes get an empty claim (inert record): their
        callbacks decide at pack/region time which bytes of the user
        object they touch, so any byte-level claim here would be a guess —
        e.g. halo codes legitimately post concurrent region ops against
        disjoint rows of one array.  Large block counts collapse to the
        overall span — cheaper, at the price of overlap precision.
        """
        if getattr(dtype, "is_custom", False):
            return []
        try:
            blocks = dtype.typemap.merged_blocks()
            ext = dtype.extent
        except Exception:
            return None
        if not blocks or count <= 0:
            return []
        if len(blocks) == 1 and blocks[0].offset == 0 \
                and blocks[0].length == ext:
            return [(0, count * ext)]
        if count * len(blocks) > 4096:
            lo = min(b.offset for b in blocks)
            hi = max(b.offset + b.length for b in blocks)
            return [(max(lo, 0), (count - 1) * ext + hi)]
        out = []
        for i in range(count):
            base = i * ext
            for b in blocks:
                if base + b.offset + b.length > 0:
                    out.append((base + b.offset, base + b.offset + b.length))
        return out

    def on_send_posted(self, rank: int, req, buf, dtype, count: int,
                       dest: int, tag64: int) -> None:
        label = (f"send of {self._fmt_dtype(dtype, count)} to rank "
                 f"{dest}{self._fmt_tag(tag64)}")
        rec = RequestRecord(self, rank, "send", label)
        rec.buffer = self.buffers.acquire(
            rank, buf, writer=False, label=label,
            ranges=self._dtype_ranges(dtype, count))
        self._requests[rank].append(rec)
        req._san_record = rec

    def on_recv_posted(self, rank: int, req, buf, dtype, count: int,
                       peers, tag64: int) -> None:
        frm = "any rank" if peers is None or len(peers) != 1 \
            else f"rank {next(iter(peers))}"
        label = (f"recv of {self._fmt_dtype(dtype, count)} from "
                 f"{frm}{self._fmt_tag(tag64)}")
        rec = RequestRecord(self, rank, "recv", label)
        rec.buffer = self.buffers.acquire(
            rank, buf, writer=True, label=label,
            ranges=self._dtype_ranges(dtype, count))
        self._requests[rank].append(rec)
        req._san_record = rec

    # ------------------------------------------------------------------
    # custom-datatype contract checks (live traffic)
    # ------------------------------------------------------------------

    def check_custom_lifecycle(self, rank: int, dtype) -> None:
        cb = dtype.callbacks
        if cb.state_fn is not None and cb.state_free_fn is None:
            self.emit(
                "RPD432",
                f"custom datatype {dtype.name!r} allocates per-operation "
                f"state (state_fn) but has no state_free_fn; every "
                f"transfer leaks its state",
                rank=rank, dedup=("RPD432", dtype.name, "leak"),
                hint="register a state_free_fn releasing what state_fn "
                     "allocates")
        elif cb.state_free_fn is not None and cb.state_fn is None:
            self.emit(
                "RPD432",
                f"custom datatype {dtype.name!r} has a state_free_fn but "
                f"no state_fn; the free callback only ever sees None",
                rank=rank, dedup=("RPD432", dtype.name, "orphan"),
                hint="register the matching state_fn or drop state_free_fn")

    def check_packed_promise(self, rank: int, source: int, dtype,
                             promised: int, actual: int) -> None:
        if promised >= 0 and promised != actual:
            self.emit(
                "RPD430",
                f"custom datatype {dtype.name!r}: rank {source} packed "
                f"{actual} bytes but this receiver's query callback "
                f"promises {promised}; sender and receiver disagree on "
                f"the packed size",
                rank=rank,
                hint="make query_fn return the exact byte count pack_fn "
                     "produces for the same buffer")

    def report_region_mismatch(self, rank: int, source: int, dtype,
                               exc: BaseException) -> None:
        self.emit(
            "RPD431",
            f"custom datatype {dtype.name!r}: region exchange from rank "
            f"{source} failed: {exc}",
            rank=rank,
            hint="region_count_fn/region_fn must describe the same "
                 "regions on both sides of the transfer")

    # ------------------------------------------------------------------
    # delivery hook (tag-match layer)
    # ------------------------------------------------------------------

    def on_deliver(self, rank: int, msg, data) -> None:
        hdr = msg.header
        if msg.rndv:
            # Claimed: from here its sender waits on the transport (the
            # completion, an acknowledgement frame remotely), not a rank.
            with self._lock:
                self._claimed.add(hdr.msg_id)
        code, reason = classify_mismatch(hdr.signature, data.signature,
                                         hdr.total_bytes, data.capacity)
        if code:
            live, what = _LIVE_MISMATCH[code]
            self.emit(live,
                      f"message of {hdr.total_bytes} bytes from rank "
                      f"{hdr.source}{self._fmt_tag(hdr.tag)} {what}: "
                      f"{reason}",
                      rank=rank, hint=MISMATCH_HINTS[code])

    # ------------------------------------------------------------------
    # wait-for graph / deadlock detection
    # ------------------------------------------------------------------

    def enter_wait(self, rank: int, targets, satisfied, detail: str,
                   vtime: float, messages=()) -> None:
        """``rank`` parks: register its wait-for edge (``Worker.park``);
        ``messages`` are the rendezvous sends it waits on."""
        with self._lock:
            self._edges[rank] = WaitEdge(rank, targets, satisfied, detail,
                                         vtime, messages)

    def leave_wait(self, rank: int) -> None:
        with self._lock:
            edge = self._edges.pop(rank, None)
            if edge is not None:
                for msg in edge.messages:
                    if msg.completed.is_set():
                        self._claimed.discard(msg.header.msg_id)

    def check_wait(self, analyze: bool) -> None:
        """One poll tick of a parked rank: raise ``DeadlockError`` once a
        deadlock is proven, by this rank or any other — without ``analyze``
        (the caller has a better reason for its own wait) by another."""
        if analyze and not self.abort.is_set():
            self._check_deadlock()
        if self.abort.is_set():
            raise DeadlockError(self._abort_reason
                                or "job aborted by the sanitizer",
                                waited_on=self._abort_waited_on)

    def _check_deadlock(self) -> None:
        with self._lock:
            # A send whose message a receiver already claimed waits on the
            # transport, not on a rank: its edge is no dependency.
            edges = {r: e for r, e in self._edges.items()
                     if not any(m.header.msg_id in self._claimed
                                for m in e.messages)}
            finished = dict(self._finished)
            transit_seen = self._transit_seen
        ranks, cycle = wait_for_verdict(
            {r: e.targets for r, e in edges.items() if not e.satisfied()},
            finished)
        if not ranks:
            return
        stuck = {r: edges[r] for r in ranks}
        # A frame the transport still holds between a stuck rank and a
        # rank it waits on (part-read, or read and not yet delivered) may
        # end the wait.  Asked before ``satisfied`` below: a frame delivered
        # meanwhile has set its wait's event by the time it stops being in
        # transit.
        in_transit = self.in_transit
        if in_transit is not None and any(
                in_transit(t, r) or in_transit(r, t)
                for r, e in stuck.items() for t in e.targets):
            with self._lock:
                self._transit_seen = time.monotonic()
            return
        # Events may have fired while we analyzed; a satisfied edge means
        # the picture above was transient, not a deadlock.
        if any(e.satisfied() for e in stuck.values()):
            return
        # Nor one that has not held for a while: a frame in flight makes
        # its parked or ended sender, and its receiver, look stuck — and a
        # frame the reader is between two of its steps with shows in no
        # single look, so the picture must also have held that long since
        # a frame was last seen in transit.
        settled = max([e.since for e in stuck.values()]
                      + list(finished.values()) + [transit_seen])
        if time.monotonic() - settled < VERDICT_GRACE:
            return
        with self._lock:
            if self._deadlock_reported:
                self.abort.set()
                return
            self._deadlock_reported = True
        message = self._deadlock_message(stuck, cycle, finished)
        self.emit("RPD440", message,
                  subject="ranks " + ",".join(str(r) for r in sorted(stuck)),
                  hint="break the cycle: reorder send/recv, use sendrecv, "
                       "or nonblocking operations completed together")
        self._abort_reason = ("distributed deadlock detected (RPD440): "
                             + message.splitlines()[1].strip()
                             if "\n" in message else message)
        if not cycle:
            self._abort_waited_on = tuple(sorted(
                {t for e in stuck.values() for t in e.targets
                 if t in finished}))
        self.abort.set()

    def _deadlock_message(self, stuck: dict, cycle, finished: dict) -> str:
        frames = sys._current_frames()
        lines = [f"{len(stuck)} rank(s) permanently blocked:"]
        if cycle:
            lines.append("wait-for cycle: "
                         + " -> ".join(f"rank {r}" for r in cycle + cycle[:1]))
        elif finished:
            lines.append("waiting on rank(s) that already finished: "
                         + ",".join(str(r) for r in sorted(finished)))
        for r in sorted(stuck):
            e = stuck[r]
            lines.append(f"rank {r}: {e.detail} "
                         f"[blocked at virtual t={e.vtime:.3e}s]")
            frame = frames.get(e.thread_id)
            if frame is not None:
                for entry in _fmt_frames(frame):
                    lines.append(f"    {entry}")
        return "\n  ".join(lines)

    # ------------------------------------------------------------------
    # job lifecycle
    # ------------------------------------------------------------------

    def finalize_rank(self, rank: int) -> None:
        """Leak checks after a rank's function returned normally."""
        for rec in self._requests[rank]:
            if not rec.completed:
                where = f" (posted at {rec.site})" if rec.site else ""
                self.emit(
                    "RPD420",
                    f"{rec.label} was never completed before rank {rank} "
                    f"finished{where}",
                    rank=rank,
                    hint="wait()/waitall() every nonblocking request; an "
                         "unwaited request may not have moved its data")
        self._rank_ended(rank)

    def rank_failed(self, rank: int) -> None:
        """A rank raised; mark it finished without leak noise."""
        self._rank_ended(rank)

    def _rank_ended(self, rank: int) -> None:
        with self._lock:
            self._finished[rank] = time.monotonic()
        self.buffers.drop_rank(rank)

    def finalize_job(self, fabric) -> None:
        """Fabric-wide checks after every rank finished cleanly."""
        for worker in fabric.workers:
            for msg in worker.matcher.unmatched_messages():
                hdr = msg.header
                self.emit(
                    "RPD421",
                    f"message of {hdr.total_bytes} bytes from rank "
                    f"{hdr.source}{self._fmt_tag(hdr.tag)} was still "
                    f"queued unreceived at rank {worker.index} when the "
                    f"job ended",
                    rank=worker.index,
                    hint="every send needs a matching receive (or the "
                         "data is silently lost)")
