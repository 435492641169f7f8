"""Spans recorded from outside the program.

The layers are measured without touching ``src/``: :func:`install` wraps
their public entry points from here — class methods are patched on the
class, functions that callers import by name are patched in the importing
module — and each call records ``[name, start_ns, end_ns, parent, nbytes]``
in a per-thread list.  Timestamps are ``time.perf_counter_ns()``
(CLOCK_MONOTONIC), so spans of different rank *processes* share one time
axis.  Spans are kept in memory and written out when the run ends.

A patch site that no longer exists is reported (``install()`` returns its
name, the span count stays ``null``) and never raises: the traced run is
then blind to that call, the end-to-end run is not affected at all because
it never imports this module.
"""

from __future__ import annotations

import importlib
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

#: Index of each field in a span record.
NAME, START, END, PARENT, NBYTES = range(5)

_tls = threading.local()
_lock = threading.Lock()
_recorders: list["Recorder"] = []
#: Label for threads of this process that never called :func:`set_rank`
#: (the shm demux thread of a rank process).
_process_label: Optional[str] = None


class Recorder:
    """One thread's spans.  ``top`` is the index of the open span."""

    __slots__ = ("label", "spans", "top")

    def __init__(self, label: str):
        self.label = label
        self.spans: list[list] = []
        self.top = -1


def _recorder() -> Recorder:
    rec = getattr(_tls, "rec", None)
    if rec is None:
        name = threading.current_thread().name
        if name == "MainThread" and _process_label is None:
            label = "driver"
        else:
            label = f"{_process_label or 'driver'}/{name}"
        rec = _tls.rec = Recorder(label)
        with _lock:
            _recorders.append(rec)
    return rec


def set_rank(rank: int, whole_process: bool = False) -> None:
    """Label the calling thread's spans ``rank<r>``.  In a rank *process*
    (``whole_process``) its other threads are labelled ``rank<r>/<name>``."""
    global _process_label
    if whole_process:
        _process_label = f"rank{rank}"
    rec = _tls.rec = Recorder(f"rank{rank}")
    with _lock:
        _recorders.append(rec)


def drain() -> list[dict]:
    """Hand over (and forget) every span recorded in this process."""
    with _lock:
        out = [{"thread": r.label, "spans": r.spans} for r in _recorders
               if r.spans]
        _recorders.clear()
    return out


# ---------------------------------------------------------------------------
# the patch table
# ---------------------------------------------------------------------------

def _size_count(a, kw, result):          # pack/unpack(dtype, buf, count, ..)
    return a[0].size * a[2]


def _chunk_bytes(a, kw, result):         # copy_chunks(buffers, pool=)
    return sum(int(b.nbytes) for b in a[0])


def _deliver_bytes(a, kw, result):       # Worker.deliver(self, msg, data)
    # Contiguous and iov descriptors are scattered by the worker itself;
    # handler descriptors copy inside their callbacks, which have spans of
    # their own.
    return a[1].header.total_bytes if a[2].kind != "handler" else 0


def _region_bytes(a, kw, result):        # deliver_custom(self, msg, ...)
    hdr = a[1].header
    return sum(hdr.entry_lengths[hdr.packed_entries:])


def _packed_size(a, kw, result):         # pack_fragments(self, frag_size)
    return a[0].packed_size()


def _frag_bytes(a, kw, result):          # unpack_fragment(self, off, frag)
    return int(a[2].shape[0])


def _header_len(a, kw, result):          # dumps_oob(obj) -> (header, bufs)
    return len(result[0])


def _loads_len(a, kw, result):           # loads_oob(header, buffers)
    return int(a[0].nbytes) if hasattr(a[0], "nbytes") else len(a[0])


@dataclass(frozen=True)
class Site:
    """One wrapped call.  ``span`` is ``<layer>.<what>``; the layer is a
    module of ``src/repro``."""

    span: str
    module: str
    attr: str
    nbytes: Optional[Callable] = None
    #: Workloads on which the selftest requires this site to fire.
    fires_on: tuple[str, ...] = ("eager_small", "rndv_large",
                                 "custom_callbacks", "halo_shm",
                                 "serve_jobs")


_DERIVED = ("eager_small", "rndv_large", "halo_shm", "serve_jobs")
_CUSTOM = ("custom_callbacks",)

SITES: tuple[Site, ...] = (
    Site("mpi.send", "repro.mpi.comm", "Communicator.send"),
    Site("mpi.recv", "repro.mpi.comm", "Communicator.recv"),
    Site("mpi.isend", "repro.mpi.comm", "Communicator.isend"),
    Site("mpi.irecv", "repro.mpi.comm", "Communicator.irecv"),
    Site("mpi.wait", "repro.mpi.requests", "Request.wait"),
    Site("mpi.deliver_custom", "repro.mpi.engine",
         "TransferEngine.deliver_custom", _region_bytes, _CUSTOM),
    Site("core.pack", "repro.mpi.engine", "pack", _size_count, _DERIVED),
    Site("core.unpack", "repro.mpi.engine", "unpack", _size_count, _DERIVED),
    Site("core.custom_pack", "repro.core.custom",
         "CustomSendOperation.pack_fragments", _packed_size, _CUSTOM),
    Site("core.custom_regions", "repro.core.custom",
         "CustomSendOperation.regions", None, _CUSTOM),
    Site("core.custom_unpack", "repro.core.custom",
         "CustomRecvOperation.unpack_fragment", _frag_bytes, _CUSTOM),
    Site("core.custom_recv_regions", "repro.core.custom",
         "CustomRecvOperation.recv_regions", None, _CUSTOM),
    Site("serial.dumps", "repro.serial.strategies", "dumps_oob",
         _header_len, _CUSTOM),
    Site("serial.loads", "repro.serial.strategies", "loads_oob",
         _loads_len, _CUSTOM),
    Site("ucp.tag_send", "repro.ucp.context", "Endpoint.tag_send"),
    Site("ucp.tag_recv", "repro.ucp.context", "Worker.tag_recv"),
    Site("ucp.deliver", "repro.ucp.context", "Worker.deliver",
         _deliver_bytes),
    Site("ucp.copy_chunks", "repro.ucp.context", "copy_chunks",
         _chunk_bytes, ("eager_small", "halo_shm", "serve_jobs")),
    # Blocked on the peer: the wait inside the transport requests.  Its
    # self time is the hand-off plus whatever the peer was doing.
    Site("transport.wait_recv", "repro.ucp.context", "RecvRequest.wait"),
    Site("transport.wait_send", "repro.ucp.context", "SendRequest.wait"),
    Site("transport.submit", "repro.ucp.transport.base", "Transport.submit"),
    Site("transport.encode_send", "repro.ucp.transport.remote",
         "RemoteTransportMixin.encode_and_send", None, ("halo_shm",)),
    Site("transport.deliver_frame", "repro.ucp.transport.remote",
         "RemoteTransportMixin.deliver_frame", None, ("halo_shm",)),
    Site("transport.ack", "repro.ucp.transport.remote",
         "RemoteTransportMixin.on_delivered", None, ("halo_shm",)),
    Site("transport.run_job", "repro.serve.service", "run", None,
         ("serve_jobs",)),
    Site("serve.submit", "repro.serve.service", "JobService.submit", None,
         ("serve_jobs",)),
    Site("serve.wait_done", "repro.serve.service", "JobHandle.wait", None,
         ("serve_jobs",)),
)

_installed: list[tuple[object, str, object]] = []


def _wrap(span: str, fn: Callable, nbytes: Optional[Callable]) -> Callable:
    now = time.perf_counter_ns

    def traced(*a, **kw):
        rec = _recorder()
        record = [span, now(), 0, rec.top, 0]
        rec.top = len(rec.spans)
        rec.spans.append(record)
        try:
            result = fn(*a, **kw)
        finally:
            record[END] = now()
            rec.top = record[PARENT]
        if nbytes is not None:
            try:
                record[NBYTES] = int(nbytes(a, kw, result))
            except (AttributeError, IndexError, TypeError):
                # The site's signature moved on: the byte count is lost,
                # the span and the call are not.
                pass
        return result
    traced.__name__ = getattr(fn, "__name__", span)
    traced.__doc__ = getattr(fn, "__doc__", None)
    return traced


def install() -> list[str]:
    """Wrap every site; returns the spans whose site was not found."""
    missing = []
    for site in SITES:
        try:
            owner = importlib.import_module(site.module)
            *path, leaf = site.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, leaf)
        except (ImportError, AttributeError):
            missing.append(site.span)
            continue
        _installed.append((owner, leaf, fn))
        setattr(owner, leaf, _wrap(site.span, fn, site.nbytes))
    return missing


def uninstall() -> None:
    while _installed:
        owner, leaf, fn = _installed.pop()
        setattr(owner, leaf, fn)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def self_times(spans: list[list]) -> list[int]:
    """Self time of each span: its duration minus its children's."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def nesting_errors(spans: list[list]) -> int:
    """Spans that are not inside their parent, or whose subtree's self
    times do not add up to their duration (must be 0)."""
    bad = 0
    own = self_times(spans)
    subtree = list(own)
    for i in range(len(spans) - 1, -1, -1):
        p = spans[i][PARENT]
        if p >= 0:
            subtree[p] += subtree[i]
            if not (spans[p][START] <= spans[i][START]
                    and spans[i][END] <= spans[p][END]):
                bad += 1
    bad += sum(1 for s, t in zip(spans, subtree)
               if s[END] and t != s[END] - s[START])
    return bad


def _in_windows(t: int, windows: list[tuple[int, int]]) -> bool:
    return any(lo <= t < hi for lo, hi in windows)


def aggregate(threads: list[dict], label: str,
              windows: list[tuple[int, int]]) -> dict:
    """Per span name, over the spans of the threads labelled exactly
    ``label`` that start inside ``windows``: count, total self ns, total
    nbytes; plus ``"top_ns"``, the total duration of the top-level spans."""
    out: dict = {}
    top_ns = 0
    for th in threads:
        if th["thread"] != label:
            continue
        spans = th["spans"]
        own = self_times(spans)
        for s, self_ns in zip(spans, own):
            if not s[END] or not _in_windows(s[START], windows):
                continue
            agg = out.setdefault(s[NAME], {"count": 0, "self_ns": 0,
                                           "nbytes": 0})
            agg["count"] += 1
            agg["self_ns"] += self_ns
            agg["nbytes"] += s[NBYTES]
            if s[PARENT] < 0:
                top_ns += s[END] - s[START]
    out["top_ns"] = top_ns
    return out


def _blocked(threads, label, windows) -> list[tuple[int, int]]:
    """Intervals in which a thread labelled ``label`` sat in a transport
    wait with no child span running (sorted, non-overlapping per thread)."""
    out = []
    for th in threads:
        if th["thread"] != label:
            continue
        spans = th["spans"]
        kids: dict[int, list] = {}
        for s in spans:
            if s[PARENT] >= 0:
                kids.setdefault(s[PARENT], []).append(s)
        for i, s in enumerate(spans):
            if not s[NAME].startswith("transport.wait") or not s[END] \
                    or not _in_windows(s[START], windows):
                continue
            lo = s[START]
            for k in kids.get(i, ()):
                if k[START] > lo:
                    out.append((lo, k[START]))
                lo = max(lo, k[END])
            if s[END] > lo:
                out.append((lo, s[END]))
    out.sort()
    return out


def both_blocked_ns(threads, windows) -> int:
    """Total time in which rank 0 *and* rank 1 were blocked in a transport
    wait: nobody computes, the message (or the wake-up) is in flight."""
    a = _blocked(threads, "rank0", windows)
    b = _blocked(threads, "rank1", windows)
    i = j = total = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total
