"""The shared-memory backend: one process per rank, payloads by reference.

This is the multi-core plane the ISSUE and the Adefemi 2025 single-node
shared-memory DDT study call for: each rank is a forked
``multiprocessing`` process (its packing finally runs on its own core,
outside the sending GIL), and each rank owns a
``multiprocessing.shared_memory`` *arena* that every peer maps.  The
rank's :class:`~repro.ucp.memory.BufferPool` is arena-backed
(:class:`ArenaBufferPool`), so PackPlans execute **directly into the
shared segment**: a non-contiguous send packs into an arena slab, that
slab is the wire chunk on either protocol, the message frame carries only
``(offset, nbytes)``, and the receiver's PackPlan unpacks straight out of
the sender's segment into the user buffer.  Pack and unpack are the only
two passes over a derived payload, with no staging or bounce-buffer hop
between them; a contiguous payload is copied twice as well (staged into
the arena, scattered out of it) — no datatype crosses in one copy.  This
is the TEMPI-style interposed-staging design with the stage *being* the
wire.

Control plane: per-directed-pair ``multiprocessing.Pipe`` streams carry
the portable envelope and the ack frames; a demux thread per process
drains them.  Failure-detector state (crashes, finishes, ULFM aborts)
crosses as broadcast frames through :class:`BroadcastingDetector`, so
bounded-time hopeless-wait detection keeps working across processes.

Staging ownership: an arena slab referenced by an in-flight frame stays
checked out of the sender's pool until the receiver's acknowledgement
resolves the pending table — the slab cannot be reused while a peer may
still be reading it.
"""

from __future__ import annotations

import os
import pickle
from typing import Optional

import numpy as np

from ...errors import ProcFailedError, RankCrashError, TransportError
from ..memory import BufferPool
from . import envelope as env
from .base import Transport, TransportUnavailableError
from .remote import (BYE, BroadcastingDetector, PendingTable, RemoteDst,
                     RemoteTransportMixin)

#: Arena segment size per rank (``REPRO_SHM_ARENA_MB`` overrides).
DEFAULT_ARENA_MB = 64

#: Payload-reference tags inside ``msg`` frames.
REF_ARENA = "a"   # (REF_ARENA, offset, nbytes) into the sender's arena
REF_RAW = "r"     # (REF_RAW, bytes) — arena exhausted, bytes ride the pipe


def _shm_support() -> tuple[bool, str]:
    import multiprocessing as mp
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:
        return False, "multiprocessing.shared_memory is not available"
    if "fork" not in mp.get_all_start_methods():
        return False, ("the 'fork' start method is not available on this "
                       "platform (shm ranks inherit closures by forking)")
    return True, ""


class ArenaBufferPool(BufferPool):
    """A :class:`BufferPool` whose backing slabs live in a shared segment.

    Allocation is a bump pointer over the arena; the pool's size-classed
    free lists recycle slabs exactly as the private pool does, so steady
    state stops consuming arena space.  When the arena is exhausted the
    pool degrades to private ``np.empty`` slabs (those payloads then cross
    the control pipe as raw bytes instead of references — slower, never
    wrong).

    numpy collapses view ``base`` chains to the ultimate owner (the whole
    segment), which would defeat the base-chain root resolution the
    private pool uses; arena slabs are therefore resolved by their data
    address instead.
    """

    def __init__(self, shm, max_per_class: int = 64,
                 max_pooled_class: int = 1 << 26):
        super().__init__(max_per_class=max_per_class,
                         max_pooled_class=max_pooled_class)
        self._shm = shm
        self._segment = np.frombuffer(shm.buf, dtype=np.uint8)
        self._segment_addr = self._segment.__array_interface__["data"][0]
        self._segment_size = int(self._segment.shape[0])
        #: Bump cursor; touched only by the owning rank's thread (the
        #: acquire contract), so no extra lock.
        self._cursor = 0
        #: Slab start address -> slab view, for address-based release
        #: resolution; written under the pool lock, read under it too.
        self._slab_by_addr: dict[int, np.ndarray] = {}
        self.spills = 0

    def _new_root(self, size: int) -> np.ndarray:
        if self._cursor + size <= self._segment_size:
            start = self._cursor
            self._cursor += size
            slab = self._segment[start:start + size]
            with self._lock:
                self._slab_by_addr[self._segment_addr + start] = slab
            return slab
        self.spills += 1
        return np.empty(size, dtype=np.uint8)

    def _resolve_root(self, buf):
        if isinstance(buf, np.ndarray):
            addr = buf.__array_interface__["data"][0]
            with self._lock:
                slab = self._slab_by_addr.get(addr)
                if slab is None:
                    # A mid-slab view (its base chain collapses to the
                    # whole segment, not the slab): containment scan.
                    for start, s in self._slab_by_addr.items():
                        if start <= addr and \
                                addr + buf.nbytes <= start + s.nbytes:
                            slab = s
                            break
            if slab is not None and buf.nbytes <= slab.nbytes:
                return slab
        return super()._resolve_root(buf)

    def arena_offset(self, arr: np.ndarray) -> Optional[int]:
        """Offset of ``arr`` inside the arena, or None for foreign memory."""
        if not isinstance(arr, np.ndarray) or arr.dtype != np.uint8 \
                or not arr.flags["C_CONTIGUOUS"]:
            return None
        addr = arr.__array_interface__["data"][0]
        if self._segment_addr <= addr \
                and addr + arr.nbytes <= self._segment_addr \
                + self._segment_size:
            return addr - self._segment_addr
        return None

    def snapshot(self) -> dict[str, int]:
        snap = super().snapshot()
        snap["arena_spills"] = self.spills
        snap["arena_used"] = self._cursor
        snap["arena_size"] = self._segment_size
        return snap

    def detach(self) -> None:
        """Drop every view into the shared segment (terminal).

        ``SharedMemory.close`` refuses while exported pointers exist; a
        host that owns both the pool and the segment (tests; rank
        teardown that outlives the job) detaches before closing.  The
        pool is unusable afterwards.
        """
        with self._lock:
            self._free.clear()
            self._out.clear()
            self._slab_by_addr.clear()
        self._segment = np.empty(0, dtype=np.uint8)
        self._segment_size = 0
        self._cursor = 0


class _ShmChildTransport(RemoteTransportMixin, Transport):
    """The transport attached to one rank process's fabric."""

    name = "shm"
    supports_faults = True
    supports_sanitizer = False
    supports_cancel = False
    supports_shared_address_space = False
    rndv_aliases_buffers = False

    def __init__(self, rank: int, out_conns: dict, in_conns: dict, arenas):
        self._rank = rank
        self._out = out_conns
        self._in = in_conns
        self._pending = PendingTable()
        self._arena_views = {r: np.frombuffer(shm.buf, dtype=np.uint8)
                             for r, shm in arenas.items()}

    # -- plumbing ----------------------------------------------------------

    def pending_for(self, rank: int) -> PendingTable:
        return self._pending

    def send_frame(self, src_rank: int, dst_rank: int, frame) -> None:
        try:
            self._out[dst_rank].send(frame)
        except (OSError, ValueError) as exc:
            raise TransportError(
                f"shm transport channel {src_rank}->{dst_rank} closed: "
                f"{exc}") from exc

    def broadcast(self, frame) -> None:
        for dst in sorted(self._out):
            try:
                self._out[dst].send(frame)
            except (OSError, ValueError):
                pass  # peer already gone; its detector no longer matters

    def deposit_target(self, worker, dst_index: int):
        if dst_index == worker.index:
            return worker.fabric.worker(dst_index)
        transport = self

        def _deposit(msg):
            transport.encode_and_send(worker, dst_index, msg)

        return RemoteDst(dst_index, _deposit)

    # -- payloads ----------------------------------------------------------

    def encode_payload(self, worker, msg) -> list:
        """Turn chunks into arena references (staging foreign memory).

        Chunks already arena-resident — eager staging from
        ``copy_chunks``, packed rendezvous temps the engine acquired from
        the arena pool — cross as bare ``(offset, nbytes)`` references:
        the zero-copy path.  Foreign chunks (live user-buffer views on a
        rendezvous send, injector-corrupted private copies) are staged
        into an arena slab here; that wall-clock copy is the process
        boundary's "memory registration" and charges no virtual time.
        After encoding, ``msg.chunks`` holds exactly the slabs the
        acknowledgement must release.
        """
        pool = worker.memory.pool
        payload = []
        retained = []
        for chunk in msg.chunks:
            c = np.ascontiguousarray(chunk, dtype=np.uint8).reshape(-1)
            off = pool.arena_offset(c)
            if off is not None:
                payload.append((REF_ARENA, int(off), int(c.nbytes)))
                retained.append(chunk)
                continue
            if c.nbytes:
                block = pool.acquire(c.nbytes)
                boff = pool.arena_offset(block)
                if boff is not None:
                    block[:] = c
                    payload.append((REF_ARENA, int(boff), int(c.nbytes)))
                    retained.append(block)
                    continue
                pool.release(block)
            payload.append((REF_RAW, c.tobytes()))
        msg.chunks = retained
        return payload

    def materialize_payload(self, src_rank: int, doc, payload):
        """Map payload references to chunks (demux thread, no copy).

        Arena references become read views straight into the sender's
        segment — the receiver's delivery scatter is the only copy.
        Generic-protocol payloads are copied out immediately because user
        unpack callbacks may retain chunks past the acknowledgement (after
        which the sender is free to reuse the slab).
        """
        copy = doc["protocol"] == "generic"
        chunks = []
        for ref in payload:
            if ref[0] == REF_ARENA:
                _, off, nbytes = ref
                view = self._arena_views[src_rank][off:off + nbytes]
                chunks.append(np.array(view, copy=True) if copy else view)
            elif ref[0] == REF_RAW:
                arr = np.frombuffer(ref[1], dtype=np.uint8)
                chunks.append(np.array(arr, copy=True) if copy else arr)
            else:
                raise TransportError(f"unknown payload reference {ref[0]!r}")
        return chunks

    def sweep(self) -> None:
        self._pending.sweep()


def _child_main(rank: int, fn, nprocs: int, config, engine_config,
                out_conns: dict, in_conns: dict, arenas,
                result_conn) -> None:
    """One rank process: fabric + demux + the rank function + teardown."""
    import threading

    from ...mpi.comm import Communicator
    from ..context import UcpContext

    transport = _ShmChildTransport(rank, out_conns, in_conns, arenas)
    fabric = UcpContext(config).create_fabric(nprocs, transport=transport)
    worker = fabric.worker(rank)
    worker.memory.pool = ArenaBufferPool(arenas[rank])
    injector = fabric.injector
    if injector is not None:
        injector.detector = BroadcastingDetector(
            injector.detector, rank, transport.broadcast)

    demux_done = threading.Event()

    def demux() -> None:
        from multiprocessing.connection import wait as conn_wait
        live = dict(in_conns)
        try:
            while live:
                for conn in conn_wait(list(live.values()), timeout=0.1):
                    src = next(r for r, c in live.items() if c is conn)
                    try:
                        frame = conn.recv()
                    except (EOFError, OSError):
                        del live[src]
                        continue
                    if frame[0] == BYE:
                        del live[src]
                        continue
                    transport.deliver_frame(worker, src, frame)
        finally:
            demux_done.set()

    demux_thread = threading.Thread(target=demux, name=f"shm-demux-{rank}",
                                    daemon=True)
    demux_thread.start()

    result = None
    failure: BaseException | None = None
    crashed: BaseException | None = None
    comm = Communicator(worker, nprocs, comm_id=0,
                        engine_config=engine_config)
    try:
        result = fn(comm)
    except RankCrashError as exc:
        crashed = exc
        if injector is not None:
            injector.drop_rank(rank)
    except BaseException as exc:
        failure = exc
        if injector is not None:
            injector.detector.mark_dead(rank,
                                        f"{type(exc).__name__}: {exc}")
    else:
        if injector is not None:
            injector.flush_rank(rank)
            injector.detector.mark_finished(rank)

    transport.broadcast((BYE, rank))
    # Peers keep delivering (and acknowledging) until each sends its own
    # sentinel; the demux drains them all before the pool snapshot.
    demux_done.wait()
    demux_thread.join(timeout=5.0)

    # Teardown mirrors the threaded driver: unclaimed messages and
    # unacknowledged staging give their buffers back, then a faulted pool
    # force-reclaims so faults never masquerade as leaks.
    for msg in worker.matcher.unmatched_messages():
        transport.release_chunks(worker, msg)
    transport.sweep()
    reliability = {}
    fault_trace = {}
    if injector is not None:
        worker.memory.pool.reclaim()
        reliability = injector.stats[rank].snapshot()
        fault_trace = {ch: events for ch, events in
                       injector.traces().items()
                       if ch.startswith(f"{rank}->")}

    snap = worker.memory.snapshot()
    if injector is not None:
        snap["reliability"] = reliability
    row = {
        "rank": rank,
        "result": result,
        "failure": env.encode_error(failure),
        "abort_origin": (injector.detector.abort_origin
                         if injector is not None else None),
        "crashed": env.encode_error(crashed),
        "clock": worker.clock.now,
        "memory": snap,
        "trace": list(worker.trace),
        "delivered": worker.delivered_msgs,
        "reliability": reliability,
        "fault_trace": fault_trace,
    }
    try:
        result_conn.send(row)
    except Exception:
        row["result"] = None
        row["failure"] = env.encode_error(TransportError(
            f"rank {rank} result is not picklable across the shm "
            f"process boundary"))
        result_conn.send(row)
    result_conn.close()


def _arbitrate_abort(rows: dict, failures: dict) -> dict:
    """Deterministic ULFM abort attribution across rank processes.

    On the threaded backends the detector is one shared object: the first
    fatal error records the abort reason, and every other blocked rank
    observes it and fails with the victim form (``job aborted ...``).
    With one detector per process that ordering races — a rank can raise
    its own hopeless-wait error in the window between a peer's transition
    arriving and the peer's abort broadcast arriving.  Re-impose the
    shared-detector outcome at collection time: the lowest-ranked abort
    originator keeps its own error, every other hopeless-wait failure is
    rewritten to the victim form naming the winner's reason.
    """
    origins = {r: rows[r].get("abort_origin") for r in rows
               if rows[r].get("abort_origin")}
    if not origins:
        return failures
    winner = min(origins)
    reason = origins[winner]
    for r, err in list(failures.items()):
        if (r != winner and isinstance(err, ProcFailedError)
                and "job aborted" not in str(err)):
            failures[r] = ProcFailedError(
                f"job aborted (MPI_ERRORS_ARE_FATAL): {reason}",
                failed_ranks=err.failed_ranks)
    return failures


class ShmTransport(Transport):
    """Parent-side driver: fork rank processes, assemble the JobResult."""

    name = "shm"
    supports_faults = True
    supports_sanitizer = False
    supports_cancel = False
    supports_shared_address_space = False
    rndv_aliases_buffers = False

    @classmethod
    def available(cls) -> tuple[bool, str]:
        return _shm_support()

    def check_job_supported(self, config, sanitize: bool = False) -> None:
        ok, why = _shm_support()
        if not ok:
            raise TransportUnavailableError(
                f"transport 'shm' is unavailable on this platform: {why}; "
                f"use --transport inproc or asyncio")
        if sanitize:
            raise TransportUnavailableError(
                "transport 'shm' does not support sanitize=True (the "
                "sanitizer needs one shared address space); use "
                "--transport inproc or asyncio")

    @staticmethod
    def arena_bytes() -> int:
        mb = os.environ.get("REPRO_SHM_ARENA_MB")
        return int(float(mb) * (1 << 20)) if mb else \
            DEFAULT_ARENA_MB << 20

    def run_job(self, fns, nprocs: int, config, engine_config=None,
                timeout: float = 120.0, sanitize: bool = False):
        import multiprocessing as mp
        import time
        from multiprocessing import shared_memory

        from ...mpi.runtime import JobResult, RuntimeAbort
        from ..context import UcpContext

        self.check_job_supported(config, sanitize=sanitize)
        ctx = mp.get_context("fork")

        # Directed control channels i->j, a result pipe per rank, and one
        # arena per rank.
        recv_ends: dict[tuple[int, int], object] = {}
        send_ends: dict[tuple[int, int], object] = {}
        for i in range(nprocs):
            for j in range(nprocs):
                if i != j:
                    r, s = ctx.Pipe(duplex=False)
                    recv_ends[(i, j)] = r
                    send_ends[(i, j)] = s
        result_pipes = [ctx.Pipe(duplex=False) for _ in range(nprocs)]
        arenas = {}
        procs = []
        try:
            for r in range(nprocs):
                arenas[r] = shared_memory.SharedMemory(
                    create=True, size=self.arena_bytes())
            for r in range(nprocs):
                out_conns = {j: send_ends[(r, j)] for j in range(nprocs)
                             if j != r}
                in_conns = {i: recv_ends[(i, r)] for i in range(nprocs)
                            if i != r}
                procs.append(ctx.Process(
                    target=_child_main,
                    args=(r, fns[r], nprocs, config, engine_config,
                          out_conns, in_conns, arenas,
                          result_pipes[r][1]),
                    name=f"mpi-rank-{r}", daemon=True))
            for p in procs:
                p.start()

            rows: dict[int, dict] = {}
            deadline = time.monotonic() + timeout
            for r in range(nprocs):
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not result_pipes[r][0].poll(remaining):
                    if not procs[r].is_alive() \
                            and result_pipes[r][0].poll(0):
                        rows[r] = result_pipes[r][0].recv()
                        continue
                    alive = [p.name for p in procs if p.is_alive()]
                    raise RuntimeAbort({-1: TimeoutError(
                        f"ranks still running after {timeout}s "
                        f"(deadlock?): {alive}")})
                rows[r] = result_pipes[r][0].recv()
            for p in procs:
                p.join(timeout=10.0)
        finally:
            for p in procs:
                if p.is_alive():
                    p.terminate()
                    p.join(timeout=5.0)
            for conn_pair in result_pipes:
                conn_pair[0].close()
                conn_pair[1].close()
            for conn in list(recv_ends.values()) + list(send_ends.values()):
                conn.close()
            for shm in arenas.values():
                try:
                    shm.close()
                    shm.unlink()
                except Exception:
                    pass

        failures = {r: env.decode_error(rows[r]["failure"])
                    for r in rows if rows[r]["failure"] is not None}
        if failures:
            raise RuntimeAbort(_arbitrate_abort(rows, failures))
        crashes = sorted(r for r in rows
                         if rows[r]["crashed"] is not None)

        # Parent-side fabric mirror: clocks and traces are filled from the
        # per-rank rows so result introspection (max_clock, traces) works
        # like the threaded backends.
        fabric = UcpContext(config).create_fabric(nprocs, transport=self)
        for r in range(nprocs):
            fabric.worker(r).clock.merge(rows[r]["clock"])
            fabric.worker(r).trace = list(rows[r]["trace"])
        fault_trace: dict[str, list] = {}
        for r in range(nprocs):
            fault_trace.update(rows[r]["fault_trace"])

        return JobResult(
            results=[rows[r]["result"] for r in range(nprocs)],
            fabric=fabric,
            clocks=[rows[r]["clock"] for r in range(nprocs)],
            memory=[rows[r]["memory"] for r in range(nprocs)],
            traces=[list(rows[r]["trace"]) for r in range(nprocs)],
            sanitizer_report=None,
            reliability=[rows[r]["reliability"] for r in range(nprocs)]
            if fabric.injector is not None else [],
            fault_trace=fault_trace,
            crashed=crashes,
            transport=self.name,
            msgs_delivered=[rows[r].get("delivered", 0)
                            for r in range(nprocs)],
        )
