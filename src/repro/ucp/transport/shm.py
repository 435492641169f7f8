"""The shared-memory backend: one process per rank, payloads by reference.

This is the multi-core plane the Adefemi 2025 single-node shared-memory
DDT study calls for: each rank is a forked ``multiprocessing`` process
(its packing finally runs on its own core, outside the sending GIL), and
each rank owns a ``multiprocessing.shared_memory`` *arena* that every
peer maps.  The rank's :class:`~repro.ucp.memory.BufferPool` is arena-backed
(:class:`ArenaBufferPool`), so PackPlans execute **directly into the
shared segment**: a non-contiguous send packs into an arena slab (on
rendezvous, its deferred source is built there at encode time), that
slab is the wire chunk on either protocol, the message frame carries only
``(offset, nbytes)``, and the receiver's PackPlan unpacks straight out of
the sender's segment into the user buffer.  Pack and unpack are the only
two passes over a derived payload, with no staging or bounce-buffer hop
between them; a contiguous payload is copied twice as well (staged into
the arena, scattered out of it) — no datatype crosses in one copy.  This
is the TEMPI-style interposed-staging design with the stage *being* the
wire.

Control plane: the frame plane of :mod:`.remote` — per-directed-pair
``multiprocessing.Pipe`` channels carry the portable envelope and the ack
frames.  A rank process runs one thread, the rank's: it is its own
progress engine, taking its frames through the plane's one frame loop
whenever it parks, tests a request or probes, and after its function
returns until every peer's ``bye``.  Frames that arrive while it computes
wait for its next MPI call; before each frame it writes, and while a
write the pipe cannot take yet waits, it reads its inbound pipes.  Ranks
share no detector object, so each process runs the
:class:`~.remote.PlaneDetector`: finishes, deaths and ULFM aborts travel
as frames (a peer applies one on the first read), which keeps
bounded-time hopeless-wait detection working across processes.

Staging ownership: an arena slab referenced by an in-flight frame stays
checked out of the sender's pool until the receiver's acknowledgement
resolves the pending table — the slab cannot be reused while a peer may
still be reading it.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace
from multiprocessing.connection import wait as conn_wait
from typing import Optional

import numpy as np

from ...errors import TransportError
from ..memory import BufferPool
from ..wire import materialize
from .base import RankReport, Transport, conclude_job, quiesce
from .remote import PlaneDetector, RemoteTransportMixin

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
        #: resolution; written and read under the pool lock (``_new_root``
        #: and ``_resolve_root`` run inside it).
        self._slab_by_addr: dict[int, np.ndarray] = {}
        self.spills = 0

    def _new_root(self, size: int) -> np.ndarray:
        if self._cursor + size <= self._segment_size:
            start = self._cursor
            self._cursor += size
            slab = self._segment[start:start + size]
            self._slab_by_addr[self._segment_addr + start] = slab
            return slab
        self.spills += 1
        return np.empty(size, dtype=np.uint8)

    def _resolve_root(self, buf):
        if isinstance(buf, np.ndarray):
            addr = buf.__array_interface__["data"][0]
            slab = self._slab_by_addr.get(addr)
            if slab is None:
                # A mid-slab view (its base chain collapses to the whole
                # segment, not the slab): containment scan.
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
    supports_shared_address_space = False

    def __init__(self, arenas):
        super().__init__()
        self._arena_views = {r: np.frombuffer(shm.buf, dtype=np.uint8)
                             for r, shm in arenas.items()}

    # -- payloads ----------------------------------------------------------

    def encode_payload(self, worker, msg) -> list:
        """Turn chunks into arena references (staging foreign memory).

        A derived rendezvous's deferred source is built first, straight
        into an arena slab (:func:`~repro.ucp.wire.materialize`).  Chunks
        already arena-resident — eager staging from ``copy_chunks`` (a
        derived eager message's packed stream included), sources built
        by the injector or here — cross as bare ``(offset, nbytes)`` references: the zero-copy path.
        Foreign chunks (live user-buffer views on a rendezvous send,
        injector-corrupted private copies, spilled slabs)
        leave the message here, staged into an arena slab — that
        wall-clock copy is the process boundary's "memory registration"
        and charges no virtual time — or, arena exhausted, as raw bytes on
        the pipe.  Each staging slab joins ``msg.pooled``, which the
        acknowledgement releases in one go (a pooled chunk a slab replaced
        goes back with it); after encoding, ``msg.chunks`` holds exactly
        the chunks the frame references.
        """
        pool = worker.memory.pool
        materialize(msg, pool)
        payload = []
        retained = []
        for chunk in msg.chunks:
            c = np.ascontiguousarray(chunk, dtype=np.uint8).reshape(-1)
            off = pool.arena_offset(c)
            if off is None:
                slab = pool.acquire(c.nbytes)
                off = pool.arena_offset(slab)
                if off is None:
                    pool.release(slab)
                    payload.append((REF_RAW, c.tobytes()))
                    continue
                slab[:] = c
                msg.pooled.append(slab)
                chunk = slab
            payload.append((REF_ARENA, int(off), int(c.nbytes)))
            retained.append(chunk)
        msg.chunks = retained
        return payload

    def materialize_payload(self, src_rank: int, payload):
        """Map payload references to chunks (the rank's own thread, no
        copy).

        Arena references become read views straight into the sender's
        segment — the receiver's delivery is the only copy, and the views
        are valid only during it: the acknowledgement that follows frees
        the sender to reuse the slab (the callback lifetime contract).
        """
        chunks = []
        for ref in payload:
            if ref[0] == REF_ARENA:
                _, off, nbytes = ref
                chunks.append(self._arena_views[src_rank][off:off + nbytes])
            elif ref[0] == REF_RAW:
                chunks.append(np.frombuffer(ref[1], dtype=np.uint8))
            else:
                raise TransportError(f"unknown payload reference {ref[0]!r}")
        return chunks


def _child_main(rank: int, fn, nprocs: int, config, engine_config,
                out_conns: dict, in_conns: dict, arenas,
                result_conn) -> None:
    """One rank process: fabric + frame plane + the shared rank lifecycle."""
    from ..context import UcpContext

    transport = _ShmChildTransport(arenas)
    fabric = UcpContext(config).create_fabric(nprocs, transport=transport)
    fabric.detector = PlaneDetector(nprocs, transport, rank)
    fabric.worker(rank).memory.pool = ArenaBufferPool(arenas[rank])
    transport.open_plane(fabric, rank, out_conns, in_conns)

    # How the function ended goes out before the rank takes its peers'
    # last frames; the parent's deadline bounds that wait.
    report = transport.run_rank(
        fabric, rank, fn, engine_config,
        lambda rep: result_conn.send(replace(rep, result=None)))
    quiesce(fabric, (rank,), failed=report.failure is not None)
    report.snapshot(fabric)
    try:
        result_conn.send(report)
    except Exception:
        report.result = None
        report.failure = TransportError(
            f"rank {rank} result is not picklable across the shm "
            f"process boundary")
        result_conn.send(report)
    result_conn.close()


class ShmTransport(Transport):
    """Parent-side driver: fork rank processes, collect their reports."""

    name = "shm"
    supports_cancel = False
    supports_shared_address_space = False

    @classmethod
    def available(cls) -> tuple[bool, str]:
        return _shm_support()

    @staticmethod
    def arena_bytes() -> int:
        mb = os.environ.get("REPRO_SHM_ARENA_MB")
        return int(float(mb) * (1 << 20)) if mb else \
            DEFAULT_ARENA_MB << 20

    def run_job(self, fns, nprocs: int, config, engine_config=None,
                timeout: float = 120.0, sanitize: bool = False):
        import multiprocessing as mp
        from multiprocessing import shared_memory

        from ..context import UcpContext

        ctx = mp.get_context("fork")

        # Directed control channels i->j as (recv end, send end), a result
        # pipe per rank, and one arena per rank.
        channels = {(i, j): ctx.Pipe(duplex=False) for i in range(nprocs)
                    for j in range(nprocs) if i != j}
        result_pipes = [ctx.Pipe(duplex=False) for _ in range(nprocs)]
        arenas = {}
        procs = []
        reports: list[Optional[RankReport]] = [None] * nprocs
        try:
            for r in range(nprocs):
                arenas[r] = shared_memory.SharedMemory(
                    create=True, size=self.arena_bytes())
            for r in range(nprocs):
                out_conns = {j: channels[(r, j)][1]
                             for j in range(nprocs) if j != r}
                in_conns = {channels[(i, r)][0]: i
                            for i in range(nprocs) if i != r}
                procs.append(ctx.Process(
                    target=_child_main,
                    args=(r, fns[r], nprocs, config, engine_config,
                          out_conns, in_conns, arenas,
                          result_pipes[r][1]),
                    name=f"mpi-rank-{r}", daemon=True))
            for p in procs:
                p.start()

            # Each rank reports twice: how its function ended, then (after
            # its teardown) the full snapshot.  At the deadline whatever
            # arrived stands — a rank that never reported is the timeout.
            waiting = {conn: r for r, (conn, _) in enumerate(result_pipes)}
            deadline = time.monotonic() + timeout
            while waiting:
                ready = conn_wait(list(waiting), timeout=max(
                    deadline - time.monotonic(), 0.0))
                if not ready:
                    break
                for conn in ready:
                    rep = reports[waiting[conn]] = conn.recv()
                    if rep.memory is not None:
                        del waiting[conn]
            if not waiting:
                for p in procs:
                    p.join(timeout=10.0)
        finally:
            for p in procs:
                if p.is_alive():
                    p.terminate()
                    p.join(timeout=5.0)
            for ends in result_pipes + list(channels.values()):
                ends[0].close()
                ends[1].close()
            for shm in arenas.values():
                try:
                    shm.close()
                    shm.unlink()
                except Exception:
                    pass

        job = conclude_job(reports, None, self.name, timeout)
        # Parent-side fabric mirror: clocks and traces are filled from the
        # reports so result introspection (max_clock, traces) works like
        # the threaded backends.
        job.fabric = UcpContext(config).create_fabric(nprocs, transport=self)
        for w, rep in zip(job.fabric.workers, reports):
            w.clock.merge(rep.clock)
            w.trace = list(rep.trace)
        return job
