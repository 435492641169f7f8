"""Allocation accounting and buffer pooling for the simulated node.

The paper repeatedly points at *memory* costs, not just wire costs: full
serialization "can potentially double memory usage", and receive-side
allocations are why no pickle strategy reaches the roofline in Figs. 8-9.
:class:`MemoryTracker` records every transient allocation the engine or a
serialization strategy makes, both to charge virtual time for it and to let
tests assert the memory-amplification properties the paper claims (e.g. the
basic-pickle path allocates ~2x the payload, the out-of-band path does not).

:class:`BufferPool` recycles those transient buffers (built packed
streams, fragment scratch, eager wire staging) through size-classed free lists so the
hot send/receive path stops hitting the allocator.  Pooling is a *wall-clock*
optimization only: :meth:`MemoryTracker.acquire` charges exactly the same
accounting and virtual time as :meth:`MemoryTracker.allocate`, so every
figure and every memory assertion is unchanged whether a buffer came from
the pool or the allocator (or, with :meth:`MemoryTracker.reserve`, nowhere).
"""

from __future__ import annotations

import threading

import numpy as np

from ..errors import MemoryQuotaError, PoolLeakError
from .netsim import CostModel, VirtualClock


class BufferPool:
    """Size-classed free lists of uint8 scratch buffers.

    ``acquire(n)`` returns a length-``n`` view of a power-of-two backing
    array, reusing a pooled one when available; ``release(buf)`` returns the
    backing array (resolved through the numpy ``base`` chain, so any view of
    a pooled buffer can be released).  Buffers come back **dirty** — every
    pool user overwrites before reading.

    The pool is intentionally forgiving at the release boundary, because the
    transport returns whatever chunks a message carried: releasing a buffer
    the pool does not own (a user buffer riding a rendezvous send) or
    releasing twice (the engine and the delivery path both letting go of a
    bounce buffer) is a silent no-op, guarded by the outstanding set.

    Thread contract: ``acquire`` is called by the owning rank's thread —
    and, in-process, by a receiver building its sender's deferred source
    into the sender's pool; ``release`` may be called from any rank's
    thread (delivery returns eager staging to the *sender's* pool), hence
    the lock.
    """

    #: Smallest class; sub-64-byte requests share one class.
    MIN_CLASS = 64

    def __init__(self, max_per_class: int = 8,
                 max_pooled_class: int = 1 << 24):
        self._lock = threading.Lock()
        self._free: dict[int, list[np.ndarray]] = {}
        #: Backing arrays currently handed out, keyed by id().  The strong
        #: reference keeps the id stable until release; anything never
        #: released lives exactly as long as it would have unpooled.
        self._out: dict[int, np.ndarray] = {}
        self.max_per_class = max_per_class
        #: Classes above this are never cached (release drops them).
        self.max_pooled_class = max_pooled_class
        self.hits = 0
        self.misses = 0
        self.returned = 0
        self.dropped = 0

    @classmethod
    def class_size(cls, nbytes: int) -> int:
        """The power-of-two size class serving an ``nbytes`` request."""
        return max(cls.MIN_CLASS, 1 << (nbytes - 1).bit_length()) \
            if nbytes > 1 else cls.MIN_CLASS

    def _new_root(self, size: int) -> np.ndarray:
        """One fresh backing array for the pool-miss path (lock held).

        Subclass seam: the shared-memory transport's
        :class:`~repro.ucp.transport.shm.ArenaBufferPool` carves these
        from a ``multiprocessing.shared_memory`` segment instead, which is
        what lets PackPlans execute directly into cross-process memory.
        """
        return np.empty(size, dtype=np.uint8)

    def _resolve_root(self, buf):
        """Map any view of a pooled buffer back to its backing array (for
        :meth:`owns` and :meth:`release`, under the pool lock)."""
        root = buf
        while isinstance(root, np.ndarray) and isinstance(root.base,
                                                          np.ndarray):
            root = root.base
        return root

    def acquire(self, nbytes: int) -> np.ndarray:
        """A uint8 buffer of exactly ``nbytes`` (a view of a pooled class)."""
        if nbytes < 0:
            raise ValueError(f"negative acquire: {nbytes}")
        if nbytes == 0:
            return np.empty(0, dtype=np.uint8)
        size = self.class_size(nbytes)
        with self._lock:
            free = self._free.get(size)
            if free:
                root = free.pop()
                self.hits += 1
            else:
                root = self._new_root(size)
                self.misses += 1
            self._out[id(root)] = root
        return root[:nbytes]

    def release(self, buf) -> bool:
        """Return ``buf``'s backing array to the pool: the one place a
        returned buffer is kept on its class's free list or dropped (too
        big to pool, or the list is full).

        Returns False (and does nothing) for buffers the pool does not
        currently own — foreign arrays and double releases.
        """
        with self._lock:
            root = self._resolve_root(buf)
            if not isinstance(root, np.ndarray):
                return False
            owned = self._out.pop(id(root), None)
            if owned is None:
                return False
            self.returned += 1
            size = owned.shape[0]
            if size <= self.max_pooled_class:
                free = self._free.setdefault(size, [])
                if len(free) < self.max_per_class:
                    free.append(owned)
                    return True
            self.dropped += 1
            return True

    def owns(self, buf) -> bool:
        """True when ``buf`` is (a view of) a buffer this pool has handed
        out and not yet got back."""
        with self._lock:
            root = self._resolve_root(buf)
            return self._out.get(id(root)) is root

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "returned": self.returned, "dropped": self.dropped,
                    "outstanding": len(self._out),
                    "pooled_buffers": sum(len(v) for v in
                                          self._free.values()),
                    "pooled_bytes": sum(k * len(v) for k, v in
                                        self._free.items())}

    def reclaim(self) -> int:
        """Force-return every outstanding buffer to the free lists.

        Faulted jobs can strand staging buffers: a crashed rank never
        waits its requests, an abandoned transfer never delivers.  The
        runtime calls this at teardown (only on faulted or failed jobs)
        so ``snapshot()["outstanding"]`` ends at zero and the stranded
        bytes are accounted as returned rather than leaked.  Returns the
        number of buffers reclaimed (each through :meth:`release`, so a
        buffer another thread gives back meanwhile counts once).
        """
        with self._lock:
            stranded = list(self._out.values())
        return sum(map(self.release, stranded))

    def reset_for_job(self, job: str = "<unknown>") -> dict[str, int]:
        """Re-arm the pool at a job boundary, keeping the free lists warm.

        Asserts that the finished job returned every buffer it took:
        any outstanding buffer raises :class:`~repro.errors.PoolLeakError`
        naming ``job``, so a leak is attributed to the job that caused it
        instead of surfacing as unexplained growth hundreds of jobs later.
        On a balanced pool the per-job counters (hits/misses/returned/
        dropped) are zeroed while the cached free lists — the whole point
        of a warm worker set — are preserved.  Returns the warm-state
        summary (``pooled_buffers``/``pooled_bytes``).
        """
        with self._lock:
            if self._out:
                outstanding = len(self._out)
                leaked = sum(b.shape[0] for b in self._out.values())
                raise PoolLeakError(job, outstanding, leaked)
            self.hits = self.misses = 0
            self.returned = self.dropped = 0
            return {"pooled_buffers": sum(len(v) for v in
                                          self._free.values()),
                    "pooled_bytes": sum(k * len(v) for k, v in
                                        self._free.items())}

    def clear(self) -> None:
        """Drop the free lists and reset the statistics."""
        with self._lock:
            self._free.clear()
            self._out.clear()
            self.hits = self.misses = 0
            self.returned = self.dropped = 0


class MemoryTracker:
    """Counts live and cumulative transient bytes per rank."""

    def __init__(self):
        self._lock = threading.Lock()
        self.live_bytes = 0
        self.peak_bytes = 0
        self.total_allocated = 0
        self.allocation_count = 0
        #: Per-job transient-memory quota (bytes of live transient
        #: allocations); None — the default — disables the check entirely.
        #: Set by the job service on the rank's own thread at entry.
        self.byte_ceiling: int | None = None
        self.pool = BufferPool()

    def reserve(self, nbytes: int, clock: VirtualClock | None = None,
                model: CostModel | None = None) -> None:
        """Book a transient buffer — accounting and first-touch cost —
        without building it: all a *modelled* buffer (the derived receive's
        bounce buffer) needs.  Pair with ``release(nbytes)``."""
        if nbytes < 0:
            raise ValueError(f"negative allocation: {nbytes}")
        with self._lock:
            ceiling = self.byte_ceiling
            if ceiling is not None and self.live_bytes + nbytes > ceiling:
                # Refuse *before* booking the bytes or touching the pool,
                # so a quota breach leaves accounting and pool balanced.
                raise MemoryQuotaError(ceiling, self.live_bytes, nbytes)
            self.live_bytes += nbytes
            self.peak_bytes = max(self.peak_bytes, self.live_bytes)
            self.total_allocated += nbytes
            self.allocation_count += 1
        if clock is not None and model is not None:
            clock.advance(model.alloc_time(nbytes))

    def allocate(self, nbytes: int, clock: VirtualClock | None = None,
                 model: CostModel | None = None) -> np.ndarray:
        """Allocate a fresh uint8 buffer, charging first-touch cost."""
        self.reserve(nbytes, clock, model)
        return np.zeros(nbytes, dtype=np.uint8)

    def acquire(self, nbytes: int, clock: VirtualClock | None = None,
                model: CostModel | None = None) -> np.ndarray:
        """Pool-backed :meth:`allocate`.

        Identical accounting and virtual-time charge — an acquired buffer is
        indistinguishable from an allocated one to the cost model and to
        every memory assertion — but the bytes come from :attr:`pool` when
        it has a fit (and come back dirty, not zeroed; callers overwrite).
        """
        self.reserve(nbytes, clock, model)
        return self.pool.acquire(nbytes)

    def release(self, buf_or_nbytes) -> None:
        """Return bytes to the tracker (buffers are garbage-collected)."""
        nbytes = (buf_or_nbytes if isinstance(buf_or_nbytes, int)
                  else memoryview(buf_or_nbytes).nbytes)
        with self._lock:
            self.live_bytes = max(0, self.live_bytes - nbytes)

    def recycle(self, buf) -> None:
        """Release ``buf`` from the accounting *and* return it to the pool."""
        self.release(buf)
        self.pool.release(buf)

    def snapshot(self) -> dict:
        with self._lock:
            snap = {"live_bytes": self.live_bytes,
                    "peak_bytes": self.peak_bytes,
                    "total_allocated": self.total_allocated,
                    "allocation_count": self.allocation_count}
        snap["pool"] = self.pool.snapshot()
        return snap

    def reset(self) -> None:
        with self._lock:
            self.live_bytes = 0
            self.peak_bytes = 0
            self.total_allocated = 0
            self.allocation_count = 0
            self.byte_ceiling = None
        self.pool.clear()

    def reset_for_job(self, job: str = "<unknown>") -> dict[str, int]:
        """Re-arm accounting at a job boundary, keeping the pool warm.

        The pool check runs first (raising
        :class:`~repro.errors.PoolLeakError` naming ``job`` if the
        finished job left buffers outstanding); only a balanced tracker is
        re-armed, so counters never silently absorb a leak.  Unlike
        :meth:`reset`, the pool's free lists survive — a recycled tracker
        serves the next job's buffers from cache.
        """
        warm = self.pool.reset_for_job(job)
        with self._lock:
            self.live_bytes = 0
            self.peak_bytes = 0
            self.total_allocated = 0
            self.allocation_count = 0
            self.byte_ceiling = None
        return warm
