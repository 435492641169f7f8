"""Seeded fault injection and the reliability protocol for the fabric.

The paper's prototype rides on UCX, whose transports survive lossy links
through sequencing, acknowledgement and retransmission.  The simulated
fabric historically delivered every fragment intact, in order, exactly
once — so none of the pack/unpack, pooling or protocol machinery had ever
been exercised under failure.  This module makes the fabric falsifiable:

* :class:`FaultPlan` — a **seeded, deterministic** schedule of wire faults
  (fragment drop and corruption, message duplication, reordering and extra
  delay) plus rank **crash**/**stall** events pinned to virtual-clock
  times.  Every decision is a pure function of ``(seed, src, dst, seq,
  fragment, round)``, so the same plan replayed over the same program
  produces the identical fault trace regardless of thread interleaving.

* :class:`ReliabilityConfig` — the recovery protocol modelled on the
  sequencing layer of real transports: per-fragment CRC32 and sequence
  numbers ride the wire envelope, the receiver's tag-match path acknow-
  ledges (ACK) or rejects (NACK) fragments, and the sender retransmits
  with timeout + exponential backoff until the retry budget runs out.
  Every recovery round is charged through :mod:`repro.ucp.netsim` virtual
  time, so retries visibly cost latency and bandwidth in the figures.

* :class:`FailureDetector` — the job-wide view of crashed/finished ranks
  that blocking waits consult so surviving ranks surface
  ``MPI_ERR_PROC_FAILED`` instead of hanging (ULFM semantics); every
  fabric has one (``Fabric.detector``), faulted or not.

* :class:`FaultInjector` — the per-fabric interposer that sits between
  :meth:`repro.ucp.context.Endpoint.tag_send` and the destination tag
  matcher and applies all of the above.

Determinism contract: the injector resolves each message's fault/recovery
history synchronously at injection time on the sender's thread.  Per-
channel (src, dst) state — sequence numbers, the reorder hold slot and
the event trace — is only touched by the sending rank's thread, so traces
are reproducible per channel even though ranks interleave freely.
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from ..errors import ProcFailedError, RankCrashError
from .transitions import (duplicate_suppressed, resolve_retries,
                          retry_backoff)
from .wire import WireHeader, WireMessage, materialize

__all__ = [
    "FaultPlan", "ReliabilityConfig", "ReliabilityStats",
    "FailureDetector", "FaultInjector", "fragment_bounds", "fragment_crcs",
]


def _decide(seed: int, kind: str, src: int, dst: int, seq: int,
            frag: int, rnd: int, probability: float) -> bool:
    """One deterministic Bernoulli draw.

    The draw is a pure function of its arguments (CRC32 of a canonical
    key string), never of shared RNG state, so concurrent channels cannot
    perturb each other and replays are exact.
    """
    if probability <= 0.0:
        return False
    if probability >= 1.0:
        return True
    key = f"{seed}|{kind}|{src}|{dst}|{seq}|{frag}|{rnd}"
    draw = zlib.crc32(key.encode("ascii")) / 0xFFFFFFFF
    return draw < probability


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, virtual-time-scheduled schedule of fabric faults.

    All probabilities are per-decision (per fragment for ``drop`` and
    ``corrupt``, per message for the rest) and are resolved
    deterministically from ``seed`` — see :func:`_decide`.
    """

    seed: int = 0
    #: Per-fragment probability that the fragment never arrives.
    drop: float = 0.0
    #: Per-fragment probability that payload bytes are flipped in flight.
    corrupt: float = 0.0
    #: Per-message probability that the message arrives twice.
    duplicate: float = 0.0
    #: Per-message probability that the message swaps places with the
    #: next message on the same channel.
    reorder: float = 0.0
    #: Per-message probability of extra wire delay.
    delay: float = 0.0
    #: Virtual seconds added when a message is delayed.
    delay_time: float = 50e-6
    #: Half-open range of per-channel sequence numbers the plan applies to
    #: (None = every message).  Lets tests target "the first message".
    window: Optional[tuple[int, int]] = None
    #: Restrict faults to these ``(src, dst)`` channels (None = all).
    channels: Optional[frozenset] = None
    #: Rank -> virtual time at which the rank crashes (disappears).
    crash: dict = field(default_factory=dict)
    #: Rank -> ``(at, duration)``: a one-shot virtual-time stall.
    stall: dict = field(default_factory=dict)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_dict(cls, spec: dict) -> "FaultPlan":
        """Build a plan from a JSON-style dict (the CLI fixture format)."""
        spec = dict(spec)
        window = spec.get("window")
        if window is not None:
            spec["window"] = (int(window[0]), int(window[1]))
        channels = spec.get("channels")
        if channels is not None:
            spec["channels"] = frozenset((int(s), int(d))
                                         for s, d in channels)
        crash = spec.get("crash")
        if crash is not None:
            spec["crash"] = {int(r): float(t) for r, t in crash.items()}
        stall = spec.get("stall")
        if stall is not None:
            spec["stall"] = {int(r): (float(a), float(d))
                             for r, (a, d) in stall.items()}
        return cls(**spec)

    def to_dict(self) -> dict:
        doc = {
            "seed": self.seed, "drop": self.drop, "corrupt": self.corrupt,
            "duplicate": self.duplicate, "reorder": self.reorder,
            "delay": self.delay, "delay_time": self.delay_time,
        }
        if self.window is not None:
            doc["window"] = list(self.window)
        if self.channels is not None:
            doc["channels"] = sorted([s, d] for s, d in self.channels)
        if self.crash:
            doc["crash"] = {str(r): t for r, t in sorted(self.crash.items())}
        if self.stall:
            doc["stall"] = {str(r): list(v)
                            for r, v in sorted(self.stall.items())}
        return doc

    def with_overrides(self, **kw) -> "FaultPlan":
        return replace(self, **kw)

    # -- decisions --------------------------------------------------------

    def affects(self, src: int, dst: int, seq: int) -> bool:
        """Whether wire faults apply to this message at all."""
        if self.channels is not None and (src, dst) not in self.channels:
            return False
        if self.window is not None \
                and not self.window[0] <= seq < self.window[1]:
            return False
        return True

    def frag_fates(self, src: int, dst: int, seq: int, frags,
                   rnd: int = 0) -> tuple[set, set]:
        """``(dropped, corrupted)`` fragment indices for one (re)try round.

        ``frags`` is an iterable of fragment indices under consideration
        (all of them for round 0, the retransmitted subset afterwards).
        A fragment both dropped and corrupted counts as dropped.
        """
        if not self.affects(src, dst, seq):
            return set(), set()
        dropped, corrupted = set(), set()
        for f in frags:
            if _decide(self.seed, "drop", src, dst, seq, f, rnd, self.drop):
                dropped.add(f)
            elif _decide(self.seed, "corrupt", src, dst, seq, f, rnd,
                         self.corrupt):
                corrupted.add(f)
        return dropped, corrupted

    def message_fates(self, src: int, dst: int, seq: int) -> dict:
        """Message-level fates: ``{"duplicate", "reorder", "delay"}``."""
        if not self.affects(src, dst, seq):
            return {"duplicate": False, "reorder": False, "delay": False}
        return {
            "duplicate": _decide(self.seed, "dup", src, dst, seq, 0, 0,
                                 self.duplicate),
            "reorder": _decide(self.seed, "reorder", src, dst, seq, 0, 0,
                               self.reorder),
            "delay": _decide(self.seed, "delay", src, dst, seq, 0, 0,
                             self.delay),
        }


@dataclass(frozen=True)
class ReliabilityConfig:
    """Knobs of the sequencing/ACK/retransmission recovery protocol."""

    enabled: bool = True
    #: Retransmission rounds before the transfer is abandoned
    #: (``MPI_ERR_PROC_FAILED`` at both ends).
    retry_limit: int = 4
    #: Virtual seconds before the first retransmission fires.
    retry_timeout: float = 100e-6
    #: Multiplier applied to the timeout each further round.
    backoff: float = 2.0
    #: Receiver-side processing cost of one ACK/NACK round.
    ack_overhead: float = 0.3e-6

    @classmethod
    def from_dict(cls, spec) -> "ReliabilityConfig":
        if isinstance(spec, cls):
            return spec
        if spec is True:
            return cls()
        return cls(**dict(spec))


class ReliabilityStats:
    """Per-rank reliability counters (thread-safe; any rank may charge)."""

    FIELDS = ("retransmits", "retransmitted_bytes", "crc_failures",
              "duplicates_dropped", "duplicates_delivered", "ack_rounds",
              "backoff_time", "lost_messages", "lost_fragments",
              "corrupted_delivered", "reorders_healed", "reordered",
              "delays", "exhausted")

    def __init__(self):
        self._lock = threading.Lock()
        for f in self.FIELDS:
            setattr(self, f, 0.0 if f == "backoff_time" else 0)

    def add(self, **kw) -> None:
        with self._lock:
            for k, v in kw.items():
                setattr(self, k, getattr(self, k) + v)

    def snapshot(self) -> dict:
        with self._lock:
            return {f: getattr(self, f) for f in self.FIELDS}


class FailureDetector:
    """Job-wide knowledge of dead, finished and aborted ranks.

    The one blocking wait (``Worker.park``) asks :meth:`check_hopeless`
    so that an operation whose every possible peer has raised, crashed (or
    finished without matching) surfaces an error in bounded time instead
    of hanging — the "surviving ranks keep running" half of the ULFM
    semantics.
    """

    def __init__(self, nprocs: int):
        self.nprocs = nprocs
        self._lock = threading.Lock()
        self._dead: dict[int, str] = {}
        self._finished: set[int] = set()
        #: The first fatal error's reason; written under the lock, read
        #: without it by every blocking wait before its first nap.
        self.aborted: Optional[str] = None

    # -- state changes (any thread) ---------------------------------------

    def mark_dead(self, rank: int, reason: str = "process failed") -> None:
        with self._lock:
            self._dead.setdefault(rank, reason)

    def mark_finished(self, rank: int) -> None:
        with self._lock:
            self._finished.add(rank)

    def abort_job(self, reason: str) -> bool:
        """MPI_ERRORS_ARE_FATAL: poison every subsequent blocking wait.

        Returns True when this call recorded the abort (first fatal error
        wins); later calls are no-ops so the original reason survives.
        """
        with self._lock:
            if self.aborted is None:
                self.aborted = reason
                return True
            return False

    # -- queries ----------------------------------------------------------

    def is_dead(self, rank: int) -> bool:
        with self._lock:
            return rank in self._dead

    def check_hopeless(self, targets, what: str,
                       ended: bool = True) -> Optional[ProcFailedError]:
        """The error of a blocking wait ``targets`` can no longer satisfy
        (None while they still can; ``Worker.park`` decides when to raise).

        * job aborted (fatal error handler fired anywhere) — names the
          abort reason;
        * every target is dead or finished, with at least one dead — names
          the dead peers;
        * every target finished cleanly (no crash) — the wait is an
          application bug (a peer returned without matching); flagged too,
          so every job terminates.

        Without ``ended`` only the abort counts (the sanitizer judges
        waits on ended peers).
        """
        with self._lock:
            reason = self.aborted
            if reason is None and not (ended and all(
                    t in self._dead or t in self._finished
                    for t in targets)):
                return None
            dead = set(self._dead).intersection(targets)
        if reason is not None:
            return ProcFailedError(
                f"job aborted (MPI_ERRORS_ARE_FATAL): {reason}",
                failed_ranks=dead)
        if dead:
            return ProcFailedError(
                f"{what} depends on failed rank(s) "
                f"{','.join(str(r) for r in sorted(dead))}",
                failed_ranks=dead)
        return ProcFailedError(
            f"{what} can never complete: all candidate peer(s) "
            f"{','.join(str(t) for t in sorted(set(targets)))} finished "
            f"without a matching operation")


def fragment_bounds(chunks, frag_size: int) -> list[tuple[int, int, int]]:
    """Split wire chunks into reliability fragments.

    Returns ``(chunk_index, start, stop)`` triples: each chunk is cut into
    ``frag_size`` pieces, mirroring how the transport would packetize the
    payload.  Empty chunks still occupy one (empty) fragment so envelopes
    always carry at least one sequence number.
    """
    bounds = []
    for ci, chunk in enumerate(chunks):
        n = int(chunk.shape[0])
        if n == 0:
            bounds.append((ci, 0, 0))
            continue
        for start in range(0, n, frag_size):
            bounds.append((ci, start, min(start + frag_size, n)))
    return bounds or [(0, 0, 0)]


def fragment_crcs(chunks, bounds) -> tuple[int, ...]:
    """CRC32 of every fragment (the wire envelope's integrity words)."""
    out = []
    for ci, start, stop in bounds:
        if ci < len(chunks) and stop > start:
            piece = np.ascontiguousarray(chunks[ci][start:stop])
            out.append(zlib.crc32(piece.tobytes()))
        else:
            out.append(0)
    return tuple(out)


class _Channel:
    """Per-(src, dst) injector state; touched only by the sender thread."""

    __slots__ = ("seq", "held", "trace")

    def __init__(self):
        self.seq = 0
        self.held: Optional[tuple] = None
        self.trace: list[dict] = []

    def next_seq(self) -> int:
        s = self.seq
        self.seq += 1
        return s


class FaultInjector:
    """Interposes on fragment delivery between endpoint and tag matcher."""

    def __init__(self, nworkers: int, plan: Optional[FaultPlan],
                 reliability: Optional[ReliabilityConfig]):
        self.plan = plan or FaultPlan()
        self.reliability = reliability or ReliabilityConfig(enabled=False)
        self.stats = [ReliabilityStats() for _ in range(nworkers)]
        self._channels: dict[tuple[int, int], _Channel] = {}
        self._channels_lock = threading.Lock()
        self._stalled: set[int] = set()
        self._stall_lock = threading.Lock()

    # -- helpers ----------------------------------------------------------

    def _channel(self, src: int, dst: int) -> _Channel:
        key = (src, dst)
        with self._channels_lock:
            ch = self._channels.get(key)
            if ch is None:
                ch = self._channels[key] = _Channel()
            return ch

    def traces(self, src: Optional[int] = None) -> dict[str, list[dict]]:
        """Per-channel fault/recovery event logs (deterministic per seed),
        of every channel or of the ones rank ``src`` sends on."""
        with self._channels_lock:
            items = sorted(kv for kv in self._channels.items()
                           if src is None or kv[0][0] == src)
        return {f"{s}->{d}": list(ch.trace) for (s, d), ch in items}

    # -- rank schedule (crash / stall) -------------------------------------

    def on_progress(self, worker) -> None:
        """Crash/stall checkpoint; called at every fabric interaction.  A
        crash is marked in the fabric's failure detector."""
        rank = worker.index
        st = self.plan.stall.get(rank)
        if st is not None:
            with self._stall_lock:
                due = worker.clock.now >= st[0] and rank not in self._stalled
                if due:
                    self._stalled.add(rank)
            if due:
                worker.clock.advance(st[1])
        ct = self.plan.crash.get(rank)
        detector = worker.fabric.detector
        if ct is not None and worker.clock.now >= ct \
                and not detector.is_dead(rank):
            detector.mark_dead(rank, "crashed by fault plan")
            raise RankCrashError(rank, worker.clock.now)

    # -- the interposition point -------------------------------------------

    def transmit(self, worker, dst: int, deposit, msg: WireMessage,
                 model) -> None:
        """Apply the fault plan (and reliability recovery) to one message.

        Runs on the sender's thread at injection time; resolves the whole
        fault/retransmission history synchronously, charges the resulting
        virtual time, then either hands the (intact or corrupted) message
        to ``deposit`` — the transport's way into rank ``dst``'s matcher —
        or drops it.  A deferred source is built into the sender's pool
        first: CRCs, corruption and duplicates act on real bytes.
        """
        src = worker.index
        p = model.params
        ch = self._channel(src, dst)
        seq = ch.next_seq()
        hdr = msg.header
        hdr.seq = seq

        materialize(msg, worker.memory.pool)
        bounds = fragment_bounds(msg.chunks, p.frag_size)
        hdr.frag_crcs = fragment_crcs(msg.chunks, bounds)

        frags = range(len(bounds))
        dropped, corrupted = self.plan.frag_fates(src, dst, seq, frags)
        fates = self.plan.message_fates(src, dst, seq)

        if self.reliability.enabled:
            self._transmit_reliable(worker, dst, deposit, msg, model, ch,
                                    seq, bounds, dropped, corrupted, fates)
        else:
            self._transmit_raw(worker, dst, deposit, msg, model, ch, seq,
                               bounds, dropped, corrupted, fates)

    # -- unreliable datagram semantics -------------------------------------

    def _transmit_raw(self, worker, dst, deposit, msg, model, ch, seq,
                      bounds, dropped, corrupted, fates) -> None:
        src = worker.index
        stats = self.stats[src]

        if dropped:
            # Any lost fragment kills the whole datagram: the receiver
            # cannot reassemble a partial message without sequencing.
            ch.trace.append({"event": "lost", "src": src, "dst": dst,
                             "seq": seq, "frags": sorted(dropped)})
            stats.add(lost_messages=1, lost_fragments=len(dropped))
            san = worker.sanitizer
            if san is not None:
                san.emit(
                    "RPD450",
                    f"message #{seq} of {msg.total_bytes} bytes from rank "
                    f"{src} to rank {dst} lost {len(dropped)} fragment(s) "
                    f"on the wire and no reliability protocol is enabled; "
                    f"the message will never arrive",
                    rank=src,
                    hint="enable the reliability protocol "
                         "(run(..., reliability=True)) or treat the "
                         "fabric as lossy")
            worker.fabric.transport.release_chunks(worker, msg)
            if msg.rndv:
                # A rendezvous sender would block forever on the lost
                # handshake; release it with the failure.
                msg.mark_failed(worker.clock.now, ProcFailedError(
                    f"rendezvous message #{seq} to rank {dst} lost on the "
                    f"wire (no reliability protocol)"))
            self._flush_held(ch)
            return

        if corrupted:
            # Corrupt private copies, never the sender's live buffers
            # (rendezvous chunks are views of user memory).  A pooled
            # staging chunk the copy replaces stays in ``msg.pooled`` and
            # goes back at the message's exit.
            for ci, start, stop in (bounds[f] for f in sorted(corrupted)):
                chunk = msg.chunks[ci]
                if chunk.base is not None or not chunk.flags.owndata:
                    private = np.array(chunk, copy=True)
                    msg.chunks[ci] = private
                    chunk = private
                if stop > start:
                    chunk[start] ^= 0xFF
            ch.trace.append({"event": "corrupt", "src": src, "dst": dst,
                             "seq": seq, "frags": sorted(corrupted)})

        if fates["delay"]:
            msg.wire_time += self.plan.delay_time
            stats.add(delays=1)
            ch.trace.append({"event": "delay", "src": src, "dst": dst,
                             "seq": seq, "t": self.plan.delay_time})

        dup = None
        if fates["duplicate"]:
            dup = self._clone(msg)
            stats.add(duplicates_delivered=1)
            ch.trace.append({"event": "duplicate", "src": src, "dst": dst,
                             "seq": seq})

        if fates["reorder"] and ch.held is None:
            stats.add(reordered=1)
            ch.trace.append({"event": "reorder-hold", "src": src,
                             "dst": dst, "seq": seq})
            ch.held = (deposit, msg, dup)
            return

        deposit(msg)
        if dup is not None:
            deposit(dup)
        self._flush_held(ch)

    # -- reliability protocol ----------------------------------------------

    def _transmit_reliable(self, worker, dst, deposit, msg, model, ch, seq,
                           bounds, dropped, corrupted, fates) -> None:
        src = worker.index
        stats = self.stats[src]
        rel = self.reliability
        p = model.params

        if corrupted:
            stats.add(crc_failures=len(corrupted))
        # The whole NACK/retransmit schedule is decided by the shared
        # transition table (pure, model-checked); this loop only *charges*
        # the resolved rounds into virtual time and the stats.
        rounds, remaining = resolve_retries(
            lambda frags, rnd: self.plan.frag_fates(src, dst, seq, frags,
                                                    rnd=rnd),
            rel.retry_limit, dropped, corrupted)
        extra_time = 0.0
        for r in rounds:
            nbytes = sum(bounds[f][2] - bounds[f][1] for f in r.frags)
            backoff = retry_backoff(rel.retry_timeout, rel.backoff, r.round)
            # One NACK round trip (receiver detects the gap / bad CRC at
            # its tag-match path and asks for the fragments again), the
            # sender's timeout+backoff wait, then the retransmission.
            extra_time += (backoff + p.latency + rel.ack_overhead
                           + model.retransmit_time(nbytes, len(r.frags)))
            # Re-staging the retransmitted fragments costs the sender.
            worker.clock.advance(nbytes / p.eager_copy_bandwidth)
            stats.add(retransmits=len(r.frags), retransmitted_bytes=nbytes,
                      ack_rounds=1, backoff_time=backoff)
            ch.trace.append({"event": "retransmit", "src": src, "dst": dst,
                             "seq": seq, "round": r.round,
                             "frags": list(r.frags), "bytes": nbytes})
            if r.corrupted_after:
                stats.add(crc_failures=len(r.corrupted_after))

        if remaining:
            stats.add(exhausted=1, lost_messages=1,
                      lost_fragments=len(remaining))
            err = ProcFailedError(
                f"message #{seq} from rank {src} to rank {dst}: "
                f"{len(remaining)} fragment(s) still unacknowledged after "
                f"{rel.retry_limit} retransmission round(s); retry budget "
                f"exhausted", failed_ranks=(dst,))
            ch.trace.append({"event": "exhausted", "src": src, "dst": dst,
                             "seq": seq, "frags": sorted(remaining)})
            san = worker.sanitizer
            if san is not None:
                san.emit(
                    "RPD452",
                    f"message #{seq} of {msg.total_bytes} bytes from rank "
                    f"{src} to rank {dst} exhausted its reliability retry "
                    f"budget ({rel.retry_limit} round(s), "
                    f"{int(stats.snapshot()['retransmits'])} fragment "
                    f"retransmissions); the transfer was abandoned",
                    rank=src,
                    hint="raise retry_limit / retry_timeout, or reduce "
                         "the injected loss rate")
            msg.wire_time += extra_time
            msg.poisoned = err
            # Unblock a rendezvous sender immediately with the failure;
            # the envelope is still deposited so the receiver's wait
            # surfaces MPI_ERR_PROC_FAILED instead of hanging.
            msg.mark_failed(worker.clock.now, err)
            deposit(msg)
            self._flush_held(ch)
            return

        # Fully recovered.  The payload arrives intact and in order: the
        # receiver's sequencing layer dropped duplicates and healed the
        # reordering; only the clock remembers the trouble.
        msg.wire_time += extra_time
        if fates["delay"]:
            msg.wire_time += self.plan.delay_time
            stats.add(delays=1)
        if fates["duplicate"]:
            # The duplicate carries the seq the original just delivered, so
            # the sequencing layer suppresses it (shared decision with the
            # model — the seq-window off-by-one mutant breaks exactly this).
            if duplicate_suppressed(rel.enabled, seq, (seq,)):
                stats.add(duplicates_dropped=1)
                ch.trace.append({"event": "dup-dropped", "src": src,
                                 "dst": dst, "seq": seq})
            else:
                stats.add(duplicates_delivered=1)
                deposit(self._clone(msg))
        if fates["reorder"]:
            stats.add(reorders_healed=1)
            ch.trace.append({"event": "reorder-healed", "src": src,
                             "dst": dst, "seq": seq})
        deposit(msg)
        self._flush_held(ch)

    # -- plumbing ----------------------------------------------------------

    @staticmethod
    def _clone(msg: WireMessage) -> WireMessage:
        """An independent duplicate of a message (fresh events, same seq)."""
        hdr = msg.header
        dup_hdr = WireHeader(tag=hdr.tag, source=hdr.source,
                             total_bytes=hdr.total_bytes,
                             entry_lengths=hdr.entry_lengths,
                             packed_entries=hdr.packed_entries,
                             protocol=hdr.protocol,
                             signature=hdr.signature)
        dup_hdr.seq = hdr.seq
        dup_hdr.frag_crcs = hdr.frag_crcs
        dup = WireMessage(dup_hdr,
                          [np.array(c, copy=True) for c in msg.chunks],
                          send_ready=msg.send_ready,
                          wire_time=msg.wire_time, rndv=False,
                          recv_cost=msg.recv_cost)
        dup.duplicate_of = hdr.msg_id
        return dup

    @staticmethod
    def _flush_held(ch: _Channel) -> None:
        """Deposit a reorder-held message after its successor went out."""
        if ch.held is None:
            return
        deposit, held_msg, held_dup = ch.held
        ch.held = None
        deposit(held_msg)
        if held_dup is not None:
            deposit(held_dup)

    def flush_rank(self, rank: int) -> None:
        """Deposit every message rank ``rank`` still holds for reordering.

        Called when the rank's function returns so a swap whose successor
        never came still delivers (nothing is silently lost by the
        reorder machinery itself).
        """
        with self._channels_lock:
            items = [ch for k, ch in sorted(self._channels.items())
                     if k[0] == rank]
        for ch in items:
            self._flush_held(ch)

    def drop_rank(self, rank: int) -> None:
        """A crashed rank's held messages die with it."""
        with self._channels_lock:
            items = [ch for (s, _), ch in self._channels.items()
                     if s == rank]
        for ch in items:
            ch.held = None
