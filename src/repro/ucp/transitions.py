"""The wire protocol's decision table as enumerable pure functions.

Every *decision* the protocol machinery makes — eager vs rendezvous
selection, CRC acceptance, duplicate suppression, retry budgeting, failure
propagation — lives here as a pure function of explicit arguments.  The live
implementation (:mod:`repro.ucp.protocols`, :mod:`repro.ucp.faults`,
:mod:`repro.ucp.netsim`, :mod:`repro.ucp.context`) calls these functions on
its imperative state; the protocol model checker
(:mod:`repro.analyze.protomodel`) calls the *same* functions on its abstract
state.  Because both sides share one transition table, the model checker's
RPD7xx verdicts certify the decisions the fabric actually executes, and the
conformance harness (``repro-analyze proto --conformance``) can replay a
model trace against the live fabric and flag any divergence (RPD720).

Nothing in this module may touch clocks, locks, numpy buffers, pools or any
other runtime state: a function here must be a total, deterministic map from
arguments to a value, so the model checker can enumerate it.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The protocol action alphabet the model checker explores.  Kept here (not
#: in the analyzer) so a new transport backend can assert it implements every
#: action before the conformance gate even runs.
PROTOCOL_ACTIONS = (
    "post_recv",     # receiver posts a matching receive
    "send",          # sender stages + injects a message
    "deliver",       # receiver matches and moves payload
    "ack",           # receiver acknowledges clean fragments (rndv complete)
    "nack",          # receiver rejects dropped/corrupt fragments
    "timeout",       # sender's retransmission timer fires
    "retransmit",    # sender re-stages NACKed fragments
    "cancel",        # either side withdraws an unmatched operation
    "finish",        # a rank returns from its main()
    # fault actions (only enabled when the scenario injects them)
    "drop",          # a fragment vanishes on the wire
    "corrupt",       # payload bytes flip on the wire
    "duplicate",     # the message arrives twice
    "reorder",       # the message swaps places with its channel successor
    "crash",         # a rank disappears
    "detect",        # a blocked waiter observes a peer failure (ULFM)
)


# ---------------------------------------------------------------------------
# protocol selection (repro.ucp.protocols / repro.ucp.netsim)
# ---------------------------------------------------------------------------

def message_is_eager(nbytes: int, eager_limit: int) -> bool:
    """Whether a contiguous message takes the eager path.

    The boundary is **inclusive**: a message of exactly ``eager_limit``
    bytes is still eager (UCX's ``UCX_RNDV_THRESH`` convention — rendezvous
    starts strictly *above* the threshold).  This predicate is the single
    source of truth; :func:`repro.ucp.protocols.plan_send`,
    :meth:`repro.ucp.netsim.CostModel.contig_time` and the protocol model
    all route through it so the three can never disagree at the cutoff.
    """
    return nbytes <= eager_limit


def select_protocol(kind: str, nbytes: int, eager_limit: int,
                    force_rndv: bool = False) -> str:
    """Protocol for a datatype kind: ``eager``/``rndv``/``iov``/``generic``.

    ``force_rndv`` models synchronous-send (MPI_Ssend) semantics on the
    contiguous path.
    """
    if kind == "contig":
        if force_rndv or not message_is_eager(nbytes, eager_limit):
            return "rndv"
        return "eager"
    if kind == "iov":
        return "iov"
    if kind == "generic":
        return "generic"
    raise ValueError(f"unknown datatype kind {kind!r}")


def protocol_is_rndv(protocol: str) -> bool:
    """Whether a sender's ``wait()`` blocks until the receive runs."""
    return protocol in ("rndv", "iov")


def protocol_copies_eagerly(protocol: str) -> bool:
    """Whether injection stages payload copies (pool-owned chunks)."""
    return protocol in ("eager", "generic")


# ---------------------------------------------------------------------------
# integrity / sequencing (repro.ucp.faults / repro.ucp.context)
# ---------------------------------------------------------------------------

def crc_reject(expected: tuple, actual: tuple) -> tuple[int, ...]:
    """Fragment indices whose CRC words disagree with the envelope.

    Rejection happens *before* the ACK decision: a fragment listed here is
    NACKed (reliability on) or counted as corrupted-delivered (reliability
    off) — never acknowledged.  The ``ack-before-crc`` protocol mutant
    inverts exactly this ordering.
    """
    return tuple(i for i, (a, e) in enumerate(zip(actual, expected))
                 if a != e)


def duplicate_suppressed(reliability_enabled: bool, seq: int,
                         delivered_seqs) -> bool:
    """Whether the sequencing layer drops a duplicate of message ``seq``.

    With reliability on, a message whose sequence number was already
    delivered on this channel is a duplicate and must be suppressed
    (**inclusive** membership — the ``seq-window off-by-one`` mutant turns
    this into a strict comparison and re-delivers the boundary message).
    Without the reliability protocol there is no sequencing layer and the
    duplicate reaches matching.
    """
    if not reliability_enabled:
        return False
    return seq in delivered_seqs


# ---------------------------------------------------------------------------
# retry budgeting (repro.ucp.faults)
# ---------------------------------------------------------------------------

def retry_exhausted(rounds_used: int, retry_limit: int) -> bool:
    """Whether the retransmission budget is spent after ``rounds_used``.

    This is the protocol's progress bound: every retransmission loop must
    consult it, so a transfer either completes or fails within
    ``retry_limit`` rounds.  The ``retry-without-budget`` mutant ignores it
    and diverges (RPD710).
    """
    return rounds_used >= retry_limit


@dataclass(frozen=True)
class RetryRound:
    """One resolved retransmission round."""

    round: int                     # 1-based round number
    frags: tuple[int, ...]         # fragments retransmitted this round
    dropped_after: tuple[int, ...]    # of those, lost again in flight
    corrupted_after: tuple[int, ...]  # of those, corrupted again in flight


def resolve_retries(fates, retry_limit: int, dropped, corrupted
                    ) -> tuple[tuple[RetryRound, ...], frozenset]:
    """Resolve the whole ACK/NACK/retransmit history of one message.

    ``fates(frags, round)`` returns ``(dropped, corrupted)`` for a
    retransmission attempt — for the live fabric that is
    :meth:`repro.ucp.faults.FaultPlan.frag_fates` curried over the channel,
    for the model it is the scenario's scheduled fault choices.  Returns the
    per-round schedule plus the fragments still unacknowledged when the
    budget ran out (empty = the transfer recovered).

    The function is pure: charging virtual time, mutating stats and
    depositing the message stay with the caller.
    """
    rounds: list[RetryRound] = []
    remaining = set(dropped) | set(corrupted)
    rnd = 0
    while remaining and not retry_exhausted(rnd, retry_limit):
        rnd += 1
        retrans = tuple(sorted(remaining))
        re_dropped, re_corrupted = fates(retrans, rnd)
        rounds.append(RetryRound(
            round=rnd, frags=retrans,
            dropped_after=tuple(sorted(re_dropped)),
            corrupted_after=tuple(sorted(re_corrupted))))
        remaining = set(re_dropped) | set(re_corrupted)
    return tuple(rounds), frozenset(remaining)


def retry_backoff(retry_timeout: float, backoff: float, rnd: int) -> float:
    """Sender wait before the ``rnd``-th (1-based) retransmission."""
    return retry_timeout * backoff ** (rnd - 1)


# ---------------------------------------------------------------------------
# failure propagation (ULFM semantics)
# ---------------------------------------------------------------------------

def exhaustion_reports_failure() -> bool:
    """A spent retry budget must surface ``MPI_ERR_PROC_FAILED`` at *both*
    endpoints (sender raise + poisoned envelope for the receiver).  Always
    True in the shipped protocol; the ``missing-proc-failed`` mutant answers
    False and completes the operation silently (RPD704/RPD701)."""
    return True


def crash_observed_reports_failure() -> bool:
    """A blocking wait whose peer crashed must raise, never succeed.

    The live implementation enforces this for every blocking call at once:
    :meth:`repro.ucp.context.Worker.park` polls
    :meth:`repro.ucp.faults.FailureDetector.check_hopeless`.
    """
    return True


def loss_is_reported_without_reliability() -> bool:
    """On an unreliable fabric a dropped message must still be *reported*
    (RPD450 sanitizer finding + rendezvous sender release) even though it
    cannot be recovered.  Silent loss is the RPD701 condition."""
    return True


def cancel_releases_staging_once() -> bool:
    """A successful cancel returns staging buffers to the pool exactly once;
    a second cancel of the same request must be a no-op (no double
    recycle).  Asserted by the model's RPD703 buffer-ownership check."""
    return True
