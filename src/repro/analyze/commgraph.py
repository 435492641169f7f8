"""The one communication matcher: the static flow verifier and the runtime
sanitizer both ask it the same three questions.

* **Does the send fit the receive?**  :func:`classify_mismatch` gives one
  code per pairing — ``RPD510`` when the scalar sequences disagree,
  ``RPD511`` when the message is longer than the receive.  The replay
  below reports it as is; the sanitizer's delivery hook reports the same
  verdict on live traffic as ``RPD410``/``RPD411``.
* **Is there a deadlock?**  :func:`wait_for_verdict` takes each waiting
  rank's wait targets and the finished ranks, and returns the ranks that
  can never proceed plus one wait-for cycle among them.  The replay turns
  it into ``RPD500`` (a cycle) or ``RPD501``/``RPD502``/``RPD520`` (waits
  on finished ranks); the sanitizer into ``RPD440``.
* **Which send pairs with which receive?**  :class:`TraceReplay` replays
  the per-rank traces of :mod:`repro.analyze.flow` (ordered lists of the
  operations below) through the fabric's own
  :class:`repro.ucp.tagmatch.TagMatcher`, one per rank, with tags built by
  :func:`repro.ucp.constants.pack_tag`/``match_mask`` — the FIFO,
  wildcard and non-overtaking rules the live fabric applies.

The replay also schedules the traces (eager/rendezvous send completion,
synchronizing collectives) and reports ``RPD501``/``RPD502`` for traffic
still unmatched when every rank finished, and ``RPD520`` when ranks reach
different collectives, or the same collectives in different orders.

The replay is deterministic: wildcard receives take the earliest posted
candidate, which is sufficient for the verifier's job of proving a
*consistent* program sound (programs that rely on racy wildcard orders are
beyond the static subset and are left to the runtime sanitizer).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..core.signature import is_untyped, signature_bytes, signature_compatible
from ..ucp.constants import match_mask, pack_tag
from ..ucp.netsim import DEFAULT_PARAMS
from ..ucp.tagmatch import TagMatcher
from .diagnostics import Diagnostic

#: Wildcard sentinel shared with :mod:`repro.mpi.requests`.
ANY = -1

#: Eager/rendezvous threshold used for blocking-send completion; mirrors
#: the simulated fabric so the static verdict and the sanitizer agree.
EAGER_LIMIT = DEFAULT_PARAMS.eager_limit


@dataclass
class P2POp:
    """One point-to-point operation (send or recv) in a rank's trace."""

    kind: str                       # "send" | "recv"
    peer: int                       # world dest/source rank; ANY for wildcard
    tag: int                        # ANY for MPI_ANY_TAG
    comm: tuple                     # communicator key (shared across ranks)
    blocking: bool = True
    sync: bool = False              # ssend/issend: never eager
    signature: Optional[tuple] = None   # run-length (code, n) or None
    nbytes: Optional[int] = None    # packed bytes moved/accepted, if known
    req: Optional[int] = None       # request id for nonblocking ops
    escaped: bool = False           # request left the analyzable subset
    line: int = 0
    col: int = 0
    # filled by the replay:
    rank: int = -1
    seq: int = -1

    def describe(self) -> str:
        peer = "ANY" if self.peer == ANY else str(self.peer)
        tag = "ANY" if self.tag == ANY else str(self.tag)
        role = "dest" if self.kind == "send" else "source"
        return f"{self.kind}({role}={peer}, tag={tag})"


@dataclass
class WaitOp:
    """Completion point for previously posted nonblocking requests."""

    reqs: tuple                     # request ids this wait completes
    line: int = 0
    col: int = 0


@dataclass
class CollOp:
    """One collective call; ``detail`` carries root/op for comparison."""

    name: str
    comm: tuple
    members: tuple                  # world ranks participating
    detail: str = ""                # e.g. "root=0" or "op=sum"
    line: int = 0
    col: int = 0

    def describe(self) -> str:
        det = f", {self.detail}" if self.detail else ""
        return f"{self.name}(){det}" if not det else f"{self.name}({self.detail})"


@dataclass
class _ReqState:
    """Completion state of one posted op.  A send's state is also the
    message its destination's TagMatcher queues: the matcher reads
    ``header.tag``, the replay reads the op back."""

    op: P2POp
    completed: bool = False         # matched by a peer
    tag: int = 0                    # a send's packed transport tag

    @property
    def header(self) -> "_ReqState":
        return self


@dataclass
class _RankState:
    trace: list
    idx: int = 0
    done: bool = False
    blocked: Optional[tuple] = None     # ("wait", [req ids]) | ("coll", op)
    coll_slots: dict = field(default_factory=dict)  # comm key -> next slot


#: Fix hint per :func:`classify_mismatch` code, on both sides.
MISMATCH_HINTS = {
    "RPD510": "send and receive must describe the same scalar sequence "
              "(MPI type-matching rules)",
    "RPD511": "post a receive at least as large as the message",
}


def classify_mismatch(send_sig, recv_sig, send_bytes, recv_bytes):
    """Classify a send/recv pairing: (code, reason) or (None, "").

    ``RPD511`` when the scalar prefixes agree but the message is longer
    than the receive (MPI truncation), or an untyped side lacks room;
    ``RPD510`` when the scalar sequences themselves disagree.  Unknown
    signatures fall back to the byte capacities when both are known.
    """
    ok, reason = signature_compatible(send_sig, recv_sig)
    if not ok:
        if is_untyped(send_sig) or is_untyped(recv_sig) or (
                signature_bytes(send_sig) > signature_bytes(recv_sig)
                and _is_prefix(recv_sig, send_sig)):
            return "RPD511", reason
        return "RPD510", reason
    if send_bytes is not None and recv_bytes is not None \
            and send_bytes > recv_bytes:
        return "RPD511", (f"message of {send_bytes} bytes does not fit "
                          f"the {recv_bytes}-byte receive")
    return None, ""


def _is_prefix(short_sig, long_sig) -> bool:
    """True when ``short_sig``'s scalar sequence is a prefix of ``long_sig``."""
    i = j = 0
    left_l = left_s = 0
    while True:
        if left_s == 0:
            if i == len(short_sig):
                return True
            left_s = short_sig[i][1]
        if left_l == 0:
            if j == len(long_sig):
                return False
            left_l = long_sig[j][1]
        if short_sig[i][0] != long_sig[j][0]:
            return False
        step = min(left_s, left_l)
        left_s -= step
        left_l -= step
        if left_s == 0:
            i += 1
        if left_l == 0:
            j += 1


def wait_for_verdict(waits: dict, finished) -> tuple[set, Optional[list]]:
    """Which waiting ranks can never proceed, and one cycle among them.

    ``waits`` maps each waiting rank to the ranks that could release it:
    the one peer of a specific wait, every peer of a wildcard receive (any
    one will do).  A rank is stuck when each of its targets is stuck too
    or in ``finished`` (a finished rank never sends again); the stuck set
    is the fixpoint of that rule.  The cycle is the first one a
    depth-first walk over stuck ranks meets, lowest rank and lowest target
    first, as the list of ranks on it; None when the stuck ranks only wait
    on finished ones.
    """
    stuck = dict(waits)
    changed = True
    while changed:
        changed = False
        for rank in list(stuck):
            if any(t not in stuck and t not in finished
                   for t in stuck[rank]):
                del stuck[rank]
                changed = True
    path: list = []
    cleared: set = set()

    def visit(rank):
        path.append(rank)
        for target in sorted(stuck[rank]):
            if target in path:
                return path[path.index(target):]
            if target in stuck and target not in cleared:
                found = visit(target)
                if found:
                    return found
        path.pop()
        cleared.add(rank)
        return None

    for rank in sorted(stuck):
        if rank not in cleared:
            cycle = visit(rank)
            if cycle:
                return set(stuck), cycle
    return set(stuck), None


class TraceReplay:
    """Replays one set of per-rank traces and collects diagnostics."""

    def __init__(self, traces: dict, path: Optional[str] = None,
                 context: str = ""):
        #: rank -> list of ops.  Ops are mutated (rank/seq stamped), so the
        #: caller hands over ownership.
        self.traces = traces
        self.path = path
        self.context = context          # e.g. "nprocs=3"
        self.nprocs = len(traces)
        self.diags: list[Diagnostic] = []
        self._seq = 0
        self._reqs: dict[tuple, _ReqState] = {}
        self._matchers = {r: TagMatcher() for r in traces}
        self._recv_of: dict[int, _ReqState] = {}  # id(PostedRecv) -> state
        # Communicator keys (tuples) and user tags (any int reaches the
        # replay) are numbered densely to fit the transport tag's fields.
        self._comm_ids: dict = {}
        self._tag_ids: dict = {}
        self._coll_arrivals: dict = {}   # (comm, slot) -> {rank: CollOp}
        self._coll_reported: set = set()
        self._ranks = {r: _RankState(trace) for r, trace in traces.items()}

    # -- reporting ------------------------------------------------------

    def _note(self) -> str:
        return f" [{self.context}]" if self.context else ""

    def emit(self, code: str, message: str, hint: str = "", line: int = 0,
             col: int = 0, subject: str = "") -> None:
        self.diags.append(Diagnostic(
            code, message + self._note(), hint=hint, file=self.path,
            line=line, col=col, subject=subject))

    # -- matching -------------------------------------------------------

    def _tag(self, op: P2POp, source: int) -> int:
        comm = self._comm_ids.setdefault(op.comm, len(self._comm_ids))
        user = self._tag_ids.setdefault(op.tag, len(self._tag_ids))
        return pack_tag(comm, source, user)

    def _pair(self, state: _ReqState) -> None:
        """Hand a posted op to the matcher of the rank that receives it."""
        op = state.op
        if op.kind == "send":
            if op.peer not in self._matchers:
                return                  # invalid destination: never matches
            state.tag = self._tag(op, op.rank)
            posted = self._matchers[op.peer].deposit(state)
            if posted is not None:
                self._match(state, self._recv_of.pop(id(posted)))
            return
        if op.peer != ANY and op.peer not in self._matchers:
            return                      # invalid source: never matches
        posted = self._matchers[op.rank].post(
            self._tag(op, max(op.peer, 0)),
            match_mask(op.peer == ANY, op.tag == ANY))
        if posted.msg is not None:
            self._match(posted.msg, state)
        else:
            self._recv_of[id(posted)] = state

    def _match(self, sent: _ReqState, received: _ReqState) -> None:
        sent.completed = received.completed = True
        send, recv = sent.op, received.op
        code, reason = classify_mismatch(send.signature, recv.signature,
                                         send.nbytes, recv.nbytes)
        if code:
            self.emit(
                code,
                f"rank {recv.rank} receive matches the send posted by rank "
                f"{send.rank} at line {send.line}, but {reason}",
                hint=MISMATCH_HINTS[code], line=recv.line, col=recv.col)

    def _send_completed(self, send: P2POp, state: _ReqState) -> bool:
        """Eager sends complete at post; rendezvous on match."""
        if state.completed:
            return True
        if not send.sync and (send.nbytes is None
                              or send.nbytes <= EAGER_LIMIT):
            return True
        return False

    # -- execution ------------------------------------------------------

    def _post(self, rank: int, op) -> Optional[tuple]:
        """Execute one op for ``rank``; returns a blocked marker or None."""
        if isinstance(op, P2POp):
            if op.req is None:
                op = replace(op)  # keep anonymous ops distinct per post
            op.rank = rank
            op.seq = self._seq
            self._seq += 1
            state = _ReqState(op)
            key = (rank, op.req if op.req is not None
                   else ("anon", op.seq))
            self._reqs[key] = state
            self._pair(state)
            if op.blocking:
                return ("wait", [key])
            return None
        if isinstance(op, WaitOp):
            keys = [(rank, r) for r in op.reqs]
            return ("wait", keys)
        if isinstance(op, CollOp):
            st = self._ranks[rank]
            slot = st.coll_slots.get(op.comm, 0)
            st.coll_slots[op.comm] = slot + 1
            self._coll_arrivals.setdefault((op.comm, slot), {})[rank] = op
            return ("coll", (op.comm, slot, op))
        raise TypeError(f"unknown trace op {op!r}")

    def _wait_satisfied(self, rank: int, keys) -> bool:
        for key in keys:
            state = self._reqs.get(key)
            if state is None:
                continue
            if state.op.escaped:
                continue
            if state.op.kind == "send":
                if not self._send_completed(state.op, state):
                    return False
            elif not state.completed:
                return False
        return True

    def _coll_satisfied(self, comm_slot) -> bool:
        comm, slot, op = comm_slot
        arrivals = self._coll_arrivals.get((comm, slot), {})
        return set(arrivals) >= set(op.members)

    def _check_coll_agreement(self, comm, slot) -> None:
        if (comm, slot) in self._coll_reported:
            return
        arrivals = self._coll_arrivals.get((comm, slot), {})
        kinds = {(op.name, op.detail) for op in arrivals.values()}
        if len(kinds) > 1:
            self._coll_reported.add((comm, slot))
            per_rank = "; ".join(
                f"rank {r}: {arrivals[r].describe()} at line "
                f"{arrivals[r].line}" for r in sorted(arrivals))
            first = arrivals[min(arrivals)]
            self.emit(
                "RPD520",
                f"collective #{slot + 1} on this communicator diverges "
                f"across ranks: {per_rank}",
                hint="every rank of the communicator must call the same "
                     "collective sequence with the same root/op",
                line=first.line, col=first.col)

    def _advance(self) -> bool:
        """One scheduling sweep; True when any rank made progress."""
        progress = False
        for rank in sorted(self._ranks):
            st = self._ranks[rank]
            while not st.done:
                if st.blocked is not None:
                    kind, detail = st.blocked
                    if kind == "wait" and self._wait_satisfied(rank, detail):
                        st.blocked = None
                    elif kind == "coll" and self._coll_satisfied(detail):
                        comm, slot, _ = detail
                        self._check_coll_agreement(comm, slot)
                        st.blocked = None
                    else:
                        break
                    progress = True
                    continue
                if st.idx >= len(st.trace):
                    st.done = True
                    progress = True
                    break
                op = st.trace[st.idx]
                st.idx += 1
                st.blocked = self._post(rank, op)
                progress = True
        return progress

    # -- stuck-state analysis ------------------------------------------

    def _blocked_detail(self, rank: int):
        """(waited-on ranks, human description, line, col) for a blocked rank."""
        st = self._ranks[rank]
        kind, detail = st.blocked
        if kind == "coll":
            comm, slot, op = detail
            arrivals = self._coll_arrivals.get((comm, slot), {})
            missing = sorted(set(op.members) - set(arrivals))
            return (missing, f"{op.name} collective waiting for rank(s) "
                    f"{missing}", op.line, op.col)
        # wait on requests: the first incomplete one names the edge
        for key in detail:
            state = self._reqs.get(key)
            if state is None or state.op.escaped:
                continue
            op = state.op
            if (self._send_completed(op, state) if op.kind == "send"
                    else state.completed):
                continue
            if op.peer == ANY:
                targets = [r for r in self._ranks if r != rank]
            else:   # an invalid peer is nobody to wait for
                targets = [op.peer] if op.peer in self._ranks else []
            return (targets, op.describe(), op.line, op.col)
        return ([], "wait", 0, 0)

    def _report_stuck(self) -> None:
        blocked = {r: self._blocked_detail(r)
                   for r, st in self._ranks.items()
                   if not st.done and st.blocked is not None}
        stuck, cycle = wait_for_verdict(
            {r: targets for r, (targets, _, _, _) in blocked.items()},
            {r for r, st in self._ranks.items() if st.done})
        if cycle:
            chain = " -> ".join(
                f"rank {r}: {blocked[r][1]} at line {blocked[r][2]}"
                for r in cycle)
            first = cycle[0]
            self.emit(
                "RPD500",
                f"static deadlock: {len(cycle)} rank(s) block each other "
                f"in a cycle: {chain} -> rank {cycle[0]}",
                hint="break the cycle: post receives first (irecv), use "
                     "sendrecv, or order by rank parity",
                line=blocked[first][2], col=blocked[first][3])
            return
        # Hopeless waits: blocked on ranks that already terminated (or on
        # nobody at all).  Report the root causes, not the chains on them.
        for rank in sorted(stuck):
            targets, desc, line, col = blocked[rank]
            if any(t in stuck for t in targets):
                continue
            st = self._ranks[rank]
            kind, detail = st.blocked
            if kind == "coll":
                comm, slot, op = detail
                arrivals = self._coll_arrivals.get((comm, slot), {})
                missing = sorted(set(op.members) - set(arrivals))
                if (comm, slot) not in self._coll_reported:
                    self._coll_reported.add((comm, slot))
                    self.emit(
                        "RPD520",
                        f"rank {rank} blocks in {op.name} but rank(s) "
                        f"{missing} finish without reaching this "
                        f"collective",
                        hint="every rank of the communicator must reach "
                             "the same collectives in the same order",
                        line=line, col=col)
                continue
            if desc.startswith("send"):
                self.emit(
                    "RPD501",
                    f"rank {rank} blocks in {desc}: the destination "
                    f"terminates without posting a matching receive",
                    hint="add the matching recv, or make the tags/"
                         "communicators agree",
                    line=line, col=col)
            else:
                self.emit(
                    "RPD502",
                    f"rank {rank} blocks in {desc}: no matching send is "
                    f"ever posted by the source rank(s)",
                    hint="add the matching send, or make the tags/"
                         "communicators agree",
                    line=line, col=col)

    def _report_leftovers(self) -> None:
        """Unmatched nonblocking traffic after every rank terminated."""
        by_site: dict[tuple, list[P2POp]] = {}
        for state in self._reqs.values():
            op = state.op
            if state.completed or op.escaped:
                continue
            by_site.setdefault((op.kind, op.line, op.col), []).append(op)
        for (kind, line, col), ops in sorted(by_site.items()):
            ranks = sorted({op.rank for op in ops})
            op = ops[0]
            if kind == "send":
                self.emit(
                    "RPD501",
                    f"{op.describe()} posted by rank(s) {ranks} is never "
                    f"received: no rank posts a matching receive",
                    hint="add the matching recv, or make the tags/"
                         "communicators agree",
                    line=line, col=col)
            else:
                self.emit(
                    "RPD502",
                    f"{op.describe()} posted by rank(s) {ranks} can never "
                    f"be matched: no rank posts a matching send",
                    hint="add the matching send, or make the tags/"
                         "communicators agree",
                    line=line, col=col)

    # -- entry point ----------------------------------------------------

    def run(self) -> list[Diagnostic]:
        while self._advance():
            pass
        if all(st.done for st in self._ranks.values()):
            self._report_leftovers()
        else:
            self._report_stuck()
        return self.diags


def replay(traces: dict, path: Optional[str] = None,
           context: str = "") -> list[Diagnostic]:
    """Match one trace set; convenience wrapper over :class:`TraceReplay`."""
    return TraceReplay(traces, path=path, context=context).run()
