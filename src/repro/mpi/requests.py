"""MPI request and status objects."""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..errors import (MPI_ERR_IN_STATUS, MPI_ERR_REQUEST, MPI_SUCCESS,
                      MPIError)
from ..ucp.constants import TAG_USER_MASK
from ..ucp.context import RecvInfo, RecvRequest, SendRequest

#: Wildcards (match mpi4py's numeric conventions closely enough for tests).
ANY_SOURCE = -1
ANY_TAG = -1


class Status:
    """Completion information of a receive (MPI_Status).

    Beyond the standard fields this carries the per-component lengths of
    multi-part (custom datatype) messages — the extension the paper's
    Section VI asks for: "perhaps by extending MPI_Probe and
    MPI_Get_count", so receivers can learn region lengths without a second
    message.
    """

    def __init__(self, source: int, tag: int, nbytes: int,
                 entry_lengths: tuple[int, ...] = (),
                 packed_entries: int = 0):
        self.source = source
        self.tag = tag
        self.nbytes = nbytes
        #: Byte length of each wire component (packed fragments first, then
        #: memory regions).  A single-entry tuple for contiguous messages.
        self.entry_lengths = tuple(entry_lengths)
        #: How many leading entries are in-band packed data.
        self.packed_entries = packed_entries
        #: Per-request error class (``MPI_ERR_IN_STATUS`` convention):
        #: ``MPI_SUCCESS`` on clean completion, the failing ``MPI_ERR_*``
        #: code when :meth:`Request.waitall` aggregated an error.
        self.error = MPI_SUCCESS
        #: True when this status belongs to a successfully cancelled
        #: request (the MPI_Test_cancelled convention).
        self.cancelled = False

    @property
    def region_lengths(self) -> tuple[int, ...]:
        """Lengths of the memory-region components (MPI_Get_count for each
        region, in the paper's terms)."""
        return self.entry_lengths[self.packed_entries:]

    @classmethod
    def from_recv_info(cls, info: RecvInfo) -> "Status":
        # unpack_tag's user field, inline: this runs once per receive.
        return cls(source=info.source, tag=info.tag & TAG_USER_MASK,
                   nbytes=info.nbytes,
                   entry_lengths=info.entry_lengths,
                   packed_entries=info.packed_entries)

    def get_count(self, datatype) -> int:
        """Number of whole ``datatype`` elements received (MPI_Get_count)."""
        size = datatype.size
        if size == 0:
            return 0
        if self.nbytes % size:
            return -1  # MPI_UNDEFINED
        return self.nbytes // size

    def __repr__(self) -> str:
        return f"Status(source={self.source}, tag={self.tag}, nbytes={self.nbytes})"


class Request:
    """A nonblocking operation handle.

    Wraps the transport request plus an optional *completion hook* that runs
    on the owning thread exactly once at wait time (the engine uses it to run
    receive-side unpack work and to free custom-datatype state).
    """

    #: Sanitizer-side shadow record (class default keeps the normal path
    #: attribute-cheap; the engine sets an instance value when sanitizing).
    _san_record = None

    def __init__(self, transport_req: SendRequest | RecvRequest | None,
                 on_complete: Optional[Callable[[], Optional[Status]]] = None,
                 on_cancel: Optional[Callable[[], None]] = None):
        self._req = transport_req
        self._on_complete = on_complete
        #: Cleanup hook run exactly once when the operation ends without
        #: completing — a successful cancel or a wait that raised an MPI
        #: error (the engine uses it to un-book a modelled bounce buffer).
        self._on_cancel = on_cancel
        #: Error-handler context (the owning Communicator); consulted when
        #: a wait raises an MPI error so ``MPI_ERRORS_ARE_FATAL`` can abort
        #: the whole job.
        self._errctx = None
        self._status: Optional[Status] = None
        self._done = False
        self.cancelled = False

    def test(self) -> bool:
        """Non-blocking completion check (does not run delivery work)."""
        if self._done:
            return True
        if self._req is None:
            return True
        return self._req.test()

    def wait(self, timeout: float | None = None) -> Optional[Status]:
        """Complete the operation; returns a Status for receives."""
        if self._done:
            return self._status
        if self._san_record is not None:
            # Pre-delivery checksum check (a receive buffer must not have
            # been touched between the post and now).
            self._san_record.before_wait()
        try:
            if self._req is not None:
                result = self._req.wait(timeout=timeout)
            else:
                result = None
            if self._on_complete is not None:
                self._status = self._on_complete()
            elif isinstance(result, RecvInfo):
                self._status = Status.from_recv_info(result)
        except MPIError as exc:
            self._done = True
            self._run_cancel_hook()
            if self._errctx is not None:
                self._errctx._handle_mpi_error(exc)
            raise
        self._done = True
        if self._san_record is not None:
            self._san_record.after_wait()
        return self._status

    def cancel(self) -> bool:
        """Cancel the operation if it has not completed (MPI_Cancel).

        Returns True when the cancel won the race: the transport operation
        is withdrawn, the engine's ``on_cancel`` hook un-books what the post
        booked, and a later :meth:`wait` returns a Status with
        ``cancelled=True`` (the MPI_Test_cancelled convention).
        False (no effect) once the operation matched or completed — in MPI
        terms the operation completes normally.

        Idempotent: a second cancel is a no-op returning False.  The
        ``on_cancel`` hook is consumed on first use — a stale second
        invocation would release what a new owner has since booked (the
        double-recycle the model checker's RPD703 ownership invariant
        guards against).
        """
        if self._done or self.cancelled:
            return False
        treq = self._req
        if treq is None or not hasattr(treq, "cancel"):
            return False
        if not treq.cancel():
            return False
        self.cancelled = True
        self._done = True
        st = Status(source=-1, tag=-1, nbytes=0)
        st.cancelled = True
        self._status = st
        self._run_cancel_hook()
        if self._san_record is not None:
            self._san_record.mark_cancelled()
        return True

    def _run_cancel_hook(self) -> None:
        hook, self._on_cancel = self._on_cancel, None
        if hook is not None:
            hook()

    @staticmethod
    def waitall(requests: Sequence["Request"],
                timeout: float | None = None) -> list[Optional[Status]]:
        """Complete every request (MPI_Waitall).

        On MPI errors, every remaining request is still waited (so no work
        is silently abandoned) and a single ``MPI_ERR_IN_STATUS`` error is
        raised carrying one Status per request — clean completions hold
        ``MPI_SUCCESS`` in ``Status.error``, failures hold the failing
        error class.  The raised exception exposes them as ``.statuses``
        and the underlying exceptions as ``.errors`` (index -> exception).
        """
        statuses: list[Optional[Status]] = [None] * len(requests)
        errors: dict[int, MPIError] = {}
        for i, r in enumerate(requests):
            try:
                statuses[i] = r.wait(timeout=timeout)
            except MPIError as exc:
                errors[i] = exc
                st = Status(source=-1, tag=-1, nbytes=0)
                st.error = exc.code
                statuses[i] = st
        if errors:
            agg = MPIError(
                MPI_ERR_IN_STATUS,
                f"{len(errors)} of {len(requests)} request(s) failed: " +
                "; ".join(f"[{i}] {e}" for i, e in sorted(errors.items())))
            agg.statuses = statuses
            agg.errors = errors
            raise agg
        return statuses

    @staticmethod
    def testall(requests: Sequence["Request"]) -> bool:
        return all(r.test() for r in requests)

    @staticmethod
    def _park_for_any(pending: Sequence["Request"], what: str) -> None:
        """Park the calling rank until one of ``pending`` (unfinished, none
        testing complete) does; hopeless only when all of them are."""
        waits = [r._req.waiting_on() for r in pending]
        targets = None if any(t is None for t, _ in waits) \
            else sorted({rank for t, _ in waits for rank in t})
        try:
            pending[0]._req._worker.park(
                None, targets, f"{what} over {len(pending)} request(s), "
                f"first: {waits[0][1]}",
                ready=lambda: any(r.test() for r in pending))
        except MPIError as exc:
            if pending[0]._errctx is not None:
                pending[0]._errctx._handle_mpi_error(exc)
            raise

    @staticmethod
    def waitany(requests: Sequence["Request"]
                ) -> tuple[int, Optional[Status]]:
        """Complete one ready request (MPI_Waitany); returns (index, status).

        The first request reporting completion is waited (running its
        delivery work on this thread).
        """
        if not requests:
            raise MPIError(MPI_ERR_REQUEST, "waitany on an empty request list")
        while True:
            pending = [(i, r) for i, r in enumerate(requests) if not r._done]
            if not pending:  # finished requests are inactive: MPI_UNDEFINED
                return -1, None
            for i, r in pending:
                if r.test():
                    return i, r.wait()
            Request._park_for_any([r for _, r in pending], "waitany")

    @staticmethod
    def waitsome(requests: Sequence["Request"]
                 ) -> list[tuple[int, Optional[Status]]]:
        """Complete every currently-ready request, blocking for at least
        one (MPI_Waitsome)."""
        while True:
            pending = [(i, r) for i, r in enumerate(requests) if not r._done]
            if not pending:
                return []  # all inactive
            done = [(i, r) for i, r in pending if r.test()]
            if done:
                return [(i, r.wait()) for i, r in done]
            Request._park_for_any([r for _, r in pending], "waitsome")


class CompletedRequest(Request):
    """A request born complete (used for locally-satisfiable operations)."""

    def __init__(self, status: Optional[Status] = None):
        super().__init__(None)
        self._status = status
        self._done = True


def require_incomplete(req: Request) -> None:
    if req._done:
        raise MPIError(MPI_ERR_REQUEST, "request already completed")
