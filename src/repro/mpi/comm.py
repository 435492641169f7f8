"""Communicators: the user-facing point-to-point API.

The surface follows mpi4py's buffer-mode conventions where that makes sense
(explicit buffers, datatype + count), extended with the paper's custom
datatypes, which are accepted anywhere a datatype is.

Datatype/count inference mirrors mpi4py's automatic discovery: a bare numpy
array infers its predefined type and element count; bytes-like buffers infer
``MPI_BYTE``; a custom datatype defaults to ``count=1``.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from ..core.custom import CustomDatatype
from ..core.datatype import BYTE, Datatype, from_numpy_dtype
from ..errors import (MPI_ERR_COMM, MPI_ERR_COUNT, MPI_ERR_RANK, MPI_ERR_TAG,
                      MPI_ERR_TYPE, MPIError)
from ..ucp.constants import (MAX_USER_TAG, TAG_FULL_MASK, TAG_SOURCE_SHIFT,
                             match_mask, pack_tag)
from ..ucp.context import Worker
from .engine import EngineConfig, TransferEngine
from .requests import ANY_SOURCE, ANY_TAG, Request, Status

#: Error-handler policies (the MPI_Errhandler analogues).  FATAL — the MPI
#: default — turns any MPI error on this communicator into a job-wide
#: abort: on a fault-injected fabric the failure detector poisons every
#: other rank's blocking waits, so the whole job terminates promptly.
#: RETURN hands the error to the caller as a raised :class:`MPIError` and
#: lets the rank keep using the communicator (ULFM-style continuation).
ERRORS_ARE_FATAL = "MPI_ERRORS_ARE_FATAL"
ERRORS_RETURN = "MPI_ERRORS_RETURN"


class Communicator:
    """An MPI communicator bound to one rank's worker thread."""

    def __init__(self, worker: Worker, size: int, comm_id: int = 0,
                 engine_config: EngineConfig | None = None,
                 group: tuple[int, ...] | None = None,
                 errhandler: str = ERRORS_ARE_FATAL):
        self.worker = worker
        self._size = size
        #: Communicator ids must agree across ranks; COMM_WORLD is 0 and
        #: children derive ids deterministically in dup/split order.
        self.comm_id = comm_id
        self._dup_count = 0
        self._split_count = 0
        #: For split communicators: world rank of each local rank, in local
        #: rank order.  None means the identity mapping (COMM_WORLD).
        self._group = group
        self._errhandler = errhandler
        self.engine = TransferEngine(worker, engine_config)
        if group is not None and worker.index not in group:
            raise MPIError(MPI_ERR_COMM,
                           f"worker {worker.index} not in group {group}")
        #: Fixed for the communicator's life; every send stamps it in the tag.
        self._rank = (worker.index if group is None
                      else group.index(worker.index))
        #: Local size: the range every peer argument is checked against.
        self._nlocal = size if group is None else len(group)
        #: The communicator bits of every tag, and of every tag this rank
        #: sends (its source bits too): a tag is ``base | user tag``.
        self._tag_base = pack_tag(comm_id & 0xFFFF, 0, 0)
        self._send_base = pack_tag(comm_id & 0xFFFF, self._rank, 0)

    # -- error handlers ------------------------------------------------------

    def set_errhandler(self, handler: str) -> None:
        """MPI_Comm_set_errhandler: choose FATAL or RETURN semantics."""
        if handler not in (ERRORS_ARE_FATAL, ERRORS_RETURN):
            raise MPIError(MPI_ERR_COMM,
                           f"unknown error handler {handler!r}")
        self._errhandler = handler

    def get_errhandler(self) -> str:
        """MPI_Comm_get_errhandler."""
        return self._errhandler

    def _handle_mpi_error(self, exc: MPIError) -> None:
        """Apply this communicator's error handler to a raised MPI error.

        Called by :class:`~repro.mpi.requests.Request` just before the
        error propagates.  Under ``MPI_ERRORS_ARE_FATAL`` on a
        fault-injected fabric this aborts the whole job through the
        failure detector; the exception is then re-raised in this rank
        either way (Python has no way to "not return" from the call).
        """
        if self._errhandler != ERRORS_ARE_FATAL:
            return
        fi = self.worker.fabric.injector
        if fi is not None:
            fi.detector.abort_job(
                f"rank {self.rank} (comm {self.comm_id}): {exc}")

    # -- introspection ------------------------------------------------------

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._nlocal

    # -- rank translation (identity for COMM_WORLD) ----------------------

    def _world(self, local_rank: int) -> int:
        """World (worker) index of a communicator-local rank."""
        return self._group[local_rank] if self._group is not None else local_rank

    def _local(self, world_rank: int) -> int:
        """Communicator-local rank of a worker index."""
        if self._group is None:
            return world_rank
        return self._group.index(world_rank)

    @property
    def clock(self):
        """This rank's virtual clock (for benchmarking)."""
        return self.worker.clock

    @property
    def memory(self):
        """This rank's allocation tracker."""
        return self.worker.memory

    def dup(self) -> "Communicator":
        """MPI_Comm_dup: same group, isolated tag space.

        Ids are derived deterministically from (parent id, dup order), so
        every rank obtains the same child id as long as all ranks call
        ``dup`` in the same order — the usual collective contract.
        """
        child_id = (self.comm_id * 31 + self._dup_count + 1) % (1 << 16)
        self._dup_count += 1
        return Communicator(self.worker, self._size, comm_id=child_id,
                            engine_config=self.engine.config,
                            errhandler=self._errhandler)

    def split(self, color: Optional[int], key: int = 0) -> Optional["Communicator"]:
        """MPI_Comm_split: partition by color, order by (key, parent rank).

        ``color=None`` (MPI_UNDEFINED) returns None.  Collective: every rank
        of this communicator must call it.
        """
        import numpy as np  # local to avoid cycle at import time

        n = self.size
        mine = np.array([-1 if color is None else int(color), int(key),
                         self.rank], dtype="<i8")
        table = np.zeros(3 * n, dtype="<i8")
        self.allgather(mine, table)
        self._split_count += 1
        if color is None:
            return None
        rows = table.reshape(n, 3)
        members = sorted((int(k), int(r)) for c, k, r in rows
                         if int(c) == int(color))
        group = tuple(self._world(r) for _, r in members)
        child_id = (self.comm_id * 131 + self._split_count * 31
                    + int(color) + 7) % (1 << 16)
        return Communicator(self.worker, self._size, comm_id=child_id,
                            engine_config=self.engine.config, group=group,
                            errhandler=self._errhandler)

    # -- argument handling ----------------------------------------------------

    def _resolve(self, buf: Any, count: Optional[int],
                 datatype: Optional[Datatype]) -> tuple[Any, int, Datatype]:
        """Infer a missing datatype or count and check the count.  The
        point-to-point entries call it only when one is missing or the
        count is negative (``datatype is None or count is None or count <
        0``)."""
        if datatype is None:
            if isinstance(buf, np.ndarray):
                datatype = from_numpy_dtype(buf.dtype)
                count = buf.size if count is None else count
            elif isinstance(buf, (bytes, bytearray, memoryview)):
                datatype = BYTE
                count = len(buf) if count is None else count
            else:
                raise MPIError(
                    MPI_ERR_TYPE,
                    f"cannot infer a datatype for {type(buf).__name__}; pass "
                    f"datatype= explicitly (custom types accept any object)")
        elif count is None:
            if isinstance(datatype, CustomDatatype):
                count = 1
            elif isinstance(buf, np.ndarray) and datatype.extent:
                count = buf.nbytes // datatype.extent
            else:
                raise MPIError(MPI_ERR_COUNT,
                               "count is required for this buffer/datatype")
        if count < 0:
            raise MPIError(MPI_ERR_COUNT, f"negative count {count}")
        return buf, count, datatype

    def _check_args(self, peer: int, tag: int, allow_any: bool) -> None:
        """Raise the error of a refused peer or tag: each must be in range
        (``0 <= peer < local size``, ``0 <= tag < MAX_USER_TAG``) or the
        wildcard where ``allow_any``; the peer is checked first.  The
        point-to-point entries inline the range test and call this only
        when it fails."""
        if not (0 <= peer < self._nlocal or allow_any and peer == ANY_SOURCE):
            raise MPIError(MPI_ERR_RANK, f"rank {peer} outside communicator "
                           f"of size {self._nlocal}")
        if not (0 <= tag < MAX_USER_TAG or allow_any and tag == ANY_TAG):
            raise MPIError(MPI_ERR_TAG,
                           f"tag {tag} out of range [0, {MAX_USER_TAG})")

    def _recv_pattern(self, source: int, tag: int) -> tuple[int, int]:
        any_src = source == ANY_SOURCE
        any_tag = tag == ANY_TAG
        tag64 = self._tag_base | (0 if any_src
                                  else source << TAG_SOURCE_SHIFT) \
            | (0 if any_tag else tag)
        return tag64, match_mask(any_src, any_tag)

    # -- point to point ---------------------------------------------------

    def isend(self, buf: Any, dest: int, tag: int = 0,
              datatype: Optional[Datatype] = None,
              count: Optional[int] = None) -> Request:
        """Nonblocking send (MPI_Isend)."""
        if not (0 <= dest < self._nlocal and 0 <= tag < MAX_USER_TAG):
            self._check_args(dest, tag, allow_any=False)
        if datatype is None or count is None or count < 0:
            buf, count, datatype = self._resolve(buf, count, datatype)
        group = self._group
        req = self.engine.start_send(dest if group is None else group[dest],
                                     self._send_base | tag, buf, count,
                                     datatype)
        req._errctx = self
        return req

    def send(self, buf: Any, dest: int, tag: int = 0,
             datatype: Optional[Datatype] = None,
             count: Optional[int] = None) -> None:
        """Blocking send (MPI_Send)."""
        self.isend(buf, dest, tag, datatype, count).wait()

    def issend(self, buf: Any, dest: int, tag: int = 0,
               datatype: Optional[Datatype] = None,
               count: Optional[int] = None) -> Request:
        """Nonblocking synchronous send (MPI_Issend): completion of the
        returned request implies the matching receive has started."""
        if not (0 <= dest < self._nlocal and 0 <= tag < MAX_USER_TAG):
            self._check_args(dest, tag, allow_any=False)
        if datatype is None or count is None or count < 0:
            buf, count, datatype = self._resolve(buf, count, datatype)
        group = self._group
        req = self.engine.start_send(dest if group is None else group[dest],
                                     self._send_base | tag, buf, count,
                                     datatype, sync=True)
        req._errctx = self
        return req

    def ssend(self, buf: Any, dest: int, tag: int = 0,
              datatype: Optional[Datatype] = None,
              count: Optional[int] = None) -> None:
        """Blocking synchronous send (MPI_Ssend)."""
        self.issend(buf, dest, tag, datatype, count).wait()

    def irecv(self, buf: Any, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              datatype: Optional[Datatype] = None,
              count: Optional[int] = None) -> Request:
        """Nonblocking receive (MPI_Irecv)."""
        if 0 <= source < self._nlocal and 0 <= tag < MAX_USER_TAG:
            group = self._group
            tag64 = self._tag_base | source << TAG_SOURCE_SHIFT | tag
            mask = TAG_FULL_MASK
            peers = (source if group is None else group[source],)
        else:
            self._check_args(source, tag, allow_any=True)
            tag64, mask = self._recv_pattern(source, tag)
            peers = self._recv_peers(source)
        if datatype is None or count is None or count < 0:
            buf, count, datatype = self._resolve(buf, count, datatype)
        req = self.engine.start_recv(tag64, mask, buf, count, datatype,
                                     peers=peers)
        req._errctx = self
        return req

    def _recv_peers(self, source: int) -> Optional[tuple[int, ...]]:
        """World ranks that could satisfy a receive from ``source`` — the
        wait-for targets the sanitizer's deadlock detector needs.  None
        means any rank in the job (COMM_WORLD wildcard)."""
        if source == ANY_SOURCE:
            return tuple(self._group) if self._group is not None else None
        return (self._world(source),)

    def recv(self, buf: Any, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             datatype: Optional[Datatype] = None,
             count: Optional[int] = None) -> Status:
        """Blocking receive (MPI_Recv)."""
        status = self.irecv(buf, source, tag, datatype, count).wait()
        if self._group is not None and status is not None:
            status.source = self._group.index(status.source)
        return status

    def _localize(self, status: Optional[Status]) -> Optional[Status]:
        """Translate a Status's world source into a comm-local rank."""
        if status is not None and self._group is not None:
            status.source = self._local(status.source)
        return status

    def sendrecv(self, sendbuf: Any, dest: int, recvbuf: Any, source: int,
                 sendtag: int = 0, recvtag: int = ANY_TAG,
                 senddatatype: Optional[Datatype] = None,
                 sendcount: Optional[int] = None,
                 recvdatatype: Optional[Datatype] = None,
                 recvcount: Optional[int] = None) -> Status:
        """MPI_Sendrecv: deadlock-free paired exchange."""
        rreq = self.irecv(recvbuf, source, recvtag, recvdatatype, recvcount)
        sreq = self.isend(sendbuf, dest, sendtag, senddatatype, sendcount)
        status = rreq.wait()
        sreq.wait()
        return status

    # -- persistent requests ------------------------------------------------

    def send_init(self, buf: Any, dest: int, tag: int = 0,
                  datatype: Optional[Datatype] = None,
                  count: Optional[int] = None) -> "PersistentRequest":
        """MPI_Send_init: a restartable send (start with ``.start()``)."""
        self._check_args(dest, tag, allow_any=False)
        return PersistentRequest(
            lambda: self.isend(buf, dest, tag, datatype, count))

    def recv_init(self, buf: Any, source: int = ANY_SOURCE,
                  tag: int = ANY_TAG,
                  datatype: Optional[Datatype] = None,
                  count: Optional[int] = None) -> "PersistentRequest":
        """MPI_Recv_init: a restartable receive."""
        self._check_args(source, tag, allow_any=True)
        return PersistentRequest(
            lambda: self.irecv(buf, source, tag, datatype, count))

    # -- probing --------------------------------------------------------------

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Status:
        """Blocking MPI_Probe (message stays matchable)."""
        msg = self._probe(source, tag, remove=False, block=True)
        return self._localize(Status.from_recv_info(_msg_info(msg)))

    def _probe(self, source: int, tag: int, remove: bool, block: bool):
        """One probe; blocking, it parks as a receive posted with the same
        source and tag would (same peers, same error handler).  Its source
        and tag are checked as a receive's."""
        self._check_args(source, tag, allow_any=True)
        tag64, mask = self._recv_pattern(source, tag)
        try:
            return self.worker.tag_probe(tag64, mask, remove=remove,
                                         block=block,
                                         peers=self._recv_peers(source))
        except MPIError as exc:
            self._handle_mpi_error(exc)
            raise

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG
               ) -> Optional[Status]:
        """Nonblocking MPI_Iprobe."""
        msg = self._probe(source, tag, remove=False, block=False)
        if msg is None:
            return None
        return self._localize(Status.from_recv_info(_msg_info(msg)))

    def mprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG
               ) -> tuple["MessageHandle", Status]:
        """Blocking MPI_Mprobe: claim the message for a later mrecv."""
        msg = self._probe(source, tag, remove=True, block=True)
        return (MessageHandle(self, msg),
                self._localize(Status.from_recv_info(_msg_info(msg))))

    def improbe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG
                ) -> Optional[tuple["MessageHandle", Status]]:
        """Nonblocking MPI_Improbe."""
        msg = self._probe(source, tag, remove=True, block=False)
        if msg is None:
            return None
        return (MessageHandle(self, msg),
                self._localize(Status.from_recv_info(_msg_info(msg))))

    # -- collectives (implemented in repro.mpi.collectives) -----------------

    def barrier(self) -> None:
        from . import collectives
        collectives.barrier(self)

    def bcast(self, buf, root: int = 0, datatype=None, count=None):
        from . import collectives
        return collectives.bcast(self, buf, root, datatype, count)

    def gather(self, sendbuf, recvbuf, root: int = 0, datatype=None, count=None):
        from . import collectives
        return collectives.gather(self, sendbuf, recvbuf, root, datatype, count)

    def scatter(self, sendbuf, recvbuf, root: int = 0, datatype=None, count=None):
        from . import collectives
        return collectives.scatter(self, sendbuf, recvbuf, root, datatype, count)

    def gatherv(self, sendbuf, recvbuf, recvcounts, root: int = 0,
                datatype=None, count=None):
        from . import collectives
        return collectives.gatherv(self, sendbuf, recvbuf, recvcounts, root,
                                   datatype, count)

    def scatterv(self, sendbuf, sendcounts, recvbuf, root: int = 0,
                 datatype=None, count=None):
        from . import collectives
        return collectives.scatterv(self, sendbuf, sendcounts, recvbuf, root,
                                    datatype, count)

    def allgather(self, sendbuf, recvbuf, datatype=None, count=None):
        from . import collectives
        return collectives.allgather(self, sendbuf, recvbuf, datatype, count)

    def reduce(self, sendbuf, recvbuf, op="sum", root: int = 0):
        from . import collectives
        return collectives.reduce(self, sendbuf, recvbuf, op, root)

    def allreduce(self, sendbuf, recvbuf, op="sum"):
        from . import collectives
        return collectives.allreduce(self, sendbuf, recvbuf, op)

    def alltoall(self, sendbuf, recvbuf, datatype=None, count=None):
        from . import collectives
        return collectives.alltoall(self, sendbuf, recvbuf, datatype, count)


class PersistentRequest:
    """A restartable operation (MPI persistent requests).

    ``start()`` (re)activates the operation against the same buffer and
    arguments; ``wait()`` completes the active instance.  Mirrors
    MPI_Send_init / MPI_Recv_init / MPI_Start semantics closely enough for
    iterative halo-exchange codes.
    """

    def __init__(self, factory):
        self._factory = factory
        self._active: Optional[Request] = None

    def start(self) -> "PersistentRequest":
        if self._active is not None and not self._active.test():
            raise MPIError(MPI_ERR_RANK,
                           "persistent request restarted while still active")
        self._active = self._factory()
        return self

    def test(self) -> bool:
        return self._active is not None and self._active.test()

    def wait(self):
        if self._active is None:
            raise MPIError(MPI_ERR_RANK,
                           "persistent request waited before start()")
        status = self._active.wait()
        return status


class MessageHandle:
    """A message claimed by mprobe, receivable exactly once (MPI_Message)."""

    def __init__(self, comm: Communicator, msg):
        self._comm = comm
        self._msg = msg
        self._received = False

    def mrecv(self, buf: Any, datatype: Optional[Datatype] = None,
              count: Optional[int] = None) -> Status:
        """MPI_Mrecv."""
        if self._received:
            raise MPIError(MPI_ERR_RANK, "message already received")
        self._received = True
        buf, count, datatype = self._comm._resolve(buf, count, datatype)
        return self._comm._localize(
            self._comm.engine.recv_message(self._msg, buf, count, datatype))


def _msg_info(msg):
    """Adapt a WireMessage header into a RecvInfo-shaped object."""
    from ..ucp.context import RecvInfo
    hdr = msg.header
    return RecvInfo(source=hdr.source, tag=hdr.tag, nbytes=hdr.total_bytes,
                    entry_lengths=hdr.entry_lengths,
                    packed_entries=hdr.packed_entries)
