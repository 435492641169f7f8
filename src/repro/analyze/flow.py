"""Rank-symbolic SPMD communication-flow verifier (the ``RPD5xx`` checks).

Abstractly interprets a ``main(comm)`` program once per rank — for every
job size in a small concrete set (default 2/3/4, or the size the file pins
via ``NPROCS``/``NRANKS``/``PROCS`` or ``run(main, nprocs=K)``), plus two
larger *witness* sizes standing in for a symbolic "N" when the program is
size-generic — and records every communication operation each rank would
issue.  The resulting per-rank traces are handed to
:mod:`repro.analyze.commgraph`, which replays them under MPI matching
rules and reports static deadlocks (``RPD500``), unmatched traffic
(``RPD501``/``RPD502``), type-signature mismatches and truncation
(``RPD510``/``RPD511``) and collective divergence (``RPD520``).

The abstract domain is *concrete-where-possible*: values the program
computes from literals, ``comm.rank``/``comm.size`` and pure library calls
(numpy, ``repro.core`` datatype constructors, Cartesian topology math) are
evaluated natively, so tags, peers, counts and real ``Datatype`` objects
flow through unchanged and their signatures can be checked with the exact
:func:`repro.analyze.commgraph.classify_mismatch` verdict the runtime
sanitizer applies.  Anything else collapses to a single ``UNKNOWN``
element.  When an ``UNKNOWN`` reaches a *communication-relevant* position
— a branch guarding MPI calls, a tag, a peer rank, a communicator passed
to opaque code — the analysis refuses to guess: the whole file is reported
as ``RPD530`` (analysis incomplete) and the caller falls back to the
per-file lint heuristics.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from ..core.custom import CustomDatatype
from ..core.datatype import BYTE, Datatype, from_numpy_dtype
from ..core.signature import signature_bytes
from .commgraph import ANY, CollOp, P2POp, TraceReplay, WaitOp
from .diagnostics import Diagnostic

#: Default job sizes every unpinned program is evaluated at.
DEFAULT_NPROCS = (2, 3, 4)

#: Witness instantiations of the symbolic size "N": one even, one odd size
#: beyond the explicit set.  A size-generic program that is correct at the
#: defaults *and* at the witnesses is correct for the rank patterns the
#: abstract domain can express (boundary ranks, parity, ring wrap).
SYMBOLIC_WITNESS_NPROCS = (6, 7)

#: Module attributes that pin the job size (shared with repro.sanitize).
NPROCS_ATTRS = ("NPROCS", "NRANKS", "PROCS")

#: Interpreted-statement budget per rank; beyond this the program is
#: outside the bounded-loop subset.
STEP_BUDGET = 300_000

_CALL_DEPTH_LIMIT = 64

#: Call names whose presence makes an unanalyzable region communication-
#: relevant (an unknown branch that skips one of these cannot be havocked
#: away — matching would silently go wrong).
_COMM_CALL_NAMES = frozenset({
    "send", "isend", "ssend", "issend", "bsend", "recv", "irecv", "sendrecv",
    "barrier", "bcast", "gather", "scatter", "gatherv", "scatterv",
    "allgather", "allreduce", "reduce", "alltoall", "wait", "waitall",
    "waitany", "waitsome", "neighbor_sendrecv", "dup", "split", "probe",
    "iprobe", "mprobe", "improbe", "send_init", "recv_init", "start",
})

#: Module roots the interpreter may really import; everything else is
#: opaque (attributes evaluate to UNKNOWN).
_IMPORTABLE_ROOTS = ("numpy", "math", "repro")


class _UnknownType:
    """The single abstract 'anything' value."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "<unknown>"

    def __bool__(self):  # never silently truthy: callers must use _truth()
        raise TypeError("truth value of UNKNOWN")


UNKNOWN = _UnknownType()

_MISSING = object()


class Incomplete(Exception):
    """A value escaped the abstract domain somewhere that matters."""

    def __init__(self, reason: str, line: int = 0, col: int = 0):
        super().__init__(reason)
        self.reason = reason
        self.line = line
        self.col = col


class _ReturnSig(Exception):
    def __init__(self, value):
        self.value = value


class _BreakSig(Exception):
    pass


class _ContinueSig(Exception):
    pass


class _AbortRank(Exception):
    """A reachable ``raise``: the rank terminates here."""


def _is_unknown(v) -> bool:
    return v is UNKNOWN


def _truth(v) -> Optional[bool]:
    """Concrete truth value, or None when undecidable."""
    if v is UNKNOWN:
        return None
    try:
        return bool(v)
    except Exception:
        return None


def _as_int(v) -> Optional[int]:
    if isinstance(v, bool):
        return int(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    return None


def _contains_comm_call(node: ast.AST) -> bool:
    for n in ast.walk(node):
        if isinstance(n, ast.Call):
            f = n.func
            name = f.attr if isinstance(f, ast.Attribute) else (
                f.id if isinstance(f, ast.Name) else "")
            if name in _COMM_CALL_NAMES or name.startswith("MPI_"):
                return True
    return False


def _assigned_names(node: ast.AST):
    """Names (re)bound anywhere under ``node``."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, (ast.Store,
                                                          ast.Del)):
            yield n.id


# --------------------------------------------------------------------------
# Abstract values
# --------------------------------------------------------------------------

class ModuleVal:
    """A (possibly overridden) view of a real module."""

    def __init__(self, mod, overrides: Optional[dict] = None):
        self.mod = mod
        self.name = getattr(mod, "__name__", "?")
        self.overrides = overrides if overrides is not None \
            else _MODULE_OVERRIDES.get(self.name, {})

    def get(self, attr: str):
        if attr in self.overrides:
            return self.overrides[attr]
        try:
            v = getattr(self.mod, attr)
        except AttributeError:
            # Submodules are only attributes of a package once imported.
            if self.name.split(".")[0] in _IMPORTABLE_ROOTS:
                try:
                    import importlib
                    v = importlib.import_module(f"{self.name}.{attr}")
                except Exception:
                    return UNKNOWN
            else:
                return UNKNOWN
        import types
        if isinstance(v, types.ModuleType):
            return ModuleVal(v)
        return v


class OpaqueModule:
    """An un-importable / un-modelled module: every attribute is UNKNOWN."""

    def __init__(self, name: str):
        self.name = name

    def get(self, attr: str):
        return UNKNOWN


class ModelFn:
    """A model-provided callable that accepts abstract values."""

    def __init__(self, fn, name: str = "?"):
        self.fn = fn
        self.name = name

    def __call__(self, *args, **kwargs):
        return self.fn(*args, **kwargs)


class CustomDtypeMarker:
    """Stand-in for a custom datatype built over user callbacks.

    Flow never executes the callbacks, so the signature is unknown — the
    same leniency the sanitizer applies to custom types on the wire.
    """

    def __init__(self, name: str = "custom"):
        self.name = name

    def signature(self, count: int = 1):
        return None


@dataclass
class FuncVal:
    node: Any                      # ast.FunctionDef | ast.Lambda
    env: "Env"
    name: str = "<lambda>"
    defaults: tuple = ()
    kw_defaults: dict = field(default_factory=dict)
    is_classmethod: bool = False
    is_staticmethod: bool = False
    is_property: bool = False
    is_generator: bool = False


@dataclass
class BoundVal:
    fn: FuncVal
    recv: Any                      # ObjVal (methods) or ClassVal (classmethods)


class ClassVal:
    def __init__(self, name: str, members: dict):
        self.name = name
        self.members = members


class ObjVal:
    """An instance of a user class: a mutable attribute namespace."""

    def __init__(self, cls: Optional[ClassVal]):
        self.cls = cls
        self.attrs: dict = {}
        self.havocked = False


class RequestVal:
    """Handle for a recorded nonblocking operation."""

    def __init__(self, interp: "_Interp", op: P2POp):
        self._interp = interp
        self.op = op

    def wait(self, timeout=None):
        line, col = self._interp.cur_loc
        self._interp.trace.append(WaitOp((self.op.req,), line, col))
        return UNKNOWN

    def test(self):
        # Completion becomes untrackable; be lenient from here on.
        self.op.escaped = True
        return UNKNOWN


class CommVal:
    """The abstract communicator: mirrors the Communicator surface while
    recording every operation into the rank's trace.  Duck-type compatible
    with :class:`repro.mpi.topology.CartComm`'s expectations (``rank``,
    ``size``, ``irecv``/``isend``/``dup``), so the real topology code runs
    natively over it."""

    def __init__(self, interp: "_Interp", size: int, rank: int,
                 comm_id: int = 0, group: Optional[tuple] = None):
        self._interp = interp
        self._size = size
        self._rank = rank          # communicator-local rank
        self.comm_id = comm_id
        self._group = group        # world rank per local rank; None = world
        self._dup_count = 0
        self._split_count = 0

    # -- introspection (plain ints: everything downstream stays concrete) --

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return len(self._group) if self._group is not None else self._size

    @property
    def nprocs(self) -> int:
        return self.size

    @property
    def clock(self):
        return UNKNOWN

    @property
    def memory(self):
        return UNKNOWN

    def members(self) -> tuple:
        if self._group is not None:
            return tuple(self._group)
        return tuple(range(self._size))

    # -- communicator management ----------------------------------------

    def dup(self) -> "CommVal":
        child_id = (self.comm_id * 31 + self._dup_count + 1) % (1 << 16)
        self._dup_count += 1
        return CommVal(self._interp, self._size, self._rank,
                       comm_id=child_id, group=self._group)

    def split(self, color, key=0):
        line, col = self._interp.cur_loc
        raise Incomplete("comm.split() is outside the statically analyzable "
                         "subset (child groups depend on all ranks)",
                         line, col)

    # -- point to point ---------------------------------------------------

    def _world_peer(self, peer: int) -> int:
        if peer == ANY:
            return ANY
        if 0 <= peer < self.size:
            return self._group[peer] if self._group is not None else peer
        return -1000 - abs(int(peer))   # invalid rank: matches nothing

    def _p2p(self, kind: str, buf, peer, tag, datatype, count,
             blocking: bool, sync: bool = False):
        line, col = self._interp.cur_loc
        ipeer = _as_int(peer)
        if ipeer is None:
            raise Incomplete(f"{kind} {'destination' if kind == 'send' else 'source'} "
                             f"rank escaped the abstract domain", line, col)
        itag = _as_int(tag)
        if itag is None:
            raise Incomplete(f"{kind} tag escaped the abstract domain",
                             line, col)
        if kind == "recv" and isinstance(buf, ObjVal):
            buf.havocked = True     # contents arrive from the wire
        sig, nbytes = self._interp.static_sig(buf, count, datatype, line, col)
        req = self._interp.next_req() if not blocking else None
        op = P2POp(kind=kind, peer=self._world_peer(ipeer), tag=itag,
                   comm=(self.comm_id,), blocking=blocking, sync=sync,
                   signature=sig, nbytes=nbytes, req=req, line=line, col=col)
        self._interp.trace.append(op)
        if not blocking:
            return RequestVal(self._interp, op)
        return UNKNOWN if kind == "recv" else None

    def isend(self, buf, dest, tag=0, datatype=None, count=None):
        return self._p2p("send", buf, dest, tag, datatype, count, False)

    def send(self, buf, dest, tag=0, datatype=None, count=None):
        return self._p2p("send", buf, dest, tag, datatype, count, True)

    def issend(self, buf, dest, tag=0, datatype=None, count=None):
        return self._p2p("send", buf, dest, tag, datatype, count, False,
                         sync=True)

    def ssend(self, buf, dest, tag=0, datatype=None, count=None):
        return self._p2p("send", buf, dest, tag, datatype, count, True,
                         sync=True)

    def irecv(self, buf, source=ANY, tag=ANY, datatype=None, count=None):
        return self._p2p("recv", buf, source, tag, datatype, count, False)

    def recv(self, buf, source=ANY, tag=ANY, datatype=None, count=None):
        return self._p2p("recv", buf, source, tag, datatype, count, True)

    def sendrecv(self, sendbuf, dest, recvbuf, source, sendtag=0,
                 recvtag=ANY, senddatatype=None, sendcount=None,
                 recvdatatype=None, recvcount=None):
        rreq = self.irecv(recvbuf, source, recvtag, recvdatatype, recvcount)
        sreq = self.isend(sendbuf, dest, sendtag, senddatatype, sendcount)
        rreq.wait()
        sreq.wait()
        return UNKNOWN

    # -- probing / persistent: outside the static subset ------------------

    def _unsupported(self, what: str):
        line, col = self._interp.cur_loc
        raise Incomplete(f"{what} is outside the statically analyzable "
                         f"subset", line, col)

    def probe(self, *a, **k):
        self._unsupported("probe()")

    def iprobe(self, *a, **k):
        self._unsupported("iprobe()")

    def mprobe(self, *a, **k):
        self._unsupported("mprobe()")

    def improbe(self, *a, **k):
        self._unsupported("improbe()")

    def send_init(self, *a, **k):
        self._unsupported("persistent requests")

    def recv_init(self, *a, **k):
        self._unsupported("persistent requests")

    # -- collectives -------------------------------------------------------

    def _coll(self, name: str, detail: str = "", recvbuf=None):
        line, col = self._interp.cur_loc
        if isinstance(recvbuf, ObjVal):
            recvbuf.havocked = True
        self._interp.trace.append(CollOp(
            name=name, comm=(self.comm_id,), members=self.members(),
            detail=detail, line=line, col=col))
        return UNKNOWN

    def _root_detail(self, root) -> str:
        iroot = _as_int(root)
        if iroot is None:
            line, col = self._interp.cur_loc
            raise Incomplete("collective root escaped the abstract domain",
                             line, col)
        return f"root={iroot}"

    def barrier(self):
        self._coll("barrier")

    def bcast(self, buf, root=0, datatype=None, count=None):
        return self._coll("bcast", self._root_detail(root), recvbuf=buf)

    def gather(self, sendbuf, recvbuf, root=0, datatype=None, count=None):
        return self._coll("gather", self._root_detail(root), recvbuf=recvbuf)

    def scatter(self, sendbuf, recvbuf, root=0, datatype=None, count=None):
        return self._coll("scatter", self._root_detail(root),
                          recvbuf=recvbuf)

    def gatherv(self, sendbuf, recvbuf, recvcounts, root=0, datatype=None,
                count=None):
        return self._coll("gatherv", self._root_detail(root),
                          recvbuf=recvbuf)

    def scatterv(self, sendbuf, sendcounts, recvbuf, root=0, datatype=None,
                 count=None):
        return self._coll("scatterv", self._root_detail(root),
                          recvbuf=recvbuf)

    def allgather(self, sendbuf, recvbuf, datatype=None, count=None):
        return self._coll("allgather", recvbuf=recvbuf)

    def reduce(self, sendbuf, recvbuf, op="sum", root=0):
        opname = op if isinstance(op, str) else "?"
        return self._coll("reduce", f"op={opname},{self._root_detail(root)}",
                          recvbuf=recvbuf)

    def allreduce(self, sendbuf, recvbuf, op="sum"):
        opname = op if isinstance(op, str) else "?"
        return self._coll("allreduce", f"op={opname}", recvbuf=recvbuf)

    def alltoall(self, sendbuf, recvbuf, datatype=None, count=None):
        return self._coll("alltoall", recvbuf=recvbuf)


# --------------------------------------------------------------------------
# Module models
# --------------------------------------------------------------------------

def _model_default_rng(*args, **kwargs):
    # Seeded generators are deterministic and therefore concrete; an
    # unseeded one would differ per execution, so it stays abstract.
    ints = [_as_int(a) for a in args]
    if not args or any(i is None for i in ints) or kwargs:
        return UNKNOWN
    return np.random.default_rng(*ints)


def _model_custom_type(*args, **kwargs):
    return CustomDtypeMarker(str(kwargs.get("name", "custom")))


def _capi_ok(v=None):
    from ..errors import MPI_SUCCESS
    return MPI_SUCCESS if v is None else (MPI_SUCCESS, v)


def _capi_send(comm, buf, count, datatype, dest, tag):
    comm._p2p("send", buf, dest, tag, datatype, count, True)
    return _capi_ok()


def _capi_recv(comm, buf, count, datatype, source, tag):
    comm._p2p("recv", buf, source, tag, datatype, count, True)
    return _capi_ok(UNKNOWN)


def _capi_isend(comm, buf, count, datatype, dest, tag):
    return _capi_ok(comm._p2p("send", buf, dest, tag, datatype, count, False))


def _capi_irecv(comm, buf, count, datatype, source, tag):
    return _capi_ok(comm._p2p("recv", buf, source, tag, datatype, count,
                              False))


def _capi_wait(request):
    if isinstance(request, RequestVal):
        request.wait()
    return _capi_ok(UNKNOWN)


def _capi_test(request):
    if isinstance(request, RequestVal):
        request.test()
    return _capi_ok(UNKNOWN)


def _capi_barrier(comm):
    comm.barrier()
    return _capi_ok()


#: Per-module attribute overrides applied by :class:`ModuleVal`.
_MODULE_OVERRIDES: dict = {
    "numpy.random": {"default_rng": ModelFn(_model_default_rng,
                                            "default_rng")},
    "repro.core": {"type_create_custom": ModelFn(_model_custom_type,
                                                 "type_create_custom")},
    "repro.core.custom": {"type_create_custom": ModelFn(
        _model_custom_type, "type_create_custom")},
    "repro.mpi": {"run": ModelFn(lambda *a, **k: UNKNOWN, "run")},
    "repro.mpi.runtime": {"run": ModelFn(lambda *a, **k: UNKNOWN, "run")},
    "repro.capi": {
        "MPI_Type_create_custom": ModelFn(
            lambda *a, **k: _capi_ok(CustomDtypeMarker()),
            "MPI_Type_create_custom"),
        "MPI_Send": ModelFn(_capi_send, "MPI_Send"),
        "MPI_Recv": ModelFn(_capi_recv, "MPI_Recv"),
        "MPI_Isend": ModelFn(_capi_isend, "MPI_Isend"),
        "MPI_Irecv": ModelFn(_capi_irecv, "MPI_Irecv"),
        "MPI_Wait": ModelFn(_capi_wait, "MPI_Wait"),
        "MPI_Test": ModelFn(_capi_test, "MPI_Test"),
        "MPI_Probe": ModelFn(lambda *a, **k: (_ for _ in ()).throw(
            Incomplete("MPI_Probe is outside the static subset")),
            "MPI_Probe"),
        "MPI_Barrier": ModelFn(_capi_barrier, "MPI_Barrier"),
        "MPI_Comm_rank": ModelFn(lambda comm: _capi_ok(comm.rank),
                                 "MPI_Comm_rank"),
        "MPI_Comm_size": ModelFn(lambda comm: _capi_ok(comm.size),
                                 "MPI_Comm_size"),
    },
}


def _comm_whitelisted(callee) -> bool:
    """Real callables trusted to drive a CommVal through its public
    surface (they only touch rank/size/irecv/isend/dup)."""
    from ..mpi import topology
    if callee is topology.cart_create or callee is topology.CartComm:
        return True
    self_obj = getattr(callee, "__self__", None)
    return isinstance(self_obj, (topology.CartComm, CommVal, RequestVal))


def _container_method(callee) -> bool:
    """Bound methods of plain containers store/retrieve without looking at
    the values, so abstract arguments are fine."""
    return isinstance(getattr(callee, "__self__", None),
                      (list, dict, set, bytearray))


def _scan_abstract(values):
    """(has_comm, has_request, has_other_abstract) over nested args."""
    has_comm = has_req = has_other = False
    todo = list(values)
    seen = 0
    while todo and seen < 10_000:
        v = todo.pop()
        seen += 1
        if isinstance(v, CommVal):
            has_comm = True
        elif isinstance(v, RequestVal):
            has_req = True
        elif v is UNKNOWN or isinstance(
                v, (FuncVal, BoundVal, ClassVal, ObjVal, ModuleVal,
                    OpaqueModule, CustomDtypeMarker, ModelFn)):
            has_other = True
        elif isinstance(v, (list, tuple, set)):
            todo.extend(v)
        elif isinstance(v, dict):
            todo.extend(v.values())
    return has_comm, has_req, has_other


def _mark_escaped(values):
    todo = list(values)
    seen = 0
    while todo and seen < 10_000:
        v = todo.pop()
        seen += 1
        if isinstance(v, RequestVal):
            v.op.escaped = True
        elif isinstance(v, (list, tuple, set)):
            todo.extend(v)
        elif isinstance(v, dict):
            todo.extend(v.values())


# --------------------------------------------------------------------------
# Environments
# --------------------------------------------------------------------------

class Env:
    __slots__ = ("vars", "parent")

    def __init__(self, parent: Optional["Env"] = None):
        self.vars: dict = {}
        self.parent = parent

    def lookup(self, name: str):
        env = self
        while env is not None:
            if name in env.vars:
                return env.vars[name]
            env = env.parent
        return _MISSING

    def assign(self, name: str, value):
        self.vars[name] = value


_SAFE_BUILTINS = {
    "range": range, "len": len, "int": int, "float": float, "bool": bool,
    "str": str, "abs": abs, "min": min, "max": max, "sum": sum,
    "enumerate": enumerate, "zip": zip, "sorted": sorted,
    "reversed": reversed, "list": list, "tuple": tuple, "dict": dict,
    "set": set, "frozenset": frozenset, "bytes": bytes,
    "bytearray": bytearray, "memoryview": memoryview, "divmod": divmod,
    "round": round, "repr": repr, "format": format, "ord": ord, "chr": chr,
    "any": any, "all": all, "isinstance": isinstance, "pow": pow,
    "AssertionError": AssertionError, "ValueError": ValueError,
    "RuntimeError": RuntimeError, "Exception": Exception,
    "KeyError": KeyError, "IndexError": IndexError, "TypeError": TypeError,
    "NotImplementedError": NotImplementedError, "StopIteration": StopIteration,
}


# --------------------------------------------------------------------------
# The interpreter
# --------------------------------------------------------------------------

class _Interp:
    """One rank's abstract execution of one file at one job size."""

    def __init__(self, tree: ast.Module, path: str, nprocs: int, rank: int):
        self.tree = tree
        self.path = path
        self.nprocs = nprocs
        self.rank = rank
        self.trace: list = []
        self.module_env = Env()
        self.module_env.vars["__name__"] = "<flow>"
        self.module_env.vars["__file__"] = path
        self.cur_loc = (0, 0)
        self.steps = 0
        self.depth = 0
        self._req_counter = 0
        #: real Datatype objects seen in ops: (id -> (dtype, line, col))
        self.datatypes_seen: dict = {}

    def next_req(self) -> int:
        self._req_counter += 1
        return self._req_counter

    # -- entry ------------------------------------------------------------

    def run(self) -> list:
        for stmt in self.tree.body:
            self.exec_stmt(stmt, self.module_env)
        main = self.module_env.lookup("main")
        if not isinstance(main, FuncVal):
            raise Incomplete("main(comm) was rebound to a non-function")
        comm = CommVal(self, self.nprocs, self.rank)
        try:
            self.call_function(main, [comm], {})
        except _AbortRank:
            pass
        return self.trace

    # -- datatype/signature resolution ------------------------------------

    def static_sig(self, buf, count, datatype, line, col):
        """(signature, nbytes) of one transfer, or (None, None) when the
        static subset cannot pin it down (custom datatypes, unknown
        counts): unknown stays lenient, exactly like the wire envelope."""
        try:
            return self._static_sig(buf, count, datatype, line, col)
        except Incomplete:
            raise
        except Exception:
            return None, None

    def _static_sig(self, buf, count, datatype, line, col):
        if datatype is UNKNOWN or isinstance(datatype, (CustomDtypeMarker,
                                                        CustomDatatype)):
            return None, None
        n = _as_int(count) if count is not None else None
        if count is not None and n is None and count is not UNKNOWN:
            return None, None
        if datatype is None:
            if isinstance(buf, np.ndarray):
                datatype = from_numpy_dtype(buf.dtype)
                if n is None:
                    n = buf.size
            elif isinstance(buf, (bytes, bytearray, memoryview)):
                datatype = BYTE
                if n is None:
                    n = len(buf)
            else:
                return None, None
        if not isinstance(datatype, Datatype):
            return None, None
        self.datatypes_seen.setdefault(id(datatype), (datatype, line, col))
        if n is None:
            if isinstance(buf, np.ndarray) and datatype.extent:
                n = buf.nbytes // datatype.extent
            else:
                return None, None
        sig = datatype.signature(n)
        if sig is None:
            return None, None
        return sig, signature_bytes(sig)

    # -- statements --------------------------------------------------------

    def exec_body(self, body, env):
        for stmt in body:
            self.exec_stmt(stmt, env)

    def exec_stmt(self, stmt, env):
        self.steps += 1
        if self.steps > STEP_BUDGET:
            raise Incomplete("statement budget exhausted (unbounded or very "
                             "long-running loop)", stmt.lineno,
                             stmt.col_offset)
        self.cur_loc = (stmt.lineno, stmt.col_offset)
        method = getattr(self, "_stmt_" + type(stmt).__name__, None)
        if method is not None:
            method(stmt, env)
            return
        # Unsupported statement kinds (match, async, global/nonlocal...):
        # fine to skip unless they could hide communication.
        if _contains_comm_call(stmt):
            raise Incomplete(f"unsupported construct "
                             f"{type(stmt).__name__} contains MPI calls",
                             stmt.lineno, stmt.col_offset)
        self._havoc(stmt, env)

    def _stmt_Expr(self, stmt, env):
        self.eval_expr(stmt.value, env)

    def _stmt_Assign(self, stmt, env):
        value = self.eval_expr(stmt.value, env)
        for target in stmt.targets:
            self.assign_target(target, value, env)

    def _stmt_AnnAssign(self, stmt, env):
        if stmt.value is not None:
            self.assign_target(stmt.target, self.eval_expr(stmt.value, env),
                               env)

    def _stmt_AugAssign(self, stmt, env):
        target = stmt.target
        load = ast.copy_location(
            ast.fix_missing_locations(_as_load(target)), target)
        current = self.eval_expr(load, env)
        value = self.eval_expr(stmt.value, env)
        result = self._binop(type(stmt.op).__name__, current, value)
        self.assign_target(target, result, env)

    def _stmt_If(self, stmt, env):
        truth = _truth(self.eval_expr(stmt.test, env))
        if truth is None:
            if _contains_comm_call(stmt):
                raise Incomplete(
                    "branch condition escaped the abstract domain and the "
                    "branch contains MPI calls", stmt.lineno,
                    stmt.col_offset)
            self._havoc(stmt, env)
            return
        self.exec_body(stmt.body if truth else stmt.orelse, env)

    def _stmt_While(self, stmt, env):
        first = True
        while True:
            truth = _truth(self.eval_expr(stmt.test, env))
            if truth is None:
                if _contains_comm_call(stmt):
                    raise Incomplete(
                        "while condition escaped the abstract domain and "
                        "the loop contains MPI calls", stmt.lineno,
                        stmt.col_offset)
                if first:
                    self._havoc(stmt, env)
                return
            if not truth:
                break
            first = False
            try:
                self.exec_body(stmt.body, env)
            except _BreakSig:
                return
            except _ContinueSig:
                continue
        self.exec_body(stmt.orelse, env)

    def _stmt_For(self, stmt, env):
        iterable = self.eval_expr(stmt.iter, env)
        items = self._concrete_iter(iterable)
        if items is None:
            if _contains_comm_call(stmt):
                raise Incomplete(
                    "loop iterable escaped the abstract domain and the "
                    "loop contains MPI calls", stmt.lineno, stmt.col_offset)
            self._havoc(stmt, env)
            return
        for item in items:
            self.assign_target(stmt.target, item, env)
            try:
                self.exec_body(stmt.body, env)
            except _BreakSig:
                return
            except _ContinueSig:
                continue
        self.exec_body(stmt.orelse, env)

    def _concrete_iter(self, value) -> Optional[list]:
        if value is UNKNOWN or isinstance(
                value, (ObjVal, FuncVal, BoundVal, ClassVal, ModuleVal,
                        OpaqueModule, CommVal, RequestVal)):
            return None
        try:
            it = iter(value)
        except Exception:
            return None
        out = []
        for item in it:
            out.append(item)
            if len(out) > 1_000_000:
                raise Incomplete("iterable too long for static unrolling")
        return out

    def _stmt_FunctionDef(self, stmt, env):
        env.assign(stmt.name, self._make_func(stmt, env))

    _stmt_AsyncFunctionDef = _stmt_FunctionDef

    def _make_func(self, node, env) -> Any:
        is_cm = is_sm = is_prop = False
        for dec in getattr(node, "decorator_list", ()):
            name = dec.id if isinstance(dec, ast.Name) else (
                dec.attr if isinstance(dec, ast.Attribute) else None)
            if name == "classmethod":
                is_cm = True
            elif name == "staticmethod":
                is_sm = True
            elif name == "property":
                is_prop = True
            else:
                return UNKNOWN   # arbitrary decorators transform the function
        defaults = tuple(self.eval_expr(d, env)
                         for d in node.args.defaults)
        kw_defaults = {}
        for arg, d in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if d is not None:
                kw_defaults[arg.arg] = self.eval_expr(d, env)
        is_gen = any(isinstance(n, (ast.Yield, ast.YieldFrom))
                     for n in ast.walk(node))
        return FuncVal(node=node, env=env,
                       name=getattr(node, "name", "<lambda>"),
                       defaults=defaults, kw_defaults=kw_defaults,
                       is_classmethod=is_cm, is_staticmethod=is_sm,
                       is_property=is_prop, is_generator=is_gen)

    def _stmt_ClassDef(self, stmt, env):
        if stmt.decorator_list:
            env.assign(stmt.name, UNKNOWN)
            return
        class_env = Env(env)
        self.exec_body(stmt.body, class_env)
        env.assign(stmt.name, ClassVal(stmt.name, dict(class_env.vars)))

    def _stmt_Return(self, stmt, env):
        value = self.eval_expr(stmt.value, env) if stmt.value else None
        raise _ReturnSig(value)

    def _stmt_Break(self, stmt, env):
        raise _BreakSig()

    def _stmt_Continue(self, stmt, env):
        raise _ContinueSig()

    def _stmt_Pass(self, stmt, env):
        pass

    def _stmt_Assert(self, stmt, env):
        # Evaluate for side effects (the capi examples send inside assert),
        # assume it passes.
        self.eval_expr(stmt.test, env)

    def _stmt_Raise(self, stmt, env):
        raise _AbortRank()

    def _stmt_Delete(self, stmt, env):
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                env.assign(target.id, UNKNOWN)

    def _stmt_Import(self, stmt, env):
        for alias in stmt.names:
            env.assign(alias.asname or alias.name.split(".")[0],
                       self._import_module(alias.name.split(".")[0]
                                           if alias.asname is None
                                           else alias.name))

    def _stmt_ImportFrom(self, stmt, env):
        if stmt.level:
            for alias in stmt.names:
                env.assign(alias.asname or alias.name, UNKNOWN)
            return
        mod = self._import_module(stmt.module or "")
        for alias in stmt.names:
            if alias.name == "*":
                continue
            if isinstance(mod, (ModuleVal, OpaqueModule)):
                env.assign(alias.asname or alias.name, mod.get(alias.name))
            else:
                env.assign(alias.asname or alias.name, UNKNOWN)

    def _import_module(self, name: str):
        root = name.split(".")[0]
        if root not in _IMPORTABLE_ROOTS:
            return OpaqueModule(name)
        try:
            import importlib
            return ModuleVal(importlib.import_module(name))
        except Exception:
            return OpaqueModule(name)

    def _stmt_Try(self, stmt, env):
        self.exec_body(stmt.body, env)
        for handler in stmt.handlers:
            if _contains_comm_call(handler):
                raise Incomplete("exception handler contains MPI calls",
                                 handler.lineno, handler.col_offset)
            self._havoc(handler, env)
        self.exec_body(stmt.orelse, env)
        self.exec_body(stmt.finalbody, env)

    _stmt_TryStar = _stmt_Try

    def _stmt_With(self, stmt, env):
        for item in stmt.items:
            ctx = self.eval_expr(item.context_expr, env)
            if item.optional_vars is not None:
                self.assign_target(item.optional_vars, ctx, env)
        self.exec_body(stmt.body, env)

    _stmt_AsyncWith = _stmt_With

    def _stmt_Global(self, stmt, env):
        pass     # module env is the root of every chain already

    _stmt_Nonlocal = _stmt_Global

    def _havoc(self, node, env):
        """Forget everything a skipped region could have assigned."""
        for name in _assigned_names(node):
            env.assign(name, UNKNOWN)
        for n in ast.walk(node):
            if isinstance(n, (ast.Attribute, ast.Subscript)) \
                    and isinstance(n.ctx, ast.Store):
                base = n.value
                while isinstance(base, (ast.Attribute, ast.Subscript)):
                    base = base.value
                if isinstance(base, ast.Name):
                    obj = env.lookup(base.id)
                    if isinstance(obj, ObjVal):
                        obj.havocked = True

    # -- assignment targets ------------------------------------------------

    def assign_target(self, target, value, env):
        if isinstance(target, ast.Name):
            env.assign(target.id, value)
        elif isinstance(target, ast.Starred):
            self.assign_target(target.value, value, env)
        elif isinstance(target, (ast.Tuple, ast.List)):
            items = self._concrete_iter(value)
            plain = [e for e in target.elts
                     if not isinstance(e, ast.Starred)]
            if items is not None and len(items) == len(target.elts) \
                    and len(plain) == len(target.elts):
                for elt, item in zip(target.elts, items):
                    self.assign_target(elt, item, env)
            else:
                for elt in target.elts:
                    self.assign_target(elt, UNKNOWN, env)
        elif isinstance(target, ast.Attribute):
            base = self.eval_expr(target.value, env)
            if isinstance(base, ObjVal):
                base.attrs[target.attr] = value
            elif base is UNKNOWN or isinstance(base, (CommVal, RequestVal,
                                                      ModuleVal,
                                                      OpaqueModule)):
                pass
            else:
                try:
                    setattr(base, target.attr, value)
                except Exception:
                    pass
        elif isinstance(target, ast.Subscript):
            base = self.eval_expr(target.value, env)
            if base is UNKNOWN or isinstance(base, ObjVal):
                return
            index = self.eval_expr_slice(target.slice, env)
            if index is UNKNOWN or value is UNKNOWN \
                    or isinstance(value, (FuncVal, BoundVal, ClassVal,
                                          ModuleVal, OpaqueModule)):
                return
            try:
                base[index] = value
            except Exception:
                pass

    # -- expressions -------------------------------------------------------

    def eval_expr(self, node, env):
        method = getattr(self, "_expr_" + type(node).__name__, None)
        if method is None:
            return UNKNOWN
        return method(node, env)

    def _expr_Constant(self, node, env):
        return node.value

    def _expr_Name(self, node, env):
        value = env.lookup(node.id)
        if value is not _MISSING:
            return value
        if node.id in _SAFE_BUILTINS:
            return _SAFE_BUILTINS[node.id]
        if node.id == "print":
            return ModelFn(lambda *a, **k: None, "print")
        return UNKNOWN

    def _expr_Attribute(self, node, env):
        base = self.eval_expr(node.value, env)
        return self.get_attr(base, node.attr)

    def get_attr(self, base, name: str):
        if base is UNKNOWN:
            return UNKNOWN
        if isinstance(base, (ModuleVal, OpaqueModule)):
            return base.get(name)
        if isinstance(base, ObjVal):
            if name in base.attrs:
                return base.attrs[name]
            if base.havocked:
                return UNKNOWN
            member = base.cls.members.get(name, _MISSING) if base.cls \
                else _MISSING
            if member is _MISSING:
                return UNKNOWN
            if isinstance(member, FuncVal):
                if member.is_staticmethod:
                    return member
                if member.is_classmethod:
                    return BoundVal(member, base.cls)
                if member.is_property:
                    return self.call_function(member, [base], {})
                return BoundVal(member, base)
            return member
        if isinstance(base, ClassVal):
            member = base.members.get(name, _MISSING)
            if member is _MISSING:
                return UNKNOWN
            if isinstance(member, FuncVal) and member.is_classmethod:
                return BoundVal(member, base)
            return member
        if isinstance(base, (FuncVal, BoundVal, ModelFn,
                             CustomDtypeMarker)):
            if isinstance(base, CustomDtypeMarker) and name == "signature":
                return ModelFn(base.signature, "signature")
            return UNKNOWN
        # Real objects (incl. CommVal / RequestVal, whose methods are the
        # model): plain getattr, wrapping any module results.
        try:
            value = getattr(base, name)
        except Exception:
            return UNKNOWN
        import types
        if isinstance(value, types.ModuleType):
            return ModuleVal(value)
        return value

    def _expr_BinOp(self, node, env):
        left = self.eval_expr(node.left, env)
        right = self.eval_expr(node.right, env)
        return self._binop(type(node.op).__name__, left, right)

    _BINOPS = {
        "Add": lambda a, b: a + b, "Sub": lambda a, b: a - b,
        "Mult": lambda a, b: a * b, "Div": lambda a, b: a / b,
        "FloorDiv": lambda a, b: a // b, "Mod": lambda a, b: a % b,
        "Pow": lambda a, b: a ** b, "LShift": lambda a, b: a << b,
        "RShift": lambda a, b: a >> b, "BitOr": lambda a, b: a | b,
        "BitXor": lambda a, b: a ^ b, "BitAnd": lambda a, b: a & b,
        "MatMult": lambda a, b: a @ b,
    }

    def _binop(self, opname, left, right):
        if left is UNKNOWN or right is UNKNOWN:
            return UNKNOWN
        if isinstance(left, (FuncVal, BoundVal, ClassVal, ObjVal, CommVal,
                             RequestVal, ModuleVal, OpaqueModule)):
            return UNKNOWN
        if isinstance(right, (FuncVal, BoundVal, ClassVal, ObjVal, CommVal,
                              RequestVal, ModuleVal, OpaqueModule)):
            return UNKNOWN
        fn = self._BINOPS.get(opname)
        if fn is None:
            return UNKNOWN
        try:
            return fn(left, right)
        except Exception:
            return UNKNOWN

    def _expr_UnaryOp(self, node, env):
        value = self.eval_expr(node.operand, env)
        if value is UNKNOWN:
            return UNKNOWN
        try:
            if isinstance(node.op, ast.USub):
                return -value
            if isinstance(node.op, ast.UAdd):
                return +value
            if isinstance(node.op, ast.Invert):
                return ~value
            if isinstance(node.op, ast.Not):
                truth = _truth(value)
                return UNKNOWN if truth is None else not truth
        except Exception:
            return UNKNOWN
        return UNKNOWN

    def _expr_BoolOp(self, node, env):
        is_and = isinstance(node.op, ast.And)
        result = UNKNOWN
        for sub in node.values:
            value = self.eval_expr(sub, env)
            truth = _truth(value)
            if truth is None:
                return UNKNOWN
            if is_and and not truth:
                return value
            if not is_and and truth:
                return value
            result = value
        return result

    def _expr_Compare(self, node, env):
        left = self.eval_expr(node.left, env)
        for op, comparator in zip(node.ops, node.comparators):
            right = self.eval_expr(comparator, env)
            result = self._compare(op, left, right)
            if result is UNKNOWN:
                return UNKNOWN
            if not result:
                return False
            left = right
        return True

    def _compare(self, op, left, right):
        if isinstance(op, ast.Is):
            return left is right
        if isinstance(op, ast.IsNot):
            return left is not right
        if left is UNKNOWN or right is UNKNOWN:
            return UNKNOWN
        abstract = (FuncVal, BoundVal, ClassVal, ObjVal, CommVal, RequestVal,
                    ModuleVal, OpaqueModule, CustomDtypeMarker)
        if isinstance(left, abstract) or isinstance(right, abstract):
            if isinstance(op, ast.Eq):
                return left is right if (isinstance(left, abstract)
                                         and isinstance(right, abstract)) \
                    else UNKNOWN
            return UNKNOWN
        try:
            if isinstance(op, ast.Eq):
                return bool(left == right)
            if isinstance(op, ast.NotEq):
                return bool(left != right)
            if isinstance(op, ast.Lt):
                return bool(left < right)
            if isinstance(op, ast.LtE):
                return bool(left <= right)
            if isinstance(op, ast.Gt):
                return bool(left > right)
            if isinstance(op, ast.GtE):
                return bool(left >= right)
            if isinstance(op, ast.In):
                return bool(left in right)
            if isinstance(op, ast.NotIn):
                return bool(left not in right)
        except Exception:
            return UNKNOWN
        return UNKNOWN

    def _expr_IfExp(self, node, env):
        truth = _truth(self.eval_expr(node.test, env))
        if truth is None:
            return UNKNOWN
        return self.eval_expr(node.body if truth else node.orelse, env)

    def _expr_Tuple(self, node, env):
        return tuple(self.eval_expr(e, env) for e in node.elts)

    def _expr_List(self, node, env):
        out = []
        for e in node.elts:
            if isinstance(e, ast.Starred):
                items = self._concrete_iter(self.eval_expr(e.value, env))
                if items is None:
                    return UNKNOWN
                out.extend(items)
            else:
                out.append(self.eval_expr(e, env))
        return out

    def _expr_Set(self, node, env):
        try:
            return {self.eval_expr(e, env) for e in node.elts}
        except Exception:
            return UNKNOWN

    def _expr_Dict(self, node, env):
        out = {}
        for k, v in zip(node.keys, node.values):
            if k is None:
                merged = self.eval_expr(v, env)
                if isinstance(merged, dict):
                    out.update(merged)
                else:
                    return UNKNOWN
                continue
            key = self.eval_expr(k, env)
            if key is UNKNOWN:
                return UNKNOWN
            try:
                out[key] = self.eval_expr(v, env)
            except Exception:
                return UNKNOWN
        return out

    def eval_expr_slice(self, node, env):
        if isinstance(node, ast.Slice):
            lower = self.eval_expr(node.lower, env) if node.lower else None
            upper = self.eval_expr(node.upper, env) if node.upper else None
            step = self.eval_expr(node.step, env) if node.step else None
            if UNKNOWN in (lower, upper, step):
                return UNKNOWN
            return slice(lower, upper, step)
        if isinstance(node, ast.Tuple):
            parts = tuple(self.eval_expr_slice(e, env) for e in node.elts)
            if any(p is UNKNOWN for p in parts):
                return UNKNOWN
            return parts
        return self.eval_expr(node, env)

    def _expr_Subscript(self, node, env):
        base = self.eval_expr(node.value, env)
        if base is UNKNOWN or isinstance(
                base, (ObjVal, FuncVal, BoundVal, ClassVal, CommVal,
                       RequestVal, ModuleVal, OpaqueModule)):
            return UNKNOWN
        index = self.eval_expr_slice(node.slice, env)
        if index is UNKNOWN:
            return UNKNOWN
        try:
            return base[index]
        except Exception:
            return UNKNOWN

    def _expr_Starred(self, node, env):
        return self.eval_expr(node.value, env)

    def _expr_JoinedStr(self, node, env):
        parts = []
        for part in node.values:
            if isinstance(part, ast.Constant):
                parts.append(str(part.value))
            else:
                value = self.eval_expr(part.value, env)
                if value is UNKNOWN or isinstance(
                        value, (ObjVal, CommVal, RequestVal, FuncVal,
                                BoundVal, ClassVal, ModuleVal,
                                OpaqueModule)):
                    return UNKNOWN
                try:
                    parts.append(format(value, part.format_spec.values[0].value
                                        if part.format_spec else ""))
                except Exception:
                    return UNKNOWN
        return "".join(parts)

    def _expr_FormattedValue(self, node, env):
        return self.eval_expr(node.value, env)

    def _expr_Lambda(self, node, env):
        defaults = tuple(self.eval_expr(d, env) for d in node.args.defaults)
        return FuncVal(node=node, env=env, name="<lambda>",
                       defaults=defaults)

    def _expr_ListComp(self, node, env):
        return self._comprehension(node, env, "list")

    def _expr_SetComp(self, node, env):
        return self._comprehension(node, env, "set")

    def _expr_GeneratorExp(self, node, env):
        return self._comprehension(node, env, "list")

    def _expr_DictComp(self, node, env):
        return self._comprehension(node, env, "dict")

    def _comprehension(self, node, env, kind):
        out = [] if kind != "dict" else {}

        def rec(gen_idx, scope):
            gen = node.generators[gen_idx]
            items = self._concrete_iter(self.eval_expr(gen.iter, scope))
            if items is None:
                if _contains_comm_call(node):
                    raise Incomplete("comprehension over an unknown "
                                     "iterable contains MPI calls",
                                     node.lineno, node.col_offset)
                raise _ComprehensionUnknown()
            for item in items:
                inner = Env(scope)
                self.assign_target(gen.target, item, inner)
                keep = True
                for cond in gen.ifs:
                    truth = _truth(self.eval_expr(cond, inner))
                    if truth is None:
                        raise _ComprehensionUnknown()
                    if not truth:
                        keep = False
                        break
                if not keep:
                    continue
                if gen_idx + 1 < len(node.generators):
                    rec(gen_idx + 1, inner)
                elif kind == "dict":
                    key = self.eval_expr(node.key, inner)
                    if key is UNKNOWN:
                        raise _ComprehensionUnknown()
                    out[key] = self.eval_expr(node.value, inner)
                else:
                    out.append(self.eval_expr(node.elt, inner))

        try:
            rec(0, Env(env))
        except _ComprehensionUnknown:
            return UNKNOWN
        if kind == "set":
            try:
                return set(out)
            except Exception:
                return UNKNOWN
        return out

    # -- calls -------------------------------------------------------------

    def _expr_Call(self, node, env):
        self.cur_loc = (node.lineno, node.col_offset)
        callee = self.eval_expr(node.func, env)
        args = []
        for a in node.args:
            if isinstance(a, ast.Starred):
                items = self._concrete_iter(self.eval_expr(a.value, env))
                if items is None:
                    args.append(UNKNOWN)
                else:
                    args.extend(items)
            else:
                args.append(self.eval_expr(a, env))
        kwargs = {}
        for kw in node.keywords:
            if kw.arg is None:
                merged = self.eval_expr(kw.value, env)
                if isinstance(merged, dict) and all(
                        isinstance(k, str) for k in merged):
                    kwargs.update(merged)
                else:
                    return self._call_opaque(args + list(kwargs.values()),
                                             node)
            else:
                kwargs[kw.arg] = self.eval_expr(kw.value, env)
        return self.call_value(callee, args, kwargs, node)

    def call_value(self, callee, args, kwargs, node):
        if callee is UNKNOWN:
            return self._call_opaque(args + list(kwargs.values()), node)
        if isinstance(callee, FuncVal):
            return self.call_function(callee, args, kwargs)
        if isinstance(callee, BoundVal):
            return self.call_function(callee.fn, [callee.recv] + args,
                                      kwargs)
        if isinstance(callee, ClassVal):
            return self._instantiate(callee, args, kwargs)
        if isinstance(callee, ModelFn):
            return callee(*args, **kwargs)
        if isinstance(callee, (ObjVal, CustomDtypeMarker, ModuleVal,
                               OpaqueModule, CommVal, RequestVal)):
            return self._call_opaque(args + list(kwargs.values()), node)
        # A real callable.
        if callable(callee):
            return self._call_native(callee, args, kwargs, node)
        return UNKNOWN

    def _call_opaque(self, values, node):
        """Unknown callee: requests escape, communicators must not."""
        has_comm, has_req, _ = _scan_abstract(values)
        if has_comm:
            raise Incomplete("communicator passed to code outside the "
                             "abstract domain", node.lineno,
                             node.col_offset)
        if has_req:
            _mark_escaped(values)
        return UNKNOWN

    def _call_native(self, callee, args, kwargs, node):
        values = args + list(kwargs.values())
        if _comm_whitelisted(callee) or _container_method(callee):
            try:
                return self._wrap_native(callee(*args, **kwargs))
            except Incomplete:
                raise
            except _AbortRank:
                raise
            except Exception:
                return UNKNOWN
        has_comm, has_req, has_other = _scan_abstract(values)
        if has_comm:
            raise Incomplete(
                f"communicator passed to "
                f"{getattr(callee, '__name__', 'native code')}()",
                node.lineno, node.col_offset)
        if has_req:
            _mark_escaped(values)
            return UNKNOWN
        if has_other:
            return UNKNOWN
        try:
            return self._wrap_native(callee(*args, **kwargs))
        except Exception:
            return UNKNOWN

    def _wrap_native(self, value):
        import types
        if isinstance(value, types.ModuleType):
            return ModuleVal(value)
        return value

    def _instantiate(self, cls: ClassVal, args, kwargs):
        obj = ObjVal(cls)
        init = cls.members.get("__init__")
        if isinstance(init, FuncVal):
            self.call_function(init, [obj] + args, kwargs)
        elif args or kwargs:
            # Unmodelled construction (e.g. inherited __init__).
            obj.havocked = True
        return obj

    def call_function(self, fv: FuncVal, args, kwargs):
        if fv.is_generator:
            return UNKNOWN
        self.depth += 1
        if self.depth > _CALL_DEPTH_LIMIT:
            self.depth -= 1
            raise Incomplete("call depth limit exceeded (recursion?)")
        try:
            env = Env(fv.env)
            a = fv.node.args
            params = [p.arg for p in list(a.posonlyargs) + list(a.args)]
            npos = len(params)
            bound = dict(zip(params, args[:npos]))
            rest = list(args[npos:])
            if a.vararg is not None:
                bound[a.vararg.arg] = tuple(rest)
            # defaults right-align onto params
            defaults = fv.defaults
            for i, name in enumerate(params):
                if name in bound:
                    continue
                if name in kwargs:
                    bound[name] = kwargs.pop(name)
                    continue
                from_end = npos - i
                if from_end <= len(defaults):
                    bound[name] = defaults[len(defaults) - from_end]
                else:
                    bound[name] = UNKNOWN
            for p in a.kwonlyargs:
                if p.arg in kwargs:
                    bound[p.arg] = kwargs.pop(p.arg)
                elif p.arg in fv.kw_defaults:
                    bound[p.arg] = fv.kw_defaults[p.arg]
                else:
                    bound[p.arg] = UNKNOWN
            if a.kwarg is not None:
                bound[a.kwarg.arg] = dict(kwargs)
            env.vars.update(bound)
            if isinstance(fv.node, ast.Lambda):
                return self.eval_expr(fv.node.body, env)
            try:
                self.exec_body(fv.node.body, env)
            except _ReturnSig as sig:
                return sig.value
            return None
        finally:
            self.depth -= 1


class _ComprehensionUnknown(Exception):
    pass


def _as_load(target):
    """Copy of an assignment target usable as a Load expression."""
    import copy
    node = copy.deepcopy(target)
    for n in ast.walk(node):
        if hasattr(n, "ctx"):
            n.ctx = ast.Load()
    return node


# --------------------------------------------------------------------------
# Per-file driver
# --------------------------------------------------------------------------

@dataclass
class FlowReport:
    """Outcome of flow analysis on one file."""

    path: str
    has_main: bool = False
    #: True when every evaluated job size was fully interpreted (so the
    #: matching verdict is authoritative and RPD301 heuristics can yield).
    complete: bool = False
    nprocs_used: tuple = ()
    findings: list = field(default_factory=list)


def find_main(tree: ast.Module) -> Optional[ast.FunctionDef]:
    """The ``main(comm)`` entry point: a top-level function with exactly
    one required positional parameter."""
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "main":
            a = stmt.args
            if len(a.posonlyargs) + len(a.args) == 1 and not a.defaults \
                    and a.vararg is None and not a.kwonlyargs:
                return stmt
    return None


def pinned_nprocs(tree: ast.Module) -> Optional[int]:
    """Job size the file pins: an ``NPROCS``/``NRANKS``/``PROCS`` module
    attribute, or a literal ``run(main, nprocs=K)`` call."""
    consts: dict = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name) \
                and isinstance(stmt.value, ast.Constant) \
                and isinstance(stmt.value.value, int):
            consts[stmt.targets[0].id] = stmt.value.value
    for attr in NPROCS_ATTRS:
        if attr in consts:
            return consts[attr]
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "run":
            for kw in node.keywords:
                if kw.arg == "nprocs":
                    if isinstance(kw.value, ast.Constant) \
                            and isinstance(kw.value.value, int):
                        return kw.value.value
                    if isinstance(kw.value, ast.Name):
                        return consts.get(kw.value.id)
    return None


def _run_config(tree, path, nprocs):
    """Interpret all ranks at one job size.  Returns (traces, None) or
    (None, Incomplete)."""
    traces = {}
    for rank in range(nprocs):
        interp = _Interp(tree, path, nprocs, rank)
        try:
            traces[rank] = interp.run()
        except Incomplete as inc:
            return None, inc, None
        except RecursionError:
            return None, Incomplete("interpreter recursion limit"), None
        except (_ReturnSig, _BreakSig, _ContinueSig):
            return None, Incomplete("control flow escaped main()"), None
    return traces, None, interp.datatypes_seen


def analyze_flow_source(source: str, path: str = "<string>",
                        nprocs: Optional[list] = None) -> FlowReport:
    """Run the communication-flow verifier over one program source."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError:
        # lint_file owns the RPD300 report for unparseable files.
        return FlowReport(path=path)
    if find_main(tree) is None:
        return FlowReport(path=path)

    pinned = pinned_nprocs(tree)
    if nprocs:
        configs = [n for n in nprocs if n >= 2]
        witnesses = []
    elif pinned is not None:
        configs = [pinned] if pinned >= 2 else []
        witnesses = []
    else:
        configs = list(DEFAULT_NPROCS)
        witnesses = list(SYMBOLIC_WITNESS_NPROCS)

    findings: list = []
    seen_keys: set = set()
    incomplete: Optional[tuple] = None    # (nprocs, Incomplete)
    analyzed: tuple = ()
    dtypes: dict = {}

    def run_sizes(sizes) -> bool:
        nonlocal incomplete, analyzed
        ok = True
        for n in sizes:
            traces, inc, seen = _run_config(tree, path, n)
            if inc is not None:
                ok = False
                if incomplete is None:
                    incomplete = (n, inc)
                continue
            analyzed = analyzed + (n,)
            dtypes.update(seen or {})
            for diag in TraceReplay(traces, path=path,
                                    context=f"nprocs={n}").run():
                key = (diag.code, diag.line, diag.col)
                if key not in seen_keys:
                    seen_keys.add(key)
                    findings.append(diag)
        return ok

    base_ok = run_sizes(configs)
    if base_ok and witnesses:
        # The symbolic-"N" pass: only meaningful once the explicit sizes
        # interpret cleanly.
        base_ok = run_sizes(witnesses)

    if incomplete is not None:
        n, inc = incomplete
        findings.append(Diagnostic(
            "RPD530",
            f"flow analysis incomplete at nprocs={n}: {inc.reason}; "
            f"matching falls back to the per-file heuristics",
            hint="keep ranks, tags and counts derived from comm.rank/"
                 "comm.size and literals for full static verification",
            file=path, line=inc.line, col=inc.col))

    # Statically constructed datatypes also get the RPD1xx validity pass
    # (the typecheck.py reuse hook).
    from .typecheck import analyze_datatype
    for dtype, line, col in dtypes.values():
        try:
            for diag in analyze_datatype(dtype, path=path):
                key = (diag.code, line, col, diag.subject)
                if key not in seen_keys:
                    seen_keys.add(key)
                    findings.append(Diagnostic(
                        diag.code, diag.message, hint=diag.hint, file=path,
                        line=line, col=col, subject=diag.subject))
        except Exception:
            pass

    return FlowReport(path=path, has_main=True,
                      complete=incomplete is None and bool(analyzed),
                      nprocs_used=analyzed, findings=findings)


def analyze_flow_file(path: str, nprocs: Optional[list] = None) -> FlowReport:
    """Run the communication-flow verifier over one file on disk."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
    except (OSError, UnicodeDecodeError):
        return FlowReport(path=path)
    return analyze_flow_source(source, path=os.fspath(path), nprocs=nprocs)
