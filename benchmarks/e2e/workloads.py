"""The five workloads: their cases, seeded inputs and oracles.

Everything here is built from the public API only (``repro.core``,
``repro.types``, ``repro.ddtbench.make_workload``, ``repro.serial``); no
driver is shared with ``repro.bench.cases`` or ``benchmarks/perf``, so a
change to those cannot alter a workload.

A *case* is one message shape.  Each rank builds its own case objects from
``(workload, seed, rank)``: rank 0 owns the seeded send data and the
expected bytes, rank 1 echoes out of its receive buffer, so a byte damaged
anywhere on the round trip reaches rank 0's oracle.  Oracles are the
manual-pack routines (``manual_pack_struct_*``, ``Workload.manual_pack``,
numpy slicing, ``DoubleVec`` / ``ComplexObject`` equality + ``validate()``)
— never the engine under test.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.core import FLOAT64, vector
from repro.ddtbench import make_workload
from repro.serial import get_strategy
from repro.serial.objects import make_complex_object
from repro.types import (STRUCT_SIMPLE, STRUCT_SIMPLE_NO_GAP, DoubleVec,
                         double_vec_custom_datatype,
                         manual_pack_struct_simple,
                         manual_unpack_struct_simple,
                         manual_unpack_struct_simple_no_gap,
                         struct_simple_custom_datatype,
                         struct_simple_datatype,
                         struct_simple_no_gap_custom_datatype,
                         struct_simple_no_gap_datatype)

KIB = 1024
MIB = 1024 * 1024

#: vector(16, 1, 2, FLOAT64): 16 doubles taken from a span of 31.
_VEC_BLOCKS, _VEC_STRIDE = 16, 2
_VEC_SPAN = (_VEC_BLOCKS - 1) * _VEC_STRIDE + 1


def _rng(seed: int, *salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, *salt])


def _fill_random(buf: np.ndarray, rng: np.random.Generator) -> None:
    """Overwrite every byte of ``buf`` (any dtype) with seeded bytes.

    Oracles compare bytes, so NaN bit patterns in float fields are fine.
    """
    flat = buf.view(np.uint8).reshape(-1)
    # In 1 MiB pieces: a 32 MB temporary would double the set-up's fresh
    # memory for nothing.
    for lo in range(0, flat.shape[0], MIB):
        piece = flat[lo:lo + MIB]
        piece[:] = rng.integers(0, 256, size=piece.shape[0], dtype=np.uint8)


class BufferCase:
    """A numpy buffer moved under ``datatype`` x ``count``.

    Covers the derived cases, the DDTBench cases and the custom datatypes
    whose buffers are plain arrays.  ``pack_fn``/``unpack_fn`` are the
    manual routines the oracle (and the selftest's corruption) use.
    """

    def __init__(self, name: str, datatype, count: int, sbuf: np.ndarray,
                 rbuf: np.ndarray, pack_fn, unpack_fn, packed_bytes: int,
                 expected: np.ndarray | None):
        self.name = name
        self.datatype = datatype
        self.count = count
        self.sbuf = sbuf
        self.rbuf = rbuf
        self.pack_fn = pack_fn
        self.unpack_fn = unpack_fn
        self.packed_bytes = packed_bytes
        #: Manual-packed bytes rank 0 must get back (None on rank 1 of an
        #: echo workload, which checks nothing).
        self.expected = expected
        #: For the layer pass: ``(datatype, count)`` under which the derived
        #: engine / the custom callbacks move this same buffer, or None.
        #: ``own`` names the family the case itself is sent with.
        self.derived = self.custom = None
        self.own = "derived"

    def send(self, comm, dest: int, tag: int) -> None:
        comm.send(self.sbuf, dest, tag, datatype=self.datatype,
                  count=self.count)

    def recv(self, comm, source: int, tag: int) -> None:
        comm.recv(self.rbuf, source, tag, datatype=self.datatype,
                  count=self.count)

    def echo(self, comm, dest: int, tag: int) -> None:
        comm.send(self.rbuf, dest, tag, datatype=self.datatype,
                  count=self.count)

    def isend(self, comm, dest: int, tag: int):
        return comm.isend(self.sbuf, dest, tag, datatype=self.datatype,
                          count=self.count)

    def irecv(self, comm, source: int, tag: int):
        return comm.irecv(self.rbuf, source, tag, datatype=self.datatype,
                          count=self.count)

    def clear(self) -> None:
        self.rbuf.view(np.uint8).reshape(-1)[:] = 0

    def ok(self) -> bool:
        return bool(np.array_equal(self.pack_fn(self.rbuf), self.expected))

    def corrupt(self, outgoing: np.ndarray) -> None:
        """Flip the first payload byte of ``outgoing`` (selftest only)."""
        packed = np.array(self.pack_fn(outgoing), copy=True)
        packed.view(np.uint8).reshape(-1)[0] ^= 0xFF
        self.unpack_fn(packed, outgoing)

    def corrupt_received(self) -> None:
        self.corrupt(self.rbuf)

    def digest(self) -> str:
        return hashlib.sha256(
            self.sbuf.view(np.uint8).reshape(-1)).hexdigest()

    # -- layer-pass inputs ---------------------------------------------------

    def send_object(self):
        return self.sbuf

    def recv_object(self):
        return self.rbuf

    def manual_pack(self) -> np.ndarray:
        """The manual pack as a program would do it: into a fresh packed
        buffer (``pack_fn`` may hand the oracle a view)."""
        packed = self.pack_fn(self.sbuf)
        if np.may_share_memory(packed, self.sbuf):
            packed = np.array(packed, copy=True)
        return packed


class DoubleVecCase:
    """``DoubleVec`` through the custom datatype: lengths in-band, the
    sub-vectors as regions (IOV)."""

    def __init__(self, name: str, obj: DoubleVec):
        self.name = name
        self.datatype = double_vec_custom_datatype()
        self.count = 1
        self.obj = obj
        self.got: DoubleVec | None = None
        self.packed_bytes = obj.total_bytes
        self.expected = obj.manual_pack()
        self.derived = None
        self.custom = (self.datatype, 1)
        self.own = "custom"

    def send_object(self):
        return self.obj

    def recv_object(self):
        return DoubleVec()

    def manual_pack(self) -> np.ndarray:
        return self.obj.manual_pack()

    def send(self, comm, dest, tag):
        comm.send(self.obj, dest, tag, datatype=self.datatype)

    def recv(self, comm, source, tag):
        # A fresh receive object per message: its sub-vectors are allocated
        # from the in-band lengths, which is part of what the paper times.
        self.got = DoubleVec()
        comm.recv(self.got, source, tag, datatype=self.datatype)

    def echo(self, comm, dest, tag):
        comm.send(self.got, dest, tag, datatype=self.datatype)

    def clear(self) -> None:
        self.got = None

    def ok(self) -> bool:
        return (self.got is not None and self.got == self.obj
                and bool(np.array_equal(self.got.manual_pack(),
                                        self.expected)))

    def corrupt_received(self) -> None:
        self.got.vectors[0][0] ^= 1

    def digest(self) -> str:
        return hashlib.sha256(self.expected).hexdigest()


class PickleCase:
    """A ``ComplexObject`` through the ``pickle-oob-cdt`` strategy."""

    def __init__(self, name: str, obj):
        self.name = name
        self.strategy = get_strategy("pickle-oob-cdt")
        self.datatype = None
        self.count = 1
        self.obj = obj
        self.got = None
        self.packed_bytes = obj.total_bytes
        self.derived = self.custom = None
        self.own = "pickle"

    def send_object(self):
        return self.obj

    def send(self, comm, dest, tag):
        self.strategy.send(comm, self.obj, dest, tag)

    def recv(self, comm, source, tag):
        self.got = self.strategy.recv(comm, source, tag)

    def echo(self, comm, dest, tag):
        self.strategy.send(comm, self.got, dest, tag)

    def clear(self) -> None:
        self.got = None

    def ok(self) -> bool:
        return (self.got is not None and self.got == self.obj
                and self.got.validate())

    def corrupt_received(self) -> None:
        chunk = self.got.chunks[0]
        if not chunk.flags.writeable:
            chunk = self.got.chunks[0] = chunk.copy()
        chunk.view(np.uint8)[0] ^= 0xFF

    def digest(self) -> str:
        h = hashlib.sha256()
        for chunk in self.obj.chunks:
            h.update(chunk.view(np.uint8))
        return h.hexdigest()


# ---------------------------------------------------------------------------
# case builders
# ---------------------------------------------------------------------------

def _struct_case(name, count, seed, salt, rank, datatype) -> BufferCase:
    rbuf = np.zeros(count, dtype=STRUCT_SIMPLE)
    sbuf = expected = None
    if rank == 0:
        sbuf = np.empty(count, dtype=STRUCT_SIMPLE)
        _fill_random(sbuf, _rng(seed, salt))
        expected = manual_pack_struct_simple(sbuf)
    case = BufferCase(name, datatype, count, sbuf, rbuf,
                      manual_pack_struct_simple, manual_unpack_struct_simple,
                      20 * count, expected)
    if datatype.is_custom:
        case.own = "custom"
        case.derived = (struct_simple_datatype(), count)
        case.custom = (datatype, count)
    else:
        case.derived = (datatype, count)
        case.custom = (struct_simple_custom_datatype(), count)
    return case


def _nogap_case(name, count, seed, salt, rank) -> BufferCase:
    rbuf = np.zeros(count, dtype=STRUCT_SIMPLE_NO_GAP)
    sbuf = expected = None
    if rank == 0:
        sbuf = np.empty(count, dtype=STRUCT_SIMPLE_NO_GAP)
        _fill_random(sbuf, _rng(seed, salt))
        expected = _nogap_pack(sbuf)
    case = BufferCase(name, struct_simple_no_gap_datatype(), count, sbuf,
                      rbuf, _nogap_pack, manual_unpack_struct_simple_no_gap,
                      16 * count, expected)
    case.derived = (case.datatype, count)
    case.custom = (struct_simple_no_gap_custom_datatype(), count)
    return case


def _vec_pack(buf: np.ndarray) -> np.ndarray:
    """The packed doubles, by numpy slicing — a strided *view* (16 MiB
    copies per oracle check would only churn memory), as int64 so that NaN
    bit patterns compare equal to themselves."""
    return buf.view(np.int64).reshape(-1, _VEC_SPAN)[:, ::_VEC_STRIDE]


def _vec_unpack(packed: np.ndarray, buf: np.ndarray) -> None:
    _vec_pack(buf)[...] = packed


def _nogap_pack(arr: np.ndarray) -> np.ndarray:
    """A gap-free struct packs to its own bytes: a view, not a copy."""
    return arr.view(np.uint8).reshape(-1)


def _vector_case(name, count, seed, salt, rank) -> BufferCase:
    # The datatype's extent ends at the last block, so element i starts at
    # double i * _VEC_SPAN.
    datatype = vector(_VEC_BLOCKS, 1, _VEC_STRIDE, FLOAT64).commit()
    rbuf = np.zeros(count * _VEC_SPAN, dtype=np.float64)
    sbuf = expected = None
    if rank == 0:
        sbuf = np.empty(count * _VEC_SPAN, dtype=np.float64)
        _fill_random(sbuf, _rng(seed, salt))
        expected = _vec_pack(sbuf)
    case = BufferCase(name, datatype, count, sbuf, rbuf, _vec_pack,
                      _vec_unpack, 8 * _VEC_BLOCKS * count, expected)
    case.derived = (datatype, count)
    return case


def _ddt_case(name, ddt_name, method, seed, salt, rank,
              exchange: bool) -> BufferCase:
    """A DDTBench workload under its derived / custom-pack / custom-region
    datatype.  ``exchange`` (halo): both ranks send their own seeded data
    and each expects the peer's."""
    w = make_workload(ddt_name)
    datatype = {"derived": w.derived_datatype,
                "custom-pack": w.custom_pack_datatype,
                "custom-region": w.custom_region_datatype}[method]()
    rbuf = w.make_recv_buffer()
    sbuf = expected = None
    if exchange:
        sbuf = w.make_send_buffer()
        _fill_random(sbuf, _rng(seed, salt, rank))
        peer = w.make_send_buffer()
        _fill_random(peer, _rng(seed, salt, 1 - rank))
        expected = np.array(w.manual_pack(peer), copy=True).view(
            np.uint8).reshape(-1)
    elif rank == 0:
        sbuf = w.make_send_buffer()
        _fill_random(sbuf, _rng(seed, salt))
        expected = np.array(w.manual_pack(sbuf), copy=True).view(
            np.uint8).reshape(-1)

    def pack_fn(buf):
        return np.asarray(w.manual_pack(buf)).view(np.uint8).reshape(-1)

    case = BufferCase(name, datatype, 1, sbuf, rbuf, pack_fn,
                      w.manual_unpack, w.packed_bytes, expected)
    if method == "derived":
        case.derived = (datatype, 1)
        case.custom = (w.custom_pack_datatype(), 1)
    else:
        case.own = "custom"
        case.derived = (w.derived_datatype(), 1)
        case.custom = (datatype, 1)
    return case


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    transport: str
    #: CPUs the subprocess may use (thread ranks share the GIL, so one).
    cpus: int
    #: Timed phases, run for every case: "rt" (echo round trip), "stream"
    #: (64-message window + 1-byte ack), "xchg" (bidirectional exchange),
    #: "job" (submit -> completed through a JobService).
    phases: tuple[str, ...]
    #: Declared tail percentile of ``rt_tail_us``.
    tail_q: float
    case_names: tuple[str, ...]


WORKLOADS: dict[str, WorkloadSpec] = {w.name: w for w in (
    WorkloadSpec(
        "eager_small",
        "20 B and 2.5 KB derived messages: per-message fixed cost in "
        "repro.mpi requests, repro.ucp tag match/pool/wire and the inproc "
        "hand-off does ~75% of the work, repro.core <25%",
        "inproc", 1, ("rt", "stream"), 99.0,
        ("struct20", "struct2k")),
    WorkloadSpec(
        "rndv_large",
        "4-16 MiB rendezvous messages: repro.core pack/unpack and repro.ucp "
        "staging copies dominate, per-message cost <2%; nogap_16m bypasses "
        "pack, so a pack change must leave it flat",
        "inproc", 1, ("rt",), 75.0,
        ("struct_gap_4m", "vector_f64_16m", "nogap_16m")),
    WorkloadSpec(
        "custom_callbacks",
        "the paper's custom datatypes: seven callbacks, IOV regions, "
        "handler delivery, no plan cache; pack-callback vs region cases "
        "split the GENERIC path from the IOV path",
        "inproc", 1, ("rt",), 90.0,
        ("dvec_custom_256k", "struct_custom_256k", "milc_custom_pack",
         "milc_custom_region", "pickle_oob_cdt_1m")),
    WorkloadSpec(
        "halo_shm",
        "DDTBench halo exchanges over transport=shm, one process per rank: "
        "both ranks pack at once on two cores and every message crosses "
        "the envelope, arena, ACK and process wake-up",
        "shm", 2, ("xchg",), 95.0,
        ("milc", "wrf_x_vec", "nas_lu_y", "lammps")),
    WorkloadSpec(
        "serve_jobs",
        "small struct-pingpong jobs through JobService with 1 and 2 jobs "
        "in flight: admission, queue, warm-set bank and per-job run() spawn "
        "do most of the work, the 8 messages per job little",
        "inproc", 1, ("job",), 95.0,
        ("slots1", "slots2")),
)}

_DDT_NAMES = {"milc": "MILC", "wrf_x_vec": "WRF_x_vec",
              "nas_lu_y": "NAS_LU_y", "lammps": "LAMMPS"}

#: serve_jobs: every job is ``SERVE_ITERS`` round trips of ``SERVE_COUNT``
#: struct-simple elements, as ``repro.serve.workloads.struct_pingpong_job``.
SERVE_ITERS = 4
SERVE_COUNT = 64


def build_cases(workload: str, seed: int, rank: int) -> list:
    """Rank ``rank``'s case objects, in declared order."""
    spec = WORKLOADS[workload]
    out = []
    for salt, name in enumerate(spec.case_names):
        if workload == "eager_small":
            count = {"struct20": 1, "struct2k": 128}[name]
            out.append(_struct_case(name, count, seed, salt, rank,
                                    struct_simple_datatype()))
        elif name == "struct_gap_4m":
            out.append(_struct_case(name, 4 * MIB // 20, seed, salt, rank,
                                    struct_simple_datatype()))
        elif name == "vector_f64_16m":
            out.append(_vector_case(name, 16 * MIB // (8 * _VEC_BLOCKS),
                                    seed, salt, rank))
        elif name == "nogap_16m":
            out.append(_nogap_case(name, 16 * MIB // 16, seed, salt, rank))
        elif name == "dvec_custom_256k":
            rng = _rng(seed, salt)
            vecs = [rng.integers(-2**31, 2**31 - 1, size=4 * KIB,
                                 dtype=np.int32) for _ in range(16)]
            out.append(DoubleVecCase(name, DoubleVec(vecs)))
        elif name == "struct_custom_256k":
            out.append(_struct_case(name, 256 * KIB // 20, seed, salt, rank,
                                    struct_simple_custom_datatype()))
        elif name in ("milc_custom_pack", "milc_custom_region"):
            out.append(_ddt_case(name, "MILC", name[5:].replace("_", "-"),
                                 seed, salt, rank, exchange=False))
        elif name == "pickle_oob_cdt_1m":
            out.append(PickleCase(name, make_complex_object(
                MIB, seed=seed * 1000 + salt)))
        elif workload == "halo_shm":
            out.append(_ddt_case(name, _DDT_NAMES[name], "derived", seed,
                                 salt, rank, exchange=True))
        elif workload == "serve_jobs":
            # Only the layer pass asks: the job's message, as a case.
            out.append(_struct_case(name, SERVE_COUNT, seed, 0, rank,
                                    struct_simple_datatype()))
        else:
            raise KeyError(f"{workload}: no builder for case {name!r}")
    return out


def serve_send_buffer(seed: int) -> np.ndarray:
    """The seeded struct-simple array every serve_jobs job sends."""
    sbuf = np.empty(SERVE_COUNT, dtype=STRUCT_SIMPLE)
    _fill_random(sbuf, _rng(seed, 0))
    return sbuf
