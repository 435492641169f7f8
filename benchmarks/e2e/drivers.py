"""Closed-loop drivers: the rank functions and the job submitter.

One ``run()`` (or one ``JobService`` per case) lives for a whole workload;
everything up to the first timed operation is set-up.  Rank 0 is the
controller: it announces each block to rank 1 with a small control message
(case, phase, operation count), runs one untimed oracle-checked operation,
the timed operations, and one more checked operation.  Rank 1 only serves.

Blocks are short (:data:`BLOCK_SECONDS`) and many: the blocks of all cases
are interleaved in rounds, each round shuffled from the seed, so every case
samples the whole run and a noise burst does not always hit the same one.
Operation counts adapt per block so a block keeps its length whatever
regime the host is in.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from functools import partial

import numpy as np

from repro.mpi import Request
from repro.types import (make_struct_simple, manual_pack_struct_simple,
                         struct_simple_datatype)

from . import workloads as wl

TAG_CTRL, TAG_PING, TAG_PONG, TAG_STREAM, TAG_ACK, TAG_XCHG = 9, 1, 2, 3, 4, 5

#: Messages per window in the "stream" phase.
WINDOW = 64

#: Warm-up per (case, phase): at least this many operations ...
WARMUP_OPS = 50
#: ... unless they would take longer than this (16 MiB round trips).
WARMUP_SECONDS = 0.4
#: Target length of a timed block, and the fewest operations in one.
BLOCK_SECONDS = 0.06
MIN_BLOCK_OPS = 4
#: Rounds (blocks per case and phase) a timed phase has at least.
MIN_ROUNDS = 3

#: Application messages per operation of each phase.
MSGS_PER_OP = {"rt": 2, "stream": WINDOW, "xchg": 2,
               "job": 2 * wl.SERVE_ITERS}


def block_seconds(seconds: float, nunits: int) -> float:
    """Block length for a timed phase of ``seconds``: BLOCK_SECONDS, or
    less when even MIN_ROUNDS rounds of that would not fit (the selftest's
    half-second runs)."""
    return min(BLOCK_SECONDS, seconds / (MIN_ROUNDS * nunits))


def plan_rounds(units: list, op_s: dict, check_s: dict, seconds: float,
                seed: int) -> list:
    """The timed phase's block order: as many rounds over ``units`` as fit
    in ``seconds``, each round shuffled from ``seed``.

    ``op_s[u]`` is the unit's seconds per operation, ``check_s[u]`` what
    its two boundary checks cost.
    """
    if seconds <= 0:
        return []
    blk = block_seconds(seconds, len(units))
    per_round = sum(max(blk, MIN_BLOCK_OPS * op_s[u]) + check_s[u]
                    for u in units)
    rounds = max(MIN_ROUNDS, int(seconds / per_round))
    rng = random.Random(seed)
    order = []
    for _ in range(rounds):
        rnd = list(units)
        rng.shuffle(rnd)
        order.extend(rnd)
    return order


def block_ops(blk_seconds: float, op_seconds: float, phase: str,
              max_msgs: int | None) -> int:
    """Operations in the next block of a unit whose operations currently
    take ``op_seconds``; ``max_msgs`` caps a traced block's span volume."""
    n = max(MIN_BLOCK_OPS, int(blk_seconds / op_seconds))
    if max_msgs is not None:
        n = min(n, max(MIN_BLOCK_OPS, max_msgs // MSGS_PER_OP[phase]))
    return n


def pin(cpus: int, slot: int = 0) -> None:
    """Restrict this process to ``cpus`` CPUs; with one CPU, ``slot``
    selects which of the allowed ones (counted from the top, where fewer
    kernel threads live)."""
    allowed = sorted(os.sched_getaffinity(0), reverse=True)
    if cpus >= len(allowed):
        return
    if cpus == 1:
        os.sched_setaffinity(0, {allowed[slot % len(allowed)]})
    else:
        os.sched_setaffinity(0, set(allowed[:cpus]))


# ---------------------------------------------------------------------------
# timed loops (rank 0) and their serving halves (rank 1)
# ---------------------------------------------------------------------------

def rt_timed(comm, case, n: int) -> tuple[int, list[int]]:
    """``n`` echo round trips; returns (start, latencies) in ns.  The
    operations tile the interval: one clock read per operation."""
    lat = []
    now = time.perf_counter_ns
    t = start = now()
    for _ in range(n):
        case.send(comm, 1, TAG_PING)
        case.recv(comm, 1, TAG_PONG)
        t2 = now()
        lat.append(t2 - t)
        t = t2
    return start, lat


def rt_serve(comm, case, n: int, corrupt: bool) -> None:
    for _ in range(n):
        case.recv(comm, 0, TAG_PING)
        if corrupt:
            case.corrupt_received()
        case.echo(comm, 0, TAG_PONG)


def stream_timed(comm, case, n: int) -> tuple[int, list[int]]:
    """``n`` windows of WINDOW one-way messages, each closed by a 1-byte
    ack; one latency sample per window."""
    ack = np.zeros(1, dtype=np.uint8)
    lat = []
    now = time.perf_counter_ns
    t = start = now()
    for _ in range(n):
        reqs = [case.isend(comm, 1, TAG_STREAM) for _ in range(WINDOW)]
        Request.waitall(reqs)
        comm.recv(ack, 1, TAG_ACK)
        t2 = now()
        lat.append(t2 - t)
        t = t2
    return start, lat


def stream_serve(comm, case, n: int, corrupt: bool) -> None:
    ack = np.ones(1, dtype=np.uint8)
    for _ in range(n):
        reqs = [case.irecv(comm, 0, TAG_STREAM) for _ in range(WINDOW)]
        Request.waitall(reqs)
        comm.send(ack, 0, TAG_ACK)


def xchg_timed(comm, case, n: int) -> tuple[int, list[int]]:
    peer = 1 - comm.rank
    lat = []
    now = time.perf_counter_ns
    t = start = now()
    for _ in range(n):
        sreq = case.isend(comm, peer, TAG_XCHG)
        case.recv(comm, peer, TAG_XCHG)
        sreq.wait()
        t2 = now()
        lat.append(t2 - t)
        t = t2
    return start, lat


def xchg_serve(comm, case, n: int, corrupt: bool) -> None:
    xchg_timed(comm, case, n)


_TIMED = {"rt": rt_timed, "stream": stream_timed, "xchg": xchg_timed}
_SERVE = {"rt": rt_serve, "stream": stream_serve, "xchg": xchg_serve}
PHASES = tuple(_TIMED)


def _checked_op(comm, case, phase: str) -> bool:
    """One untimed operation whose result goes through the oracle."""
    case.clear()
    if phase == "xchg":
        xchg_timed(comm, case, 1)
    else:
        rt_timed(comm, case, 1)
    return case.ok()


def _serve_checked_op(comm, case, phase: str, corrupt: bool) -> None:
    case.clear()
    if phase == "xchg":
        xchg_timed(comm, case, 1)
    else:
        rt_serve(comm, case, 1, corrupt)


# ---------------------------------------------------------------------------
# the rank function
# ---------------------------------------------------------------------------

def mpi_rank(comm, cfg: dict):
    """Rank body of the four MPI workloads.  ``cfg`` (a plain dict, so it
    crosses the shm fork): seed, seconds, phases, transport, cpus, corrupt,
    trace, max_block_msgs, and ``cases`` — each rank's prebuilt case
    objects (a rank process inherits its own through the fork)."""
    if cfg["trace"]:
        from . import trace
        trace.set_rank(comm.rank, whole_process=cfg["transport"] == "shm")
    if cfg["transport"] == "shm" and cfg["cpus"] > 1:
        # One CPU per rank process.
        pin(1, slot=comm.rank)
    cases = cfg["cases"][comm.rank]
    if comm.rank == 0:
        out = _controller(comm, cases, cfg)
    else:
        out = _server(comm, cases, cfg)
    if cfg["trace"] and cfg["transport"] == "shm":
        # A rank process's spans (rank thread + demux thread) can only
        # leave it through the rank function's result.
        out["spans"] = trace.drain()
    return out


def _announce(comm, ci: int, phase: str, n: int, timed: bool) -> None:
    ctrl = np.array([ci, PHASES.index(phase) if phase else 0, n, timed],
                    dtype=np.int64)
    comm.send(ctrl, 1, TAG_CTRL)


def _block(comm, cases, ci: int, phase: str, n: int, timed: bool) -> dict:
    case = cases[ci]
    _announce(comm, ci, phase, n, timed)
    ok_before = _checked_op(comm, case, phase)
    c0 = time.process_time()
    # The last two operations are timed like the rest but bracketed by
    # reads of the virtual clock: an eager exchange alternates between two
    # virtual costs, so a pair — after at least two operations have settled
    # the ranks' clocks — is what repeats exactly, whatever n is.
    t0, lat = _TIMED[phase](comm, case, n - 2)
    v0 = comm.clock.now
    t1, last = _TIMED[phase](comm, case, 2)
    virtual_op_s = (comm.clock.now - v0) / 2
    cpu = time.process_time() - c0
    ok_after = _checked_op(comm, case, phase)
    return {"case": ci, "phase": phase, "n": n, "t0_ns": t0,
            "wall_ns": t1 + sum(last) - t0,
            "lat_ns": np.asarray(lat + last, dtype=np.int64), "cpu_s": cpu,
            "virtual_op_s": virtual_op_s,
            "ok": bool(ok_before and ok_after)}


def _controller(comm, cases, cfg: dict) -> dict:
    from repro.core import plan_cache_info
    units = [(ci, phase) for ci in range(len(cases))
             for phase in cfg["phases"]]
    op_s: dict[tuple[int, str], float] = {}
    check_s: dict[tuple[int, str], float] = {}

    # Warm-up: every (case, phase) once, long enough to fill the pools and
    # the plan cache; its last operations also size the first timed block.
    warm_ok = True
    for ci, phase in units:
        n, done, spent = MIN_BLOCK_OPS, 0, 0.0
        while True:
            t0 = time.perf_counter()
            blk = _block(comm, cases, ci, phase, n, timed=False)
            whole = time.perf_counter() - t0
            warm_ok = warm_ok and blk["ok"]
            took = blk["wall_ns"] / 1e9
            spent += took
            done += n
            if done >= WARMUP_OPS or spent >= WARMUP_SECONDS:
                break
            n = max(MIN_BLOCK_OPS,
                    min(WARMUP_OPS - done, int(0.1 * n / took)))
        op_s[(ci, phase)] = took / n
        check_s[(ci, phase)] = whole - took

    order = plan_rounds(units, op_s, check_s, cfg["seconds"], cfg["seed"])
    blk_s = block_seconds(cfg["seconds"], len(units))
    plan0 = plan_cache_info()
    mem0 = comm.memory.snapshot()
    first_timed = time.time()
    blocks = []
    for ci, phase in order:
        n = block_ops(blk_s, op_s[(ci, phase)], phase,
                      cfg["max_block_msgs"])
        blk = _block(comm, cases, ci, phase, n, timed=True)
        # Size the next block of this unit from the operations just seen
        # (median, so one stall does not shrink it).
        op_s[(ci, phase)] = float(np.median(blk["lat_ns"])) / 1e9
        blocks.append(blk)
    plan1 = plan_cache_info()
    mem1 = comm.memory.snapshot()
    _announce(comm, -1, "", 0, False)
    return {"blocks": blocks, "first_timed": first_timed,
            "digests": [c.digest() for c in cases],
            "packed_bytes": [c.packed_bytes for c in cases],
            "warm_ok": warm_ok, "memory": (mem0, mem1),
            "plan_cache": (plan0, plan1)}


def _server(comm, cases, cfg: dict) -> dict:
    ctrl = np.zeros(4, dtype=np.int64)
    corrupt = cfg["corrupt"]
    if corrupt and "xchg" in cfg["phases"]:
        for case in cases:
            case.corrupt(case.sbuf)
    cpu = []
    mem0 = None
    while True:
        comm.recv(ctrl, 0, TAG_CTRL)
        ci, pi, n, timed = (int(x) for x in ctrl)
        if ci < 0:
            break
        if timed and mem0 is None:
            mem0 = comm.memory.snapshot()
        case, phase = cases[ci], PHASES[pi]
        _serve_checked_op(comm, case, phase, corrupt)
        c0 = time.process_time()
        _SERVE[phase](comm, case, n, corrupt)
        if timed:
            cpu.append(time.process_time() - c0)
        _serve_checked_op(comm, case, phase, corrupt)
    mem1 = comm.memory.snapshot()
    return {"cpu_s": cpu, "memory": (mem0 or mem1, mem1)}


# ---------------------------------------------------------------------------
# serve_jobs
# ---------------------------------------------------------------------------

def struct_job(comm, sbuf, corrupt: bool, trace_on: bool):
    """One job: the body of ``repro.serve.workloads.struct_pingpong_job``
    (datatype built and committed inside the job, fresh receive buffers),
    with rank 0 returning what came back so the oracle can see it."""
    if trace_on:
        from . import trace
        trace.set_rank(comm.rank)
    dtype = struct_simple_datatype()
    count = wl.SERVE_COUNT
    rbuf = make_struct_simple(count)
    if comm.rank == 0:
        for _ in range(wl.SERVE_ITERS):
            comm.send(sbuf, 1, 31, datatype=dtype, count=count)
            comm.recv(rbuf, 1, 32, datatype=dtype, count=count)
        return rbuf
    for _ in range(wl.SERVE_ITERS):
        comm.recv(rbuf, 0, 31, datatype=dtype, count=count)
        if corrupt:
            rbuf.view(np.uint8).reshape(-1)[0] ^= 0xFF
        comm.send(rbuf, 0, 32, datatype=dtype, count=count)
    return None


class JobLoop:
    """One ``JobService`` with ``inflight`` jobs kept in flight by the one
    submitter thread (the caller)."""

    def __init__(self, name: str, inflight: int, seed: int, corrupt: bool,
                 trace_on: bool):
        from repro.serve import JobService, JobSpec
        self.name = name
        self.inflight = inflight
        self.service = JobService(slots=inflight, max_queue=8,
                                  name=f"e2e-{name}")
        sbuf = wl.serve_send_buffer(seed)
        self.expected = manual_pack_struct_simple(sbuf)
        self.spec = JobSpec(fn=partial(struct_job, sbuf=sbuf,
                                       corrupt=corrupt, trace_on=trace_on),
                            name=name, nprocs=2)
        self.packed_bytes = 20 * wl.SERVE_COUNT
        self.digest = hashlib.sha256(
            sbuf.view(np.uint8).reshape(-1)).hexdigest()

    def _finish(self, blk: dict, t_submit: float, handle) -> None:
        """Wait for one job, check its output, book it into ``blk``."""
        handle.wait()
        blk["lat_ns"].append(int((handle.finished_at - t_submit) * 1e9))
        result = handle.result
        if handle.status != "completed" or not np.array_equal(
                manual_pack_struct_simple(result.results[0]), self.expected):
            blk["bad"] += 1
        if result is not None:
            blk["virtual_op_s"] = result.max_clock
            pool = blk["pool"]
            for snap in result.memory:
                pool["hits"] += snap["pool"]["hits"]
                pool["misses"] += snap["pool"]["misses"]
                pool["allocations"] += snap["allocation_count"]
                pool["peak_bytes"] = max(pool["peak_bytes"],
                                         snap["peak_bytes"])

    def run_block(self, n: int) -> dict:
        """``n`` jobs, closed loop; every job's output is checked."""
        blk = {"phase": "job", "n": n, "lat_ns": [], "bad": 0,
               "virtual_op_s": 0.0,
               "pool": {"hits": 0, "misses": 0, "allocations": 0,
                        "peak_bytes": 0}}
        pending = []
        submit = self.service.submit
        c0 = time.process_time()
        blk["t0_ns"] = time.perf_counter_ns()
        for _ in range(n):
            if len(pending) == self.inflight:
                self._finish(blk, *pending.pop(0))
            t_submit = time.monotonic()
            pending.append((t_submit, submit(self.spec)))
        for item in pending:
            self._finish(blk, *item)
        blk["wall_ns"] = time.perf_counter_ns() - blk["t0_ns"]
        blk["cpu_s"] = time.process_time() - c0
        blk["lat_ns"] = np.asarray(blk["lat_ns"], dtype=np.int64)
        blk["ok"] = blk["bad"] == 0
        return blk

    def close(self) -> dict:
        return self.service.shutdown(drain=True, timeout=10.0)
