"""Wall-clock perf harness: pack plans vs the retained reference engine.

Measures real elapsed time (``time.perf_counter``), not virtual fabric time:

* whole-message ``pack``/``unpack`` throughput over the derived-type corpus,
* the fragment pipeline at ``frag_size`` granularity — :class:`PackCursor` /
  :class:`UnpackCursor` against the pre-plan per-fragment window engine,
* end-to-end ``repro.mpi.run()`` message rate with a derived datatype,
* a DDTBench round-trip subset.

Every sample is the median of ``k`` trials; a plan-vs-reference ratio (and
each pack guideline ratio) is the median of ``k`` per-pair ratios, the two
sides' trials alternated.  Results are written to
``BENCH_perf.json`` at the repo root.  With ``--check`` the harness enforces
the regression gates: windowed pack/unpack on non-contiguous types, and
whole-message pack/unpack on ``struct-simple`` and ``vector-f64``, must beat
the reference engine by the required factors; the Hunold/Träff
self-consistency guidelines must hold (a derived pack does not lose to the
hand-written pack — nor a derived round trip to manual pack + contiguous
send end to end, with a custom-datatype round trip within 1.25x of it — and
``count=n`` of T does not lose to ``count=1`` of ``contiguous(n, T)``); and
throughput must stay above the checked-in floors in ``baseline.json``.

Usage::

    PYTHONPATH=src python benchmarks/perf/run.py [--quick] [--check]
                                                 [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from benchmarks.perf.corpus import CorpusEntry, build_corpus  # noqa: E402
from repro.core import FLOAT64, contiguous, vector  # noqa: E402
from repro.core.packing import (pack, pack_reference, pack_window_reference,
                                unpack, unpack_reference,
                                unpack_window_reference)  # noqa: E402
from repro.core.packplan import PackCursor, UnpackCursor  # noqa: E402
from repro.core.typecache import clear_plan_cache  # noqa: E402
from repro.ddtbench.registry import make_workload  # noqa: E402
from repro.mpi.runtime import run  # noqa: E402
from repro.types import (make_struct_simple, manual_pack_struct_simple,
                         manual_unpack_struct_simple,
                         struct_simple_custom_datatype,
                         struct_simple_datatype)  # noqa: E402

FRAG_SIZE = 8192          # the fabric's pipeline granularity (LinkParams)
MIN_TRIAL_SECONDS = 4e-3  # calibrate reps until one trial takes this long
# Windowed plan-vs-reference gate (--check). The reference engine shares the
# typemap's memoized size/bounds accessors, which made it ~3x faster; the
# ratio is therefore looser than it was, and absolute regressions are caught
# by the baseline.json throughput floors instead.
SPEEDUP_FLOOR = 1.5
# Whole-message plan-vs-reference gate (--check) on the two layouts the
# word-wide kernels exist for: a struct (one Record) and a strided vector
# (one 8-byte-unit loop).  The reference engine copies uint8 columns.
WHOLE_MESSAGE_FLOOR = 2.0
WHOLE_MESSAGE_GATED = ("struct-simple", "vector-f64")
# Hunold/Traeff self-consistency guidelines (PAPERS.md), as time ratios the
# --check gate caps: a derived-datatype pack must not lose to the user's
# own vectorized pack of the same struct, and count=n of T must stay within
# 10% of count=1 of contiguous(n, T).
DERIVED_OVER_MANUAL_CEILING = 1.0
COUNT_N_OVER_CONTIG_N_CEILING = 1.1
# The same guideline end to end: a steady-state derived send/recv round trip
# must not lose to manual pack + contiguous BYTE send/recv + manual unpack.
# Winnable only because the library copies no more often than the user
# would: two passes over the payload (pack, unpack) on both sides.
DERIVED_OVER_MANUAL_E2E_CEILING = 1.0
# The paper's own claim, same measurement: a custom-datatype round trip (pack
# callbacks straight into the wire buffer) stays within 1.25x of manual pack
# + contiguous send (ROADMAP's ceiling for the custom path).
CUSTOM_OVER_MANUAL_E2E_CEILING = 1.25
BASELINE_PATH = Path(__file__).with_name("baseline.json")
# Multi-core scaling gate: at 4 ranks the shm backend (one process per
# rank, packing in parallel into shared arenas) must reach at least this
# multiple of inproc's aggregate pack bandwidth on non-contiguous DDTBench
# kernels.  Only enforceable on a machine with >= 4 cores — the GIL vs
# multi-core comparison is meaningless on fewer — so the gate records and
# skips elsewhere (see bench_shm_scaling).
SHM_SCALING_FLOOR = 2.0
SHM_SCALING_MIN_CORES = 4
# Job-service gate: one service slot running N small jobs must reach at
# least this fraction of back-to-back run() throughput on the same jobs —
# i.e. admission, queueing, quota plumbing and warm-set recycling may not
# eat more than the complement of this.  Warm buffer pools typically win
# the overhead back, so this floor has real slack for CI-machine noise.
JOB_SERVICE_FLOOR = 0.70


def _calibrated_reps(fn) -> int:
    """Reps of ``fn()`` per trial, so that one trial is long enough for the
    clock."""
    reps = 1
    while True:
        elapsed = _trial_seconds(fn, reps) * reps
        if elapsed >= MIN_TRIAL_SECONDS or reps >= 4096:
            return reps
        reps *= 2 if elapsed <= 0 else max(
            2, int(MIN_TRIAL_SECONDS / max(elapsed, 1e-9) * 1.3))


def _trial_seconds(fn, reps: int) -> float:
    t0 = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - t0) / reps


def _median_seconds(fn, k: int) -> float:
    """Median of ``k`` timed trials of ``fn()``, reps auto-calibrated so a
    single trial is long enough for the clock."""
    reps = _calibrated_reps(fn)
    return statistics.median(_trial_seconds(fn, reps) for _ in range(k))


def _paired_seconds(fn, other, k: int) -> tuple[float, float, float]:
    """``k`` trials of ``fn`` and ``other``, alternated: ``(median fn
    seconds, median other seconds, median of the per-pair ratios other /
    fn)``.  Both trials of a pair run back to back, so a shift in host
    speed moves both and leaves their ratio alone — timing every trial of
    one side before the other let it skew the ratio either way."""
    reps, other_reps = _calibrated_reps(fn), _calibrated_reps(other)
    pairs = [(_trial_seconds(fn, reps), _trial_seconds(other, other_reps))
             for _ in range(k)]
    return (statistics.median(a for a, _ in pairs),
            statistics.median(b for _, b in pairs),
            statistics.median(b / a for a, b in pairs))


def _mb_per_s(nbytes: int, seconds: float) -> float:
    return nbytes / seconds / 1e6


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------

def bench_whole_message(entry: CorpusEntry, k: int) -> dict:
    """Whole-message pack and unpack: plan engine vs reference."""
    d, src, n = entry.dtype, entry.src, entry.count
    nbytes = entry.packed_bytes
    out = np.empty(nbytes, dtype=np.uint8)
    packed = pack(d, src, n)
    dst = np.empty(np.asarray(src).nbytes, dtype=np.uint8).reshape(-1)

    return {
        "bytes": nbytes,
        "pack": _speedup(nbytes, k, lambda: pack(d, src, n, out=out),
                         lambda: pack_reference(d, src, n, out=out)),
        "unpack": _speedup(nbytes, k, lambda: unpack(d, dst, n, packed),
                           lambda: unpack_reference(d, dst, n, packed)),
    }


def _speedup(nbytes: int, k: int, plan, ref) -> dict:
    """Plan vs reference throughput; ``speedup`` is the median of the
    per-pair time ratios."""
    plan_s, ref_s, speedup = _paired_seconds(plan, ref, k)
    return {"plan_mb_s": _mb_per_s(nbytes, plan_s),
            "ref_mb_s": _mb_per_s(nbytes, ref_s),
            "speedup": speedup}


def bench_windowed(entry: CorpusEntry, k: int) -> dict:
    """The fragment pipeline: cursors vs per-fragment window calls."""
    d, src, n = entry.dtype, entry.src, entry.count
    total = entry.packed_bytes
    packed = pack(d, src, n)
    dst = np.empty(np.asarray(src).nbytes, dtype=np.uint8).reshape(-1)

    def plan_pack_pipeline():
        with PackCursor(d, src, n) as cur:
            off = 0
            while off < total:
                ln = min(FRAG_SIZE, total - off)
                cur.window(off, ln)
                off += ln

    def ref_pack_pipeline():
        off = 0
        while off < total:
            ln = min(FRAG_SIZE, total - off)
            pack_window_reference(d, src, n, off, ln)
            off += ln

    def plan_unpack_pipeline():
        with UnpackCursor(d, dst, n) as cur:
            off = 0
            while off < total:
                ln = min(FRAG_SIZE, total - off)
                cur.write(off, packed[off:off + ln])
                off += ln

    def ref_unpack_pipeline():
        off = 0
        while off < total:
            ln = min(FRAG_SIZE, total - off)
            unpack_window_reference(d, dst, n, off, packed[off:off + ln])
            off += ln

    return {
        "bytes": total, "frag_size": FRAG_SIZE,
        "window_pack": _speedup(total, k, plan_pack_pipeline,
                                ref_pack_pipeline),
        "window_unpack": _speedup(total, k, plan_unpack_pipeline,
                                  ref_unpack_pipeline),
    }


def bench_guidelines(entry: CorpusEntry, k: int) -> dict:
    """Sibling paths that must police each other, on ``struct-simple``:
    plan pack vs ``manual_pack_struct_simple`` (both allocate their
    output), and ``count=n`` of T vs ``count=1`` of ``contiguous(n, T)``."""
    d, src, n = entry.dtype, entry.src, entry.count
    whole = contiguous(n, d)
    out = np.empty(entry.packed_bytes, dtype=np.uint8)
    assert bytes(pack(d, src, n)) == bytes(manual_pack_struct_simple(src))
    assert bytes(pack(whole, src, 1)) == bytes(pack(d, src, n))
    manual, derived, derived_ratio = _paired_seconds(
        lambda: manual_pack_struct_simple(src), lambda: pack(d, src, n), k)
    contig_n, count_n, count_n_ratio = _paired_seconds(
        lambda: pack(whole, src, 1, out=out), lambda: pack(d, src, n, out=out),
        k)
    return {
        "derived_over_manual": {
            "bytes": entry.packed_bytes,
            "derived_us": derived * 1e6, "manual_us": manual * 1e6,
            "ratio": derived_ratio,
            "ceiling": DERIVED_OVER_MANUAL_CEILING},
        "count_n_over_contig_n": {
            "bytes": entry.packed_bytes, "count": n,
            "count_n_us": count_n * 1e6, "contig_n_us": contig_n * 1e6,
            "ratio": count_n_ratio,
            "ceiling": COUNT_N_OVER_CONTIG_N_CEILING},
    }


_VEC_SPAN = 31  # doubles per vector(16, 1, 2, FLOAT64) element


def _vec_slab(buf: np.ndarray) -> np.ndarray:
    return buf.reshape(-1, _VEC_SPAN)[:, ::2]


def _vec_unpack(packed: np.ndarray, buf: np.ndarray) -> None:
    _vec_slab(buf)[...] = packed.view(np.float64).reshape(-1, 16)


_MILC = make_workload("MILC")

#: name -> (derived datatype or None, custom datatype or None, count,
#:          make buffer, manual pack, manual unpack)
E2E_LAYOUTS = {
    "struct-simple-4m": (
        struct_simple_datatype, struct_simple_custom_datatype,
        (4 << 20) // 20, make_struct_simple,
        manual_pack_struct_simple, manual_unpack_struct_simple),
    "vector-f64-16m": (
        lambda: vector(16, 1, 2, FLOAT64), None, (16 << 20) // 128,
        lambda n: np.arange(n * _VEC_SPAN, dtype=np.float64),
        lambda buf: np.ascontiguousarray(_vec_slab(buf)).view(np.uint8)
        .reshape(-1), _vec_unpack),
    "milc-96k": (
        None, _MILC.custom_pack_datatype, 1,
        lambda n: _MILC.make_send_buffer(),
        _MILC.manual_pack, _MILC.manual_unpack),
}


def _e2e_guideline_main(layout: str, warmup: int, trips: int):
    make_derived, make_custom, count, make_buf, manual_pack, manual_unpack = \
        E2E_LAYOUTS[layout]

    def main(comm):
        sbuf, rbuf = make_buf(count), make_buf(count)
        landed = np.empty_like(manual_pack(sbuf))
        peer = 1 - comm.rank

        def typed_trip(dtype, tag):
            def trip():
                if comm.rank == 0:
                    comm.send(sbuf, peer, tag, datatype=dtype, count=count)
                    comm.recv(rbuf, peer, tag + 1, datatype=dtype,
                              count=count)
                else:
                    comm.recv(rbuf, peer, tag, datatype=dtype, count=count)
                    comm.send(rbuf, peer, tag + 1, datatype=dtype,
                              count=count)
            return trip

        def manual_trip():
            if comm.rank == 0:
                comm.send(manual_pack(sbuf), peer, 43)
                comm.recv(landed, peer, 44)
                manual_unpack(landed, rbuf)
            else:
                comm.recv(landed, peer, 43)
                manual_unpack(landed, rbuf)
                comm.send(manual_pack(rbuf), peer, 44)

        # Alternate the trips so a slow phase of the host slows them all.
        trips_of = {"manual": manual_trip}
        if make_derived is not None:
            trips_of["derived"] = typed_trip(make_derived(), 41)
        if make_custom is not None:
            trips_of["custom"] = typed_trip(make_custom(), 45)
        samples = {name: [] for name in trips_of}
        for i in range(warmup + trips):
            for name, trip in trips_of.items():
                rbuf.view(np.uint8)[...] = 0
                t0 = time.perf_counter()
                trip()
                if i >= warmup:
                    samples[name].append(time.perf_counter() - t0)
                assert np.array_equal(manual_pack(rbuf), manual_pack(sbuf)), \
                    (layout, name)
        return {name: statistics.median(v) for name, v in samples.items()}

    return main


def bench_guideline_e2e(trips: int) -> dict:
    """``derived_over_manual_e2e`` and ``custom_over_manual_e2e``:
    steady-state round trips inside one ``run()`` (inproc), a derived and a
    custom-datatype send/recv each against manual pack + contiguous BYTE
    send/recv + manual unpack.  The gated ratio is the worst layout."""
    ceilings = {"derived": DERIVED_OVER_MANUAL_E2E_CEILING,
                "custom": CUSTOM_OVER_MANUAL_E2E_CEILING}
    layouts = {family: {} for family in ceilings}
    for layout in E2E_LAYOUTS:
        rank0 = run(_e2e_guideline_main(layout, warmup=3, trips=trips),
                    nprocs=2, transport="inproc", timeout=600.0).results[0]
        for family in rank0.keys() & ceilings.keys():
            layouts[family][layout] = {
                f"{family}_us": rank0[family] * 1e6,
                "manual_us": rank0["manual"] * 1e6,
                "ratio": rank0[family] / rank0["manual"]}
    return {f"{family}_over_manual_e2e": {
                "layouts": rows, "trips": trips,
                "ratio": max(v["ratio"] for v in rows.values()),
                "ceiling": ceilings[family]}
            for family, rows in layouts.items()}


def _pingpong_main(iters: int, count: int):
    dtype = struct_simple_datatype()

    def main(comm):
        sbuf = make_struct_simple(count)
        rbuf = make_struct_simple(count)
        if comm.rank == 0:
            for _ in range(iters):
                comm.send(sbuf, 1, 11, datatype=dtype, count=count)
                comm.recv(rbuf, 1, 12, datatype=dtype, count=count)
        else:
            for _ in range(iters):
                comm.recv(rbuf, 0, 11, datatype=dtype, count=count)
                comm.send(rbuf, 0, 12, datatype=dtype, count=count)

    return main


def bench_message_rate(k: int, iters: int,
                       transport: str | None = None) -> dict:
    """End-to-end ``run()``: derived-datatype pingpong messages per second
    of wall-clock time (thread spawn included), plus the pool counters the
    job observed."""
    count = 128  # ~2.5 KiB packed: an eager-path message
    result = run(_pingpong_main(iters, count), nprocs=2,
                 transport=transport)
    seconds = _median_seconds(
        lambda: run(_pingpong_main(iters, count), nprocs=2,
                    transport=transport), k)
    pool = result.memory[0].get("pool", {})
    return {"iters": iters, "count": count,
            "transport": result.transport,
            "msgs_per_s": (2 * iters) / seconds,
            "seconds": seconds,
            "rank0_pool_hits": pool.get("hits", 0),
            "rank0_pool_misses": pool.get("misses", 0)}


def _ddt_roundtrip_main(name: str):
    def main(comm):
        w = make_workload(name)
        dtype = w.derived_datatype()
        if comm.rank == 0:
            comm.send(w.make_send_buffer(), 1, 21, datatype=dtype, count=1)
            comm.recv(w.make_recv_buffer(), 1, 22, datatype=dtype, count=1)
        else:
            rbuf = w.make_recv_buffer()
            comm.recv(rbuf, 0, 21, datatype=dtype, count=1)
            comm.send(rbuf, 0, 22, datatype=dtype, count=1)

    return main


def bench_ddtbench(names: list[str], k: int,
                   transport: str | None = None) -> dict:
    """Round-trip one element of each workload's derived type end-to-end."""
    out = {}
    for name in names:
        seconds = _median_seconds(
            lambda name=name: run(_ddt_roundtrip_main(name), nprocs=2,
                                  transport=transport), k)
        out[name] = {"seconds": seconds}
    return out


def _scaling_main(name: str, iters: int):
    """All ranks shift one derived-type message around a ring per iter, so
    every rank packs and unpacks concurrently — the aggregate-bandwidth
    shape where per-rank processes beat GIL-sharing threads."""
    def main(comm):
        w = make_workload(name)
        dtype = w.derived_datatype()
        dst = (comm.rank + 1) % comm.size
        src = (comm.rank - 1) % comm.size
        sbuf = w.make_send_buffer()
        rbuf = w.make_recv_buffer()
        for _ in range(iters):
            sreq = comm.isend(sbuf, dst, 31, datatype=dtype, count=1)
            comm.recv(rbuf, src, 31, datatype=dtype, count=1)
            sreq.wait()

    return main


def bench_shm_scaling(names: list[str], nprocs: int, iters: int,
                      k: int) -> dict:
    """Multi-core scaling: aggregate derived-type pack bandwidth of an
    ``nprocs``-rank ring exchange, inproc (threads, one core under the
    GIL) vs shm (one process per rank packing into shared arenas).

    The ``shm_vs_inproc`` ratio is the tentpole claim of the transport
    layer; the --check floor (``SHM_SCALING_FLOOR``) is enforced only on
    machines with at least ``SHM_SCALING_MIN_CORES`` cores — elsewhere the
    numbers are recorded with an explicit skip reason (a 1-core container
    cannot exhibit multi-core scaling, only its overheads).
    """
    from repro.core.packing import packed_size
    from repro.ucp.transport import available_transports

    cpu_count = os.cpu_count() or 1
    avail = available_transports()
    out = {"nprocs": nprocs, "iters": iters, "cpu_count": cpu_count,
           "floor": SHM_SCALING_FLOOR, "kernels": {}}
    if avail.get("shm"):
        out["enforced"] = False
        out["skip_reason"] = f"shm transport unavailable: {avail['shm']}"
    elif cpu_count < SHM_SCALING_MIN_CORES:
        out["enforced"] = False
        out["skip_reason"] = (
            f"host has {cpu_count} core(s); the {SHM_SCALING_FLOOR:.0f}x "
            f"floor needs >= {SHM_SCALING_MIN_CORES} (ratios recorded, "
            f"not enforced)")
    else:
        out["enforced"] = True
        out["skip_reason"] = ""

    backends = ["inproc"] + ([] if avail.get("shm") else ["shm"])
    for name in names:
        w = make_workload(name)
        per_msg = packed_size(w.derived_datatype(), 1)
        total = per_msg * iters * nprocs
        entry = {"bytes_per_msg": per_msg, "aggregate_bytes": total}
        for t in backends:
            seconds = _median_seconds(
                lambda name=name, t=t: run(_scaling_main(name, iters),
                                           nprocs=nprocs, transport=t,
                                           timeout=600.0), k)
            entry[t] = {"seconds": seconds,
                        "agg_mb_s": _mb_per_s(total, seconds)}
        if "inproc" in entry and "shm" in entry:
            entry["shm_vs_inproc"] = (entry["shm"]["agg_mb_s"]
                                      / entry["inproc"]["agg_mb_s"])
        out["kernels"][name] = entry
    return out


def bench_job_service(jobs: int, k: int) -> dict:
    """Job-service throughput vs back-to-back ``run()`` of the same jobs.

    Two configurations of :class:`repro.serve.JobService` run ``jobs``
    identical small pingpong jobs: one slot (apples-to-apples with the
    sequential baseline — the gap is pure scheduler overhead, minus what
    warm buffer pools win back) and two slots (what the service is for).
    The ``--check`` gate enforces ``JOB_SERVICE_FLOOR`` on the one-slot
    ratio: queueing, admission, quota plumbing and warm-set recycling
    together must not cost more than that fraction of raw ``run()``.
    """
    from repro.serve import JobService, JobSpec
    from repro.serve.workloads import pingpong_job

    fn = pingpong_job(iters=4, nbytes=1024)

    def back_to_back():
        for _ in range(jobs):
            run(fn, nprocs=2)

    def service(slots: int):
        svc = JobService(slots=slots, max_queue=jobs)
        for i in range(jobs):
            svc.submit(JobSpec(fn=fn, name=f"bench-{i}"))
        svc.wait_idle()
        svc.shutdown()

    base_s = _median_seconds(back_to_back, k)
    serial_s = _median_seconds(lambda: service(1), k)
    parallel_s = _median_seconds(lambda: service(2), k)
    base_rate = jobs / base_s
    serial_rate = jobs / serial_s
    return {
        "jobs": jobs,
        "back_to_back_jobs_per_s": base_rate,
        "service_1slot_jobs_per_s": serial_rate,
        "service_2slot_jobs_per_s": jobs / parallel_s,
        #: >= 1 means the service (warm pools included) beats raw run().
        "ratio_1slot": serial_rate / base_rate,
        "scheduler_overhead_ms_per_job": (serial_s - base_s) / jobs * 1e3,
        "floor": JOB_SERVICE_FLOOR,
    }


def bench_protomodel(nranks: int, depth: int) -> dict:
    """Model-checker throughput: states explored per second of wall clock
    over the builtin scenario suite (the `proto-verify` CI job's cost)."""
    from repro.analyze.protomodel import verify_shipped

    report = verify_shipped(nranks=nranks, depth=depth)
    return {"nranks": nranks, "depth": depth,
            "scenarios": len(report.results),
            "states": report.states,
            "transitions": sum(r.transitions for r in report.results),
            "seconds": report.elapsed,
            "states_per_s": report.states_per_s,
            "clean": not report.diagnostics}


def bench_races() -> dict:
    """Race-analyzer throughput: fabric files audited per second of wall
    clock over the shipped audit set (the `race-audit` CI job's cost)."""
    from repro.analyze.races import analyze_paths, shipped_audit_paths

    t0 = time.perf_counter()
    findings, nfiles, _audit = analyze_paths(shipped_audit_paths())
    seconds = time.perf_counter() - t0
    return {"files": nfiles,
            "findings": len(findings),
            "seconds": seconds,
            "files_per_s": nfiles / seconds if seconds else float("inf"),
            "clean": not findings}


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

def check_results(report: dict) -> list[str]:
    """The --check gates; returns a list of human-readable failures."""
    failures = []
    for name, entry in report["corpus"].items():
        if entry["contiguous"]:
            continue
        for section in ("window_pack", "window_unpack"):
            sp = entry[section]["speedup"]
            if sp < SPEEDUP_FLOOR:
                failures.append(
                    f"{section}/{name}: plan speedup {sp:.2f}x is below the "
                    f"required {SPEEDUP_FLOOR:.1f}x")
    for name in WHOLE_MESSAGE_GATED:
        for section in ("pack", "unpack"):
            sp = report["corpus"][name][section]["speedup"]
            if sp < WHOLE_MESSAGE_FLOOR:
                failures.append(
                    f"{section}/{name}: whole-message plan speedup "
                    f"{sp:.2f}x is below the required "
                    f"{WHOLE_MESSAGE_FLOOR:.1f}x")
    for name, g in report["guidelines"].items():
        if g["ratio"] > g["ceiling"]:
            failures.append(
                f"guideline/{name}: time ratio {g['ratio']:.2f} is above "
                f"the {g['ceiling']:.1f} ceiling (a sibling path is "
                f"faster)")
    if BASELINE_PATH.exists():
        floors = json.loads(BASELINE_PATH.read_text())["floors_mb_s"]
        for key, floor in floors.items():
            section, _, name = key.partition("/")
            entry = report["corpus"].get(name)
            if entry is None or section not in entry:
                continue
            got = entry[section]["plan_mb_s"]
            if got < floor:
                failures.append(
                    f"{key}: {got:.0f} MB/s is below the baseline floor "
                    f"{floor:.0f} MB/s (>2x regression)")
    else:
        failures.append(f"baseline file missing: {BASELINE_PATH}")
    js = report.get("job_service")
    if js is not None and js["ratio_1slot"] < js["floor"]:
        failures.append(
            f"job_service: one-slot service throughput is "
            f"{js['ratio_1slot']:.2f}x of back-to-back run(); the floor "
            f"is {js['floor']:.2f}x (scheduler overhead regression)")
    pm = report.get("protomodel")
    if pm is not None and not pm["clean"]:
        failures.append("protomodel: shipped protocol has model-checker "
                        "findings (run `repro-analyze proto`)")
    ra = report.get("races")
    if ra is not None and not ra["clean"]:
        failures.append("races: shipped fabric has race-audit findings "
                        "(run `repro-analyze races --strict`)")
    sc = report.get("shm_scaling")
    if sc is not None and sc.get("enforced"):
        for name, entry in sc["kernels"].items():
            ratio = entry.get("shm_vs_inproc")
            if ratio is None:
                failures.append(f"shm_scaling/{name}: no shm measurement")
            elif ratio < sc["floor"]:
                failures.append(
                    f"shm_scaling/{name}: shm aggregate pack bandwidth is "
                    f"{ratio:.2f}x inproc at {sc['nprocs']} ranks; the "
                    f"floor is {sc['floor']:.1f}x")
    return failures


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="smaller corpus and fewer trials (CI smoke mode)")
    ap.add_argument("--check", action="store_true",
                    help="enforce speedup and baseline-floor gates")
    ap.add_argument("--out", type=Path,
                    default=REPO_ROOT / "BENCH_perf.json",
                    help="where to write the JSON report")
    ap.add_argument("--transport", default=None,
                    help="transport backend for the end-to-end sections "
                         "(inproc/shm/asyncio; default: $REPRO_TRANSPORT, "
                         "else inproc).  The scaling section always "
                         "compares inproc vs shm regardless")
    args = ap.parse_args(argv)

    k = 3 if args.quick else 5
    target = (1 << 18) if args.quick else (1 << 20)
    ddt_names = ["WRF_x_vec", "MILC"] if args.quick \
        else ["WRF_x_vec", "WRF_y_vec", "MILC"]

    clear_plan_cache()
    report = {"schema": 1, "mode": "quick" if args.quick else "full",
              "k": k, "target_bytes": target, "corpus": {}}
    corpus = build_corpus(target)
    for entry in corpus:
        stats = {"contiguous": entry.contiguous}
        stats.update(bench_whole_message(entry, k))
        stats.update(bench_windowed(entry, k))
        report["corpus"][entry.name] = stats
        w = stats["window_pack"]
        print(f"{entry.name:24s} {stats['bytes']:>9d} B  "
              f"window_pack {w['plan_mb_s']:8.0f} MB/s "
              f"(ref {w['ref_mb_s']:8.0f}, {w['speedup']:5.2f}x)")

    report["guidelines"] = bench_guidelines(
        next(e for e in corpus if e.name == "struct-simple"), k)
    report["guidelines"].update(bench_guideline_e2e(
        trips=9 if args.quick else 25))
    for name, g in report["guidelines"].items():
        print(f"{'guideline ' + name:34s} {g['ratio']:5.2f} "
              f"(ceiling {g['ceiling']:.1f})")

    report["message_rate"] = bench_message_rate(k, iters=50 if args.quick
                                                else 200,
                                                transport=args.transport)
    print(f"{'derived pingpong':24s} "
          f"{report['message_rate']['msgs_per_s']:8.0f} msgs/s "
          f"({report['message_rate']['transport']})")
    report["ddtbench_roundtrip"] = bench_ddtbench(ddt_names, k,
                                                  transport=args.transport)

    report["shm_scaling"] = bench_shm_scaling(
        ["WRF_x_vec", "MILC"], nprocs=4,
        iters=4 if args.quick else 16, k=min(k, 3))
    sc = report["shm_scaling"]
    for name, entry in sc["kernels"].items():
        ratio = entry.get("shm_vs_inproc")
        shown = f"{ratio:5.2f}x shm/inproc" if ratio is not None \
            else "shm unavailable"
        print(f"{'scaling ' + name:24s} "
              f"{entry['inproc']['agg_mb_s']:8.0f} MB/s inproc  {shown}"
              f"{'' if sc['enforced'] else '  [not enforced]'}")
    if sc["skip_reason"]:
        print(f"{'scaling gate':24s} skipped: {sc['skip_reason']}")

    report["job_service"] = bench_job_service(jobs=8 if args.quick else 24,
                                              k=min(k, 3))
    js = report["job_service"]
    print(f"{'job service':24s} "
          f"{js['service_1slot_jobs_per_s']:8.0f} jobs/s 1-slot "
          f"({js['ratio_1slot']:.2f}x of back-to-back, "
          f"{js['service_2slot_jobs_per_s']:.0f} jobs/s 2-slot)")

    report["protomodel"] = bench_protomodel(nranks=2 if args.quick else 3,
                                            depth=60)
    pm = report["protomodel"]
    print(f"{'protocol model check':24s} {pm['states_per_s']:8.0f} states/s "
          f"({pm['states']} states, {pm['scenarios']} scenarios, "
          f"{'clean' if pm['clean'] else 'FINDINGS'})")

    report["races"] = bench_races()
    ra = report["races"]
    print(f"{'race audit':24s} {ra['files_per_s']:8.0f} files/s "
          f"({ra['files']} files, "
          f"{'clean' if ra['clean'] else 'FINDINGS'})")

    failures = check_results(report) if args.check else []
    report["checks"] = {"enforced": args.check, "failures": failures}

    # A re-record keeps the numbers it replaces: the previous recording's
    # own "before" block if it has one, else its rows.
    if args.out.exists():
        prev = json.loads(args.out.read_text())
        report["before"] = prev.get("before") or {
            key: prev[key] for key in ("corpus", "message_rate",
                                       "guidelines", "ddtbench_roundtrip")
            if key in prev}

    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
