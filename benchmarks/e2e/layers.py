"""Per-layer metrics: the layer pass, the traced run and the counters.

Three sources feed the per-layer names (the table in README.md says which
end-to-end metric each should move):

A. the *layer pass* — direct calls into a layer's public functions with the
   workload's own datatypes and sizes, best of a few calibrated repeats;
B. the *traced run* — the workload run again with :mod:`trace` installed;
C. public counters the program already keeps (pool and plan-cache
   statistics, the virtual clock, ``JobService.report()``).

Every name is reported on every workload.  A layer the workload itself does
not exercise is measured on the workload's payload through that layer
(e.g. the custom callbacks over struct-simple on ``eager_small``), and a
handful of *fixed probes* (other backends, the guideline ratios, a one-slot
probe service) do not depend on the workload at all.
"""

from __future__ import annotations

import json
import os
import pickle
import statistics
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from repro.core import (BYTE, CustomRecvOperation, CustomSendOperation,
                        PackCursor, UnpackCursor, clear_plan_cache,
                        contiguous, pack, pack_plan, unpack)
from repro.ddtbench import make_workload
from repro.mpi import run
from repro.serial.pickle5 import dumps_oob, loads_oob
from repro.types import make_struct_simple, struct_simple_datatype
from repro.ucp.dtypes import ContigData
from repro.ucp.memory import BufferPool
from repro.ucp.netsim import CostModel, LinkParams
from repro.ucp.protocols import plan_send
from repro.ucp.tagmatch import TagMatcher
from repro.ucp.transport import decode_envelope, encode_envelope
from repro.ucp.wire import WireHeader, WireMessage

from . import drivers, estimator, trace, worker
from . import workloads as wl

FRAG_SIZE = LinkParams().frag_size

#: Per-layer names that are counts of the program, not timings: two runs
#: with the same seed must report them identically.
EXACT = ("ucp.netsim.virtual_us_per_op", "ucp.copy_amplification",
         "core.custom_callbacks_per_msg", "serial.oob_buffers_per_msg")

#: Pack/unpack executions on the critical path of one operation.
PACKS_PER_OP = {"rt": 2, "stream": 2, "xchg": 1,
                "job": drivers.MSGS_PER_OP["job"]}


def quiet_quarter(samples) -> float:
    """Median of the quietest quarter of a short series of samples — how
    the end-to-end estimator would read it."""
    return min(float(np.median(c))
               for c in np.array_split(np.asarray(samples), 4) if len(c))


class Budget:
    """How hard the layer pass works, scaled from ``--seconds``."""

    def __init__(self, seconds: float):
        full = seconds >= 8
        self.trials = 5 if full else 2
        self.min_trial_ns = 2_000_000 if full else 200_000
        self.probe_ops = 200 if full else 20

    def best_us(self, fn) -> float:
        """Best of ``trials`` timings of ``fn()``, each trial repeated
        until it lasts ``min_trial_ns``."""
        now = time.perf_counter_ns
        reps = 1
        while True:
            t0 = now()
            for _ in range(reps):
                fn()
            took = now() - t0
            if took >= self.min_trial_ns or reps >= 1 << 16:
                break
            reps = max(reps * 2,
                       int(reps * self.min_trial_ns / max(took, 1) * 1.2))
        best = took
        for _ in range(self.trials - 1):
            t0 = now()
            for _ in range(reps):
                fn()
            best = min(best, now() - t0)
        return best / reps / 1e3


# ---------------------------------------------------------------------------
# A. the layer pass
# ---------------------------------------------------------------------------

def _derived_probes(case, b: Budget) -> dict:
    dt, count = case.derived
    src = case.send_object()
    nbytes = dt.size * count
    # One packed buffer serves as pack output and unpack input, and the
    # case's own receive buffer as unpack target: no second 16 MiB.
    packed = pack(dt, src, count)
    out = packed
    dst = case.recv_object()
    offsets = range(0, nbytes, FRAG_SIZE)

    def window_pack():
        with PackCursor(dt, src, count) as cur:
            for off in offsets:
                cur.window(off, min(FRAG_SIZE, nbytes - off))

    def window_unpack():
        with UnpackCursor(dt, dst, count) as cur:
            for off in offsets:
                cur.write(off, packed[off:off + FRAG_SIZE])

    def compile_plan():
        clear_plan_cache()
        pack_plan(dt, count)

    return {
        "core.pack_us": b.best_us(lambda: pack(dt, src, count, out=out)),
        "core.unpack_us": b.best_us(lambda: unpack(dt, dst, count, packed)),
        "core.window_pack_us": b.best_us(window_pack),
        "core.window_unpack_us": b.best_us(window_unpack),
        "core.plan_compile_us": b.best_us(compile_plan),
    }


def _custom_probes(case, b: Budget) -> dict:
    """Send- and receive-side callback drivers, timed step by step."""
    dt, count = case.custom
    src = case.send_object()
    now = time.perf_counter_ns
    best = {"pack": float("inf"), "unpack": float("inf"),
            "regions": float("inf")}
    ncallbacks = 0
    for _ in range(max(b.trials, 3)):
        t0 = now()
        with CustomSendOperation(dt, src, count) as sop:
            frags = sop.pack_fragments(FRAG_SIZE)
            t1 = now()
            regions = sop.regions()
            t2 = now()
        lens = [int(r.nbytes) for r in regions]
        t3 = now()
        with CustomRecvOperation(dt, case.recv_object(), count) as rop:
            off = 0
            for frag in frags:
                rop.unpack_fragment(off, frag)
                off += int(frag.shape[0])
            t4 = now()
            rop.recv_regions(lens)
            t5 = now()
        best["pack"] = min(best["pack"], t1 - t0)
        best["unpack"] = min(best["unpack"], t4 - t3)
        best["regions"] = min(best["regions"], (t2 - t1) + (t5 - t4))
        ncallbacks = sop.ncallbacks + rop.ncallbacks
    return {"core.custom_pack_us": best["pack"] / 1e3,
            "core.custom_unpack_us": best["unpack"] / 1e3,
            "core.custom_regions_us": best["regions"] / 1e3,
            "core.custom_callbacks_per_msg": float(ncallbacks)}


def _serial_probes(case, b: Budget) -> dict:
    obj = case.send_object()
    header, buffers = dumps_oob(obj)
    return {
        "serial.pickle_dumps_us": b.best_us(lambda: dumps_oob(obj)),
        "serial.pickle_loads_us": b.best_us(
            lambda: loads_oob(header, buffers)),
        "serial.oob_buffers_per_msg": float(len(buffers)),
    }


def _wire_message(nbytes: int) -> WireMessage:
    hdr = WireHeader(tag=(7 << 32) | 1, source=0, total_bytes=nbytes,
                     entry_lengths=(nbytes,), protocol="eager", msg_id=1)
    return WireMessage(hdr, [], send_ready=0.0, wire_time=0.0, rndv=False,
                       recv_cost=0.0)


def _ucp_probes(case, b: Budget) -> dict:
    nbytes = case.packed_bytes
    model = CostModel(LinkParams())
    flat = np.zeros(nbytes, dtype=np.uint8)
    pool = BufferPool()
    pool.release(pool.acquire(nbytes))
    matcher = TagMatcher()
    msg = _wire_message(nbytes)
    mask = (1 << 64) - 1

    def tagmatch():
        # One message each way round: receive posted first (expected),
        # then message first (unexpected).
        matcher.post(msg.header.tag, mask)
        matcher.deposit(msg)
        matcher.deposit(msg)
        matcher.post(msg.header.tag, mask)

    blob = pickle.dumps(encode_envelope(msg))
    return {
        "ucp.plan_send_us": b.best_us(
            lambda: plan_send(ContigData(flat, nbytes), model)),
        "ucp.pool_acquire_release_us": b.best_us(
            lambda: pool.release(pool.acquire(nbytes))),
        "ucp.tagmatch_us": b.best_us(tagmatch) / 2,
        "transport.envelope_encode_us": b.best_us(
            lambda: pickle.dumps(encode_envelope(msg))),
        "transport.envelope_decode_us": b.best_us(
            lambda: decode_envelope(pickle.loads(blob), [])),
    }


def layer_pass(cases, b: Budget) -> tuple[dict, list[dict]]:
    """Source A for every case; returns (geomeans over the cases that have
    the layer, per-case values)."""
    per_case = []
    for case in cases:
        vals = {"case": case.name}
        if case.derived is not None:
            vals.update(_derived_probes(case, b))
        if case.custom is not None:
            vals.update(_custom_probes(case, b))
        vals.update(_serial_probes(case, b))
        vals.update(_ucp_probes(case, b))
        if hasattr(case, "manual_pack"):
            vals["ddtbench.manual_pack_us"] = b.best_us(case.manual_pack)
        if "core.pack_us" in vals and "ddtbench.manual_pack_us" in vals:
            vals["guideline.derived_over_manual"] = (
                vals["core.pack_us"] / vals["ddtbench.manual_pack_us"])
        per_case.append(vals)
    names = sorted({k for v in per_case for k in v} - {"case"})
    # Counts (which may be 0) average arithmetically, times and ratios
    # geometrically.
    merged = {name: (statistics.fmean if name.endswith("_per_msg")
                     else estimator.geomean)(
                         [v[name] for v in per_case if name in v])
              for name in names}
    return merged, per_case


def own_pack_cost_us(vals: dict, case) -> float:
    """What one message of this case costs to pack and unpack in the
    family it is actually sent with (nothing for a contiguous type: the
    engine hands its buffer to the transport as it is)."""
    own = case.own
    if own == "derived":
        if case.datatype.is_contiguous:
            return 0.0
        return vals["core.pack_us"] + vals["core.unpack_us"]
    cost = (vals.get("core.custom_pack_us", 0.0)
            + vals.get("core.custom_unpack_us", 0.0)
            + vals.get("core.custom_regions_us", 0.0))
    if own == "pickle":
        cost += (vals["serial.pickle_dumps_us"]
                 + vals["serial.pickle_loads_us"])
    return cost


# ---------------------------------------------------------------------------
# A'. short jobs on a live communicator
# ---------------------------------------------------------------------------

def _pingpong_rank(comm, shapes, ops: int, phase: str):
    """Rank body: for each ``(datatype_factory, count, make_buffer)`` a
    warm-up and ``ops`` timed operations; rank 0 returns one latency per
    shape."""
    out = []
    for make_dt, count, make_buf in shapes:
        dt = make_dt()
        # An echo sends and receives in turn, so one buffer does for both;
        # an exchange has both in flight at once.
        sbuf = make_buf()
        rbuf = make_buf() if phase == "xchg" else sbuf
        case = wl.BufferCase("probe", dt, count, sbuf, rbuf, None, None,
                             0, None)
        fn = {"rt": drivers.rt_timed, "xchg": drivers.xchg_timed}[phase]
        if comm.rank == 0 or phase == "xchg":
            fn(comm, case, max(3, ops // 10))
            out.append(quiet_quarter(fn(comm, case, ops)[1]) / 1e3)
        else:
            drivers.rt_serve(comm, case, max(3, ops // 10) + ops, False)
    return out


def _byte_shape(nbytes: int):
    return (lambda: BYTE, nbytes, partial(np.zeros, nbytes, np.uint8))


def contig_rt_us(spec: wl.WorkloadSpec, cases, ops: int) -> list[float]:
    """Round trip (or exchange) of a raw BYTE message of each case's packed
    size on the workload's own backend."""
    if spec.name == "serve_jobs":
        from repro.serve.workloads import pingpong_job
        return [_service_probe(pingpong_job(iters=wl.SERVE_ITERS,
                                            nbytes=cases[0].packed_bytes),
                               ops)["latency_us"]] * len(cases)
    phase = "xchg" if "xchg" in spec.phases else "rt"
    shapes = [_byte_shape(c.packed_bytes) for c in cases]
    # Big messages get fewer operations: the median of 20 is enough.
    n = ops if max(c.packed_bytes for c in cases) < wl.MIB else \
        max(5, ops // 10)
    job = run(partial(_pingpong_rank, shapes=shapes, ops=n, phase=phase),
              nprocs=2, transport=spec.transport)
    return job.results[0]


def _empty_rank(comm):
    return None


def spawn_us(transport: str, trials: int) -> float:
    best = float("inf")
    for _ in range(trials):
        t0 = time.perf_counter_ns()
        run(_empty_rank, nprocs=2, transport=transport)
        best = min(best, time.perf_counter_ns() - t0)
    return best / 1e3


def _service_probe(fn, jobs: int) -> dict:
    """A one-slot ``JobService`` running ``jobs`` copies of ``fn``."""
    from repro.serve import JobService, JobSpec
    service = JobService(slots=1, max_queue=4, name="e2e-probe")
    spec = JobSpec(fn=fn, name="probe", nprocs=2)
    lat = []
    try:
        for i in range(jobs + 10):
            t0 = time.monotonic()
            handle = service.submit(spec)
            handle.wait()
            if i >= 10:
                lat.append(handle.finished_at - t0)
    finally:
        report = service.shutdown(drain=True, timeout=10.0)
    return {"latency_us": quiet_quarter(lat) * 1e6,
            "jobs_per_s": len(lat) / sum(lat), "report": report}


def _bare_run_us(fn, jobs: int) -> float:
    lat = []
    for _ in range(jobs):
        t0 = time.perf_counter_ns()
        run(fn, nprocs=2)
        lat.append(time.perf_counter_ns() - t0)
    return quiet_quarter(lat) / 1e3


def serve_metrics(reports: list[dict], latency_us: float, bare_us: float,
                  jobs_per_s: float) -> dict:
    """The ``serve.*`` names from ``JobService.report()`` documents."""
    def geo(path):
        vals = []
        for rep in reports:
            v = rep
            for key in path:
                v = v[key]
            vals.append(max(float(v), 1e-3))
        return estimator.geomean(vals)
    bank = [r["pool_bank"] for r in reports]
    hits = sum(b["warm_hits"] for b in bank)
    return {
        "serve.queue_wait_us": geo(("queue_latency", "p50_ms")) * 1e3,
        "serve.run_us": geo(("run_latency", "p50_ms")) * 1e3,
        "serve.overhead_us_per_job": latency_us - bare_us,
        "serve.warm_hit_ratio": hits / max(1, hits + sum(
            b["created"] for b in bank)),
        "serve.rejected": float(sum(r["jobs"]["rejected"]
                                    for r in reports)),
        "serve.jobs_per_s": jobs_per_s,
    }


# ---------------------------------------------------------------------------
# fixed probes (the same in every workload's traced run)
# ---------------------------------------------------------------------------

def _with_cpus(all_cpus: set, cpus: int, fn):
    """Run ``fn()`` with this process allowed on ``cpus`` of ``all_cpus``
    (the set it had before the worker pinned itself)."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, all_cpus)
    try:
        drivers.pin(cpus)
        return fn()
    finally:
        os.sched_setaffinity(0, before)


def _milc_shape(method: str):
    w = make_workload("MILC")
    return (getattr(w, method), 1, w.make_send_buffer)


def fixed_probes(b: Budget, all_cpus: set) -> dict:
    ops = b.probe_ops
    out = {}
    struct = (struct_simple_datatype, 128, partial(make_struct_simple, 128))
    contig = (lambda: contiguous(128, struct_simple_datatype()).commit(), 1,
              partial(make_struct_simple, 128))
    pinned = partial(_with_cpus, all_cpus, 1)

    def inproc_rt(shapes, n=ops):
        return run(partial(_pingpong_rank, shapes=shapes, ops=n,
                           phase="rt"), nprocs=2,
                   transport="inproc").results[0]

    count_n, contig_n = pinned(lambda: inproc_rt([struct, contig]))
    out["guideline.count_n_over_contig_n"] = count_n / contig_n
    region, packcb = pinned(lambda: inproc_rt(
        [_milc_shape("custom_region_datatype"),
         _milc_shape("custom_pack_datatype")], max(10, ops // 4)))
    out["guideline.custom_region_over_custom_pack"] = region / packcb

    halo = [_milc_shape("derived_datatype")]
    for backend, cpus in (("inproc", 1), ("shm", 2), ("asyncio", 1)):
        job = partial(run, partial(_pingpong_rank, shapes=halo,
                                   ops=max(10, ops // 4), phase="xchg"),
                      nprocs=2, transport=backend)
        out[f"transport.{backend}.halo_rt_us"] = _with_cpus(
            all_cpus, cpus, job).results[0][0]

    struct20 = [(struct_simple_datatype, 1, partial(make_struct_simple, 1))]
    pinned_rt = pinned(lambda: inproc_rt(struct20, ops * 2))[0]
    unpinned_rt = _with_cpus(all_cpus, len(all_cpus),
                             lambda: inproc_rt(struct20, ops * 2))[0]
    out["sched.unpinned_rt_ratio"] = unpinned_rt / pinned_rt
    return out


# ---------------------------------------------------------------------------
# B. the traced run -> per-layer self times
# ---------------------------------------------------------------------------

def _windows(raw: dict, phase: str, cases=None) -> list[tuple[int, int]]:
    return [(b["t0_ns"], b["t0_ns"] + b["wall_ns"])
            for b in raw["blocks"]
            if b["phase"] == phase and (cases is None or b["case"] in cases)]


def _case_span_metrics(raw: dict, threads: list[dict], phase: str,
                       ci: int, measuring: str) -> tuple[dict, dict]:
    """The B names of one case, plus its exactly-repeating counts."""
    windows = _windows(raw, phase, {ci})
    ops = sum(b["n"] for b in raw["blocks"]
              if b["phase"] == phase and b["case"] == ci)
    wall = sum(hi - lo for lo, hi in windows)
    agg = trace.aggregate(threads, "rank0", windows)
    top = agg if measuring == "rank0" else trace.aggregate(
        threads, measuring, windows)
    top_ns = top.pop("top_ns")
    agg.pop("top_ns", None)

    def self_us(*names):
        return sum(agg.get(n, {}).get("self_ns", 0) for n in names) \
            / 1e3 / ops

    by_layer: dict[str, float] = {}
    for name, a in agg.items():
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + a["self_ns"] / 1e3 / ops
    moved = sum(a["nbytes"] for a in agg.values())
    sent = drivers.MSGS_PER_OP[phase] // 2        # by rank 0, per operation
    values = {
        "core.self_us": by_layer.get("core", 0.0),
        "mpi.send_post_us": self_us("mpi.send", "mpi.isend"),
        "mpi.recv_post_us": self_us("mpi.recv", "mpi.irecv"),
        "mpi.wait_us": self_us("mpi.wait"),
        "mpi.self_us": by_layer.get("mpi", 0.0),
        "ucp.tag_send_us": self_us("ucp.tag_send"),
        "ucp.tag_recv_us": self_us("ucp.tag_recv"),
        "ucp.deliver_us": self_us("ucp.deliver"),
        "ucp.copy_amplification":
            moved / (ops * sent * raw["packed_bytes"][ci]),
        "transport.handoff_us":
            trace.both_blocked_ns(threads, windows) / 1e3 / ops,
        "trace.unattributed_share": 1.0 - top_ns / wall,
    }
    doc = {"ops": ops, "self_us_per_op_by_layer": by_layer,
           "self_us_per_op_by_span": {n: a["self_ns"] / 1e3 / ops
                                      for n, a in sorted(agg.items())},
           "spans_per_op": {n: a["count"] / ops
                            for n, a in sorted(agg.items())},
           "bytes_per_op": moved / ops}
    return values, doc


def span_metrics(spec: wl.WorkloadSpec, raw: dict,
                 threads: list[dict]) -> tuple[dict, dict]:
    """(per-layer names from the spans, the span document).  Each name is
    computed per case from rank 0's spans in that case's timed blocks, then
    averaged geometrically over the cases in which it is not 0."""
    phase = spec.phases[0]
    measuring = "driver" if phase == "job" else "rank0"
    per_case = {}
    values = []
    for ci, name in enumerate(spec.case_names):
        vals, per_case[name] = _case_span_metrics(raw, threads, phase, ci,
                                                  measuring)
        if phase == "job" and ci > 0:
            # With two jobs in flight "both ranks blocked" has no meaning.
            vals.pop("transport.handoff_us")
        values.append(vals)
    metrics = {}
    for key in values[0]:
        used = [v[key] for v in values if v.get(key, 0.0) > 0.0]
        metrics[key] = estimator.geomean(used) if used else 0.0
    fired: dict[str, int] = {}
    for th in threads:
        for s in th["spans"]:
            fired[s[trace.NAME]] = fired.get(s[trace.NAME], 0) + 1
    doc = {"per_case": per_case,
           "nesting_errors": sum(trace.nesting_errors(th["spans"])
                                 for th in threads),
           "sites": {site.span: fired.get(site.span)
                     for site in trace.SITES}}
    return metrics, doc


# ---------------------------------------------------------------------------
# C. counters
# ---------------------------------------------------------------------------

def counter_metrics(spec: wl.WorkloadSpec, raw: dict, detail: dict) -> dict:
    plan0, plan1 = raw["plan_cache"]
    lookups = sum(plan1[k] - plan0[k] for k in ("hits", "misses"))
    phase = spec.phases[0]
    msgs = sum(b["n"] * drivers.MSGS_PER_OP[b["phase"]]
               for b in raw["blocks"])
    pool = raw["pool"]
    pool_lookups = sum(p["hits"] + p["misses"] for p in pool)
    return {
        # No lookup at all (custom datatypes bypass the plan cache) counts
        # as no miss.
        "core.plan_cache_hit_ratio":
            (plan1["hits"] - plan0["hits"]) / lookups if lookups else 1.0,
        "ucp.pool_hit_ratio":
            sum(p["hits"] for p in pool) / pool_lookups
            if pool_lookups else 1.0,
        "ucp.alloc_per_msg": sum(p["allocations"] for p in pool) / msgs,
        "ucp.peak_pool_mb": max(p["peak_bytes"] for p in pool) / 1e6,
        "ucp.netsim.virtual_us_per_op": estimator.geomean(
            c[phase]["virtual_us_per_op"] for c in detail["cases"]),
    }


# ---------------------------------------------------------------------------
# the --trace 1 worker
# ---------------------------------------------------------------------------

def traced_worker(workload: str, seed: int, seconds: float,
                  out_dir: Path, all_cpus: set) -> dict:
    """Untraced quarter-length run, layer pass, traced quarter-length run;
    returns the contract's result object with the per-layer metrics."""
    spec = wl.WORKLOADS[workload]
    b = Budget(seconds)
    share = seconds / 4

    both = [wl.build_cases(workload, seed, rank) for rank in (0, 1)]
    raw_u = worker.measure(workload, seed, share, cases=both)
    m_u, d_u = worker.summarise(workload, raw_u)
    metrics = counter_metrics(spec, raw_u, d_u)

    cases = both[0]
    layer, per_case = layer_pass(cases, b)
    metrics.update(layer)
    contig = contig_rt_us(spec, cases, b.probe_ops)
    metrics["mpi.contig_rt_us"] = estimator.geomean(contig)
    phase = spec.phases[0]
    metrics["mpi.engine_overhead_us"] = statistics.fmean(
        d_u["cases"][i][phase]["p50_us"] - contig[i]
        - PACKS_PER_OP[phase] * own_pack_cost_us(per_case[i], case)
        for i, case in enumerate(cases))
    metrics["transport.spawn_us"] = spawn_us(spec.transport, b.trials)
    metrics.update(fixed_probes(b, all_cpus))

    if workload == "serve_jobs":
        reports = raw_u["service_reports"]
        bare = _bare_run_us(partial(drivers.struct_job,
                                    sbuf=wl.serve_send_buffer(seed),
                                    corrupt=False, trace_on=False),
                            b.probe_ops)
        metrics.update(serve_metrics(
            reports, d_u["cases"][0]["job"]["p50_us"], bare,
            estimator.geomean(c["job"]["ops_per_s"]
                              for c in d_u["cases"])))
    else:
        from repro.serve.workloads import struct_pingpong_job
        fn = struct_pingpong_job(iters=wl.SERVE_ITERS, count=wl.SERVE_COUNT)
        probe = _with_cpus(all_cpus, 1,
                           lambda: _service_probe(fn, b.probe_ops))
        bare = _with_cpus(all_cpus, 1,
                          lambda: _bare_run_us(fn, b.probe_ops))
        metrics.update(serve_metrics([probe["report"]], probe["latency_us"],
                                     bare, probe["jobs_per_s"]))

    missing = trace.install()
    try:
        raw_t = worker.measure(workload, seed, share, trace_on=True,
                               cases=both)
    finally:
        trace.uninstall()
    threads = trace.drain()
    for spans in raw_t["spans"]:
        threads.extend(spans or [])
    m_t, d_t = worker.summarise(workload, raw_t)
    from_spans, span_doc = span_metrics(spec, raw_t, threads)
    metrics.update(from_spans)
    metrics["trace.overhead_ratio"] = m_t["rt_p50_us"] / m_u["rt_p50_us"]
    metrics["e2e.rt_tail_us"] = m_u["rt_tail_us"]

    span_doc["missing_sites"] = missing
    for name in missing:
        print(f"warning: trace site for {name!r} not found; its span is "
              f"null", file=sys.stderr)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "spans.json").write_text(json.dumps(
        {"summary": span_doc, "threads": threads}))
    (out_dir / "layers.json").write_text(json.dumps(
        {"workload": workload, "per_case": per_case,
         "untraced": d_u, "traced": d_t, "spans": span_doc}, indent=1))

    failed = d_u["failed"] + d_t["failed"]
    exact = {name: float(f"{metrics[name]:.9g}") for name in EXACT}
    exact.update(digests=d_u["digests"],
                 spans_per_op={c: d["spans_per_op"]
                               for c, d in span_doc["per_case"].items()},
                 bytes_per_op={c: d["bytes_per_op"]
                               for c, d in span_doc["per_case"].items()})
    return {"correct": failed == 0 and d_u["warm_ok"] and d_t["warm_ok"],
            "attempted": d_u["attempted"] + d_t["attempted"],
            "failed": failed, "metrics": metrics, "exact": exact,
            "sites": span_doc["sites"],
            "nesting_errors": span_doc["nesting_errors"]}
