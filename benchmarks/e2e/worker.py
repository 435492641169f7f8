"""One workload, measured inside the subprocess ``run.py`` starts for it.

``measure()`` runs the workload's closed loop and returns the raw blocks;
``summarise()`` turns them into the end-to-end metrics and the
``detail.json`` document.  The traced run and the layer pass (``--trace 1``)
are added by :mod:`layers` and :mod:`trace` on top of the same two calls.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from functools import partial

import numpy as np

from . import drivers, estimator
from . import workloads as wl

#: A traced block records at most this many messages' worth of spans.
TRACE_BLOCK_MSGS = 400


def measure(workload: str, seed: int, seconds: float,
            trace_on: bool = False, corrupt: bool = False,
            cases: list | None = None) -> dict:
    """Run the workload's closed loop once for ``seconds`` of timed phase
    (0: set-up and warm-up only); returns raw blocks + counters.

    ``cases`` (both ranks' case objects) lets the traced worker build the
    multi-megabyte buffers once for its two runs and the layer pass.
    """
    spec = wl.WORKLOADS[workload]
    max_msgs = TRACE_BLOCK_MSGS if trace_on else None
    if workload == "serve_jobs":
        return _measure_serve(spec, seed, seconds, max_msgs, trace_on,
                              corrupt)
    from repro.mpi import run
    if cases is None:
        cases = [wl.build_cases(workload, seed, rank) for rank in (0, 1)]
    cfg = {"cases": cases, "seed": seed, "seconds": seconds,
           "phases": spec.phases, "transport": spec.transport,
           "cpus": spec.cpus, "corrupt": corrupt, "trace": trace_on,
           "max_block_msgs": max_msgs}
    job = run(partial(drivers.mpi_rank, cfg=cfg), nprocs=2,
              transport=spec.transport, timeout=seconds * 4 + 120)
    r0, r1 = job.results
    blocks = r0["blocks"]
    if spec.transport == "shm":
        # Rank 1 is its own process: its CPU is not in rank 0's figure.
        for blk, cpu in zip(blocks, r1["cpu_s"]):
            blk["cpu_s"] += cpu
    pool = [_pool_delta(*r["memory"]) for r in (r0, r1)]
    return {"blocks": blocks, "first_timed": r0["first_timed"],
            "digests": r0["digests"], "warm_ok": r0["warm_ok"],
            "plan_cache": r0["plan_cache"], "pool": pool,
            "spans": [r.get("spans") for r in (r0, r1)],
            "packed_bytes": r0["packed_bytes"]}


def _pool_delta(before: dict, after: dict) -> dict:
    """Pool and allocation counters over the timed phase of one rank."""
    out = {k: after["pool"][k] - before["pool"][k]
           for k in ("hits", "misses")}
    out["allocations"] = (after["allocation_count"]
                          - before["allocation_count"])
    out["peak_bytes"] = after["peak_bytes"]
    return out


def _sum_pools(blocks: list[dict]) -> dict:
    """The jobs' pool counters over a list of serve_jobs blocks."""
    out = {key: sum(b["pool"][key] for b in blocks)
           for key in ("hits", "misses", "allocations")}
    out["peak_bytes"] = max((b["pool"]["peak_bytes"] for b in blocks),
                            default=0)
    return out


def _measure_serve(spec, seed, seconds, max_msgs, trace_on, corrupt):
    from repro.core import plan_cache_info
    loops = [drivers.JobLoop(name, inflight, seed, corrupt, trace_on)
             for name, inflight in zip(spec.case_names, (1, 2))]
    try:
        units = [(ci, "job") for ci in range(len(loops))]
        op_s = {}
        warm_ok = True
        for u, loop in zip(units, loops):
            blk = loop.run_block(drivers.WARMUP_OPS)
            warm_ok = warm_ok and blk["ok"]
            op_s[u] = blk["wall_ns"] / 1e9 / blk["n"]
        order = drivers.plan_rounds(units, op_s, dict.fromkeys(units, 0.0),
                                    seconds, seed)
        blk_s = drivers.block_seconds(seconds, len(units))
        plan0 = plan_cache_info()
        first_timed = time.time()
        blocks = []
        for u in order:
            n = drivers.block_ops(blk_s, op_s[u], "job", max_msgs)
            blk = loops[u[0]].run_block(n)
            blk["case"] = u[0]
            op_s[u] = blk["wall_ns"] / 1e9 / n
            blocks.append(blk)
        plan1 = plan_cache_info()
    finally:
        reports = [loop.close() for loop in loops]
    return {"blocks": blocks, "first_timed": first_timed,
            "digests": [loop.digest for loop in loops], "warm_ok": warm_ok,
            "plan_cache": (plan0, plan1),
            "pool": [_sum_pools(blocks)],
            "spans": [None, None], "service_reports": reports,
            "packed_bytes": [loop.packed_bytes for loop in loops]}


# ---------------------------------------------------------------------------
# blocks -> metrics
# ---------------------------------------------------------------------------

def _case_value(summaries: list[dict], key: str, better: str) -> float:
    return estimator.quiet([s[key] for s in summaries], better)


def _tail(summaries, blocks, tail_q: float) -> tuple[float, float, str]:
    """(value, percentile, how) of one case's tail latency.

    The declared percentile is read per block where a block has ten
    samples beyond it; a case whose blocks are too short for that (16 MiB
    round trips) reads it from the pooled samples instead.
    """
    have = [s["tail_us"] for s in summaries if "tail_us" in s]
    if 2 * len(have) >= len(summaries):
        return estimator.quiet(have, "lower"), tail_q, "blocks"
    pooled = np.sort(np.concatenate([b["lat_ns"] for b in blocks]))
    q = min(tail_q, estimator.highest_supported_percentile(len(pooled)))
    return float(estimator.percentile(pooled, q)) / 1e3, q, "pooled"


def summarise(workload: str, raw: dict) -> tuple[dict, dict]:
    """(metrics, detail) of one measured run.  ``metrics`` holds the
    workload's steady-state figures, without set-up time and memory."""
    spec = wl.WORKLOADS[workload]
    rt_phase = spec.phases[0]
    rate_phase = spec.phases[-1]
    per_case = []
    for ci, name in enumerate(spec.case_names):
        entry = {"case": name, "packed_bytes": raw["packed_bytes"][ci]}
        for phase in spec.phases:
            blocks = [b for b in raw["blocks"]
                      if b["case"] == ci and b["phase"] == phase]
            sums = []
            for b in blocks:
                n = len(b["lat_ns"])
                sums.append(estimator.block_summary(
                    b["lat_ns"], b["wall_ns"], b["cpu_s"],
                    estimator.supported_percentile(n, spec.tail_q)))
            pooled = np.concatenate([b["lat_ns"] for b in blocks])
            p50s = [s["p50_us"] for s in sums]
            ph = {
                "blocks": sums,
                "samples": int(pooled.shape[0]),
                "all_sample_p50_us": float(np.median(pooled)) / 1e3,
                "block_p50_iqr_us": float(np.subtract(
                    *np.percentile(p50s, [75, 25]))),
                "p50_us": _case_value(sums, "p50_us", "lower"),
                "ops_per_s": _case_value(sums, "ops_per_s", "higher"),
                "cpu_us_per_op": _case_value(sums, "cpu_us_per_op",
                                             "lower"),
                "virtual_us_per_op": statistics.median(
                    b["virtual_op_s"] for b in blocks) * 1e6,
            }
            ph["tail_us"], ph["tail_q"], ph["tail_from"] = _tail(
                sums, blocks, spec.tail_q)
            entry[phase] = ph
        per_case.append(entry)

    def over_cases(phase, key, scale=lambda e: 1.0):
        return estimator.geomean(e[phase][key] * scale(e) for e in per_case)

    msgs = drivers.MSGS_PER_OP[rate_phase]
    metrics = {
        "rt_p50_us": over_cases(rt_phase, "p50_us"),
        "rt_tail_us": over_cases(rt_phase, "tail_us"),
        "msgs_per_s": over_cases(rate_phase, "ops_per_s") * msgs,
        "payload_mb_s": over_cases(
            rate_phase, "ops_per_s",
            lambda e: msgs * e["packed_bytes"] / 1e6),
        "cpu_us_per_op": over_cases(rt_phase, "cpu_us_per_op"),
    }
    attempted = sum(b["n"] for b in raw["blocks"])
    failed = sum(b.get("bad", b["n"]) for b in raw["blocks"]
                 if not b["ok"])
    detail = {"workload": workload, "cases": per_case,
              "attempted": attempted, "failed": failed,
              "warm_ok": raw["warm_ok"], "digests": raw["digests"],
              "tail_percentile": spec.tail_q}
    return metrics, detail


def host_steal_seconds() -> float | None:
    """CPU seconds the hypervisor has withheld from this machine so far
    (``/proc/stat``), or None where that is not reported.  Its growth over
    a run goes to ``detail.json``: a run that lost CPU to the host says so.
    """
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb() -> float:
    """High-water RSS of this process plus its largest waited-for child
    (the shm rank processes), in MB (``ru_maxrss`` is KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) * 1024 / 1e6
