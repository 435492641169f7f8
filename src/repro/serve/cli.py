"""``repro-serve`` — drive the job service, optionally under chaos.

The CLI is the acceptance harness for the service's headline claim::

    repro-serve --jobs 10000 --chaos 0.2 --kill-every 97 --strict

runs ten thousand small jobs through a warm-worker service while a seeded
fraction of them carry rank-crash fault plans and every 97th running job
is killed mid-flight — then exits nonzero unless every pool buffer came
back, every job is accounted for, and no sanitized job leaked a request.

Chaos decisions use the CRC-draw discipline of
:class:`repro.ucp.faults.FaultPlan`: the same ``--seed`` reproduces the
same crash schedule, kill victims and backoff delays.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
import zlib

from .service import JobService
from .spec import AdmissionError, JobSpec, JobStatus, QuotaPolicy, RetryPolicy
from .workloads import make_workload_job

__all__ = ["main", "run_service_load", "verify_report"]


def _draw(seed: int, kind: str, i: int) -> float:
    """Deterministic uniform draw in [0, 1) (FaultPlan's discipline)."""
    return zlib.crc32(f"{seed}|{kind}|{i}".encode("ascii")) / 0xFFFFFFFF


def _build_spec(i: int, args) -> JobSpec:
    chaotic = (args.chaos > 0 and args.nprocs >= 2
               and _draw(args.seed, "chaos", i) < args.chaos)
    faults = None
    reliability = None
    if chaotic:
        # Crash a non-root rank partway into the job's virtual timeline;
        # the victim and instant are seeded so replays match.
        victim = 1 + int(_draw(args.seed, "victim", i)
                         * max(1, args.nprocs - 1))
        victim = min(victim, args.nprocs - 1) or 1
        at = 2e-6 + _draw(args.seed, "at", i) * 40e-6
        faults = {"seed": args.seed + i, "crash": {victim: at}}
        reliability = True
    sanitize = (args.sanitize_every > 0
                and i % args.sanitize_every == 0
                and args.transport != "shm")
    return JobSpec(
        fn=make_workload_job(args.workload),
        name=f"{args.workload}-{i}",
        nprocs=args.nprocs,
        faults=faults,
        reliability=reliability,
        # Pristine retry: the crash was transient, so retries can succeed
        # and the retried/dead-letter split in the report is meaningful.
        retry_faults=None,
        sanitize=sanitize,
        quota=QuotaPolicy(wall_timeout=args.wall_timeout),
        retry=RetryPolicy(max_retries=args.retries, seed=args.seed,
                          base_delay=0.001, max_delay=0.05),
        tags={"chaotic": chaotic, "index": i},
    )


def run_service_load(args) -> dict:
    """Submit ``args.jobs`` jobs, kill some mid-flight, drain, report."""
    service = JobService(slots=args.slots, max_queue=args.max_queue,
                         transport=args.transport)
    killer_stop = threading.Event()

    killed_ids: set[int] = set()

    def killer():
        """Kill every running job whose index is a --kill-every multiple."""
        while not killer_stop.is_set():
            for handle in service.inflight():
                idx = handle.spec.tags.get("index", -1)
                if idx > 0 and idx % args.kill_every == 0 \
                        and handle.id not in killed_ids \
                        and handle.status == JobStatus.RUNNING:
                    if handle.kill("chaos kill"):
                        killed_ids.add(handle.id)
                        service.metrics.inc("kills")
            killer_stop.wait(0.002)

    killer_thread = None
    if args.kill_every > 0:
        # Every running job is killable on a backend whose ranks share
        # the driver's address space; on shm a kill of a running job
        # returns False and the job runs on.
        killer_thread = threading.Thread(target=killer, name="chaos-killer",
                                         daemon=True)
        killer_thread.start()

    shed = 0
    t0 = time.monotonic()
    for i in range(args.jobs):
        spec = _build_spec(i, args)
        while True:
            try:
                service.submit(spec)
                break
            except AdmissionError as exc:
                if exc.reason != "saturated":
                    raise
                # Load shed: the service said back off, so back off.
                shed += 1
                time.sleep(0.001)
    service.wait_idle()
    elapsed = time.monotonic() - t0
    if killer_thread is not None:
        killer_stop.set()
        killer_thread.join()
    report = service.shutdown(drain=True)
    report["load"] = {"jobs": args.jobs, "elapsed_s": elapsed,
                      "jobs_per_s": args.jobs / max(elapsed, 1e-9),
                      "saturation_backoffs": shed,
                      "kill_every": args.kill_every,
                      "chaos": args.chaos, "seed": args.seed}
    return report


def verify_report(report: dict) -> list[str]:
    """The strict-mode invariants; returns violation messages."""
    out = []
    jobs = report["jobs"]
    terminal = (jobs["completed"] + jobs["failed"] + jobs["dead_lettered"]
                + jobs["cancelled"])
    if terminal != jobs["accepted"]:
        out.append(f"accounting hole: accepted={jobs['accepted']} but "
                   f"terminal outcomes sum to {terminal}")
    if jobs["pool_leaks"]:
        out.append(f"{jobs['pool_leaks']} job(s) left pool buffers "
                   f"outstanding")
    if jobs["leaked_requests"]:
        out.append(f"sanitizer found {jobs['leaked_requests']} leaked "
                   f"request(s) (RPD420/421)")
    bank = report["pool_bank"]
    if bank["banked_outstanding"]:
        out.append(f"warm bank holds {bank['banked_outstanding']} "
                   f"outstanding buffer(s) after drain")
    if bank["checked_out"]:
        out.append(f"{bank['checked_out']} tracker set(s) never returned "
                   f"to the bank")
    if report["queue_depth"] or report["inflight"]:
        out.append(f"drain left queue_depth={report['queue_depth']} "
                   f"inflight={report['inflight']}")
    return out


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-serve",
        description="Run a job-service load (optionally chaotic) and "
                    "report service metrics.")
    p.add_argument("--jobs", type=int, default=200,
                   help="number of jobs to submit (default 200)")
    p.add_argument("--workload", default="pingpong",
                   help="job body: pingpong, ring or struct")
    p.add_argument("--nprocs", type=int, default=2)
    p.add_argument("--slots", type=int, default=2,
                   help="concurrent scheduler slots (default 2)")
    p.add_argument("--max-queue", type=int, default=64,
                   help="admission queue depth; submissions beyond it are "
                        "load-shed and resubmitted (default 64)")
    p.add_argument("--transport", default=None,
                   help="backend: inproc (default), asyncio, shm")
    p.add_argument("--chaos", type=float, default=0.0,
                   help="fraction of jobs carrying a seeded rank-crash "
                        "fault plan (default 0)")
    p.add_argument("--kill-every", type=int, default=0,
                   help="kill every Nth running job mid-flight (0 = off)")
    p.add_argument("--sanitize-every", type=int, default=0,
                   help="attach the sanitizer to every Nth job (0 = off)")
    p.add_argument("--retries", type=int, default=2,
                   help="retry budget for retryable failures (default 2)")
    p.add_argument("--wall-timeout", type=float, default=30.0)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for chaos draws and retry jitter")
    p.add_argument("--report", default=None, metavar="PATH",
                   help="write the JSON report here ('-' for stdout)")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero unless pool balance, request "
                        "accounting and job accounting all close")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    report = run_service_load(args)
    doc = json.dumps(report, indent=2, sort_keys=True)
    if args.report == "-":
        print(doc)
    elif args.report:
        with open(args.report, "w") as f:
            f.write(doc + "\n")
    jobs = report["jobs"]
    print(f"jobs: {jobs['accepted']} accepted, {jobs['completed']} "
          f"completed, {jobs['failed']} failed, {jobs['dead_lettered']} "
          f"dead-lettered, {jobs['cancelled']} cancelled "
          f"({report['load']['jobs_per_s']:.0f} jobs/s)")
    print(f"robustness: {jobs['retries']} retries, {jobs['kills']} kills, "
          f"{jobs['pool_leaks']} pool leaks, "
          f"{report['pool_bank']['banked_outstanding']} outstanding "
          f"pooled buffers after drain")
    if args.strict:
        violations = verify_report(report)
        for v in violations:
            print(f"STRICT VIOLATION: {v}", file=sys.stderr)
        if violations:
            return 1
        print("strict checks: all invariants hold")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
