"""Steady-state end-to-end + per-layer wall-clock benchmark.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
                                  [--seconds S] [--trace 0|1] [--out DIR]
    python3 benchmarks/e2e/run.py --selftest

Each workload runs in a fresh subprocess (followed by two short set-up-only
subprocesses, so ``setup_s`` is a median of three), every output is checked
against a manual-pack oracle, and every metric is printed by name with its
unit.  With ``--workload`` the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Without it all five workloads run and the last line is a summary that ends
with ``"claim": null`` — this benchmark claims no gain.

See README.md in this directory for definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Set-up-only subprocesses per run, besides the measuring one.
EXTRA_SETUPS = 2


def _bootstrap() -> None:
    """Make ``repro`` and ``benchmarks.e2e`` importable.

    The script directory is dropped from the path: it holds a ``trace.py``
    that must not shadow the standard library's.
    """
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"benchmarks/e2e: the system under test is not here "
                 f"({ROOT / 'src' / 'repro'} is missing); run from a "
                 f"checkout of the repository")
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
    sys.path.insert(0, str(ROOT))
    sys.path.insert(0, str(ROOT / "src"))


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# worker side (inside the per-workload subprocess)
# ---------------------------------------------------------------------------

def worker_main(args) -> int:
    from benchmarks.e2e import drivers, worker
    from benchmarks.e2e import workloads as wl
    spec = wl.WORKLOADS[args.workload]
    if spec.transport == "shm":
        from repro.ucp.transport import available_transports
        why = available_transports()["shm"]
        if why:
            sys.exit(f"halo_shm cannot run: shm transport unavailable "
                     f"({why})")
    all_cpus = os.sched_getaffinity(0)
    drivers.pin(spec.cpus)
    if args.trace and not args.setup_only:
        from benchmarks.e2e import layers
        doc = layers.traced_worker(args.workload, args.seed, args.seconds,
                                   out_dir=args.out, all_cpus=all_cpus)
    else:
        seconds = 0.0 if args.setup_only else args.seconds
        steal = worker.host_steal_seconds()
        raw = worker.measure(args.workload, args.seed, seconds,
                             corrupt=args.corrupt)
        doc = {"first_timed": raw["first_timed"]}
        if not args.setup_only:
            metrics, detail = worker.summarise(args.workload, raw)
            # The tail is a per-layer metric (README, "Tail latency").
            detail["rt_tail_us"] = metrics.pop("rt_tail_us")
            if steal is not None:
                detail["host_steal_s"] = worker.host_steal_seconds() - steal
            metrics["peak_rss_mb"] = worker.peak_rss_mb()
            doc.update(
                correct=detail["failed"] == 0 and detail["warm_ok"],
                attempted=detail["attempted"], failed=detail["failed"],
                metrics=metrics, detail=detail)
    print(json.dumps(doc))
    return 0


# ---------------------------------------------------------------------------
# orchestrator side
# ---------------------------------------------------------------------------

#: A whole ``run.py --workload`` invocation must end within this many
#: seconds, whatever the host does (the harness allows 180).
DEADLINE_SECONDS = 165.0


def _spawn(workload: str, seed: int, seconds: float, trace: int,
           out: Path, *flags: str, timeout: float = DEADLINE_SECONDS
           ) -> tuple[dict, float]:
    """Run one worker subprocess; returns (its document, spawn epoch)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--worker",
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out), *flags]
    t_spawn = time.time()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=str(ROOT), timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: worker exited with "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), t_spawn


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 out: Path, corrupt: bool = False,
                 setups: int = EXTRA_SETUPS) -> dict:
    """Measure one workload; returns the contract's result object (plus
    ``exact``, the exactly-repeating counts, on a traced run)."""
    out = out / workload
    out.mkdir(parents=True, exist_ok=True)
    flags = ("--corrupt",) if corrupt else ()
    if trace:
        doc, _ = _spawn(workload, seed, seconds, 1, out, *flags)
        declared = _spec()["per_layer"]
    else:
        deadline = time.monotonic() + DEADLINE_SECONDS
        doc, t_spawn = _spawn(workload, seed, seconds, 0, out, *flags)
        took = [doc["first_timed"] - t_spawn]
        for _ in range(setups):
            # Set-up again, for the median — but a host that makes one
            # set-up take a minute must not cost the run its result.
            left = deadline - time.monotonic()
            if left < 4 * max(took) + 5:
                break
            try:
                setup, t_spawn = _spawn(workload, seed, seconds, 0, out,
                                        "--setup-only", timeout=left)
            except subprocess.TimeoutExpired:
                break
            took.append(setup["first_timed"] - t_spawn)
        detail = doc.pop("detail")
        doc["metrics"]["setup_s"] = statistics.median(took)
        detail["setup_s_runs"] = took
        (out / "detail.json").write_text(json.dumps(detail, indent=1))
        declared = _spec()["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(doc["metrics"]):
        raise RuntimeError(
            f"{workload}: emitted metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(doc['metrics']))}, "
            f"undeclared {sorted(set(doc['metrics']) - set(units))}")
    doc["metrics"] = {name: {"value": doc["metrics"][name], "unit": unit}
                      for name, unit in units.items()}
    doc.update(workload=workload, seed=seed, seconds=seconds)
    name = "layers_result.json" if trace else "result.json"
    (out / name).write_text(json.dumps(doc, indent=1))
    return doc


def _print_metrics(workload: str, result: dict) -> None:
    print(f"== {workload}: attempted={result['attempted']} "
          f"failed={result['failed']} "
          f"failed_ops_ratio={result['failed'] / result['attempted']:.6f}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:>14.4f} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1))
    ap.add_argument("--out", type=Path, default=HERE / "out")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--corrupt", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _bootstrap()
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload is not None and args.workload not in names:
        ap.error(f"unknown workload {args.workload!r}; one of {names}")
    if args.worker:
        return worker_main(args)
    if args.selftest:
        from benchmarks.e2e import selftest
        return selftest.main(args.out, run_workload)
    if args.workload is not None:
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace, args.out)
        result.pop("first_timed", None)
        _print_metrics(args.workload, result)
        print(json.dumps({k: result[k] for k in
                          ("correct", "attempted", "failed", "metrics")}))
        return 0
    summary = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace,
                              args.out)
        _print_metrics(name, result)
        summary[name] = result
    print(json.dumps({"workloads": summary, "claim": None}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
