"""DDTBench layout kernels, two source trees side by side.

``RunLayout.gather``/``scatter`` on every registry workload, one fresh
process per measurement (so the first call pays whatever the tree pays once
per layout — index build, plan compile), alternating which tree runs first.
Prints the markdown table of ``docs/performance.md`` ("DDTBench layouts:
one plan, two spellings"): medians over the process pairs, the parent's
interquartile distance, the ratio change / parent.

Usage::

    python benchmarks/perf/layout_kernels.py --parent /path/to/parent/tree
                                             [--pairs 10] [--calls 400]
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

REPO_ROOT = Path(__file__).resolve().parents[2]


def measure(calls: int) -> dict:
    """Per workload: first gather (ms), then median gather/scatter (us)."""
    from repro.ddtbench.registry import WORKLOADS, make_workload

    def median_us(fn) -> float:
        samples = []
        for _ in range(calls):
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
        return statistics.median(samples) * 1e6

    rows = {}
    for name in WORKLOADS:
        w = make_workload(name)
        layout, send, recv = w.layout, w.make_send_buffer(), w.make_recv_buffer()
        t0 = time.perf_counter()
        packed = layout.gather(send)
        first_ms = (time.perf_counter() - t0) * 1e3
        assert packed.tobytes() == w.manual_pack(send).tobytes(), name
        rows[name] = {
            "first_ms": first_ms,
            "gather_us": median_us(lambda: layout.gather(send, out=packed)),
            "scatter_us": median_us(lambda: layout.scatter(packed, recv))}
        assert w.exchanged_equal(send, recv), name
    return rows


def run_tree(tree: Path, calls: int) -> dict:
    out = subprocess.run(
        [sys.executable, __file__, "--measure", "--calls", str(calls)],
        env={**os.environ, "PYTHONPATH": str(tree / "src")},
        check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def quartiles(runs: list[dict], name: str, metric: str) -> list[float]:
    return statistics.quantiles([r[name][metric] for r in runs], n=4,
                                method="inclusive")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, help="the tree to compare against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--calls", type=int, default=400)
    ap.add_argument("--measure", action="store_true",
                    help="measure the tree on PYTHONPATH, print JSON")
    ap.add_argument("--out", type=Path, help="also dump every run as JSON")
    args = ap.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.calls)))
        return 0
    if args.parent is None:
        ap.error("--parent is required")
    runs = {"parent": [], "change": []}
    trees = {"parent": args.parent, "change": REPO_ROOT}
    for pair in range(args.pairs):
        for side in (("parent", "change") if pair % 2 == 0
                     else ("change", "parent")):
            runs[side].append(run_tree(trees[side], args.calls))
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1) + "\n")
    print("| layout | " + " | ".join(
        f"{m} parent (IQR) | change | ×" for m in
        ("gather µs", "scatter µs", "first call ms")) + " |")
    print("|---|" + "---|" * 9)
    for name in runs["parent"][0]:
        cells = []
        for metric in ("gather_us", "scatter_us", "first_ms"):
            q1, p, q3 = quartiles(runs["parent"], name, metric)
            _, c, _ = quartiles(runs["change"], name, metric)
            cells += [f"{p:.3g} ({q3 - q1:.2g})", f"{c:.3g}", f"{c / p:.2f}"]
        print(f"| {name} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
