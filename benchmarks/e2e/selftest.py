"""``run.py --selftest``: does the benchmark measure what it says?

Short runs (half a second of timed phase) of every workload check that

* the names emitted are exactly the names BENCHMARK.json declares;
* every wrapper in the trace's patch table fired on the workloads that
  should exercise it, and the spans nest (self times sum to their root);
* one seed regenerates byte-identical inputs and another seed does not;
* the counts that should repeat exactly do, across two runs;
* a corrupted echo (one byte flipped in what rank 1 sends) makes
  operations fail on every workload — a benchmark that cannot fail checks
  nothing.
"""

from __future__ import annotations

import concurrent.futures
from pathlib import Path

from . import trace
from . import workloads as wl

SECONDS = 0.5
SEED = 7


def _check_workload(run_workload, name: str, out: Path) -> list[str]:
    problems = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            problems.append(f"{name}: {what}")

    plain = run_workload(name, SEED, SECONDS, 0, out / "plain", setups=0)
    expect(plain["correct"] and plain["failed"] == 0,
           f"clean run failed {plain['failed']} of {plain['attempted']}")

    traced = [run_workload(name, SEED, SECONDS, 1, out / f"traced{i}")
              for i in range(2)]
    first, second = traced
    expect(first["exact"] == second["exact"],
           "exact-repeat counts differ between two runs: "
           + str({k: (first["exact"][k], second["exact"][k])
                  for k in first["exact"]
                  if first["exact"][k] != second["exact"][k]}))
    expect(first["nesting_errors"] == 0,
           f"{first['nesting_errors']} spans do not nest / sum to their "
           f"root")
    for site in trace.SITES:
        if name in site.fires_on:
            expect(bool(first["sites"].get(site.span)),
                   f"trace site {site.span} never fired")

    here = [c.digest() for c in wl.build_cases(name, SEED, 0)]
    other = [c.digest() for c in wl.build_cases(name, SEED + 1, 0)]
    expect(first["exact"]["digests"] == here,
           "the same seed built different inputs in another process")
    expect(all(a != b for a, b in zip(here, other)),
           "another seed built the same inputs")

    broken = run_workload(name, SEED, SECONDS, 0, out / "corrupt",
                          corrupt=True, setups=0)
    expect(broken["failed"] > 0 and not broken["correct"],
           "a corrupted echo did not fail a single operation")
    return problems


def main(out: Path, run_workload) -> int:
    """``run_workload`` is ``run.py``'s (the script is not importable as a
    module of this package)."""
    out = out / "selftest"
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        futures = {name: pool.submit(_check_workload, run_workload, name,
                                     out)
                   for name in wl.WORKLOADS}
        problems = [p for f in futures.values() for p in f.result()]
    for p in problems:
        print(f"FAIL {p}")
    print(f"selftest: {len(wl.WORKLOADS)} workloads, "
          f"{len(problems)} problem(s)")
    return 1 if problems else 0
