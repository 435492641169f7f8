"""Compare two run sets of the end-to-end benchmark.

Usage::

    python3 benchmarks/e2e/compare.py A B

``A`` and ``B`` are directories holding runs made with ``run.py --out``
(any depth; every ``result.json`` below them is one run of one workload).
For every (workload, end-to-end metric) this prints each side's median and
quartiles, the spread (interquartile distance over the median), and a
verdict under the metric's bound from BENCHMARK.json:

* ``same``        B's median is within the bound of A's;
* ``better`` / ``worse``  it moved by more than the bound;
* ``unresolved``  a side's spread is wider than the bound and the two
  sides' runs interleave, so the move cannot be told from noise.

Exit status 0 when every pair is ``same`` or ``better``, 1 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_set(path: Path) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [value per run]}}`` of one run set."""
    out: dict[str, dict[str, list[float]]] = {}
    for f in sorted(path.rglob("result.json")):
        doc = json.loads(f.read_text())
        per_metric = out.setdefault(doc["workload"], {})
        for name, m in doc["metrics"].items():
            per_metric.setdefault(name, []).append(m["value"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[str, float, float]:
    """(verdict, signed change of the median with worse > 0, the wider
    spread of the two sides)."""
    qa, qb = quartiles(a), quartiles(b)
    spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
    change = (qb[1] - qa[1]) / qa[1]
    if better == "higher":
        change = -change
        all_better, all_worse = min(b) > max(a), max(b) < min(a)
    else:
        all_better, all_worse = max(b) < min(a), min(b) > max(a)
    if spread > bound and not (all_better or all_worse):
        return "unresolved", change, spread
    if change > bound:
        return "worse", change, spread
    if change < -bound:
        return "better", change, spread
    return "same", change, spread


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [load_set(Path(p)) for p in argv]
    bad = 0
    print(f"{'workload':17s} {'metric':14s} {'A q1/med/q3':>32s} "
          f"{'B q1/med/q3':>32s} {'spread':>7s} {'change':>8s} "
          f"{'bound':>6s}  verdict")
    for w in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"]:
            a = sets[0].get(w, {}).get(m["name"], [])
            b = sets[1].get(w, {}).get(m["name"], [])
            if len(a) < 2 or len(b) < 2:
                print(f"{w:17s} {m['name']:14s} needs two runs a side, has "
                      f"{len(a)} and {len(b)}")
                bad += 1
                continue
            word, change, spread = verdict(a, b, m["better"], m["bound"])
            bad += word in ("worse", "unresolved")
            fmt = "/".join(["{:.4g}"] * 3)
            print(f"{w:17s} {m['name']:14s} "
                  f"{fmt.format(*quartiles(a)):>32s} "
                  f"{fmt.format(*quartiles(b)):>32s} {spread:7.3f} "
                  f"{change:+8.3f} {m['bound']:6.2f}  {word}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
