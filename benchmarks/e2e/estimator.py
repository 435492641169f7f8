"""Block statistics and the steady-state estimator.

A case's timed phase is 50-70 short *blocks* (~0.06 s each,
interleaved with the other cases' blocks).  Each block keeps its own median,
tail percentile, rate and CPU figure; a case's value is its quietest block —
lowest latency, highest rate — and a workload's value is the geometric mean
over its cases.

Why the quietest block and not the median over every sample: on the 2-core
shared host this was written on, host noise is one-sided and comes in
regimes that last seconds.  A five-minute recording of the pinned 20-byte
pingpong (6000 blocks of 50 ms) sits at 113 us for 27% of the time and at
140-160 us or worse for the rest; cut into sixteen 18 s runs, the lowest
block reads 112-115 us in every run (spread 1%), the median of the blocks
116-175 us (spread 4-6%) and their lower quartile 114-159 us (19%).  Blocks
are short so that a case meets the quiet regime even when it lasts a second.
The all-sample median and the block spread go to ``detail.json`` so the
noise stays visible.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

#: Fewest samples that must lie beyond a percentile *within one block* for
#: that percentile to be reported (choosing-metrics guide, section 1).
MIN_BEYOND = 10


def percentile(sorted_sample: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of an ascending sample."""
    if len(sorted_sample) == 0:
        raise ValueError("percentile of an empty sample")
    rank = math.ceil(q / 100.0 * len(sorted_sample))
    return sorted_sample[min(len(sorted_sample), max(rank, 1)) - 1]


def supported_percentile(n: int, wanted: float) -> float | None:
    """``wanted`` if a block of ``n`` samples has at least
    :data:`MIN_BEYOND` samples beyond it, else None."""
    beyond = n - math.ceil(wanted / 100.0 * n)
    return wanted if beyond >= MIN_BEYOND else None


def highest_supported_percentile(n: int) -> float:
    """The highest whole percentile with :data:`MIN_BEYOND` samples beyond
    it in a sample of ``n`` (50 when even the median is not supported)."""
    for q in range(99, 50, -1):
        if supported_percentile(n, q) is not None:
            return float(q)
    return 50.0


def quiet(values: Iterable[float], better: str) -> float:
    """The quietest block's value: host noise only ever adds time."""
    return min(values) if better == "lower" else max(values)


def geomean(values: Iterable[float]) -> float:
    vals = list(values)
    if not vals:
        raise ValueError("geomean of nothing")
    if any(v <= 0 for v in vals):
        raise ValueError(f"geomean needs positive values, got {vals}")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def block_summary(lat_ns: np.ndarray, wall_ns: int, cpu_s: float,
                  tail_q: float | None) -> dict:
    """Summarise one block of per-operation latencies (nanoseconds).

    ``wall_ns`` is the block's own wall time (first op start to last op
    end) and ``cpu_s`` the process-CPU delta over it.
    """
    n = len(lat_ns)
    ordered = np.sort(lat_ns)
    out = {
        "n": n,
        "p50_us": float(np.median(ordered)) / 1e3,
        "ops_per_s": n / (wall_ns / 1e9),
        "cpu_us_per_op": cpu_s * 1e6 / n,
    }
    if tail_q is not None:
        out["tail_us"] = float(percentile(ordered, tail_q)) / 1e3
    return out
