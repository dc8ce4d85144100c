"""Order statistics used by the benchmark."""

from __future__ import annotations

import math
import statistics


def percentile(sorted_values, q):
    """Nearest-rank q-th percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(values, q):
    """(q-th percentile, number of samples strictly above its rank)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def relative_spread(values):
    """Interquartile distance over the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


WINDOW = 5      # reference samples that scale each op time


def calibrated(latencies, calibration, reference_ns):
    """Latencies rescaled to a machine on which the reference work takes
    `reference_ns`.  calibration holds (index of the next op, reference
    work ns) in op order; op i is scaled by the median of the WINDOW
    reference times nearest its own."""
    starts = [i for i, _ in calibration]
    times = [ns for _, ns in calibration]
    half = WINDOW // 2
    out = []
    seg = 0
    for i, lat in enumerate(latencies):
        while seg + 1 < len(starts) and starts[seg + 1] <= i:
            seg += 1
        lo = max(0, min(seg - half, len(times) - WINDOW))
        out.append(lat * reference_ns / statistics.median(times[lo:lo + WINDOW]))
    return out
