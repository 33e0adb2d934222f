"""Summary statistics for timing samples.

A timing is reported as its median plus the highest percentile that still
has at least ten samples beyond it, together with the sample count.
"""

import math
import statistics

# Candidate tail percentiles, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values, min_beyond=MIN_BEYOND):
    """(p, value) for the highest ladder percentile with ``min_beyond``
    samples above its rank, or None when there are too few samples."""
    n = len(values)
    best = None
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= min_beyond:
            best = (p, percentile(values, p))
    return best


def summary(values):
    """Median, sample count and the tail percentile as one line of text."""
    parts = [f"median={median(values):.6g}", f"n={len(values)}"]
    t = tail(values)
    if t is None:
        parts.append(f"(no tail percentile: fewer than {2 * MIN_BEYOND} samples)")
    else:
        parts.append(f"p{t[0]:g}={t[1]:.6g}")
    return " ".join(parts)


def quartile_spread(values):
    """Inter-quartile distance as a share of the median (the acceptance
    spread for a metric over repeated runs)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
