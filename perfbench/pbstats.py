"""Order statistics and rank correlation used by the benchmark.

Kept free of numpy/scipy so the benchmark's own arithmetic does not
depend on the libraries the program under test uses.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation.

    Matches ``numpy.percentile``'s default ("linear") method.
    """
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside 0..100")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = math.ceil(pos)
    if low == high:
        return float(ordered[low])
    frac = pos - low
    return float(ordered[low] + (ordered[high] - ordered[low]) * frac)


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and relative spread of repeated measurements.

    Quartiles come from ``statistics.quantiles(values, n=4)`` (its
    default "exclusive" method); ``spread`` is the inter-quartile
    distance as a share of the median.
    """
    if not values:
        raise ValueError("summary of an empty sequence")
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = float(values[0])
    else:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else math.inf
    return {"n": len(values), "median": float(median), "q1": float(q1),
            "q3": float(q3), "spread": spread}


def ranks(values: Sequence[float]) -> List[float]:
    """1-based ranks, ties sharing the mean of the ranks they span."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    out = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            out[order[k]] = mean_rank
        i = j + 1
    return out


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman's rank correlation (Pearson correlation of the ranks).

    Returns NaN when either side has no variation, as scipy does.
    """
    if len(xs) != len(ys):
        raise ValueError("spearman needs equally long sequences")
    if len(xs) < 2:
        return math.nan
    rx, ry = ranks(xs), ranks(ys)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    sxy = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    sxx = sum((a - mx) ** 2 for a in rx)
    syy = sum((b - my) ** 2 for b in ry)
    if sxx == 0 or syy == 0:
        return math.nan
    return sxy / math.sqrt(sxx * syy)
