"""Order statistics the ledger reports, and the rule for which may be printed.

A percentile is printed only when at least ``MIN_BEYOND`` samples lie
beyond it (choosing-metrics guide, section 1): with fewer, the number is
one or two scheduler hiccups, not a property of the program.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

MIN_BEYOND = 10

#: Tail percentiles tried from the highest down; the median is the floor
#: and is always printed (with its sample count beside it).
TAIL_CANDIDATES = (99, 95, 90, 80, 75)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < pct <= 100:
        raise ValueError(f"pct must be in (0, 100], got {pct}")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank
    ``pct`` percentile."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def tail_pct(n: int) -> int:
    """The highest percentile of ``TAIL_CANDIDATES`` that ``n`` samples
    license; 50 when none is."""
    for pct in TAIL_CANDIDATES:
        if samples_beyond(n, pct) >= MIN_BEYOND:
            return pct
    return 50


def tail(values: Sequence[float]) -> tuple[int, float]:
    """``(pct, value)`` of the highest licensed tail percentile."""
    pct = tail_pct(len(values))
    if pct == 50:
        return 50, statistics.median(values)
    return pct, percentile(values, pct)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them -- the same rule the acceptance driver applies."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0
