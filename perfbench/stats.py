"""Summary statistics used by the benchmark report."""

from __future__ import annotations

import math
from fractions import Fraction

# Percentiles considered for the tail figure, lowest first.
TAIL_LADDER = (
    Fraction(50),
    Fraction(75),
    Fraction(90),
    Fraction(95),
    Fraction(99),
    Fraction(999, 10),
)
MIN_BEYOND = 10


def nearest_rank(sorted_values: list[float], pct: Fraction) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = math.ceil(pct * len(sorted_values) / 100)
    return sorted_values[max(rank, 1) - 1]


def samples_beyond(count: int, pct: Fraction) -> int:
    """Samples ranked above the nearest-rank pct-th percentile."""
    return count - math.ceil(pct * count / 100)


def tail_percentile(count: int) -> Fraction | None:
    """Highest ladder percentile with at least MIN_BEYOND samples above it,
    or None when even the median has fewer."""
    best = None
    for pct in TAIL_LADDER:
        if samples_beyond(count, pct) >= MIN_BEYOND:
            best = pct
    return best


def format_pct(pct: Fraction) -> str:
    return f"p{float(pct):g}"
