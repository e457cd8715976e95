"""Arithmetic the benchmark reports: percentiles, span self time, ratios.

Kept free of timing and I/O so ``test_arith.py`` can check it exactly.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from typing import Sequence

# A reported percentile must have at least this many samples above it.
MIN_BEYOND = 10


def nearest_rank(n: int, q: Fraction) -> int:
    """1-based nearest-rank index of quantile ``q`` among ``n`` sorted samples."""
    if n < 1:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 1:
        raise ValueError("quantile must lie in (0, 1]")
    return max(1, math.ceil(q * n))


def samples_beyond(n: int, q: Fraction) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q`` quantile."""
    return n - nearest_rank(n, q)


def min_samples(q: Fraction, beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count that leaves ``beyond`` samples above quantile ``q``."""
    n = math.ceil(beyond / (1 - q))
    while samples_beyond(n, q) < beyond:
        n += 1
    return n


def percentile(sorted_values: Sequence[float], q: Fraction) -> float:
    """Nearest-rank quantile of an ascending sequence."""
    return sorted_values[nearest_rank(len(sorted_values), q) - 1]


def self_times(
    start: Sequence[float], end: Sequence[float], parent: Sequence[int]
) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread and nest properly, so the children of a span
    cover disjoint parts of its interval and their durations simply add.
    """
    own = [e - s for s, e in zip(start, end)]
    covered = [0.0] * len(own)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += own[i]
    return [d - c for d, c in zip(own, covered)]


def scale_by_blocks(
    values: Sequence[float], speed: Sequence[float], block: int, reference: float
) -> list[float]:
    """Scale timings to a host where the reference loop takes ``reference``.

    ``speed[b]`` and ``speed[b + 1]`` are the reference loop's times measured
    just before and just after block ``b`` of ``block`` values; their mean is
    the host's speed during that block.
    """
    if len(speed) < -(-len(values) // block) + 1:
        raise ValueError("need one speed sample before each block and after the last")
    return [
        v * reference * 2.0 / (speed[i // block] + speed[i // block + 1])
        for i, v in enumerate(values)
    ]


def hit_ratio(hits: int, misses: int) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def overhead_ratio(traced_s: float, untraced_s: float) -> float:
    """Extra time tracing costs, as a fraction of the untraced time."""
    return traced_s / untraced_s - 1.0


def step_accept_ratio(accepted: int, refreshes: int, max_steps: int) -> float:
    """Accepted descent steps over the most a refresh could take."""
    budget = refreshes * max_steps
    return accepted / budget if budget else 0.0


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance over the median, as ``statistics.quantiles`` gives it."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
