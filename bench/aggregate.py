"""Aggregation rules of the benchmark, kept apart so that tests can check them.

- A case's samples reduce to their median; for the worst case, to their
  interquartile mean (a single case's samples can fall in two clusters, and
  a median of a dozen of them jumps between the clusters from run to run).
- Cases combine by geometric mean (times) or by max (worst case, memory);
  samples of different cases are never pooled into one percentile.
- A percentile is reported beside a median only when at least ten samples
  of that case lie beyond it.
- A span's self time is its duration minus the part of it that its child
  spans cover.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

median = statistics.median


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def interquartile_mean(values) -> float:
    """Mean of the middle half of the values: a quarter is cut from each end."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def tail_percentile(values) -> tuple[int, float] | None:
    """The highest of p99 and p90 with at least ten samples beyond it, else None."""
    ordered = sorted(values)
    for q in (99, 90):
        cut = statistics.quantiles(ordered, n=100)[q - 1] if len(ordered) > 1 else ordered[0]
        if sum(1 for v in ordered if v > cut) >= 10:
            return q, cut
    return None


def _covered(intervals) -> float:
    """Length of the union of [start, end] intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans) -> dict[str, float]:
    """Sum of self time per layer for spans [layer, start, end, parent index]."""
    children = defaultdict(list)
    for layer, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    for index, (layer, start, end, _) in enumerate(spans):
        clipped = [(max(s, start), min(e, end)) for s, e in children[index] if e > start and s < end]
        totals[layer] += (end - start) - _covered(clipped)
    return dict(totals)
