"""Clustering quality and throughput metrics.

Purity of one cluster is the fraction of its members carrying the
dominant label; the headline score averages over nonempty clusters
without size weighting (a size-weighted figure is reported alongside, and
the chance level: the size-weighted purity of one cluster of all members).
The all-generations purity counts every graph of the log once: each
cluster generation, from the event that founds a slot's cluster to the
one that replaces it, contributes the members of its dominant label.
The adjusted Rand index (Hubert & Arabie, 1985) compares the live clusters
with the labels as partitions: 1 when they agree, near 0 for a collapse.
``purity_from_events`` applies generation semantics to an event log: a
replacement restarts that cluster slot's membership, so every score but
the all-generations purity describes the live clusters.

``assignment_agreement`` compares two event logs over the same stream.
Cluster indices are matched by maximum-overlap assignment between the two
runs before comparing per-graph routing, so runs that only permute cluster
slots still agree perfectly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .engine import ACTION_ASSIGNED, ACTION_INITIALIZED, ACTION_REPLACED, AssignmentEvent


@dataclass
class PurityReport:
    per_cluster_purity: list[float]
    average_purity: float
    size_weighted_purity: float
    all_generations_purity: float
    chance_purity: float
    adjusted_rand_index: float
    cluster_sizes: list[int]
    dominant_labels: list[str | None]


def _report_from_counters(counters: Sequence[Counter], retired: int, events: int) -> PurityReport:
    """The live clusters' report; ``retired`` is the dominant-label members
    of the generations replaced within the first ``events`` events."""
    sizes = [sum(counter.values()) for counter in counters]
    tops = [c.most_common(1)[0] if size else (None, 0) for c, size in zip(counters, sizes)]
    per_cluster = [hits / size if size else 0.0 for (_, hits), size in zip(tops, sizes)]
    nonempty = [p for p, size in zip(per_cluster, sizes) if size]
    pooled = sum(counters, Counter())
    total, live = sum(sizes), sum(hits for _, hits in tops)
    return PurityReport(
        per_cluster_purity=per_cluster,
        average_purity=float(sum(nonempty) / len(nonempty)),
        size_weighted_purity=float(live / total),
        all_generations_purity=float((retired + live) / events),
        chance_purity=float(max(pooled.values()) / total),
        adjusted_rand_index=_adjusted_rand_index(counters, sizes, pooled),
        cluster_sizes=sizes,
        dominant_labels=[label for label, _ in tops],
    )


def _adjusted_rand_index(counters: Sequence[Counter], sizes: list[int], pooled: Counter) -> float:
    """The index from the member pairs that share a cluster and a label, a
    cluster, a label, or are any pair, each counted twice: integer sums, one
    rounding. Its denominator is 0 only when both partitions hold every
    member apart, or all together: the same partition, which scores 1.0."""
    def pairs(groups) -> int:  # twice the member pairs within groups of these sizes
        return sum(n * (n - 1) for n in groups)

    together = pairs(n for counter in counters for n in counter.values())
    clustered, labeled, every = pairs(sizes), pairs(pooled.values()), pairs([sum(sizes)])
    num = 2 * (together * every - clustered * labeled)
    den = (clustered + labeled) * every - 2 * clustered * labeled
    return num / den if den else 1.0


def purity_from_events(
    events: Sequence[AssignmentEvent],
    labels: Mapping[str, str],
    every: int = 0,
) -> tuple[PurityReport, list[tuple[int, float]]]:
    """Purity of the live clustering described by an event log, and of
    every cluster generation in it.

    Returns the final report plus a (processed, average_purity) series
    sampled every ``every`` events (empty series when ``every`` is 0).
    """
    if not events:
        raise ValueError("purity needs at least one event")
    counters: dict[int, Counter] = {}
    retired = 0  # dominant-label members of the replaced generations
    series: list[tuple[int, float]] = []
    for processed, ev in enumerate(events, start=1):
        if ev.graph_id not in labels:
            raise ValueError(f"missing label for graph {ev.graph_id!r}")
        label = labels[ev.graph_id]
        if ev.action in (ACTION_INITIALIZED, ACTION_REPLACED):
            old = counters.get(ev.cluster_index)
            retired += max(old.values()) if old else 0
            counters[ev.cluster_index] = Counter({label: 1})
        elif ev.action == ACTION_ASSIGNED:
            counters.setdefault(ev.cluster_index, Counter())[label] += 1
        else:
            raise ValueError(f"unknown event action {ev.action!r}")
        if every > 0 and processed % every == 0:
            report = _report_from_counters(_dense(counters), retired, processed)
            series.append((processed, report.average_purity))
    return _report_from_counters(_dense(counters), retired, len(events)), series


def _dense(counters: dict[int, Counter]) -> list[Counter]:
    size = max(counters) + 1
    return [counters.get(i, Counter()) for i in range(size)]


# ``throughput`` rates edges over windows of this many seconds, as throughput.csv reports
_THROUGHPUT_WINDOW_S = 0.5


def throughput(marks: Sequence[tuple[float, int]]) -> list[tuple[float, float]]:
    """Edge rates over ``_THROUGHPUT_WINDOW_S`` windows, from
    (elapsed_seconds, cumulative_edges) marks.

    Marks must be monotone in both fields. The cumulative count is
    linearly interpolated at window boundaries; each complete window
    yields one (window_end_seconds, edges_per_second) sample. A span too
    short to hold a complete window yields no samples rather than an
    undefined rate.
    """
    if len(marks) < 2:
        return []
    times = np.asarray([m[0] for m in marks], dtype=np.float64)
    edges = np.asarray([m[1] for m in marks], dtype=np.float64)
    if np.any(np.diff(times) < 0) or np.any(np.diff(edges) < 0):
        raise ValueError("timing marks must be monotone")
    rel = times - times[0]
    n_windows = int(rel[-1] // _THROUGHPUT_WINDOW_S)
    if n_windows < 1:
        return []
    bounds = np.arange(n_windows + 1, dtype=np.float64) * _THROUGHPUT_WINDOW_S
    cum = np.interp(bounds, rel, edges)
    rates = np.diff(cum) / _THROUGHPUT_WINDOW_S
    return [(float(bounds[i + 1]), float(rates[i])) for i in range(n_windows)]


def overall_rate(marks: Sequence[tuple[float, int]]) -> float | None:
    """Total edges over total elapsed time, None when the span is zero."""
    if len(marks) < 2:
        return None
    span = marks[-1][0] - marks[0][0]
    if span <= 0:
        return None
    return (marks[-1][1] - marks[0][1]) / span


def assignment_agreement(
    events_a: Sequence[AssignmentEvent], events_b: Sequence[AssignmentEvent]
) -> float:
    """Fraction of graphs routed equivalently by two runs of one stream.

    Equivalent means the same action, and for initializations/assignments
    the same cluster slot after best-overlap matching of slot indices
    between the runs. Raises ValueError when the logs describe different
    streams.
    """
    if len(events_a) != len(events_b):
        raise ValueError("event logs have different lengths")
    if any(ea.graph_id != eb.graph_id for ea, eb in zip(events_a, events_b)):
        raise ValueError("event logs describe different streams")
    if not events_a:
        raise ValueError("agreement needs at least one event")
    # Imported here: scipy.optimize takes most of a cold ``import
    # sketchclust``, and only this function needs it.
    from scipy.optimize import linear_sum_assignment

    size = 1 + max(ev.cluster_index for events in (events_a, events_b) for ev in events)
    overlap = np.zeros((size, size), dtype=np.int64)
    for ea, eb in zip(events_a, events_b):
        overlap[ea.cluster_index, eb.cluster_index] += 1
    # the matrix is square, so every slot of the first log is matched
    match = linear_sum_assignment(-overlap)[1].tolist()
    same = 0
    for ea, eb in zip(events_a, events_b):
        if ea.action != eb.action:
            continue
        if ea.action == ACTION_REPLACED or match[ea.cluster_index] == eb.cluster_index:
            same += 1
    return same / len(events_a)
