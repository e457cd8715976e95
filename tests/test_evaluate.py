"""Purity, agreement, and throughput metrics on hand-built inputs."""

import itertools
import os
import random
import subprocess
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import pytest

from sketchclust import (
    ACTION_ASSIGNED,
    ACTION_INITIALIZED,
    ACTION_REPLACED,
    AssignmentEvent,
    assignment_agreement,
    overall_rate,
    purity_from_events,
    throughput,
)


def _ev(gid, action, idx):
    return AssignmentEvent(graph_id=gid, action=action, cluster_index=idx)


def _assigned(assignments: dict) -> list[AssignmentEvent]:
    """One ``assigned`` event per item, in order."""
    return [_ev(item, ACTION_ASSIGNED, idx) for item, idx in assignments.items()]


def test_purity_hand_example():
    assignments = {"a": 0, "b": 0, "c": 0, "d": 1, "e": 1}
    labels = {"a": "X", "b": "X", "c": "Y", "d": "Z", "e": "Z"}
    report, _ = purity_from_events(_assigned(assignments), labels)
    assert report.per_cluster_purity == pytest.approx([2 / 3, 1.0])
    assert report.average_purity == pytest.approx(5 / 6)
    assert report.size_weighted_purity == pytest.approx(4 / 5)
    assert report.cluster_sizes == [3, 2]
    assert report.dominant_labels == ["X", "Z"]
    assert asdict(report)["average_purity"] == pytest.approx(5 / 6)
    assert report.chance_purity == pytest.approx(2 / 5)
    # 2 pairs share a cluster and a label, of 4 in a cluster, 2 in a label, 10 in all
    assert report.adjusted_rand_index == 6 / 11


def test_chance_purity_shows_a_collapse_that_average_purity_hides():
    """One mixed 90-graph cluster (three labels, 30 each) and three
    singletons: the singletons lift the unweighted score, while the
    size-weighted one sits barely above the chance level."""
    events = [_ev(f"g{i}", ACTION_ASSIGNED, 0) for i in range(90)]
    labels = {f"g{i}": "XYZ"[i % 3] for i in range(90)}
    for slot, label in enumerate(["U", "V", "W"], start=1):
        events.append(_ev(f"s{slot}", ACTION_INITIALIZED, slot))
        labels[f"s{slot}"] = label
    report, _ = purity_from_events(events, labels)
    assert report.cluster_sizes == [90, 1, 1, 1]
    assert report.average_purity == pytest.approx(0.8333, abs=5e-5)
    assert report.size_weighted_purity == pytest.approx(33 / 93)
    assert report.chance_purity == pytest.approx(30 / 93)
    # the size-aware partition score reads the collapse near 0
    assert report.adjusted_rand_index == 2639 / 45419


def test_all_generations_purity_counts_the_members_of_replaced_clusters():
    """Slot 0 holds X, X, Y until f replaces it; slot 1 holds Z, Y, Y.
    Live, slot 0 is f alone (pure) and slot 1 scores 2 of 3: 3 of 4 members.
    Over all generations the replaced one adds its 2 X of 3, so 5 of the
    log's 7 graphs count."""
    events = _assigned({"a": 0, "b": 0, "c": 1, "d": 0, "e": 1, "g": 1})
    events.insert(4, _ev("f", ACTION_REPLACED, 0))
    labels = {"a": "X", "b": "X", "c": "Z", "d": "Y", "e": "Y", "f": "W", "g": "Y"}
    report, _ = purity_from_events(events, labels)
    assert report.cluster_sizes == [1, 3]
    assert report.size_weighted_purity == 3 / 4
    assert report.all_generations_purity == 5 / 7


def test_all_generations_purity_is_the_size_weighted_one_without_replacements():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(1, 40)
        events = [_ev(f"g{i}", ACTION_INITIALIZED, i) for i in range(min(n, 3))]
        events += [_ev(f"g{i}", ACTION_ASSIGNED, rng.randrange(3)) for i in range(3, n)]
        labels = {f"g{i}": rng.choice("XYZ") for i in range(n)}
        report, _ = purity_from_events(events, labels)
        assert report.all_generations_purity == report.size_weighted_purity


def _pair_counted_ari(members: list[tuple[int, str]]) -> Fraction:
    """The adjusted Rand index of ``(cluster, label)`` members, counted
    pair by pair (Hubert & Arabie's definition), exactly."""
    pairs = list(itertools.combinations(members, 2))
    together = sum(a[0] == b[0] and a[1] == b[1] for a, b in pairs)
    clustered = sum(a[0] == b[0] for a, b in pairs)
    labeled = sum(a[1] == b[1] for a, b in pairs)
    expected = Fraction(clustered * labeled, len(pairs))
    return (together - expected) / (Fraction(clustered + labeled, 2) - expected)


def test_adjusted_rand_index_matches_pair_counting():
    rng = random.Random(16)
    for _ in range(200):
        events, labels = [], {}
        for i in range(rng.randint(3, 40)):
            slot = rng.randrange(4)
            action = ACTION_ASSIGNED if rng.random() < 0.7 else ACTION_REPLACED
            events.append(_ev(f"g{i}", action, slot))
            labels[f"g{i}"] = rng.choice("XYZ")
        report, _ = purity_from_events(events, labels)
        live: dict[int, list[str]] = {}
        for ev in events:
            if ev.action == ACTION_REPLACED:
                live[ev.cluster_index] = []
            live.setdefault(ev.cluster_index, []).append(labels[ev.graph_id])
        members = [(slot, label) for slot, ls in live.items() for label in ls]
        clustered = sum(n * (n - 1) for n in map(len, live.values()))
        if 0 < clustered < len(members) * (len(members) - 1):  # not degenerate
            assert report.adjusted_rand_index == float(_pair_counted_ari(members))


def test_adjusted_rand_index_is_1_where_the_clusters_match_the_labels():
    # slot 1 is replaced: only its live member counts, and it matches
    events = _assigned({"a": 0, "b": 0, "c": 1, "d": 2, "e": 2})
    events.append(_ev("f", ACTION_REPLACED, 1))
    labels = {"a": "X", "b": "X", "c": "X", "d": "Z", "e": "Z", "f": "Y"}
    report, _ = purity_from_events(events, labels)
    assert report.cluster_sizes == [2, 1, 2]
    assert report.adjusted_rand_index == 1.0


@pytest.mark.parametrize(
    "assignments, labels",
    [
        ({"a": 0}, "X"),
        ({"a": 0, "b": 0, "c": 0}, "XXX"),
        ({"a": 0, "b": 1, "c": 2}, "XYZ"),
    ],
    ids=["one_member", "all_together", "all_apart"],
)
def test_adjusted_rand_index_is_1_where_its_denominator_is_0(assignments, labels):
    """The denominator is 0 only when both partitions hold every member
    in one block, or every member apart: the same partition."""
    report, _ = purity_from_events(_assigned(assignments), dict(zip(assignments, labels)))
    assert report.adjusted_rand_index == 1.0


def test_adjusted_rand_index_reads_0_for_a_clustering_that_splits_no_label():
    # one cluster of two labels: no pair agrees beyond chance
    report, _ = purity_from_events(_assigned({"a": 0, "b": 0}), {"a": "X", "b": "Y"})
    assert report.adjusted_rand_index == 0.0


def test_purity_skips_empty_slots_in_macro_average():
    report, _ = purity_from_events(_assigned({"a": 0, "b": 2}), {"a": "L", "b": "L"})
    assert report.per_cluster_purity == [1.0, 0.0, 1.0]
    assert report.cluster_sizes == [1, 0, 1]
    assert report.dominant_labels == ["L", None, "L"]
    assert report.average_purity == 1.0


def test_event_purity_replacement_resets_slot():
    events = [
        _ev("g0", ACTION_INITIALIZED, 0),
        _ev("g1", ACTION_INITIALIZED, 1),
        _ev("g2", ACTION_ASSIGNED, 0),
        _ev("g3", ACTION_ASSIGNED, 0),
        _ev("g4", ACTION_REPLACED, 0),
    ]
    labels = {"g0": "X", "g1": "Y", "g2": "X", "g3": "Y", "g4": "Z"}
    report, series = purity_from_events(events, labels)
    # slot 0 forgets the three graphs it held before the replacement
    assert report.cluster_sizes == [1, 1]
    assert report.dominant_labels == ["Z", "Y"]
    assert report.average_purity == 1.0
    assert series == []


def test_event_purity_series_sampling():
    events = [
        _ev("g0", ACTION_INITIALIZED, 0),
        _ev("g1", ACTION_INITIALIZED, 1),
        _ev("g2", ACTION_ASSIGNED, 0),
        _ev("g3", ACTION_ASSIGNED, 1),
    ]
    labels = {"g0": "X", "g1": "Y", "g2": "Y", "g3": "Y"}
    report, series = purity_from_events(events, labels, every=2)
    assert [p for p, _ in series] == [2, 4]
    assert series[0][1] == pytest.approx(1.0)
    assert series[1][1] == pytest.approx(0.75)  # (1/2 + 1) / 2
    assert report.average_purity == pytest.approx(0.75)


def test_event_purity_validation():
    with pytest.raises(ValueError):
        purity_from_events([], {})
    with pytest.raises(ValueError):
        purity_from_events([_ev("g0", ACTION_INITIALIZED, 0)], {})
    with pytest.raises(ValueError):
        purity_from_events([_ev("g0", "exploded", 0)], {"g0": "X"})


def test_agreement_is_permutation_invariant():
    ids = [f"g{i}" for i in range(6)]
    route_a = [0, 1, 0, 1, 0, 1]
    route_b = [1, 0, 1, 0, 1, 0]  # same partition, slots swapped
    events_a = [_ev(g, ACTION_ASSIGNED, c) for g, c in zip(ids, route_a)]
    events_b = [_ev(g, ACTION_ASSIGNED, c) for g, c in zip(ids, route_b)]
    assert assignment_agreement(events_a, events_b) == 1.0


def test_agreement_counts_routing_differences():
    ids = [f"g{i}" for i in range(4)]
    events_a = [_ev(g, ACTION_ASSIGNED, c) for g, c in zip(ids, [0, 0, 1, 1])]
    events_b = [_ev(g, ACTION_ASSIGNED, c) for g, c in zip(ids, [0, 1, 1, 1])]
    assert assignment_agreement(events_a, events_b) == pytest.approx(3 / 4)
    # the first log's highest slot above the second's: the overlap spans both
    events_a = [_ev(g, ACTION_ASSIGNED, c) for g, c in zip(ids, [3, 3, 0, 1])]
    events_b = [_ev(g, ACTION_ASSIGNED, c) for g, c in zip(ids, [0, 0, 1, 1])]
    assert assignment_agreement(events_a, events_b) == pytest.approx(3 / 4)


def test_agreement_action_mismatch_disagrees():
    a = [_ev("g0", ACTION_ASSIGNED, 0)]
    b = [_ev("g0", ACTION_REPLACED, 0)]
    assert assignment_agreement(a, b) == 0.0


def test_agreement_replacements_match_regardless_of_slot():
    a = [_ev("g0", ACTION_REPLACED, 0)]
    b = [_ev("g0", ACTION_REPLACED, 1)]
    assert assignment_agreement(a, b) == 1.0


def test_agreement_input_validation():
    ev = _ev("g0", ACTION_ASSIGNED, 0)
    with pytest.raises(ValueError):
        assignment_agreement([ev], [])
    with pytest.raises(ValueError):
        assignment_agreement([ev], [_ev("other", ACTION_ASSIGNED, 0)])
    with pytest.raises(ValueError):
        assignment_agreement([], [])


def test_throughput_exact_windows():
    marks = [(0.0, 0), (0.5, 50), (1.0, 150)]
    assert throughput(marks) == [(0.5, 100.0), (1.0, 200.0)]


def test_throughput_interpolates_inside_sparse_marks():
    marks = [(0.0, 0), (1.0, 200)]
    assert throughput(marks) == [(0.5, 200.0), (1.0, 200.0)]


def test_throughput_short_span_yields_nothing():
    assert throughput([(0.0, 0), (0.4, 50)]) == []
    assert throughput([(0.0, 0)]) == []
    assert throughput([]) == []


def test_throughput_rejects_bad_input():
    with pytest.raises(ValueError, match="monotone"):
        throughput([(1.0, 0), (0.5, 10)])
    with pytest.raises(ValueError, match="monotone"):
        throughput([(0.0, 10), (1.0, 5)])


def test_overall_rate():
    assert overall_rate([(0.0, 0), (2.0, 100)]) == pytest.approx(50.0)
    assert overall_rate([(0.0, 0)]) is None
    assert overall_rate([(1.0, 0), (1.0, 10)]) is None


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is most of a cold ``import sketchclust``; only
    # ``assignment_agreement`` needs it, and imports it when called.
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys, sketchclust; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "False"
