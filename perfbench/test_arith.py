"""Checks of the benchmark's own arithmetic.

    python3 -m pytest perfbench/test_arith.py

The repository's test command collects only ``tests/``, so these run on
demand.
"""

from __future__ import annotations

import statistics
from fractions import Fraction

import pytest

import arith
from spans import SpanRecorder

P999 = Fraction(999, 1000)


def test_p999_needs_ten_thousand_samples_for_ten_beyond():
    assert arith.min_samples(P999) == 10_000
    assert arith.samples_beyond(10_000, P999) == 10
    assert arith.samples_beyond(9_999, P999) == 9
    assert arith.samples_beyond(12_000, P999) == 12


def test_min_samples_leaves_the_requested_count_beyond():
    for q in (Fraction(1, 2), Fraction(9, 10), Fraction(99, 100), P999):
        for beyond in (1, 10, 25):
            n = arith.min_samples(q, beyond)
            assert arith.samples_beyond(n, q) >= beyond
            assert arith.samples_beyond(n - 1, q) < beyond


def test_percentile_is_nearest_rank():
    values = list(range(1, 10_001))  # 1..10000, ascending
    assert arith.percentile(values, P999) == 9_990
    assert arith.percentile(values, Fraction(1, 2)) == 5_000
    assert arith.percentile([7.0], P999) == 7.0
    assert arith.percentile([1, 2, 3], Fraction(1, 2)) == 2
    with pytest.raises(ValueError):
        arith.percentile([], P999)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 5] > b [2, 3]; root > c [6, 9]
    start = [0.0, 1.0, 2.0, 6.0]
    end = [10.0, 5.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert arith.self_times(start, end, parent) == [3.0, 3.0, 1.0, 3.0]


def test_recorder_nests_spans_and_summarises_self_time():
    rec = SpanRecorder()
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda x: inner(inner(x)))
    rec.graph_id = 7
    assert outer(1) == 3
    assert list(rec.parent) == [-1, 0, 0]
    assert list(rec.graph) == [7, 7, 7]
    s = rec.summary()
    assert s["outer"]["count"] == 1 and s["inner"]["count"] == 2
    covered = s["inner"]["total_s"]
    assert s["outer"]["self_s"] == pytest.approx(s["outer"]["total_s"] - covered)
    assert s["outer"]["self_s"] >= 0.0


def test_missing_boundary_is_reported_absent_not_fatal():
    rec = SpanRecorder()
    boundaries = (
        ("no_such_module_anywhere", "f", "gone.module"),
        ("arith", "no_such_function", "gone.function"),
        ("arith", "share", "arith.share"),
    )
    rec.patch(boundaries)
    try:
        assert rec.active
        assert arith.share(1.0, 4.0) == 0.25
    finally:
        rec.unpatch()
    assert not rec.active
    assert rec.absent == ["gone.module", "gone.function"]
    assert arith.share.__name__ == "share"  # restored
    assert rec.summary()["arith.share"]["count"] == 1


def test_scale_by_blocks_uses_the_speed_around_each_block():
    values = [1.0, 1.0, 2.0, 2.0, 3.0]
    speed = [2.0, 2.0, 4.0, 4.0]  # before block 0, after 0, after 1, after 2
    scaled = arith.scale_by_blocks(values, speed, block=2, reference=2.0)
    assert scaled == [1.0, 1.0, 4.0 / 3.0, 4.0 / 3.0, 1.5]
    with pytest.raises(ValueError):
        arith.scale_by_blocks(values, speed[:3], block=2, reference=2.0)


def test_ratios():
    assert arith.hit_ratio(3, 1) == 0.75
    assert arith.hit_ratio(0, 0) == 0.0
    assert arith.share(1.0, 4.0) == 0.25
    assert arith.share(1.0, 0.0) == 0.0
    assert arith.overhead_ratio(12.0, 10.0) == pytest.approx(0.2)
    assert arith.step_accept_ratio(50, 4, 25) == 0.5
    assert arith.step_accept_ratio(0, 0, 25) == 0.0


def test_relative_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert arith.relative_spread(values) == pytest.approx((q3 - q1) / q2)
