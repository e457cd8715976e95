"""Sketch-backed cluster statistics bundle."""

import random

import numpy as np
import pytest

from sketchclust import (
    ClusterStats,
    GraphObject,
    SideType,
    SketchConfig,
    StreamSchema,
    graph_views,
    preprocess,
    separating_rows,
)

SCHEMA = StreamSchema(side_types=(SideType("topics"),))


def _cfg(seed: int = 0) -> SketchConfig:
    return SketchConfig(rows=4, cols=256, seed=seed)


def _graph(i: int, edges, topics) -> GraphObject:
    return preprocess(
        GraphObject(id=f"g{i}", ts=i, edges=edges, side={"topics": topics}), SCHEMA
    )


def test_empty_and_singleton():
    empty = ClusterStats.empty(_cfg(), SCHEMA.d)
    assert empty.n == 0
    assert empty.d == 1
    g = _graph(0, [("a", "b", 2.0)], {"x": 1.0})
    single = ClusterStats.empty(_cfg(), SCHEMA.d)
    single.absorb(g, now=7, schema=SCHEMA)
    assert single.n == 1
    assert single.t_last == 7
    assert single.er == pytest.approx(4.0)  # squared edge mass
    assert single.second_moment(0) == pytest.approx(4.0)
    assert single.second_moment(1) == pytest.approx(1.0)


def test_absorb_accumulates_moments_and_time():
    c = ClusterStats.empty(_cfg(), SCHEMA.d)
    c.absorb(_graph(0, [("a", "b", 1.0)], {"x": 2.0}), now=1, schema=SCHEMA)
    c.absorb(_graph(1, [("a", "b", 3.0)], {"y": 1.0}), now=5, schema=SCHEMA)
    assert c.n == 2
    assert c.t_last == 5
    # second moments add per graph: 1^2 + 3^2 and 2^2 + 1^2
    assert c.second_moment(0) == pytest.approx(10.0)
    assert c.second_moment(1) == pytest.approx(5.0)
    assert c.er == pytest.approx(10.0)
    assert c.sr.tolist() == pytest.approx([5.0])


def test_first_moments_exact_when_separated():
    cfg = _cfg(seed=1)
    g0 = _graph(0, [("a", "b", 1.0)], {"x": 2.0})
    g1 = _graph(1, [("a", "b", 3.0)], {"x": 2.0})
    keys = [view.keys for view in graph_views(g0, SCHEMA)]
    assert all(separating_rows(cfg, k) for k in keys if k)
    c = ClusterStats.empty(cfg, SCHEMA.d)
    c.absorb(g0, now=1, schema=SCHEMA)
    c.absorb(g1, now=2, schema=SCHEMA)
    est = c.first_moments(0, keys[0])
    assert est.tolist() == pytest.approx([4.0])
    assert c.first_moments(1, keys[1]).tolist() == pytest.approx([4.0])


def test_self_product_overestimates_truth():
    rng = random.Random(23)
    for trial in range(20):
        cfg = SketchConfig(rows=3, cols=32, seed=trial)
        c = ClusterStats.empty(cfg, SCHEMA.d)
        truth: dict[str, float] = {}
        for i in range(rng.randrange(1, 12)):
            topics = {
                f"t{rng.randrange(18)}": float(rng.randrange(1, 4))
                for _ in range(rng.randrange(1, 5))
            }
            g = _graph(i, [], topics)
            for view_key, value in g.side.get("topics", {}).items():
                truth[view_key] = truth.get(view_key, 0.0) + value
            c.absorb(g, now=i, schema=SCHEMA)
        exact = sum(v * v for v in truth.values())
        assert c.self_product(1) >= exact - 1e-9


def test_cross_product_overestimates_truth():
    rng = random.Random(29)
    cfg = SketchConfig(rows=3, cols=32, seed=5)
    a = ClusterStats.empty(cfg, SCHEMA.d)
    b = ClusterStats.empty(cfg, SCHEMA.d)
    ta: dict[str, float] = {}
    tb: dict[str, float] = {}
    for c, t in ((a, ta), (b, tb)):
        for i in range(6):
            topics = {f"t{rng.randrange(12)}": 1.0 for _ in range(3)}
            g = _graph(i, [], topics)
            for key, value in g.side.get("topics", {}).items():
                t[key] = t.get(key, 0.0) + value
            c.absorb(g, now=i, schema=SCHEMA)
    exact = sum(v * tb.get(k, 0.0) for k, v in ta.items())
    assert a.cross_product(1, b) >= exact - 1e-9


def test_merge_matches_sequential_absorption():
    rng = random.Random(37)
    cfg = _cfg(seed=2)
    graphs = [
        _graph(
            i,
            [(f"n{rng.randrange(5)}", f"n{rng.randrange(5)}", float(rng.randrange(1, 4)))],
            {f"t{rng.randrange(8)}": float(rng.randrange(1, 3))},
        )
        for i in range(10)
    ]
    whole = ClusterStats.empty(cfg, SCHEMA.d)
    left = ClusterStats.empty(cfg, SCHEMA.d)
    right = ClusterStats.empty(cfg, SCHEMA.d)
    for i, g in enumerate(graphs):
        whole.absorb(g, now=i, schema=SCHEMA)
        (left if i % 2 == 0 else right).absorb(g, now=i, schema=SCHEMA)
    merged = ClusterStats.merge(left, right)
    assert merged.n == whole.n
    assert merged.t_last == whole.t_last
    for comp in range(SCHEMA.d + 1):
        assert merged.second_moment(comp) == pytest.approx(whole.second_moment(comp))
        assert np.array_equal(merged.sketches[comp].cells, whole.sketches[comp].cells)


def test_merge_requires_same_shape():
    a = ClusterStats.empty(_cfg(), 1)
    b = ClusterStats.empty(_cfg(), 2)
    with pytest.raises(ValueError):
        ClusterStats.merge(a, b)


def test_serialization_round_trip():
    rng = random.Random(41)
    c = ClusterStats.empty(_cfg(seed=3), SCHEMA.d)
    for i in range(8):
        g = _graph(
            i,
            [(f"n{rng.randrange(4)}", f"n{rng.randrange(4)}", 1.0)],
            {f"t{rng.randrange(5)}": 2.0},
        )
        c.absorb(g, now=i, schema=SCHEMA)
    again = ClusterStats.from_bytes(c.to_bytes())
    assert again.n == c.n
    assert again.t_last == c.t_last
    assert again.second_moments == pytest.approx(c.second_moments)
    for mine, theirs in zip(c.sketches, again.sketches):
        assert mine == theirs
    assert again.to_bytes() == c.to_bytes()


def test_from_bytes_rejects_garbage():
    c = ClusterStats.empty(_cfg(), SCHEMA.d)
    blob = bytearray(c.to_bytes())
    blob[:4] = b"XXXX"
    with pytest.raises(ValueError):
        ClusterStats.from_bytes(bytes(blob))
