"""Exact map-backed statistics: the differential-testing oracle."""

import random

import numpy as np
import pytest

from reference import ClusterStats, members_intra_sq, merge_exact, separating_rows
from sketchclust import (
    ComponentView,
    ExactClusterStats,
    GraphObject,
    SideType,
    SketchConfig,
    StreamSchema,
    graph_views,
    preprocess,
)
from sketchclust.exact import ExactBank

SCHEMA = StreamSchema(side_types=(SideType("topics"),))


def _graph(i: int, edges, topics) -> GraphObject:
    return preprocess(
        GraphObject(id=f"g{i}", ts=i, edges=edges, side={"topics": topics}), SCHEMA
    )


def _random_graph(rng: random.Random, i: int) -> GraphObject:
    edges = [
        (f"n{rng.randrange(6)}", f"n{rng.randrange(6)}", float(rng.randrange(1, 4)))
        for _ in range(rng.randrange(1, 6))
    ]
    topics = {
        f"t{rng.randrange(10)}": float(rng.randrange(1, 4))
        for _ in range(rng.randrange(1, 5))
    }
    return _graph(i, edges, topics)


def test_accessor_surface_matches_truth():
    c = ExactClusterStats.empty(SCHEMA.d)
    g0 = _graph(0, [("a", "b", 2.0)], {"x": 1.0, "y": 2.0})
    c.absorb_views(graph_views(g0, SCHEMA), 1)
    c.absorb_views(graph_views(_graph(1, [("a", "b", 1.0)], {"x": 3.0}), SCHEMA), 2)
    assert c.n == 2
    assert c.second_moment(0) == pytest.approx(5.0)
    assert c.second_moment(1) == pytest.approx(14.0)
    views = graph_views(_graph(2, [("a", "b", 1.0)], {"x": 1.0, "z": 1.0}), SCHEMA)
    assert c.first_moments(0, views[0]).tolist() == pytest.approx([3.0])
    assert c.first_moments(1, views[1]).tolist() == pytest.approx([4.0, 0.0])
    assert c.self_product(1) == pytest.approx(16.0 + 4.0)


def test_cross_product_is_exact():
    a = ExactClusterStats.empty(SCHEMA.d)
    b = ExactClusterStats.empty(SCHEMA.d)
    a.absorb_views(graph_views(_graph(0, [], {"x": 2.0, "y": 1.0}), SCHEMA), 0)
    b.absorb_views(graph_views(_graph(1, [], {"x": 3.0, "z": 5.0}), SCHEMA), 1)
    assert a.cross_product(1, b) == pytest.approx(6.0)


def test_parity_with_sketch_backend_when_separated():
    rng = random.Random(7)
    graphs = [_random_graph(rng, i) for i in range(12)]
    keys_by_comp: list[set[bytes]] = [set(), set()]
    for g in graphs:
        for comp, view in enumerate(graph_views(g, SCHEMA)):
            keys_by_comp[comp].update(view.keys)
    cfg = None
    for seed in range(50):
        candidate = SketchConfig(rows=6, cols=1024, seed=seed)
        if all(
            separating_rows(candidate, sorted(keys))
            for keys in keys_by_comp
            if keys
        ):
            cfg = candidate
            break
    assert cfg is not None, "no separating seed found"

    sketch = ClusterStats.empty(cfg, SCHEMA.d)
    exact = ExactClusterStats.empty(SCHEMA.d)
    for i, g in enumerate(graphs):
        views = graph_views(g, SCHEMA)
        sketch.absorb_views(views, i)
        exact.absorb_views(views, i)
    for comp, keys in enumerate(keys_by_comp):
        ordered = ComponentView(tuple(sorted(keys)), np.ones(len(keys)))
        assert sketch.first_moments(comp, ordered).tolist() == pytest.approx(
            exact.first_moments(comp, ordered).tolist()
        )
        assert sketch.self_product(comp) == pytest.approx(exact.self_product(comp))
        assert sketch.second_moment(comp) == pytest.approx(exact.second_moment(comp))


def test_merge_is_field_exact():
    rng = random.Random(13)
    for trial in range(15):
        graphs = [_random_graph(rng, i) for i in range(rng.randrange(2, 10))]
        whole = ExactClusterStats.empty(SCHEMA.d)
        left = ExactClusterStats.empty(SCHEMA.d)
        right = ExactClusterStats.empty(SCHEMA.d)
        for i, g in enumerate(graphs):
            views = graph_views(g, SCHEMA)
            whole.absorb_views(views, i)
            (left if rng.random() < 0.5 else right).absorb_views(views, i)
        merged = merge_exact(left, right)
        assert merged.n == whole.n
        assert merged.t_last == whole.t_last
        for comp in range(SCHEMA.d + 1):
            assert merged.maps[comp] == whole.maps[comp]
            assert merged.second_moment(comp) == whole.second_moment(comp)


def test_members_intra_sq_matches_definition():
    rng = random.Random(17)
    for trial in range(20):
        c = ExactClusterStats.empty(SCHEMA.d)
        graphs = [_random_graph(rng, i) for i in range(rng.randrange(1, 8))]
        members = [graph_views(g, SCHEMA) for g in graphs]
        for i, views in enumerate(members):
            c.absorb_views(views, i)
        for comp in (0, 1):
            # definitional: sum over members of squared distance to centroid
            keys = sorted(c.maps[comp])
            centroid = {k: c.maps[comp][k] / c.n for k in keys}
            total = 0.0
            for g in graphs:
                view = graph_views(g, SCHEMA)[comp]
                masses = dict(zip(view.keys, view.values))
                support = set(keys) | set(masses)
                total += sum(
                    (masses.get(k, 0.0) - centroid.get(k, 0.0)) ** 2 for k in support
                )
            assert members_intra_sq(members, comp) == pytest.approx(total, abs=1e-9)


def _bank(rng: random.Random, graphs: int) -> ExactBank:
    """An exact bank with two live clusters over random graphs."""
    bank = ExactBank(SCHEMA.d)
    for i in range(graphs):
        views = graph_views(_random_graph(rng, i), SCHEMA)
        if len(bank) < 2:
            bank.add(views, i)
        else:
            bank.absorb(i % 2, views, i)
    return bank


def test_serialization_round_trip():
    bank = _bank(random.Random(19), 9)
    blob = bank.to_bytes()
    again = ExactBank(SCHEMA.d)
    assert again.load(b"pad" + blob, 3, 2) == 3 + len(blob)
    for mine, theirs in zip(bank.slots, again.slots):
        assert (theirs.n, theirs.t_last) == (mine.n, mine.t_last)
        assert theirs.maps == mine.maps
        assert np.array_equal(theirs.second_moments, mine.second_moments)
        assert theirs.second_moments.flags.writeable  # absorb adds in place
    assert again.to_bytes() == blob


def test_from_bytes_rejects_garbage():
    blob = bytearray(_bank(random.Random(23), 4).to_bytes())
    for size in range(len(blob)):
        with pytest.raises(ValueError, match="truncated"):
            ExactBank(SCHEMA.d).load(bytes(blob[:size]), 0, 2)
    blob[:4] = b"ZZZZ"  # a slot count far above k, rejected before any slot
    with pytest.raises(ValueError, match="more than k"):
        ExactBank(SCHEMA.d).load(bytes(blob), 0, 2)
