"""Distance expansions against hand-computed values on the exact backend."""

import random

import numpy as np
import pytest

from sketchclust import (
    ClusterStats,
    ExactClusterStats,
    GraphObject,
    SideType,
    SketchConfig,
    StreamSchema,
    component_distance_sq,
    component_distances_sq,
    ensure_weights,
    es_distance_sq,
    graph_views,
    inter_distance_sq,
    inter_vector_sq,
    intra_distance_sq,
    intra_vector_sq,
    preprocess,
    structural_spread,
)
from sketchclust.sketch import _index_matrix

SCHEMA = StreamSchema(side_types=(SideType("topics"),))


def _graph(i: int, edges, topics) -> GraphObject:
    return preprocess(
        GraphObject(id=f"g{i}", ts=i, edges=edges, side={"topics": topics}), SCHEMA
    )


def _component_sq(g: GraphObject, c, comp: int) -> float:
    return component_distance_sq(graph_views(g, SCHEMA)[comp], c, comp)


def _cluster(*graphs: GraphObject) -> ExactClusterStats:
    c = ExactClusterStats.empty(SCHEMA.d, keep_members=True)
    for i, g in enumerate(graphs):
        c.absorb(g, i, SCHEMA)
    return c


def test_ensure_weights():
    assert ensure_weights([1.0, 2.0], 1).tolist() == [1.0, 2.0]
    with pytest.raises(ValueError):
        ensure_weights([1.0], 1)
    with pytest.raises(ValueError):
        ensure_weights([1.0, -0.5], 1)
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError):
            ensure_weights([1.0, bad], 1)


def test_edge_distance_hand_example():
    # cluster holds edge masses 1 and 3 on the same edge; centroid mass 2
    c = _cluster(
        _graph(0, [("a", "b", 1.0)], {}),
        _graph(1, [("a", "b", 3.0)], {}),
    )
    probe = _graph(2, [("a", "b", 2.0)], {})
    assert _component_sq(probe, c, 0) == pytest.approx(0.0)
    probe = _graph(3, [("a", "b", 1.0)], {})
    # 1 - 2*(1*4)/2 + 16/4 = 1
    assert _component_sq(probe, c, 0) == pytest.approx(1.0)
    probe = _graph(4, [("a", "c", 1.0)], {})
    # disjoint support: 1 - 0 + 4 = 5
    assert _component_sq(probe, c, 0) == pytest.approx(5.0)


def test_side_distance_hand_example():
    c = _cluster(_graph(0, [], {"x": 3.0}))
    probe = _graph(1, [], {"x": 1.0})
    # (1 - 3)^2 = 4
    assert _component_sq(probe, c, 1) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        component_distance_sq(graph_views(probe, SCHEMA)[1], c, 2)


def test_intra_closed_form_hand_example():
    c = _cluster(
        _graph(0, [("a", "b", 1.0)], {}),
        _graph(1, [("a", "b", 3.0)], {}),
    )
    # 10 - 16/2 = 2, the sum of squared deviations from centroid mass 2
    assert intra_distance_sq(c, 0) == pytest.approx(2.0)
    assert intra_vector_sq(c).tolist() == pytest.approx([2.0, 0.0])


def test_structural_spread_hand_example():
    c = _cluster(
        _graph(0, [("a", "b", 1.0)], {}),
        _graph(1, [("a", "b", 3.0)], {}),
    )
    # (p/n) * weighted intra = (3/2) * 2
    assert structural_spread(c, [1.0, 1.0], p=3.0) == pytest.approx(3.0)
    assert structural_spread(c, [0.0, 1.0], p=3.0) == pytest.approx(0.0)


def test_spread_zero_for_singleton():
    c = _cluster(_graph(0, [("a", "b", 2.0)], {"x": 1.0}))
    assert structural_spread(c, [1.0, 1.0], p=3.0) == pytest.approx(0.0)


def test_inter_distance_hand_example():
    ci = _cluster(
        _graph(0, [("a", "b", 1.0)], {}),
        _graph(1, [("a", "b", 3.0)], {}),
    )
    cj = _cluster(_graph(2, [("a", "b", 1.0)], {}))
    # centroids 2 and 1 on the same edge key
    assert inter_distance_sq(ci, cj, 0) == pytest.approx(1.0)
    assert inter_vector_sq(ci, cj).tolist() == pytest.approx([1.0, 0.0])
    # weighted separation sqrt(4 * 1 + 1 * 0) = 2
    assert inter_vector_sq(ci, cj) @ np.array([4.0, 1.0]) == pytest.approx(4.0)


def test_es_distance_weighted_sum():
    c = _cluster(_graph(0, [("a", "b", 3.0)], {"x": 3.0}))
    probe = _graph(1, [("a", "b", 1.0)], {"x": 1.0})
    assert es_distance_sq(probe, c, SCHEMA, [1.0, 1.0]) == pytest.approx(8.0)
    assert es_distance_sq(probe, c, SCHEMA, [0.5, 2.0]) == pytest.approx(10.0)
    vec = np.sqrt(component_distances_sq(graph_views(probe, SCHEMA), c))
    assert vec.tolist() == pytest.approx([2.0, 2.0])


def test_empty_cluster_and_bad_component_rejected():
    empty = ExactClusterStats.empty(SCHEMA.d)
    probe = _graph(0, [("a", "b", 1.0)], {})
    with pytest.raises(ValueError):
        _component_sq(probe, empty, 0)
    c = _cluster(probe)
    with pytest.raises(ValueError):
        intra_distance_sq(c, 5)
    with pytest.raises(ValueError):
        inter_distance_sq(c, ExactClusterStats.empty(SCHEMA.d), 0)


def test_sketch_distance_clamps_estimator_noise():
    # Force both attribute keys into one cell of a 1x2 grid so the cross
    # estimate overshoots and the raw expansion dips below zero.
    keys = (b"x", b"w")
    cfg = None
    for seed in range(64):
        candidate = SketchConfig(rows=1, cols=2, seed=seed)
        idx = _index_matrix(candidate, keys)
        if idx[0, 0] == idx[0, 1]:
            cfg = candidate
            break
    assert cfg is not None
    c = ClusterStats.empty(cfg, SCHEMA.d)
    c.absorb(_graph(0, [], {"x": 2.0}), 0, SCHEMA)
    c.absorb(_graph(1, [], {"w": 2.0}), 1, SCHEMA)
    probe = _graph(2, [], {"x": 1.0, "w": 1.0})
    views = graph_views(probe, SCHEMA)
    # exact value is 0 (probe equals the centroid); the estimate must not
    # come out negative
    assert component_distances_sq(views, c)[1] == pytest.approx(0.0)


def test_sketch_never_below_exact():
    rng = random.Random(3)
    for trial in range(20):
        cfg = SketchConfig(rows=3, cols=16, seed=trial)
        sk = ClusterStats.empty(cfg, SCHEMA.d)
        ex = ExactClusterStats.empty(SCHEMA.d)
        for i in range(rng.randrange(1, 8)):
            g = _graph(
                i,
                [(f"n{rng.randrange(5)}", f"n{rng.randrange(5)}", 1.0)],
                {f"t{rng.randrange(8)}": float(rng.randrange(1, 3))},
            )
            sk.absorb(g, i, SCHEMA)
            ex.absorb(g, i, SCHEMA)
        # intra uses the self-product overestimate negatively, so the
        # sketch intra can only be smaller or equal
        for comp in (0, 1):
            assert intra_distance_sq(sk, comp) <= intra_distance_sq(ex, comp) + 1e-9


def test_component_distances_match_per_component_calls():
    rng = random.Random(9)
    c = _cluster(*[
        _graph(i, [("a", "b", float(rng.randrange(1, 4)))], {"x": 1.0})
        for i in range(4)
    ])
    probe = _graph(9, [("a", "b", 2.0)], {"x": 2.0, "y": 1.0})
    views = graph_views(probe, SCHEMA)
    combined = component_distances_sq(views, c)
    assert combined[0] == pytest.approx(component_distance_sq(views[0], c, 0))
    assert combined[1] == pytest.approx(component_distance_sq(views[1], c, 1))
