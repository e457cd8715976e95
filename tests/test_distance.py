"""Distance expansions against hand-computed values on the exact bank."""

import random

import numpy as np
import pytest

from reference import SCHEMA, component, digest_buckets, filled, graph, key_digests
from sketchclust import (
    Engine,
    EngineConfig,
    GraphObject,
    SideType,
    SketchConfig,
    StreamSchema,
    ensure_weights,
    graph_views,
)
from sketchclust.exact import ExactBank
from sketchclust.stats import ClusterBank


def _component_sq(g: GraphObject, bank, comp: int) -> float:
    """The squared component distance from ``g`` to the bank's slot 0."""
    return bank.distances_sq(graph_views(g, SCHEMA))[0, comp]


def _cluster(*graphs: GraphObject, bank=None):
    """A one-slot bank (exact unless given) holding ``graphs``."""
    bank = bank if bank is not None else ExactBank(SCHEMA.d, 2)
    return filled(bank, [graph_views(g, SCHEMA) for g in graphs])


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
        graph(0, [("a", "b", 1.0)], {}),
        graph(1, [("a", "b", 3.0)], {}),
    )
    probe = graph(2, [("a", "b", 2.0)], {})
    assert _component_sq(probe, c, 0) == pytest.approx(0.0)
    probe = graph(3, [("a", "b", 1.0)], {})
    # 1 - 2*(1*4)/2 + 16/4 = 1
    assert _component_sq(probe, c, 0) == pytest.approx(1.0)
    probe = graph(4, [("a", "c", 1.0)], {})
    # disjoint support: 1 - 0 + 4 = 5
    assert _component_sq(probe, c, 0) == pytest.approx(5.0)


def test_side_distance_hand_example():
    c = _cluster(graph(0, [], {"x": 3.0}))
    probe = graph(1, [], {"x": 1.0})
    # (1 - 3)^2 = 4
    assert _component_sq(probe, c, 1) == pytest.approx(4.0)
    with pytest.raises(ValueError, match="component count"):
        c.distances_sq(graph_views(graph(1, [], {}), StreamSchema()))


def test_intra_closed_form_hand_example():
    c = _cluster(
        graph(0, [("a", "b", 1.0)], {}),
        graph(1, [("a", "b", 3.0)], {}),
    )
    # 10 - 16/2 = 2, the sum of squared deviations from centroid mass 2
    assert c.intra_sq(0).tolist() == pytest.approx([2.0, 0.0])


def _events(graphs, weights):
    """Events of an exact engine (k=2, p=3) run at fixed ``weights``."""
    engine = Engine(EngineConfig(k=2, gamma=0), SCHEMA, "exact")
    engine.weights = np.array(weights)
    return [engine.process(g) for g in graphs]


def test_structural_spread_hand_example():
    # slot 0 takes edge masses 1 and 3 (slot 1 is far away), then a probe
    # reads its spread: (p/n) * weighted intra = (3/2) * 2
    graphs = [
        graph(0, [("a", "b", 1.0)], {}),
        graph(1, [("x", "y", 9.0)], {}),
        graph(2, [("a", "b", 3.0)], {}),
        graph(3, [("a", "b", 2.0)], {}),
    ]
    events = _events(graphs, [1.0, 1.0])
    assert [e.cluster_index for e in events[2:]] == [0, 0]
    assert events[3].spread == pytest.approx(3.0)
    events = _events(graphs, [0.0, 1.0])
    assert events[2].cluster_index == 0
    assert events[3].spread == pytest.approx(0.0)


def test_spread_zero_for_singleton():
    graphs = [
        graph(0, [("a", "b", 2.0)], {"x": 1.0}),
        graph(1, [("x", "y", 9.0)], {}),
        graph(2, [("a", "b", 1.0)], {"x": 1.0}),
    ]
    event = _events(graphs, [1.0, 1.0])[2]
    assert event.cluster_index == 0
    assert event.spread == pytest.approx(0.0)


def test_inter_distance_hand_example():
    pair = [graph(0, [("a", "b", 1.0)], {}), graph(1, [("a", "b", 3.0)], {})]
    bank = filled(
        ExactBank(SCHEMA.d, 2),
        [graph_views(g, SCHEMA) for g in pair],
        [graph_views(graph(2, [("a", "b", 1.0)], {}), SCHEMA)],
    )
    # centroids 2 and 1 on the same edge key
    inter = bank.geometry().inter_sq[0]
    assert inter.tolist() == pytest.approx([1.0, 0.0])
    # weighted separation sqrt(4 * 1 + 1 * 0) = 2
    assert inter @ np.array([4.0, 1.0]) == pytest.approx(4.0)


def test_es_distance_weighted_sum():
    # the engine's es distance: squared component distances dot weights
    c = _cluster(graph(0, [("a", "b", 3.0)], {"x": 3.0}))
    probe = graph(1, [("a", "b", 1.0)], {"x": 1.0})
    comp_sq = c.distances_sq(graph_views(probe, SCHEMA))[0]
    assert comp_sq @ np.array([1.0, 1.0]) == pytest.approx(8.0)
    assert comp_sq @ np.array([0.5, 2.0]) == pytest.approx(10.0)
    assert np.sqrt(comp_sq).tolist() == pytest.approx([2.0, 2.0])


def test_empty_cluster_and_bad_component_rejected():
    for bank in (ExactBank(SCHEMA.d, 2), ClusterBank(SketchConfig(), SCHEMA.d, 2)):
        probe = graph_views(graph(0, [("a", "b", 1.0)], {}), SCHEMA)
        # an empty bank scores no cluster, and has no geometry
        assert bank.distances_sq(probe).shape == (0, SCHEMA.d + 1)
        with pytest.raises(ValueError, match="two nonempty"):
            bank.geometry()
        bank.reset(0, probe, 1)
        with pytest.raises(ValueError, match="two nonempty"):
            bank.geometry()
        # a graph with more or fewer components than the schema
        g = graph(0, [("a", "b", 1.0)], {})
        wide = StreamSchema(side_types=(SideType("topics"), SideType("tags")))
        for schema in (StreamSchema(), wide):
            view = graph_views(g, schema)
            with pytest.raises(ValueError, match="component count"):
                bank.distances_sq(view)
            with pytest.raises(ValueError, match="component count"):
                bank.absorb(0, view, 2)


def test_sketch_distance_clamps_estimator_noise():
    # Force both attribute keys into one cell of a 1x2 grid so the cross
    # estimate overshoots and the raw expansion dips below zero.
    keys = key_digests((b"x", b"w"))
    cfg = None
    for seed in range(64):
        candidate = SketchConfig(rows=1, cols=2, seed=seed)
        idx = digest_buckets(candidate, keys)
        if idx[0, 0] == idx[0, 1]:
            cfg = candidate
            break
    assert cfg is not None
    c = _cluster(
        graph(0, [], {"x": 2.0}), graph(1, [], {"w": 2.0}), bank=ClusterBank(cfg, SCHEMA.d, 2)
    )
    probe = graph(2, [], {"x": 1.0, "w": 1.0})
    # exact value is 0 (probe equals the centroid); the estimate must not
    # come out negative
    assert _component_sq(probe, c, 1) == 0.0


def test_sketch_never_below_exact():
    rng = random.Random(3)
    for trial in range(20):
        cfg = SketchConfig(rows=3, cols=16, seed=trial)
        graphs = [
            graph(
                i,
                [(f"n{rng.randrange(5)}", f"n{rng.randrange(5)}", 1.0)],
                {f"t{rng.randrange(8)}": float(rng.randrange(1, 3))},
            )
            for i in range(rng.randrange(1, 8))
        ]
        sk = _cluster(*graphs, bank=ClusterBank(cfg, SCHEMA.d, 2))
        ex = _cluster(*graphs)
        # intra uses the self-product overestimate negatively, so the
        # sketch intra can only be smaller or equal
        assert np.all(sk.intra_sq(0) <= ex.intra_sq(0) + 1e-9)


def test_component_distances_match_per_component_calls():
    rng = random.Random(9)
    c = _cluster(*[
        graph(i, [("a", "b", float(rng.randrange(1, 4)))], {"x": 1.0})
        for i in range(4)
    ])
    probe = graph(9, [("a", "b", 2.0)], {"x": 2.0, "y": 1.0})
    combined = c.distances_sq(graph_views(probe, SCHEMA))[0]
    # each component from its own definition: the probe's masses minus
    # the centroid's, squared, over the union of keys
    view = graph_views(probe, SCHEMA)
    for comp in range(SCHEMA.d + 1):
        centroid = {key: mass / c.n[0] for key, mass in c.maps[0][comp].items()}
        probe_masses = dict(zip(*component(view, comp)))
        expected = sum(
            (probe_masses.get(key, 0.0) - centroid.get(key, 0.0)) ** 2
            for key in set(centroid) | set(probe_masses)
        )
        assert combined[comp] == pytest.approx(expected)
