"""Log-barrier weight refinement on frozen cluster geometry."""

import math
import random

import numpy as np
import pytest

from reference import filled
from sketchclust import (
    BarrierConfig,
    ClusterGeometry,
    Engine,
    EngineConfig,
    GraphObject,
    SideType,
    StreamSchema,
    barrier_gradient,
    barrier_objective,
    graph_views,
    preprocess,
    refine_weights,
)
from sketchclust.exact import ExactBank

SCHEMA = StreamSchema(side_types=(SideType("topics"),))


def _graph(i: int, edges, topics) -> GraphObject:
    return preprocess(
        GraphObject(id=f"g{i}", ts=i, edges=edges, side={"topics": topics}), SCHEMA
    )


def _geometry(*clusters: list[GraphObject]) -> ClusterGeometry:
    """The geometry of an exact bank with one slot per graph list."""
    views = [[graph_views(g, SCHEMA) for g in graphs] for graphs in clusters]
    return filled(ExactBank(SCHEMA.d, len(clusters)), *views).geometry()


def _random_geometry(rng: random.Random, d: int = 2, n_pairs: int = 4) -> ClusterGeometry:
    intra = np.array([rng.uniform(0.0, 5.0) for _ in range(d + 1)])
    rows = []
    for _ in range(n_pairs):
        row = np.array([rng.uniform(0.0, 4.0) for _ in range(d + 1)])
        if not row.any():
            row[rng.randrange(d + 1)] = 1.0
        rows.append(row)
    pairs = [(0, i + 1) for i in range(n_pairs)]
    return ClusterGeometry(
        intra=intra, pairs=pairs, inter_sq=np.vstack(rows), dropped=[]
    )


def _feasible_point(rng: random.Random, geom: ClusterGeometry) -> np.ndarray:
    w = np.array([rng.uniform(0.2, 2.0) for _ in range(len(geom.intra))])
    q_min = float(np.min(geom.inter_sq @ w))
    return w * (1.5 / q_min) if q_min < 1.5 else w


def test_barrier_config_validation():
    with pytest.raises(ValueError):
        BarrierConfig(t=0.0)
    with pytest.raises(ValueError):
        BarrierConfig(step_size=0.0)
    with pytest.raises(ValueError):
        BarrierConfig(max_steps=-1)
    with pytest.raises(ValueError):
        BarrierConfig(feasibility_margin=1.0)
    with pytest.raises(ValueError):
        BarrierConfig(weight_floor=-1e-9)


def test_geometry_from_clusters():
    ca = [_graph(0, [("a", "b", 1.0)], {}), _graph(1, [("a", "b", 3.0)], {})]
    cb = [_graph(2, [("a", "b", 1.0)], {})]
    geom = _geometry(ca, cb)
    assert geom.pairs == [(0, 1)]
    assert geom.intra.tolist() == pytest.approx([2.0, 0.0])
    assert geom.inter_sq.tolist() == [pytest.approx([1.0, 0.0])]
    assert geom.dropped == []


def test_geometry_drops_coincident_pairs():
    geom = _geometry([_graph(0, [("a", "b", 2.0)], {})], [_graph(1, [("a", "b", 2.0)], {})])
    assert geom.pairs == []
    assert geom.dropped == [(0, 1)]


def test_geometry_needs_two_clusters():
    with pytest.raises(ValueError, match="two nonempty"):
        _geometry([_graph(0, [("a", "b", 1.0)], {})])
    with pytest.raises(ValueError, match="two nonempty"):
        _geometry()


def test_objective_hand_example():
    # one pair with Q = 4: f = t*<w, intra> - 2*log(sqrt(4) - 1) = 0
    geom = ClusterGeometry(
        intra=np.zeros(2),
        pairs=[(0, 1)],
        inter_sq=np.array([[4.0, 0.0]]),
        dropped=[],
    )
    cfg = BarrierConfig(t=1.0)
    assert barrier_objective([1.0, 1.0], geom, cfg) == pytest.approx(0.0)
    # Q = 1 sits on the boundary: infeasible
    assert barrier_objective([0.25, 0.0], geom, cfg) == math.inf
    assert barrier_objective([0.0, 0.0], geom, cfg) == math.inf


def test_objective_linear_without_pairs():
    geom = ClusterGeometry(
        intra=np.array([2.0, 3.0]),
        pairs=[],
        inter_sq=np.zeros((0, 2)),
        dropped=[],
    )
    cfg = BarrierConfig(t=2.0)
    assert barrier_objective([1.0, 1.0], geom, cfg) == pytest.approx(10.0)
    assert barrier_gradient([1.0, 1.0], geom, cfg).tolist() == pytest.approx([4.0, 6.0])


def test_gradient_matches_finite_differences():
    rng = random.Random(101)
    cfg = BarrierConfig(t=1.7)
    h = 1e-6
    for trial in range(40):
        geom = _random_geometry(rng)
        w = _feasible_point(rng, geom)
        grad = barrier_gradient(w, geom, cfg)
        for comp in range(len(w)):
            bump = np.zeros_like(w)
            bump[comp] = h
            numeric = (
                barrier_objective(w + bump, geom, cfg)
                - barrier_objective(w - bump, geom, cfg)
            ) / (2 * h)
            assert grad[comp] == pytest.approx(numeric, rel=1e-4, abs=1e-4)


def test_gradient_requires_feasibility():
    geom = ClusterGeometry(
        intra=np.zeros(2),
        pairs=[(0, 1)],
        inter_sq=np.array([[1.0, 0.0]]),
        dropped=[],
    )
    with pytest.raises(ValueError):
        barrier_gradient([0.5, 0.0], geom, BarrierConfig())


def test_midpoint_convexity():
    rng = random.Random(55)
    cfg = BarrierConfig(t=1.0)
    for trial in range(30):
        geom = _random_geometry(rng)
        a = _feasible_point(rng, geom)
        b = _feasible_point(rng, geom)
        mid = 0.5 * (a + b)
        fa = barrier_objective(a, geom, cfg)
        fb = barrier_objective(b, geom, cfg)
        fm = barrier_objective(mid, geom, cfg)
        assert fm <= 0.5 * fa + 0.5 * fb + 1e-9


def test_refine_never_increases_objective():
    rng = random.Random(77)
    for trial in range(25):
        geom = _random_geometry(rng)
        cfg = BarrierConfig(t=rng.uniform(0.5, 3.0), max_steps=20)
        start = _feasible_point(rng, geom)
        start_value = barrier_objective(start, geom, cfg)
        out = refine_weights(start, geom, cfg)
        assert barrier_objective(out, geom, cfg) <= start_value + 1e-12
        assert np.all(out >= cfg.weight_floor)


def test_refine_repairs_infeasible_start():
    geom = ClusterGeometry(
        intra=np.array([1.0, 1.0]),
        pairs=[(0, 1)],
        inter_sq=np.array([[4.0, 1.0]]),
        dropped=[],
    )
    cfg = BarrierConfig(max_steps=0)  # isolate the repair rescale
    out = refine_weights([0.01, 0.01], geom, cfg)
    q = float((geom.inter_sq @ out)[0])
    assert math.sqrt(q) == pytest.approx(1.0 + cfg.feasibility_margin)


def test_refine_restarts_from_uniform_when_support_vanishes():
    # All weight sits on a component along which the pair does not
    # separate; rescaling cannot fix that.
    geom = ClusterGeometry(
        intra=np.array([1.0, 1.0]),
        pairs=[(0, 1)],
        inter_sq=np.array([[0.0, 2.0]]),
        dropped=[],
    )
    out = refine_weights([1.0, 0.0], geom, BarrierConfig(max_steps=0))
    assert float((geom.inter_sq @ out)[0]) > 1.0


def test_refine_respects_weight_floor():
    rng = random.Random(31)
    geom = _random_geometry(rng)
    cfg = BarrierConfig(t=50.0, max_steps=40, weight_floor=1e-4)
    out = refine_weights(_feasible_point(rng, geom), geom, cfg)
    assert np.all(out >= 1e-4)


def test_refine_weights_passthrough_cases():
    # one live cluster: the engine does not refresh at all
    engine = Engine(EngineConfig(k=2, gamma=1), SCHEMA, "exact")
    engine.weights = np.array([1.0, 2.0])
    engine.process(_graph(0, [("a", "b", 1.0)], {}))
    assert engine.weights.tolist() == [1.0, 2.0]
    # every pair coincident: nothing to separate, weights unchanged
    geom = _geometry([_graph(1, [("a", "b", 2.0)], {})], [_graph(2, [("a", "b", 2.0)], {})])
    w = np.array([1.0, 1.0])
    assert refine_weights(w, geom, BarrierConfig()).tolist() == [1.0, 1.0]


def test_refine_weights_emits_trace():
    records: list[dict] = []
    geom = _geometry(
        [_graph(0, [("a", "b", 1.0)], {"x": 2.0})], [_graph(1, [("c", "d", 3.0)], {"y": 1.0})]
    )
    refine_weights([1.0, 1.0], geom, BarrierConfig(max_steps=5), trace=records.append)
    assert records, "expected at least the summary record"
    assert "final_weights" in records[-1]
    assert records[-1]["pairs"] == 1


def test_refine_prefers_separating_component():
    # Component 1 separates the pair and costs little intra; component 0
    # carries intra cost but no separation. Weight must flow to 1.
    geom = ClusterGeometry(
        intra=np.array([5.0, 0.5]),
        pairs=[(0, 1)],
        inter_sq=np.array([[0.0, 3.0]]),
        dropped=[],
    )
    cfg = BarrierConfig(t=1.0, max_steps=60, step_size=0.05)
    out = refine_weights([1.0, 1.0], geom, cfg)
    assert out[1] > out[0]
