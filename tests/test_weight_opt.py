"""Log-barrier weight refinement on frozen cluster geometry."""

import math
import random

import numpy as np
import pytest

import reference
from reference import filled
from sketchclust import (
    BarrierConfig,
    ClusterGeometry,
    Engine,
    EngineConfig,
    GraphObject,
    SideType,
    StreamSchema,
    graph_views,
    preprocess,
    refine_weights,
)
from sketchclust.exact import ExactBank
from sketchclust.weight_opt import _evaluate, _gradient

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


def _objective(w, geom: ClusterGeometry, cfg: BarrierConfig) -> float:
    return _evaluate(np.asarray(w, dtype=np.float64), geom, cfg)[0]


def _grad(w, geom: ClusterGeometry, cfg: BarrierConfig) -> np.ndarray:
    """The gradient the optimizer takes at a feasible ``w``."""
    root = _evaluate(np.asarray(w, dtype=np.float64), geom, cfg)[1]
    return _gradient(cfg.t * geom.intra, geom, root)


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
    assert _objective([1.0, 1.0], geom, cfg) == pytest.approx(0.0)
    # Q = 1 sits on the boundary: infeasible
    assert _objective([0.25, 0.0], geom, cfg) == math.inf
    assert _objective([0.0, 0.0], geom, cfg) == math.inf


def test_objective_linear_without_pairs():
    geom = ClusterGeometry(
        intra=np.array([2.0, 3.0]),
        pairs=[],
        inter_sq=np.zeros((0, 2)),
        dropped=[],
    )
    cfg = BarrierConfig(t=2.0)
    assert _objective([1.0, 1.0], geom, cfg) == pytest.approx(10.0)
    assert _grad([1.0, 1.0], geom, cfg).tolist() == pytest.approx([4.0, 6.0])


def test_gradient_matches_finite_differences():
    rng = random.Random(101)
    cfg = BarrierConfig(t=1.7)
    h = 1e-6
    for trial in range(40):
        geom = _random_geometry(rng)
        w = _feasible_point(rng, geom)
        grad = _grad(w, geom, cfg)
        for comp in range(len(w)):
            bump = np.zeros_like(w)
            bump[comp] = h
            numeric = (
                _objective(w + bump, geom, cfg)
                - _objective(w - bump, geom, cfg)
            ) / (2 * h)
            assert grad[comp] == pytest.approx(numeric, rel=1e-4, abs=1e-4)


def test_gradient_requires_feasibility():
    geom = ClusterGeometry(
        intra=np.zeros(2),
        pairs=[(0, 1)],
        inter_sq=np.array([[4.0, 0.0]]),
        dropped=[],
    )
    # outside the region the evaluation gives no roots to take a gradient at
    assert _evaluate(np.array([0.125, 0.0]), geom, BarrierConfig()) == (math.inf, None)
    # a margin below float resolution rescales the start onto the boundary,
    # Q = 1 exactly: a point to return, but not one to descend from
    cfg = BarrierConfig(feasibility_margin=1e-17, max_steps=0)
    assert refine_weights([0.0625, 0.0], geom, cfg).tolist() == [0.25, 0.0]
    with pytest.raises(ValueError, match="strictly feasible"):
        refine_weights([0.0625, 0.0], geom, BarrierConfig(feasibility_margin=1e-17))


def test_midpoint_convexity():
    rng = random.Random(55)
    cfg = BarrierConfig(t=1.0)
    for trial in range(30):
        geom = _random_geometry(rng)
        a = _feasible_point(rng, geom)
        b = _feasible_point(rng, geom)
        mid = 0.5 * (a + b)
        fa = _objective(a, geom, cfg)
        fb = _objective(b, geom, cfg)
        fm = _objective(mid, geom, cfg)
        assert fm <= 0.5 * fa + 0.5 * fb + 1e-9


def test_refine_never_increases_objective():
    rng = random.Random(77)
    for trial in range(25):
        geom = _random_geometry(rng)
        cfg = BarrierConfig(t=rng.uniform(0.5, 3.0), max_steps=20)
        start = _feasible_point(rng, geom)
        start_value = _objective(start, geom, cfg)
        out = refine_weights(start, geom, cfg)
        assert _objective(out, geom, cfg) <= start_value + 1e-12
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


def _oracle_case(rng: random.Random, case: int):
    """A random geometry, start and config for the bitwise oracle; ``case``
    picks the start: feasible, infeasible (rescaled), on a component no pair
    separates along (restart from uniform), on the boundary Q = 1 exactly,
    or in a geometry with a NaN row (the reference's ValueError)."""
    n = rng.choice([1, 2, 3, 5])
    n_pairs = rng.choice([1, 1, rng.randint(2, 12)])
    intra = np.array([rng.choice([0.0, rng.uniform(0.0, 5.0)]) for _ in range(n)])
    inter_sq = np.array(
        [[rng.choice([0.0, rng.uniform(0.0, 4.0)]) for _ in range(n)] for _ in range(n_pairs)]
    )
    for row in inter_sq:
        if not row.any():
            row[rng.randrange(n)] = rng.uniform(0.5, 4.0)
    cfg = BarrierConfig(
        t=rng.choice([0.05, 1.0, 3.7, 50.0]),
        step_size=rng.choice([0.01, 0.1, 1.0]),
        max_steps=rng.choice([0, 1, 5, 25, 25]),
        feasibility_margin=rng.choice([0.05, 0.05, 0.3]),
        weight_floor=rng.choice([0.0, 0.0, 1e-4, 0.1]),
    )
    w = np.array([rng.uniform(0.2, 2.0) for _ in range(n)])
    kind = ("feasible", "infeasible", "restart", "boundary", "nan")[case % 5]
    if kind == "feasible":
        w *= 4.0 / float(np.min(inter_sq @ w))
    elif kind == "infeasible":
        w *= rng.uniform(0.01, 0.9) / float(np.min(inter_sq @ w))
    elif kind == "restart" and n > 1:
        # all weight on a component along which pair 0 does not separate
        comp = rng.randrange(n)
        inter_sq[0, comp] = 0.0
        inter_sq[0, (comp + 1) % n] = rng.uniform(0.5, 4.0)
        w = np.zeros(n)
        w[comp] = rng.uniform(0.2, 2.0)
    elif kind == "boundary":
        # powers of two: the rescale lands the tightest pair on Q = 1 exactly
        inter_sq = np.array([[4.0] + [0.0] * (n - 1)] * n_pairs)
        w = np.zeros(n)
        w[0] = 0.0625
        cfg = BarrierConfig(t=cfg.t, max_steps=cfg.max_steps, feasibility_margin=1e-17)
    elif kind == "nan":
        inter_sq[rng.randrange(n_pairs), rng.randrange(n)] = math.nan
    pairs = [(0, i + 1) for i in range(n_pairs)]
    geom = ClusterGeometry(intra=intra, pairs=pairs, inter_sq=inter_sq, dropped=[])
    return kind, geom, w, cfg


def _outcome(refine, geom, w, cfg):
    """The weights' bytes and trace records, or the raised ValueError."""
    records: list[dict] = []
    try:
        out = refine(w.copy(), geom, cfg, trace=records.append)
    except ValueError as exc:
        return ("ValueError", str(exc)), records
    return (out.dtype.str, out.shape, out.tobytes()), records


def test_refine_weights_matches_the_reference_bit_for_bit():
    rng = random.Random(2024)
    seen: dict[str, int] = {}
    raised = 0
    for case in range(400):
        kind, geom, w, cfg = _oracle_case(rng, case)
        expected = _outcome(reference.refine_weights, geom, w, cfg)
        assert _outcome(refine_weights, geom, w, cfg) == expected, (case, kind)
        seen[kind] = seen.get(kind, 0) + 1
        raised += expected[0][0] == "ValueError"
    assert set(seen) == {"feasible", "infeasible", "restart", "boundary", "nan"}
    assert raised >= 40  # the boundary and NaN starts that descend
