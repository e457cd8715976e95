"""Log-barrier weight refinement on frozen cluster geometry."""

import math
import random
import warnings
from dataclasses import fields
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import reference
from reference import SCHEMA, filled, graph
from sketchclust import (
    BarrierConfig,
    ClusterGeometry,
    Engine,
    EngineConfig,
    GraphObject,
    graph_views,
    refine_weights,
)
from sketchclust import engine as engine_module
from sketchclust import weight_opt
from sketchclust.exact import ExactBank
from sketchclust.weight_opt import _evaluate, _gradient


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
    return ClusterGeometry(intra, np.vstack(rows), 0)


def _scaled(geom: ClusterGeometry, t: float) -> ClusterGeometry:
    """The geometry whose objective is ``geom``'s with a barrier weight of
    ``t``: ``t`` only scales the linear term, so it scales ``intra``."""
    return ClusterGeometry(t * geom.intra, geom.inter_sq, geom.dropped)


def _objective(w, geom: ClusterGeometry) -> float:
    return _evaluate(np.asarray(w, dtype=np.float64), geom)[0]


def _grad(w, geom: ClusterGeometry) -> np.ndarray:
    """The gradient the optimizer takes at a feasible ``w``."""
    return _gradient(geom, _evaluate(np.asarray(w, dtype=np.float64), geom)[1])


def _feasible_point(rng: random.Random, geom: ClusterGeometry) -> np.ndarray:
    w = np.array([rng.uniform(0.2, 2.0) for _ in range(len(geom.intra))])
    q_min = float(np.min(geom.inter_sq @ w))
    return w * (1.5 / q_min) if q_min < 1.5 else w


def test_barrier_config_validation():
    with pytest.raises(ValueError, match="^max_steps must be >= 0$"):
        BarrierConfig(max_steps=-1)
    # the barrier weight is 1 and the first step a constant: neither is a field
    assert [f.name for f in fields(BarrierConfig)] == ["max_steps"]
    assert weight_opt._STEP_SIZE == 0.1


def test_geometry_from_clusters():
    ca = [graph(0, [("a", "b", 1.0)], {}), graph(1, [("a", "b", 3.0)], {})]
    cb = [graph(2, [("a", "b", 1.0)], {})]
    geom = _geometry(ca, cb)
    assert geom.intra.tolist() == pytest.approx([2.0, 0.0])
    assert geom.inter_sq.tolist() == [pytest.approx([1.0, 0.0])]
    assert geom.dropped == 0


def test_geometry_drops_coincident_pairs():
    geom = _geometry([graph(0, [("a", "b", 2.0)], {})], [graph(1, [("a", "b", 2.0)], {})])
    assert geom.inter_sq.shape == (0, 2)
    assert geom.dropped == 1


def test_geometry_needs_two_clusters():
    with pytest.raises(ValueError, match="two nonempty"):
        _geometry([graph(0, [("a", "b", 1.0)], {})])
    with pytest.raises(ValueError, match="two nonempty"):
        _geometry()


def test_objective_hand_example():
    # one pair with Q = 4: f = <w, intra> - 2*log(sqrt(4) - 1) = 0
    geom = ClusterGeometry(np.zeros(2), np.array([[4.0, 0.0]]), 0)
    assert _objective([1.0, 1.0], geom) == pytest.approx(0.0)
    # Q = 1 sits on the boundary: infeasible
    assert _objective([0.25, 0.0], geom) == math.inf
    assert _objective([0.0, 0.0], geom) == math.inf


def test_feasibility_is_decided_as_the_roots_decide_it():
    # The evaluation rejects a candidate on its pair products Q before any
    # root: over the floats around Q = 1 it must reject exactly those whose
    # rounded root is at most 1, as the reference objective does.
    q = np.nextafter(1.0, 0.0)
    for _ in range(200):
        geom = ClusterGeometry(np.ones(1), np.array([[q]]), 0)
        got = _objective([1.0], geom)
        assert got == reference.barrier_objective([1.0], geom), q
        assert (got == math.inf) == (q <= 1.0 + 2.0**-52), q
        q = np.nextafter(q, 2.0)


def test_objective_linear_where_the_barrier_vanishes():
    # one pair with Q = 4 at w = (1, 1): its barrier term, log(sqrt(4) - 1),
    # is 0, so the objective is the linear term and the gradient the linear
    # term's less inter_sq / (root * (root - 1)) = inter_sq / 2; at a
    # barrier weight of 2, intra (2, 3) counts twice
    geom = _scaled(ClusterGeometry(np.array([2.0, 3.0]), np.array([[2.0, 2.0]]), 0), 2.0)
    assert _objective([1.0, 1.0], geom) == 10.0
    assert _grad([1.0, 1.0], geom).tolist() == [3.0, 5.0]


def test_gradient_matches_finite_differences():
    rng = random.Random(101)
    h = 1e-6
    for trial in range(40):
        geom = _scaled(_random_geometry(rng), 1.7)
        w = _feasible_point(rng, geom)
        grad = _grad(w, geom)
        for comp in range(len(w)):
            bump = np.zeros_like(w)
            bump[comp] = h
            numeric = (_objective(w + bump, geom) - _objective(w - bump, geom)) / (2 * h)
            assert grad[comp] == pytest.approx(numeric, rel=1e-4, abs=1e-4)


@pytest.mark.parametrize(
    "start, cfg, message",
    [
        ([math.nan, 0.0], BarrierConfig(max_steps=0), "nonnegative and finite"),
        ([math.nan, 0.0], BarrierConfig(), "nonnegative and finite"),
        ([-1.0, 1.0], BarrierConfig(), "nonnegative and finite"),
        ([math.inf, 1.0], BarrierConfig(), "nonnegative and finite"),
        ([1.0, 1.0, 1.0], BarrierConfig(), r"shape \(2,\), got \(3,\)"),
    ],
    ids=["nan-no-steps", "nan", "negative", "inf", "length-3"],
)
def test_gradient_requires_feasibility(start, cfg, message):
    geom = ClusterGeometry(np.zeros(2), np.array([[4.0, 0.0]]), 0)
    # outside the region the evaluation gives no roots to take a gradient at
    assert _evaluate(np.array([0.125, 0.0]), geom) == (math.inf, None)
    # a start no descent can begin from is rejected as ``ensure_weights`` rejects it
    with pytest.raises(ValueError, match=f"^weights must .*{message}"):
        refine_weights(start, geom, cfg)


def test_midpoint_convexity():
    rng = random.Random(55)
    for trial in range(30):
        geom = _random_geometry(rng)
        a = _feasible_point(rng, geom)
        b = _feasible_point(rng, geom)
        mid = 0.5 * (a + b)
        fa = _objective(a, geom)
        fb = _objective(b, geom)
        fm = _objective(mid, geom)
        assert fm <= 0.5 * fa + 0.5 * fb + 1e-9


def test_refine_never_increases_objective():
    rng = random.Random(77)
    for trial in range(25):
        geom = _scaled(_random_geometry(rng), rng.uniform(0.5, 3.0))
        cfg = BarrierConfig(max_steps=20)
        start = _feasible_point(rng, geom)
        start_value = _objective(start, geom)
        out = refine_weights(start, geom, cfg)
        assert _objective(out, geom) <= start_value + 1e-12
        assert np.all(out >= 0.0)


def test_refine_repairs_infeasible_start():
    geom = ClusterGeometry(np.array([1.0, 1.0]), np.array([[4.0, 1.0]]), 0)
    cfg = BarrierConfig(max_steps=0)  # isolate the repair rescale
    out = refine_weights([0.01, 0.01], geom, cfg)
    q = float((geom.inter_sq @ out)[0])
    assert math.sqrt(q) == pytest.approx(1.05)


def test_refine_restarts_from_uniform_when_support_vanishes():
    # All weight sits on a component along which the pair does not
    # separate; rescaling cannot fix that.
    geom = ClusterGeometry(np.array([1.0, 1.0]), np.array([[0.0, 2.0]]), 0)
    out = refine_weights([1.0, 0.0], geom, BarrierConfig(max_steps=0))
    assert float((geom.inter_sq @ out)[0]) > 1.0


def test_refine_restarts_from_uniform_when_the_rescale_overflows():
    # The rescale (1.05 / sqrt(5e-324)) ** 2 is beyond the float range.
    geom = ClusterGeometry(np.zeros(3), np.array([[1.0, 1.0, 1.0]]), 0)
    out = refine_weights([0.0, 0.0, 5e-324], geom, BarrierConfig())
    assert float((geom.inter_sq @ out)[0]) > 1.0


def test_refine_rejects_a_pair_no_float_weights_separate():
    # Uniform weights see a squared separation of 5e-324: its rescale,
    # (1.05 / sqrt(5e-324)) ** 2, is beyond the float range.
    geom = ClusterGeometry(np.zeros(3), [[5e-324, 0.0, 0.0]], 0)
    with pytest.raises(ValueError, match="^no float weights separate the tightest pair"):
        refine_weights([1.0, 1.0, 1.0], geom, BarrierConfig())
    # at 1e-300 the rescale is finite: weights come back, feasible
    geom = ClusterGeometry(np.zeros(3), [[1e-300, 0.0, 0.0]], 0)
    out = refine_weights([1.0, 1.0, 1.0], geom, BarrierConfig())
    assert np.isfinite(out).all() and out[0] * 1e-300 > 1.0


def test_refine_weights_passthrough_cases():
    # one live cluster: the engine does not refresh at all
    engine = Engine(EngineConfig(k=2, gamma=1), SCHEMA, "exact")
    engine.weights = np.array([1.0, 2.0])
    engine.process(graph(0, [("a", "b", 1.0)], {}))
    assert engine.weights.tolist() == [1.0, 2.0]
    # every pair coincident: nothing to separate, weights unchanged
    geom = _geometry([graph(1, [("a", "b", 2.0)], {})], [graph(2, [("a", "b", 2.0)], {})])
    w = np.array([1.0, 2.0])
    records: list[dict] = []
    assert refine_weights(w, geom, BarrierConfig(), records.append).tolist() == [1.0, 2.0]
    # its one trace record, the final one, as the reference writes it
    assert records == [{"final_weights": [1.0, 2.0], "pairs": 0, "dropped_pairs": 1}]
    assert records == _outcome(reference.refine_weights, geom, w, BarrierConfig())[1]


@pytest.mark.parametrize("backend", ["sketch", "exact"])
def test_a_refresh_calls_refine_weights_by_the_engine_module(monkeypatch, backend):
    # perfbench/spans.py times the descent by patching this name; a refresh
    # that reached the descent another way would drop out of its trace.
    calls: list[int] = []

    def counting(weights, geom, cfg, trace=None):
        calls.append(len(geom.inter_sq))
        return refine_weights(weights, geom, cfg, trace=trace)

    monkeypatch.setattr(engine_module, "refine_weights", counting)
    engine = Engine(EngineConfig(k=3, gamma=5), SCHEMA, backend)
    for i in range(23):
        engine.process(graph(i, [("a", "b", 1.0 + i % 4)], {"x": float(i % 3)}))
    assert len(calls) == 4  # graphs 5, 10, 15 and 20


def test_refine_weights_emits_trace():
    records: list[dict] = []
    geom = _geometry(
        [graph(0, [("a", "b", 1.0)], {"x": 2.0})], [graph(1, [("c", "d", 3.0)], {"y": 1.0})]
    )
    refine_weights([1.0, 1.0], geom, BarrierConfig(max_steps=5), trace=records.append)
    assert records, "expected at least the summary record"
    assert "final_weights" in records[-1]
    assert records[-1]["pairs"] == 1


def test_refine_prefers_separating_component(monkeypatch):
    # Component 1 separates the pair and costs little intra; component 0
    # carries intra cost but no separation. Weight must flow to 1.
    geom = ClusterGeometry(np.array([5.0, 0.5]), np.array([[0.0, 3.0]]), 0)
    monkeypatch.setattr(weight_opt, "_STEP_SIZE", 0.05)
    out = refine_weights([1.0, 1.0], geom, BarrierConfig(max_steps=60))
    assert out[1] > out[0]


def _oracle_case(rng: random.Random, case: int):
    """A random geometry (its intra scaled by a barrier weight), start,
    config and first step for the bitwise oracle; ``case``
    picks the start: feasible, infeasible (rescaled), on a component no pair
    separates along (restart from uniform), holding a NaN, an inf or a
    negative (rejected before any rescale), or in a geometry with a NaN row
    (which descends to the reference's ValueError)."""
    n = rng.choice([1, 2, 3, 5])
    n_pairs = rng.choice([1, 1, rng.randint(2, 12)])
    intra = np.array([rng.choice([0.0, rng.uniform(0.0, 5.0)]) for _ in range(n)])
    inter_sq = np.array(
        [[rng.choice([0.0, rng.uniform(0.0, 4.0)]) for _ in range(n)] for _ in range(n_pairs)]
    )
    for row in inter_sq:
        if not row.any():
            row[rng.randrange(n)] = rng.uniform(0.5, 4.0)
    t = rng.choice([0.05, 1.0, 3.7, 50.0])
    step = rng.choice([0.01, 0.1, 1.0])
    cfg = BarrierConfig(max_steps=rng.choice([0, 1, 5, 25, 25]))
    w = np.array([rng.uniform(0.2, 2.0) for _ in range(n)])
    kind = ("feasible", "infeasible", "restart", "bad_start", "nan")[case % 5]
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
    elif kind == "bad_start":
        w[rng.randrange(n)] = rng.choice([math.nan, math.inf, -1.0])
    elif kind == "nan":
        inter_sq[rng.randrange(n_pairs), rng.randrange(n)] = math.nan
    geom = ClusterGeometry(t * intra, inter_sq, 0)
    return kind, geom, w, cfg, step


def _outcome(refine, geom, w, cfg):
    """The weights' bytes and trace records, or the raised ValueError."""
    records: list[dict] = []
    try:
        out = refine(w.copy(), geom, cfg, trace=records.append)
    except ValueError as exc:
        return (type(exc).__name__, str(exc)), records
    return (out.dtype.str, out.shape, out.tobytes()), records


def _reference_outcome(geom, w, cfg, step: float):
    """``_outcome`` of the reference descent, first step ``step``."""
    return _outcome(partial(reference.refine_weights, step_size=step), geom, w, cfg)


def test_refine_weights_matches_the_reference_bit_for_bit(monkeypatch):
    rng = random.Random(2024)
    seen: dict[str, int] = {}
    raised = 0
    for case in range(400):
        kind, geom, w, cfg, step = _oracle_case(rng, case)
        monkeypatch.setattr(weight_opt, "_STEP_SIZE", step)
        expected = _reference_outcome(geom, w, cfg, step)
        assert _outcome(refine_weights, geom, w, cfg) == expected, (case, kind)
        seen[kind] = seen.get(kind, 0) + 1
        raised += expected[0][0] == "ValueError"
    assert set(seen) == {"feasible", "infeasible", "restart", "bad_start", "nan"}
    assert raised >= 120  # the 80 bad starts, and the NaN geometries that descend


_SEPARATION = st.just(0.0) | st.floats(1e-3, 4.0)

_LAYOUTS = {
    "C": lambda a: a,
    "Fortran": np.asfortranarray,
    "strided": lambda a: np.stack([a, a], axis=-1)[..., 0],
    "list": lambda a: a.tolist(),
}


@st.composite
def _geometries(draw):
    """A geometry of d+1 = 1..8 components and 1..150 pairs (up to 30 rows
    drawn value by value, the rest from a seeded generator over the same
    values), components of zero intra or separation included, its intra
    scaled by a barrier weight, its arrays C-contiguous, Fortran-ordered,
    strided or lists; a config; and a first step."""
    n = draw(st.integers(1, 8))
    intra = draw(st.lists(st.just(0.0) | st.floats(0.0, 5.0), min_size=n, max_size=n))
    rows = draw(st.lists(st.lists(_SEPARATION, min_size=n, max_size=n), min_size=1, max_size=30))
    extra = draw(st.integers(0, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    more = rng.uniform(1e-3, 4.0, (extra, n))
    more[rng.random((extra, n)) < 0.5] = 0.0
    rows = [*rows, *more.tolist()]
    for row in rows:
        if not any(row):
            row[draw(st.integers(0, n - 1))] = draw(st.floats(0.5, 4.0))
    layout = _LAYOUTS[draw(st.sampled_from(sorted(_LAYOUTS)))]
    t = draw(st.sampled_from([0.05, 1.0, 3.7, 50.0]))
    geom = ClusterGeometry(
        intra=layout(t * np.array(intra, dtype=np.float64)),
        inter_sq=layout(np.array(rows, dtype=np.float64)),
        dropped=0,
    )
    step = draw(st.sampled_from([0.01, 0.1, 1.0]))
    cfg = BarrierConfig(max_steps=draw(st.sampled_from([0, 1, 5, 25, 60])))
    return geom, cfg, step


# The tightest pair separates only in a subnormal weight, so the scale that
# lifts it to 1 + margin is near 1e308 and overflows the other pair's weight.
_OVERFLOWING_GEOMETRY = ClusterGeometry(
    np.zeros(8), [[0, 0, 0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 0, 0, 0]], 0
)
_OVERFLOWING_CONFIG = BarrierConfig(max_steps=0)
_OVERFLOWING_START = [0, 0, 0, 0, 1.1125369292536007e-308, 0, 0, 2.0]
# The same scale keeps the weights finite but not a product the objective
# takes of them: a pair's (2 * 9.9e307) or the intra term's (5 * 9.9e307).
_PRODUCT_START = [0, 0, 0, 0, 0, 1.0, 0, 1.1125369292536007e-308]
_PAIR_PRODUCT_GEOMETRY = ClusterGeometry(
    np.zeros(8), [[0, 0, 0, 0, 0, 0, 0, 1]] * 8 + [[0, 0, 0, 0, 0, 2, 0, 0]], 0
)
_INTRA_PRODUCT_GEOMETRY = ClusterGeometry(
    np.array([0, 0, 0, 0, 0, 5.0, 0, 0]), [[0, 0, 0, 0, 0, 0, 0, 1]], 0
)
_PRODUCT_GEOMETRIES = {"pair": _PAIR_PRODUCT_GEOMETRY, "intra": _INTRA_PRODUCT_GEOMETRY}


@given(
    case=_geometries(),
    start=st.lists(st.just(0.0) | st.floats(0.0, 3.0), min_size=8, max_size=8),
)
@example(
    case=(
        ClusterGeometry(np.array([4.0, 3.0, 1.0]), np.array([[0.5, 0.3, 2.0]]), 0),
        BarrierConfig(),
        1.0,
    ),
    start=[0.1, 0.2, 0.3, 0.0, 0.0, 0.0, 0.0, 0.0],
)
@example(
    case=(ClusterGeometry(np.zeros(3), np.array([[1.0, 1.0, 1.0]]), 0), BarrierConfig(), 0.1),
    start=[0.0, 0.0, 5e-324, 0.0, 0.0, 0.0, 0.0, 0.0],
)
@example(
    case=(ClusterGeometry(np.zeros(3), [[5e-324, 0.0, 0.0]], 0), BarrierConfig(), 0.1),
    start=[1.0] * 8,
)
@example(case=(_OVERFLOWING_GEOMETRY, _OVERFLOWING_CONFIG, 0.01), start=_OVERFLOWING_START)
@example(case=(_PAIR_PRODUCT_GEOMETRY, _OVERFLOWING_CONFIG, 0.01), start=_PRODUCT_START)
@example(case=(_INTRA_PRODUCT_GEOMETRY, _OVERFLOWING_CONFIG, 0.01), start=_PRODUCT_START)
def test_refine_weights_matches_the_reference_on_random_geometries(case, start):
    """The library's descent, which stops early, and the reference's, which
    halves every step to the end, return the same bits and trace records.
    Both read any array layout: the geometry stores its arrays C-contiguous
    float64, whatever layout they are given in."""
    geom, cfg, step = case
    for array in (geom.intra, geom.inter_sq):
        assert array.dtype == np.float64 and array.flags.c_contiguous
    w = np.array(start[: len(geom.intra)], dtype=np.float64)
    expected = _reference_outcome(geom, w, cfg, step)
    with mock.patch.object(weight_opt, "_STEP_SIZE", step):
        assert _outcome(refine_weights, geom, w, cfg) == expected


def test_a_rescale_that_overflows_restarts_from_uniform_weights():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            out = refine_weights(_OVERFLOWING_START, _OVERFLOWING_GEOMETRY, _OVERFLOWING_CONFIG)
    assert np.isfinite(out).all()
    assert out.tolist() == [1.05**2] * 8


@pytest.mark.parametrize("product", sorted(_PRODUCT_GEOMETRIES))
def test_a_rescale_whose_products_overflow_restarts_from_uniform_weights(product):
    geom = _PRODUCT_GEOMETRIES[product]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            out = refine_weights(_PRODUCT_START, geom, _OVERFLOWING_CONFIG)
    assert np.isfinite(out).all()
    assert out.tolist() == [1.05**2] * 8


def test_descent_stops_at_the_first_candidate_equal_to_the_weights(monkeypatch):
    # The optimum sits at 0 in components 0 and 1 and is reached before
    # max_steps. Every smaller step's candidate then rounds to the
    # weights, so one rejected candidate equal to them ends the descent.
    geom = ClusterGeometry(np.array([4.0, 3.0, 1.0]), np.array([[0.5, 0.3, 2.0]]), 0)
    cfg = BarrierConfig()
    monkeypatch.setattr(weight_opt, "_STEP_SIZE", 1.0)
    evaluated: list[np.ndarray] = []
    evaluate = weight_opt._evaluate

    def recording(w, geom):
        evaluated.append(w.copy())
        return evaluate(w, geom)

    monkeypatch.setattr(weight_opt, "_evaluate", recording)
    records: list[dict] = []
    out = refine_weights([1.0, 1.0, 1.0], geom, cfg, trace=records.append)
    assert out[:2].tolist() == [0.0, 0.0]
    assert len(records) - 1 < cfg.max_steps
    # the start, then candidates: the last accepted one equals the result
    equal = [w for w in evaluated[1:] if np.array_equal(w, out)]
    assert 1 <= len(equal) <= 2, len(equal)
    monkeypatch.setattr(weight_opt, "_evaluate", evaluate)
    assert _outcome(refine_weights, geom, np.ones(3), cfg) == _reference_outcome(
        geom, np.ones(3), cfg, 1.0
    )


def test_a_step_of_exactly_the_least_size_is_still_taken(monkeypatch):
    # At an intra of 1e3 the gradient is about 998 in each component, so a
    # step of exactly _MIN_STEP moves each weight by a few ulps and improves
    # the objective: the descent must evaluate it, not stop before it.
    geom = ClusterGeometry(np.full(2, 1e3), np.array([[1.0, 1.0]]), 0)
    cfg = BarrierConfig(max_steps=1)
    monkeypatch.setattr(weight_opt, "_STEP_SIZE", weight_opt._MIN_STEP)
    start = np.ones(2)
    records: list[dict] = []
    out = refine_weights(start, geom, cfg, trace=records.append)
    assert 0.0 < start[0] - out[0] < 1e-14 and out[0] == out[1]
    assert _objective(out, geom) < _objective(start, geom)
    assert records[0]["step_size"] == weight_opt._MIN_STEP
    assert _outcome(refine_weights, geom, start, cfg) == _reference_outcome(
        geom, start, cfg, weight_opt._MIN_STEP
    )


def test_a_step_below_the_least_size_returns_the_rescaled_start(monkeypatch):
    # Half of _MIN_STEP is never tried, so the descent exits its step loop
    # at once: the rescaled start comes back, with only the final record.
    geom = ClusterGeometry(np.array([4.0, 3.0, 1.0]), np.array([[0.5, 0.3, 2.0]]), 0)
    cfg = BarrierConfig()
    monkeypatch.setattr(weight_opt, "_STEP_SIZE", weight_opt._MIN_STEP / 2)
    start = [0.1, 0.2, 0.3]  # Q = 0.71: infeasible, so rescaled to Q = 1.05
    records: list[dict] = []
    out = refine_weights(start, geom, cfg, trace=records.append)
    assert out.tolist() == weight_opt._rescale_feasible(np.array(start), geom).tolist()
    assert records == [{"final_weights": out.tolist(), "pairs": 1, "dropped_pairs": 0}]
    assert _outcome(refine_weights, geom, start, cfg) == _reference_outcome(
        geom, start, cfg, weight_opt._MIN_STEP / 2
    )
