"""Log-barrier weight refinement on frozen cluster geometry.

The refresh runs in ``kernel.refine``; ``reference.refine`` repeats it in
Python floats, with the kernel's own ``log`` transcribed, and halves each
step to the end where the kernel stops early. The properties here hold the
kernel to that oracle bit for bit, weights, step records and messages. The
objective and gradient tests read both the oracle's and the kernel's own
``evaluate`` and ``gradient``, compiled from ``_kernel.c`` in a harness.
"""

import ctypes
import math
import random
import shutil
import subprocess
import sys
import sysconfig
import warnings
from dataclasses import fields
from functools import partial
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from sketchclust import native, weight_opt
from sketchclust.exact import ExactBank
from sketchclust.native import kernel
from test_native import _is, _spoil


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


_objective = reference.barrier_objective
_grad = reference.barrier_gradient  # the gradient the optimizer takes at a feasible ``w``

# ``_kernel.c``'s static functions, exported for ctypes by a harness that
# includes the source.
_HARNESS = """\
#include "{source}"
void log_many(const double *x, double *out, Py_ssize_t n)
{{ for (Py_ssize_t i = 0; i < n; i++) out[i] = kernel_log(x[i]); }}
int evaluate_at(const double *intra, const double *inter, Py_ssize_t comps, Py_ssize_t pairs,
                const double *w, double *root, double *value)
{{ const Geometry g = {{intra, inter, comps, pairs}}; return evaluate(&g, w, root, value); }}
void gradient_at(const double *intra, const double *inter, Py_ssize_t comps, Py_ssize_t pairs,
                 const double *root, double *grad)
{{ const Geometry g = {{intra, inter, comps, pairs}}; gradient(&g, root, grad); }}
"""


@pytest.fixture(scope="module")
def compiled(tmp_path_factory) -> SimpleNamespace:
    """The kernel's own ``kernel_log`` over an array, and its ``evaluate``
    and ``gradient`` over lists, called as ``reference._evaluate`` and
    ``reference._gradient`` are: compiled from ``_kernel.c`` itself with the
    build's flags, and loaded by ctypes, as the kernel's module exports
    none of them."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    tmp_path = tmp_path_factory.mktemp("harness")
    harness = tmp_path / "harness.c"
    harness.write_text(_HARNESS.format(source=native._SOURCE))
    include = sysconfig.get_paths()["include"]
    library = tmp_path / "harness.so"
    command = [*native._FLAGS, "-I", include, str(harness), "-o", str(library)]
    done = subprocess.run(command, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    lib = ctypes.CDLL(str(library))
    pointer, size = ctypes.c_void_p, ctypes.c_ssize_t
    lib.log_many.argtypes = [pointer, pointer, size]
    lib.evaluate_at.argtypes = [pointer, pointer, size, size, pointer, pointer, pointer]
    lib.evaluate_at.restype = ctypes.c_int
    lib.gradient_at.argtypes = [pointer, pointer, size, size, pointer, pointer]

    def log(x) -> np.ndarray:
        x = np.ascontiguousarray(x, dtype=np.float64)
        out = np.empty_like(x)
        lib.log_many(x.ctypes.data, out.ctypes.data, len(x))
        return out

    def arrays(intra, inter) -> tuple:
        intra = np.array(intra, dtype=np.float64)
        return intra, np.array(inter, dtype=np.float64).reshape(-1, len(intra))

    def evaluate(intra, inter, w) -> tuple:
        intra, inter = arrays(intra, inter)
        w, root, value = np.array(w, dtype=np.float64), np.empty(len(inter)), ctypes.c_double()
        feasible = lib.evaluate_at(
            intra.ctypes.data, inter.ctypes.data, len(intra), len(inter), w.ctypes.data,
            root.ctypes.data, ctypes.byref(value),
        )
        return value.value, root.tolist() if feasible else None

    def gradient(intra, inter, roots) -> list:
        intra, inter = arrays(intra, inter)
        root, grad = np.array(roots, dtype=np.float64), np.empty(len(intra))
        lib.gradient_at(
            intra.ctypes.data, inter.ctypes.data, len(intra), len(inter), root.ctypes.data,
            grad.ctypes.data,
        )
        return grad.tolist()

    return SimpleNamespace(log=log, evaluate=evaluate, gradient=gradient)


@pytest.fixture(scope="module")
def barriers(compiled) -> dict:
    """The objective and the gradient, ``(objective(w, geom), gradient(w,
    geom))``, as the kernel's ``evaluate`` and ``gradient`` take them and as
    the oracle does; each gradient raises ValueError where its
    ``evaluate`` finds ``w`` infeasible."""

    def kernel_objective(weights, geom: ClusterGeometry) -> float:
        return compiled.evaluate(geom.intra, geom.inter_sq, weights)[0]

    def kernel_gradient(weights, geom: ClusterGeometry) -> np.ndarray:
        roots = compiled.evaluate(geom.intra, geom.inter_sq, weights)[1]
        if roots is None:
            raise ValueError("gradient needs a strictly feasible point")
        return np.array(compiled.gradient(geom.intra, geom.inter_sq, roots))

    return {"kernel": (kernel_objective, kernel_gradient), "oracle": (_objective, _grad)}


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


def test_objective_hand_example(barriers):
    # one pair with Q = 4: f = <w, intra> - 2*log(sqrt(4) - 1) = 0
    geom = ClusterGeometry(np.zeros(2), np.array([[4.0, 0.0]]), 0)
    for name, (objective, _) in barriers.items():
        assert objective([1.0, 1.0], geom) == 0.0, name
        # Q = 1 sits on the boundary: infeasible
        assert objective([0.25, 0.0], geom) == math.inf, name
        assert objective([0.0, 0.0], geom) == math.inf, name


def test_feasibility_is_decided_as_the_roots_decide_it(compiled):
    # The evaluation rejects a candidate on its pair products Q before any
    # root: over the floats around Q = 1 it must reject exactly those whose
    # rounded root is at most 1, giving +inf and no roots. A root of exactly
    # 1 would give +inf as well (log 0 is -inf), so the roots tell them apart.
    q = np.nextafter(1.0, 0.0)
    for _ in range(200):
        infeasible = math.sqrt(q) - 1.0 <= 0.0
        assert infeasible == (q <= 1.0 + 2.0**-52), q
        for evaluate in (compiled.evaluate, reference._evaluate):
            value, roots = evaluate([1.0], [[q]], [1.0])
            assert (roots is None, value == math.inf) == (infeasible, infeasible), (evaluate, q)
        q = np.nextafter(q, 2.0)


def test_objective_linear_where_the_barrier_vanishes(barriers):
    # one pair with Q = 4 at w = (1, 1): its barrier term, log(sqrt(4) - 1),
    # is 0, so the objective is the linear term and the gradient the linear
    # term's less inter_sq / (root * (root - 1)) = inter_sq / 2; at a
    # barrier weight of 2, intra (2, 3) counts twice
    geom = _scaled(ClusterGeometry(np.array([2.0, 3.0]), np.array([[2.0, 2.0]]), 0), 2.0)
    for name, (objective, grad) in barriers.items():
        assert objective([1.0, 1.0], geom) == 10.0, name
        assert grad([1.0, 1.0], geom).tolist() == [3.0, 5.0], name


def test_gradient_matches_finite_differences(barriers):
    for name, (objective, gradient) in barriers.items():
        rng = random.Random(101)
        h = 1e-6
        for trial in range(40):
            geom = _scaled(_random_geometry(rng), 1.7)
            w = _feasible_point(rng, geom)
            grad = gradient(w, geom)
            for comp in range(len(w)):
                bump = np.zeros_like(w)
                bump[comp] = h
                numeric = (objective(w + bump, geom) - objective(w - bump, geom)) / (2 * h)
                assert grad[comp] == pytest.approx(numeric, rel=1e-4, abs=1e-4), name


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
def test_gradient_requires_feasibility(barriers, start, cfg, message):
    geom = ClusterGeometry(np.zeros(2), np.array([[4.0, 0.0]]), 0)
    # outside the region the evaluation gives no roots to take a gradient at
    for objective, grad in barriers.values():
        assert objective([0.125, 0.0], geom) == math.inf
        with pytest.raises(ValueError, match="^gradient needs a strictly feasible point$"):
            grad([0.125, 0.0], geom)
    # a start no descent can begin from is rejected as ``ensure_weights`` rejects it
    with pytest.raises(ValueError, match=f"^weights must .*{message}"):
        refine_weights(start, geom, cfg)


def test_midpoint_convexity(barriers):
    for name, (objective, _) in barriers.items():
        rng = random.Random(55)
        for trial in range(30):
            geom = _random_geometry(rng)
            a = _feasible_point(rng, geom)
            b = _feasible_point(rng, geom)
            mid = 0.5 * (a + b)
            fa = objective(a, geom)
            fb = objective(b, geom)
            fm = objective(mid, geom)
            assert fm <= 0.5 * fa + 0.5 * fb + 1e-9, name


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
    records: list[dict] = []
    out = refine_weights([1.0, 1.0, 1.0], geom, cfg, trace=records.append)
    assert out[:2].tolist() == [0.0, 0.0]
    assert len(records) - 1 < cfg.max_steps
    # The oracle halves that last step to below _MIN_STEP and finds every
    # smaller candidate equal to the weights and rejected; the kernel, which
    # stopped at the first, took the same steps to the same weights.
    w, rows = np.ones(3), np.empty((cfg.max_steps, 2))
    taken = kernel.refine(w, geom.intra, geom.inter_sq, cfg.max_steps, 1.0, rows)
    oracle, stop, steps = reference.refine([1.0] * 3, geom.intra, geom.inter_sq, 25, 1.0)
    assert stop == "rounds_to_w"
    assert taken == len(steps) == len(records) - 1
    assert w.tobytes() == out.tobytes() == np.array(oracle).tobytes()
    assert rows[:taken].tobytes() == np.array(steps).tobytes()
    assert _outcome(refine_weights, geom, np.ones(3), cfg) == _reference_outcome(
        geom, np.ones(3), cfg, 1.0
    )


def test_a_step_of_exactly_the_least_size_is_still_taken(monkeypatch):
    # At an intra of 1e3 the gradient is about 998 in each component, so a
    # step of exactly _MIN_STEP moves each weight by a few ulps and improves
    # the objective: the descent must evaluate it, not stop before it.
    geom = ClusterGeometry(np.full(2, 1e3), np.array([[1.0, 1.0]]), 0)
    cfg = BarrierConfig(max_steps=1)
    monkeypatch.setattr(weight_opt, "_STEP_SIZE", reference._MIN_STEP)
    start = np.ones(2)
    records: list[dict] = []
    out = refine_weights(start, geom, cfg, trace=records.append)
    assert 0.0 < start[0] - out[0] < 1e-14 and out[0] == out[1]
    assert _objective(out, geom) < _objective(start, geom)
    assert records[0]["step_size"] == reference._MIN_STEP
    assert _outcome(refine_weights, geom, start, cfg) == _reference_outcome(
        geom, start, cfg, reference._MIN_STEP
    )


def test_a_step_below_the_least_size_returns_the_rescaled_start(monkeypatch):
    # Half of _MIN_STEP is never tried, so the descent exits its step loop
    # at once: the rescaled start comes back, with only the final record.
    geom = ClusterGeometry(np.array([4.0, 3.0, 1.0]), np.array([[0.5, 0.3, 2.0]]), 0)
    cfg = BarrierConfig()
    monkeypatch.setattr(weight_opt, "_STEP_SIZE", reference._MIN_STEP / 2)
    start = [0.1, 0.2, 0.3]  # Q = 0.71: infeasible, so rescaled to Q = 1.05
    records: list[dict] = []
    out = refine_weights(start, geom, cfg, trace=records.append)
    intra, inter = geom.intra.tolist(), geom.inter_sq.tolist()
    assert out.tolist() == reference.rescale_feasible(intra, inter, start)
    assert records == [{"final_weights": out.tolist(), "pairs": 1, "dropped_pairs": 0}]
    assert _outcome(refine_weights, geom, start, cfg) == _reference_outcome(
        geom, start, cfg, reference._MIN_STEP / 2
    )
    w = np.array(start)
    assert kernel.refine(w, geom.intra, geom.inter_sq, 25, reference._MIN_STEP / 2, None) == 0
    assert reference.refine(start, intra, inter, 25, reference._MIN_STEP / 2)[1:] == ("min_step", [])


def _kernel_outcome(w, intra, inter_sq, max_steps: int, step: float):
    """``kernel.refine``'s weights, steps taken and step rows as bytes, or
    its ValueError's message, with the weights and step rows unwritten."""
    w = np.array(w, dtype=np.float64)
    steps = np.full((max_steps, 2), -7.0)
    held = w.tobytes(), steps.tobytes()
    try:
        taken = kernel.refine(w, intra, inter_sq, max_steps, step, steps)
    except ValueError as exc:
        assert (w.tobytes(), steps.tobytes()) == held
        return str(exc)
    assert steps[taken:].tobytes() == np.full((max_steps - taken, 2), -7.0).tobytes()
    return w.tobytes(), taken, steps[:taken].tobytes()


def _oracle_outcome(w, intra, inter_sq, max_steps: int, step: float):
    """``_kernel_outcome`` of ``reference.refine``, which takes no early stop."""
    try:
        out, _, steps = reference.refine(w, intra, inter_sq, max_steps, step)
    except ValueError as exc:
        return str(exc)
    rows = np.array(steps, dtype=np.float64).reshape(-1, 2)
    return np.array(out).tobytes(), len(steps), rows.tobytes()


_START_KINDS = ("feasible", "infeasible", "nan", "negative zero", "zero", "drawn")


@st.composite
def _refine_cases(draw):
    """A geometry, max_steps (0 among them) and first step from
    ``_geometries``, and a start of one of ``_START_KINDS``: rescaled to a
    tightest product of 4 or below 1, holding a NaN, or its zeros -0.0,
    all zero, or as drawn."""
    geom, cfg, step = draw(_geometries())
    n = len(geom.intra)
    w = np.array(draw(st.lists(st.just(0.0) | st.floats(0.0, 3.0), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(_START_KINDS))
    q_min = float(np.min(geom.inter_sq @ w))
    if kind == "feasible" and q_min > 0.0:
        w *= 4.0 / q_min
    elif kind == "infeasible" and q_min > 0.0:
        w *= draw(st.floats(0.01, 0.9)) / q_min
    elif kind == "nan":
        w[draw(st.integers(0, n - 1))] = math.nan
    elif kind == "negative zero":
        w[w == 0.0] = -0.0
        w[draw(st.integers(0, n - 1))] = -0.0
    elif kind == "zero":
        w[:] = 0.0
    return geom, w, cfg.max_steps, step


@given(case=_refine_cases())
@example(case=(_OVERFLOWING_GEOMETRY, np.array(_OVERFLOWING_START), 0, 0.01))
@example(case=(_OVERFLOWING_GEOMETRY, np.array(_OVERFLOWING_START), 25, 0.1))
@example(case=(_PAIR_PRODUCT_GEOMETRY, np.array(_PRODUCT_START), 0, 0.01))
@example(case=(_INTRA_PRODUCT_GEOMETRY, np.array(_PRODUCT_START), 5, 0.1))
@example(
    case=(ClusterGeometry(np.zeros(3), [[5e-324, 0.0, 0.0]], 0), np.ones(3), 25, 0.1),
)
@example(
    case=(ClusterGeometry(np.ones(2), [[4.0, 1.0]], 0), np.array([-0.0, 0.5]), 25, 1.0),
)
@example(case=(ClusterGeometry(np.ones(2), [[4.0, 1.0]], 0), np.array([math.nan, 1.0]), 0, 0.1))
def test_refine_matches_the_oracle_bit_for_bit(case):
    """``kernel.refine`` and ``reference.refine``, its transcription in
    Python floats that halves each last step to the end where the kernel
    stops early, give the same weights, steps taken and accepted steps'
    objectives and sizes, bit for bit, or the same ValueError, with
    nothing written: from feasible,
    infeasible, NaN, -0.0 and zero starts, at max_steps 0 too, and from
    starts whose rescale overflows."""
    geom, w, max_steps, step = case
    got = _kernel_outcome(w, geom.intra, geom.inter_sq, max_steps, step)
    assert got == _oracle_outcome(w, geom.intra, geom.inter_sq, max_steps, step)


_REALS = st.floats(0.0, 1e6) | st.sampled_from(
    [0.0, -0.0, -1.0, 5e-324, 1e308, math.inf, math.nan]
)


@st.composite
def _refine_args(draw) -> dict:
    """``refine``'s arguments over d+1 = 1..4 components and 0..5 pairs,
    masses NaN, infinite, negative or subnormal among them, one to three
    arrays spoiled in dtype, layout, shape or writability (``_SPOILS``),
    a step buffer or None, and sometimes a max_steps that is negative or
    disagrees with the step buffer."""
    comps, pairs = draw(st.integers(1, 4)), draw(st.integers(0, 5))
    max_steps = draw(st.sampled_from([0, 1, 3, 25]))

    def array(*shape):
        values = draw(st.lists(_REALS, min_size=math.prod(shape), max_size=math.prod(shape)))
        return np.array(values, dtype=np.float64).reshape(shape)

    args = {
        "weights": array(comps),
        "intra": array(comps),
        "inter_sq": array(pairs, comps),
        "max_steps": max_steps,
        "step": draw(st.sampled_from([0.1, 1.0, 1e-18, 0.0, -1.0, math.nan])),
        "steps": np.full((max_steps, 2), 7.0),
    }
    with np.errstate(all="ignore"):  # casts of NaN, inf and 1e308
        _spoil(draw, args, ["weights", "intra", "inter_sq", "steps"])
    if draw(st.booleans()):
        args["steps"] = None
    if draw(st.integers(0, 4)) == 0:
        args["max_steps"] = draw(st.integers(-2, 30))
    return args


def _refine_args_fit(weights, intra, inter_sq, max_steps, step, steps) -> bool:
    """Whether the arguments are those the kernel takes."""
    if not (_is(weights, "f", 1, writable=True) and _is(intra, "f", 1) and _is(inter_sq, "f", 2)):
        return False
    fits = intra.shape == weights.shape and inter_sq.shape[1] == len(weights) and max_steps >= 0
    return fits and (steps is None or (_is(steps, "f", 2, True) and steps.shape == (max_steps, 2)))


@settings(max_examples=300, deadline=None)
@given(args=_refine_args())
def test_fuzz_refine_raises_or_is_the_oracle(args):
    """``refine`` on arrays of random shape, dtype, layout and values:
    arguments it does not take raise ValueError before any write; others
    give ``reference.refine``'s weights, record and steps, or its
    ValueError, with nothing written. The geometry is left as it was."""
    held = {name: _state(args[name]) for name in ("weights", "intra", "inter_sq", "steps")}
    fits = _refine_args_fit(*args.values())
    if fits:
        want = _oracle_outcome(*(args[name] for name in list(args)[:5]))
    try:
        record = kernel.refine(*args.values())  # the steps taken
    except ValueError as exc:
        assert not fits or str(exc) == want
        assert _state(args["weights"]) == held["weights"]
        assert _state(args["steps"]) == held["steps"]
    else:
        assert fits and not isinstance(want, str)
        weights, taken, rows = want
        assert args["weights"].tobytes() == weights
        assert record == taken
        if args["steps"] is not None:
            assert args["steps"][:taken].tobytes() == rows
    assert _state(args["intra"]) == held["intra"]
    assert _state(args["inter_sq"]) == held["inter_sq"]


def _state(a) -> tuple | None:
    return None if a is None else (np.asarray(a).dtype, np.shape(a), np.asarray(a).tobytes())


def test_the_kernels_log_is_within_one_ulp_and_is_the_oracles(compiled):
    """The kernel's ``log`` over 1.25 million positive doubles: a million
    drawn uniformly as bit patterns (so over every binade, subnormals
    included), every power of two and its neighbours, 150,000 values near 1
    (where log is near 0) and 100,000 subnormals. Each is within one ulp of
    ``math.log`` (measured: 1 ulp at most, on about 1.5% of the values; the
    worst of those is within 0.72 ulp of a 120-bit log), and
    ``reference.kernel_log`` gives the same bits, special values included."""
    log = compiled.log
    rng = np.random.default_rng(11)
    powers = 2.0 ** np.arange(-1074, 1024)
    x = np.concatenate(
        [
            rng.integers(1, 0x7FF0000000000000, 10**6, dtype=np.uint64).view(np.float64),
            powers,
            np.nextafter(powers, 0.0),
            np.nextafter(powers, math.inf),
            1.0 + rng.uniform(-1e-3, 1e-3, 150_000),
            rng.integers(1, 2**52, 100_000, dtype=np.uint64).view(np.float64),
        ]
    )
    x = x[(x > 0.0) & (x < math.inf)]
    assert len(x) >= 10**6
    got = log(x)
    libm = np.array([math.log(v) for v in x.tolist()])
    ulps = np.abs(got - libm) / np.spacing(np.abs(libm))
    assert ulps.max() <= 1.0, (ulps.max(), x[ulps.argmax()])
    assert (got != libm).mean() < 0.05
    special = np.array([0.0, -0.0, -1.0, math.inf, -math.inf, math.nan, 5e-324, 2.0**-1022,
                        sys.float_info.max, 1.0])
    picked = np.concatenate([special, x[:: len(x) // 50_000], powers])
    want = np.array([reference.kernel_log(v) for v in picked.tolist()])
    got = log(picked)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert got[~np.isnan(got)].tobytes() == want[~np.isnan(want)].tobytes()
    got = log(special)
    assert got[[0, 1, 3, 9]].tolist() == [-math.inf, -math.inf, math.inf, 0.0]
    assert np.isnan(got[[2, 4, 5]]).all()
