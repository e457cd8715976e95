"""The compiled kernel: its boundary checks, its build cache and its source.

Each kernel function checks every buffer's element type, shape and
contiguity, a view's bounds, and every slot against the grid shape, and
raises ValueError before it writes anything; the gather and the scatter
bucket a view's digests themselves, each bucket in range by its ``mod``.
The sketch bank hands a view's arrays and bounds to it as they are;
``graph_views`` builds every view and no view can be changed, so no bank
is handed one whose fields disagree. The ingest walk (``canonical_graph``
and ``graph_view``) writes only what it returns: a bad argument leaves
its input as it was, and no error path leaks a reference. The
``test_fuzz_*`` properties feed both walks arbitrary objects, and the
gather, the scatter and the pair form arrays of any shape, dtype and
layout, against their oracles. The kernel is
built on the first import into the package's ``__pycache__`` and loaded
from there by later imports; its source compiles without a warning.
"""

import gc
import math
import operator
import os
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
import sketchclust
from reference import view_of
from sketchclust import (
    GraphObject,
    SideType,
    SketchConfig,
    StreamSchema,
    graph_views,
    native,
    preprocess,
)
from sketchclust.exact import ExactBank
from sketchclust.model import _CHECKS
from sketchclust.native import kernel
from sketchclust.stats import ClusterBank

PACKAGE = Path(sketchclust.__file__).resolve().parent

# a grid of d+1 = 2 components, 3 slots, 4 rows and 16 columns; 5 keys
COMPS, SLOTS, ROWS, COLS, KEYS = 2, 3, 4, 16, 5


def _grid() -> dict:
    """The gather's and the scatter's shared arguments: the cells, a view's
    bounds, a sketch's multipliers and offsets and the view's digests."""
    rng = np.random.default_rng(5)
    config = SketchConfig(rows=ROWS, cols=COLS, seed=3)
    return {
        "cells": rng.uniform(0.0, 1.0, (COMPS, SLOTS, ROWS, COLS)),
        "bounds": (0, 3, KEYS),
        "mult": config._mult,
        "add": config._add,
        "digests": rng.integers(0, 2**64, KEYS, dtype=np.uint64),
    }


def _read_only(array: np.ndarray) -> np.ndarray:
    array = array.copy()
    array.flags.writeable = False
    return array


# (name, bad value) per argument that the gather and the scatter share
_GRID_FAULTS = {
    "cells": [
        ("float32", lambda a: a.astype(np.float32)),
        ("int64", lambda a: a.astype(np.int64)),
        ("strided", lambda a: a[..., ::2]),
        ("3-d", lambda a: a[0]),
        ("no columns", lambda a: a[..., :0]),
    ],
    "bounds": [
        ("too short", lambda b: b[:-1]),
        ("too long", lambda b: (*b, KEYS)),
        ("not from 0", lambda b: (1, *b[1:])),
        ("decreasing", lambda b: (0, KEYS + 1, KEYS)),
        ("past the keys", lambda b: (*b[:-1], KEYS + 1)),
        ("short of the keys", lambda b: (*b[:-1], KEYS - 1)),
        ("a float", lambda b: (0, 3.0, KEYS)),
        ("a str", lambda b: (0, "3", KEYS)),
        ("beyond Py_ssize_t", lambda b: (0, 2**63, KEYS)),
        ("below Py_ssize_t", lambda b: (0, -(2**63) - 1, KEYS)),
        ("a list", list),
        ("None", lambda b: None),
    ],
    "mult": [
        ("int64", lambda a: a.astype(np.int64)),
        ("short", lambda a: a[:-1]),
        ("long", lambda a: np.concatenate([a, a[:1]])),
        ("2-d", lambda a: a[None]),
    ],
    "add": [
        ("float64", lambda a: a.astype(np.float64)),
        ("short", lambda a: a[:-1]),
        ("long", lambda a: np.concatenate([a, a[:1]])),
        ("2-d", lambda a: a[:, None]),
    ],
    "digests": [
        ("int64", lambda a: a.astype(np.int64)),
        ("short", lambda a: a[:-1]),
        ("2-d", lambda a: a[None]),
    ],
}
_SCATTER = [(arg, name, fault) for arg, faults in _GRID_FAULTS.items() for name, fault in faults]
_SCATTER += [
    ("cells", "read-only", _read_only),
    ("slot", "too large", lambda slot: SLOTS),
    ("slot", "negative", lambda slot: -1),
    ("values", "float32", lambda a: a.astype(np.float32)),
    ("values", "short", lambda a: a[:-1]),
    ("values", "2-d", lambda a: a[None]),
]
_GATHER = [(arg, name, fault) for arg, faults in _GRID_FAULTS.items() for name, fault in faults]
_GATHER += [
    ("m", "too large", lambda m: SLOTS + 1),
    ("m", "negative", lambda m: -1),
    ("values", "float32", lambda a: a.astype(np.float32)),
    ("values", "short", lambda a: a[:-1]),
    ("values", "strided", lambda a: np.repeat(a, 2)[::2]),
    ("out", "float32", lambda a: a.astype(np.float32)),
    ("out", "short", lambda a: a[:-1]),
    ("out", "a column short", lambda a: a[:, :-1]),
    ("out", "transposed", lambda a: np.empty(a.shape[::-1]).T),
    ("out", "read-only", _read_only),
]


@pytest.mark.parametrize("fresh", [False, True], ids=["add", "fresh"])
@pytest.mark.parametrize("arg, name, fault", _SCATTER, ids=[f"{a}-{n}" for a, n, _ in _SCATTER])
def test_scatter_add_rejects_a_bad_argument_before_any_write(arg, name, fault, fresh):
    grid = _grid()
    args = {"cells": grid["cells"], "slot": 1, **grid, "values": np.ones(KEYS)}
    args[arg] = fault(args[arg])
    held = args["cells"].copy()
    with pytest.raises(ValueError):
        kernel.scatter_add(*args.values(), fresh)
    assert args["cells"].tobytes() == held.tobytes()
    assert grid["cells"].tobytes() == _grid()["cells"].tobytes()


@pytest.mark.parametrize("arg, name, fault", _GATHER, ids=[f"{a}-{n}" for a, n, _ in _GATHER])
def test_row_minima_rejects_a_bad_argument_before_any_write(arg, name, fault):
    """``graph_cross``, the gather that takes each key's row minimum in
    every live slot and sums its cross products, ``out`` ``(m, d+1)``."""
    args = {**_grid(), "values": np.ones(KEYS), "m": 2, "out": np.full((2, COMPS), -1.0)}
    args[arg] = fault(args[arg])
    held = args["out"].copy()
    with pytest.raises(ValueError):
        kernel.graph_cross(*args.values())
    assert args["out"].tobytes() == held.tobytes()


# (name, bad value) per argument that the two closed forms share; the
# bank's arrays have d+1 = COMPS components and SLOTS slots
_COUNT_FAULTS = {
    "self_sq": [
        ("float32", lambda a: a.astype(np.float32)),
        ("1-d", lambda a: a[0]),
        ("strided", lambda a: a[:, ::2]),
        ("a component short", lambda a: a[:-1]),
    ],
    "n": [
        ("int32", lambda a: a.astype(np.int32)),
        ("float64", lambda a: a.astype(np.float64)),
        ("short", lambda a: a[:-1]),
    ],
    "cross": [
        ("float32", lambda a: a.astype(np.float32)),
        ("read-only", _read_only),
        ("transposed", lambda a: np.asfortranarray(a)),
        ("a column short", lambda a: a[:, :-1]),
    ],
}
_COUNTS = [(arg, name, fault) for arg, faults in _COUNT_FAULTS.items() for name, fault in faults]
_GRAPH = _COUNTS + [
    ("sq_sum", "short", lambda a: a[:-1]),
    ("sq_sum", "float32", lambda a: a.astype(np.float32)),
    ("cross", "more slots than the bank", lambda a: np.ones((SLOTS + 1, COMPS))),
]
# the pair form reads ``cross`` as a (d+1, m-1, m-1) block and writes ``out``
_PAIR = [case for case in _COUNTS if case[:2] != ("cross", "read-only")]
_PAIR += [
    ("cross", "2-d", lambda a: a[0]),
    ("cross", "not square", lambda a: np.ones((COMPS, 2, 1))),
    ("cross", "more slots than the bank", lambda a: np.ones((COMPS, SLOTS, SLOTS))),
    ("out", "read-only", _read_only),
    ("out", "float32", lambda a: a.astype(np.float32)),
    ("out", "short", lambda a: a[:-1]),
    ("out", "a column short", lambda a: a[:, :-1]),
    ("out", "transposed", lambda a: np.asfortranarray(a)),
]


def _counts():
    """A bank's ``self_sq`` and ``n``, and a cross product per slot."""
    rng = np.random.default_rng(8)
    self_sq = rng.uniform(1.0, 2.0, (COMPS, SLOTS))
    return self_sq, np.arange(1, SLOTS + 1), rng.uniform(0.0, 1.0, (SLOTS, COMPS))


@pytest.mark.parametrize("arg, name, fault", _GRAPH, ids=[f"{a}-{n}" for a, n, _ in _GRAPH])
def test_graph_distances_sq_rejects_a_bad_argument_before_any_write(arg, name, fault):
    self_sq, n, cross = _counts()
    args = {"self_sq": self_sq, "n": n, "sq_sum": np.ones(COMPS), "cross": cross}
    args[arg] = fault(args[arg])
    held = args["cross"].copy()
    with pytest.raises(ValueError):
        kernel.graph_distances_sq(*args.values())
    assert args["cross"].tobytes() == held.tobytes()


@pytest.mark.parametrize("arg, name, fault", _PAIR, ids=[f"{a}-{n}" for a, n, _ in _PAIR])
def test_pair_distances_sq_rejects_a_bad_argument_before_any_write(arg, name, fault):
    """The three pairs of the ``SLOTS`` live slots, their products in a
    ``(COMPS, 2, 2)`` block."""
    self_sq, n, _ = _counts()
    cross = np.random.default_rng(9).uniform(0.0, 1.0, (COMPS, SLOTS - 1, SLOTS - 1))
    args = {"self_sq": self_sq, "n": n, "cross": cross, "out": np.zeros((3, COMPS))}
    args[arg] = fault(args[arg])
    held = args["out"].copy()
    with pytest.raises(ValueError):
        kernel.pair_distances_sq(*args.values())
    assert args["out"].tobytes() == held.tobytes()


def _founded(bank):
    bank.reset(0, view_of({"a\x1f": 1.0}, {"t": 2.0}), 1)
    bank.reset(1, view_of({"b\x1f": 3.0}, {"t": 1.0}), 2)
    return bank


def _banks():
    """Two founded slots of a third, on each backend."""
    banks = ClusterBank(SketchConfig(rows=ROWS, cols=COLS), 1, 3), ExactBank(1, 3)
    return [_founded(bank) for bank in banks]


def _abc():
    """Keys ``(a, c, t)`` of masses ``(1, 2, 4)`` and bounds ``(0, 2, 3)``."""
    return view_of({"a\x1f": 1.0, "c\x1f": 2.0}, {"t": 4.0})


def _state(bank) -> tuple:
    return b"".join(bank.to_parts()), bank.self_sq.tobytes(), len(bank)


def _rebind(field, value):
    return AttributeError, lambda view: setattr(view, field, value(view))


def _write(field, index):
    return ValueError, lambda view: operator.setitem(getattr(view, field), index, 9.0)


def _unlock(field):
    return ValueError, lambda view: setattr(getattr(view, field).flags, "writeable", True)


# Each change to a built view, and the error it raises: a field rebound
# (``comp`` and ``keys``, which views once held, among them), an array
# written or made writable
_TAMPERED = {
    "comp float64": _rebind("comp", lambda v: np.array([0.0, 0.0, 1.0])),
    "comp short": _rebind("comp", lambda v: np.array([0, 0], dtype=np.intp)),
    "comp too large": _rebind("comp", lambda v: np.array([0, 0, 2], dtype=np.intp)),
    "values float32": _rebind("values", lambda v: v.values.astype(np.float32)),
    "values short": _rebind("values", lambda v: v.values[:-1]),
    "keys reordered": _rebind("keys", lambda v: (b"t", b"c\x1f", b"a\x1f")),
    "bounds moved": _rebind("bounds", lambda v: (0, 1, 3)),
    "sq_sum zeroed": _rebind("sq_sum", lambda v: np.zeros(2)),
    "d raised": _rebind("d", lambda v: 2),
    "values written": _write("values", 0),
    "sq_sum written": _write("sq_sum", 1),
    "values made writable": _unlock("values"),
    "sq_sum made writable": _unlock("sq_sum"),
    "digests rebound": _rebind("digests", lambda v: v.digests[::-1]),
    "digests made writable": _unlock("digests"),
}


@pytest.mark.parametrize("cause", sorted(_TAMPERED))
def test_a_view_the_kernel_rejects_leaves_the_bank_as_it_was(cause):
    """No view that the kernel or a bank would misread can be made: on
    either backend, rebinding a field of a built view raises
    AttributeError, and writing into one of its arrays, or setting its
    ``writeable`` flag, ValueError. The bank's checkpoint bytes, self
    products and slot count stay as they were, and the view as it was
    built."""
    error, tamper = _TAMPERED[cause]
    for bank in _banks():
        view, before = _abc(), _state(bank)
        with pytest.raises(error):
            tamper(view)
        assert _state(bank) == before
        built = _abc()
        for name in ("bounds", "d"):
            assert getattr(view, name) == getattr(built, name)
        for name in ("values", "sq_sum", "digests"):
            assert getattr(view, name).tobytes() == getattr(built, name).tobytes()
            assert not getattr(view, name).flags.writeable


@pytest.mark.parametrize(
    "comp", [[0, 0, 5], [0, 1, 1], [1, 1, 0]], ids=["out of range", "in range", "reversed"]
)
def test_a_comp_that_disagrees_with_its_bounds_is_rejected_before_any_write(comp):
    """Keys ``(a, c, t)`` with bounds ``(0, 2, 3)``. A view holds no
    component ids to disagree with its bounds: setting ``comp`` raises
    AttributeError and writes nothing, on either backend. Absorbing the
    view then scatters by its bounds, so the slot's self product and
    second moments describe one cluster (a, c in the edges, t on the
    side), where a sketch bank once absorbed ``[0, 1, 1]`` into self
    products ``(4, 40)`` against second moments ``(6, 20)``."""
    for bank in _banks():
        view, before = _abc(), _state(bank)
        with pytest.raises(AttributeError):
            view.comp = np.array(comp, dtype=np.intp)
        assert _state(bank) == before
        bank.absorb(0, view, 3)
        assert bank.second_moments[0].tolist() == [6.0, 20.0]
        assert bank.self_sq[:, 0].tolist() == [8.0, 36.0]
        assert bank.distances_sq(view).shape == (2, 2)


SCHEMA = StreamSchema(side_types=(SideType("topics"), SideType("tags", "categorical")))


def _record(a: str = "a", m: float = 2.0) -> GraphObject:
    """A graph to merge, sort and count, over the label ``a`` and mass ``m``."""
    return GraphObject(
        id="g", edges=[("b", a, m), [a, "c"], ("c", a, 1)],
        side={"tags": ["v", a, "v"], "topics": {"y": 1.0, a: m, "x": 2}}, label="k",
    )


class _NoTruth:
    def __bool__(self):
        raise RuntimeError("no truth value")


# (name, bad value) per argument of ``canonical_graph(g, directed,
# categorical, checks)``, and the exception it raises
_CANONICAL = [
    ("g", "no fields", lambda g: object(), AttributeError),
    ("directed", "no truth value", lambda d: _NoTruth(), RuntimeError),
    ("categorical", "a list", lambda c: list(c.items()), TypeError),
    ("checks", "one helper", lambda c: c[:1], TypeError),
    ("checks", "a list", list, TypeError),
    ("checks", "a helper that is no callable", lambda c: (None, *c[1:]), TypeError),
    ("g", "edges a dict", lambda g: GraphObject("g", {"a": "b"}, g.side), ValueError),
]


@pytest.mark.parametrize(
    "arg, name, fault, error", _CANONICAL, ids=[f"{a}-{n}" for a, n, _, _ in _CANONICAL]
)
def test_canonical_graph_rejects_a_bad_argument_before_any_write(arg, name, fault, error):
    """The walk behind ``preprocess``; a helper that is no callable raises
    when a label fails (here ``""``), as only then is it called."""
    g = _record()
    if name == "a helper that is no callable":
        g.edges.append(("", "d"))
    args = {"g": g, "directed": False, "categorical": dict(SCHEMA._categorical), "checks": _CHECKS}
    args[arg] = fault(args[arg])
    held = repr(args)
    with pytest.raises(error):
        kernel.canonical_graph(*args.values())
    assert repr(args) == held


# (name, bad value) per part of a canonical graph that ``graph_views``
# reads: the edge list and the side maps in schema order
_VIEW_GRAPHS = [
    ("edges", "not a sequence", lambda e: 5),
    ("edges", "an edge of two items", lambda e: [*e, ("a", "b")]),
    ("edges", "an endpoint no str", lambda e: [*e, ("a", 3, 1.0)]),
    ("edges", "an endpoint not UTF-8", lambda e: [*e, ("a", "x\ud800", 1.0)]),
    ("edges", "a mass no number", lambda e: [*e, ("a", "b", "x")]),
    ("sides", "not a sequence", lambda s: 5),
    ("sides", "a map a list", lambda s: [s[0], ["v"]]),
    ("sides", "an id no str", lambda s: [{**s[0], 3: 1.0}, s[1]]),
    ("sides", "a mass no number", lambda s: [{**s[0], "z": None}, s[1]]),
    ("edges", "a mass negative", lambda e: [*e, ("a", "b", -1.0)]),
    ("edges", "a mass an int past float range", lambda e: [*e, ("a", "b", 2**1024)]),
    ("sides", "a mass NaN", lambda s: [{**s[0], "z": float("nan")}, s[1]]),
    ("sides", "a mass infinite", lambda s: [s[0], {**(s[1] or {}), "z": float("inf")}]),
    ("sides", "squares past float range", lambda s: [{**s[0], "z": 1e200}, s[1]]),
    ("edges", "squares summed past float range",
     lambda e: [*e, ("x", "y", 1e154), ("x", "z", 1e154)]),
]


@pytest.mark.parametrize(
    "arg, name, fault", _VIEW_GRAPHS, ids=[f"{a}-{n}" for a, n, _ in _VIEW_GRAPHS]
)
def test_graph_view_of_a_graph_rejects_a_bad_argument_before_any_write(arg, name, fault):
    """The construction ``graph_views`` calls, from a canonical graph."""
    g = preprocess(_record(), SCHEMA)
    args = {"edges": g.edges, "sides": [g.side.get(name) for name in SCHEMA._names]}
    args[arg] = fault(args[arg])
    held = repr(args)
    with pytest.raises((TypeError, ValueError)):
        kernel.graph_view(*args.values())
    assert repr(args) == held


# Records that fault in each part of the walk, given a fresh label and mass:
# a structural fault, a label (_check_label), a mass (_check_value), a
# square sum, a side shorthand, an undeclared type
_FAULTY = [
    lambda a, m: GraphObject("g", [(a, "b"), (a,)]),
    lambda a, m: GraphObject("g", [(a, "b", m), ("a\x1fb", a)], {"topics": {a: m}}),
    lambda a, m: GraphObject("g", [(a, "b", m), (a, 5)]),
    lambda a, m: GraphObject("g", [(a, "b", -m)], {"topics": {a: m}}),
    lambda a, m: GraphObject("g", [(a, "b")], {"topics": {a: m, "y": "2"}}),
    lambda a, m: GraphObject("g", [(a, "b", m * 1e300), ("b", a, 1e300)]),
    lambda a, m: GraphObject("g", [(a, "b", m)], {"topics": {a: m * 1e300}}),
    lambda a, m: GraphObject("g", [(a, "b", m)], {"tags": [a, 3]}),
    lambda a, m: GraphObject("g", [(a, "b", m)], {"tags": {a: True}}),
    lambda a, m: GraphObject("g", [], {"topics": {a: m, 2: m}}),
    lambda a, m: GraphObject("g", [(a, "b", m)], {"venue": {a: m}}),
    lambda a, m: GraphObject("", [(a, "b", m)]),
]


# A label of 262 UTF-8 bytes, which a str caches beside its text once they
# are asked for, with a character across the hash's first block edge
_LONG = "é" * 63 + "€😀" + "x" * 126 + "日"


def _walk(count: int) -> None:
    """``count`` valid records through ``preprocess`` and ``graph_views``,
    and as many faulting ones through each, every other one over a long,
    non-ASCII label. Each record's labels and masses are new objects, so a
    reference the walk keeps to one holds its memory."""
    for i in range(count):
        a, m = f"{_LONG if i % 2 else 'a'}{i % 97}", float(i % 5 + 1)
        g = _record(a, m)
        canonical = preprocess(g, SCHEMA)
        graph_views(canonical, SCHEMA)
        with pytest.raises(ValueError):
            preprocess(_FAULTY[i % len(_FAULTY)](a, m), SCHEMA)
        sides = [canonical.side.get(name) for name in SCHEMA._names]
        with pytest.raises(TypeError):
            kernel.graph_view([*canonical.edges, (a, 3, m)], sides)


def test_the_ingest_walk_leaks_nothing():
    """10,000 valid and 10,000 faulting records through ``preprocess`` and
    ``graph_views``, half over long non-ASCII labels, whose UTF-8 the
    digests are made from: the traced heap grows by less than 64 KiB, which one
    reference kept per record (to an object of at least 16 bytes) would
    pass more than twice over."""
    _walk(200)  # caches and free lists first
    gc.collect()
    tracemalloc.start()
    try:
        _walk(10)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        _walk(10_000)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024, grown


class _Label(str):
    """A str subclass, which the walks compare by its operators."""


class _Draining(float):
    """A mass whose ``__float__`` empties the list or dict that holds it."""

    holder = None

    def __float__(self):
        if self.holder is not None:
            self.holder.clear()
        return super().__float__()


class _Kept(float):
    """A ``_Draining``'s value, which empties nothing: the oracles' copy."""


def _clone(obj, drain: bool):
    """A copy of ``obj``'s lists, tuples and dicts (keys and other leaves
    shared), each ``_Draining`` a new one holding the copied container, or a
    ``_Kept`` unless ``drain``."""
    if isinstance(obj, _Draining):  # read by float's own method, which drains nothing
        return (_Draining if drain else _Kept)(float.__float__(obj))
    if isinstance(obj, (list, tuple)):
        items = [_clone(item, drain) for item in obj]
        copy = items if isinstance(obj, list) else tuple(items)
    elif isinstance(obj, dict):
        copy = {key: _clone(value, drain) for key, value in obj.items()}
    else:
        return obj
    for item in copy.values() if isinstance(copy, dict) else copy:
        if isinstance(item, _Draining) and not isinstance(copy, tuple):
            item.holder = copy
    return copy


def _drains(obj) -> bool:
    if isinstance(obj, dict):
        return any(map(_drains, obj.values()))
    if isinstance(obj, (list, tuple)):
        return any(map(_drains, obj))
    return isinstance(obj, _Draining)


_LABELS = st.one_of(
    st.sampled_from(["a", "b", "é", "a\x05", "", "a\x1fb", "x\ud800"]),
    st.text(max_size=3),
    st.text(max_size=3).map(_Label),
)
_MASSES = st.one_of(
    st.floats(0.0, 1e6),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**1024, -(2**1024), math.nan, math.inf, -math.inf, -0.0, 0.0, None, True]),
    st.floats(),
    st.floats(0.0, 1e6).map(_Draining),
)
_LEAVES = st.one_of(_LABELS, st.binary(max_size=3), _MASSES)
_OBJECTS = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_LABELS, inner, max_size=4),
    max_leaves=12,
)
# Edges and side maps that are often well formed, so the walks get far
_EDGES = st.one_of(
    _OBJECTS,
    st.lists(
        st.one_of(st.tuples(_LABELS, _LABELS, _MASSES), st.lists(_LEAVES, max_size=4), _OBJECTS),
        max_size=5,
    ),
)
_SIDE_MAPS = st.one_of(st.dictionaries(_LABELS, _MASSES, max_size=4), st.none(), _OBJECTS)


@settings(max_examples=300, deadline=None)
@given(
    g=st.builds(
        GraphObject,
        id=st.just("g") | _LEAVES,
        edges=_EDGES,
        side=st.dictionaries(
            st.sampled_from(SCHEMA._names + ("venue",)) | _LABELS,
            _SIDE_MAPS | st.lists(_LABELS, max_size=3) | _LABELS,
            max_size=3,
        )
        | _OBJECTS,
        label=st.none() | _LEAVES,
    ),
    directed=st.booleans(),
)
def test_fuzz_canonical_graph_raises_or_is_the_oracle(g, directed):
    """``canonical_graph``, through ``preprocess``, on arbitrary objects:
    it raises TypeError or ValueError, or gives what
    ``reference.preprocess_record`` gives, which reads a copy whose masses
    keep their holders. A graph with no draining mass is left as it was."""
    schema = StreamSchema(SCHEMA.side_types, directed)
    g = GraphObject(_clone(g.id, True), _clone(g.edges, True), _clone(g.side, True), g.label)
    kept = GraphObject(g.id, _clone(g.edges, False), _clone(g.side, False), g.label)
    held, drains = repr(g), _drains((g.edges, g.side))  # a drained mass leaves its holder
    try:
        got = preprocess(g, schema)
    except (TypeError, ValueError):
        pass
    else:
        assert repr(got) == repr(reference.preprocess_record(kept, schema))
    if not drains:
        assert repr(g) == held


@settings(max_examples=300, deadline=None)
@given(edges=_EDGES, sides=st.lists(_SIDE_MAPS, max_size=3) | _OBJECTS)
def test_fuzz_graph_view_raises_or_is_the_oracle(edges, sides):
    """``graph_view`` on arbitrary objects: it raises TypeError or
    ValueError, or gives ``reference.graph_view``'s fields but its keys,
    and leaves its arguments as they were."""
    edges, sides = _clone(edges, True), _clone(sides, True)
    held = repr((edges, sides))
    try:
        view = kernel.graph_view(edges, sides)
    except (TypeError, ValueError):
        assert repr((edges, sides)) == held
        return
    assert repr((edges, sides)) == held
    schema = StreamSchema(tuple(SideType(f"s{c}") for c in range(len(sides))))
    g = GraphObject("g", _clone(list(edges), False), dict(zip(schema._names, _clone(sides, False))))
    want = reference.graph_view(g, schema)
    values, bounds, sq_sum, digests = view
    assert bounds == want["bounds"]
    assert (values, sq_sum) == (want["values"].tobytes(), want["sq_sum"].tobytes())
    assert digests == want["digests"].tobytes()


# Ways to spoil one argument of pair_distances_sq
_SPOILS = {
    "float32": lambda a: a.astype(np.float32),
    "int64": lambda a: a.astype(np.int64),
    "float64": lambda a: a.astype(np.float64),
    "big-endian": lambda a: a.astype(a.dtype.newbyteorder(">")),
    "fortran": np.asfortranarray,
    "strided": lambda a: np.repeat(a, 2, axis=-1)[..., ::2],
    "read-only": _read_only,
    "an axis short": lambda a: a[:-1],
    "an axis long": lambda a: np.concatenate([a, a[:1]]),
    "an axis more": lambda a: a[None],
    "an axis less": lambda a: a[0] if len(a) else a.ravel(),
}


@st.composite
def _pair_args(draw):
    """``pair_distances_sq``'s arguments for ``m`` of ``k`` live slots, each
    kept or spoiled in dtype, layout or shape."""
    comps, k = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    side = draw(st.integers(1, k)) - 1
    reals = st.floats(0.0, 1e6) | st.sampled_from([0.0, -0.0, 1e308, math.inf, math.nan])

    def array(*shape):
        values = draw(st.lists(reals, min_size=math.prod(shape), max_size=math.prod(shape)))
        return np.array(values, dtype=np.float64).reshape(shape)

    args = {
        "self_sq": array(comps, k),
        "n": np.array(draw(st.lists(st.integers(-1, 5), min_size=k, max_size=k)), dtype=np.int64),
        "cross": array(comps, side, side),
        "out": np.full((side * (side + 1) // 2, comps), 7.0),
    }
    for name in args:
        spoil = draw(st.sampled_from([None] * 8 + sorted(_SPOILS)))
        if spoil is not None:
            with np.errstate(all="ignore"):  # casts of NaN, inf and 1e308
                args[name] = _SPOILS[spoil](args[name])
    return args


def _is(a, kind: str, ndim: int, writable: bool = False) -> bool:
    """Whether ``a`` is a C-contiguous array of native 8-byte ``kind``
    items in ``ndim`` axes, writable if asked."""
    return (
        a.dtype.kind == kind and a.dtype.itemsize == 8 and a.dtype.isnative and a.ndim == ndim
        and a.flags.c_contiguous and (a.flags.writeable or not writable)
    )


def _pair_args_fit(self_sq, n, cross, out) -> bool:
    """Whether the arguments are those the kernel takes."""
    if not (_is(self_sq, "f", 2) and _is(n, "i", 1) and _is(cross, "f", 3) and _is(out, "f", 2)):
        return False
    comps, k = self_sq.shape
    m = cross.shape[1] + 1
    return (
        n.shape == (k,)
        and cross.shape == (comps, m - 1, m - 1)
        and m <= k
        and out.shape == (m * (m - 1) // 2, comps)
        and out.flags.writeable
    )


@settings(max_examples=300, deadline=None)
@given(args=_pair_args())
def test_fuzz_pair_distances_sq_raises_or_is_the_oracle(args):
    """``pair_distances_sq`` on arrays of random shape, dtype and layout:
    arguments it does not take raise ValueError before any write; others
    give ``reference.pair_distances_sq``'s kept rows and their count, or
    the ValueError the oracle raises for a distance that is not finite.
    ``self_sq``, ``n`` and ``cross`` are left as they were."""
    held = {name: (a.dtype, a.shape, a.tobytes()) for name, a in args.items()}
    fits = _pair_args_fit(*args.values())
    try:
        kept = kernel.pair_distances_sq(*args.values())
    except ValueError as exc:
        if fits:
            assert str(exc) == "a squared distance is not finite"
            with np.errstate(all="ignore"), pytest.raises(ValueError, match=str(exc)):
                reference.pair_distances_sq(args["self_sq"], args["n"], args["cross"])
        else:
            assert (args["out"].dtype, args["out"].shape, args["out"].tobytes()) == held["out"]
    else:
        assert fits
        with np.errstate(all="ignore"):
            want = reference.pair_distances_sq(args["self_sq"], args["n"], args["cross"])
        assert args["out"][:kept].tobytes() == want.tobytes()
    for name in ("self_sq", "n", "cross"):
        assert (args[name].dtype, args[name].shape, args[name].tobytes()) == held[name]


# Words at the edges of uint64, where mult * x + add wraps mod 2**64
_WORDS = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]) | st.integers(0, 2**64 - 1)


def _spoil(draw, args: dict, names) -> None:
    """Spoil none, or one to three, of the named arrays in dtype, layout,
    shape or writability."""
    if draw(st.booleans()):
        for name in draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True)):
            args[name] = _SPOILS[draw(st.sampled_from(sorted(_SPOILS)))](args[name])


@st.composite
def _grid_args(draw) -> dict:
    """The gather's and the scatter's shared arguments for a grid of random
    shape, no rows or columns among them: cells whose ties and signed
    zeros decide minima, a view's bounds (sometimes spoiled), multipliers,
    offsets and digests of any 64-bit words, and masses."""
    comps, slots = draw(st.integers(1, 3)), draw(st.sampled_from([1, 2, 3, 0]))
    rows, cols = draw(st.sampled_from([1, 2, 3, 4, 0])), draw(st.sampled_from([1, 2, 3, 5, 8, 0]))
    n = draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = np.floor(rng.uniform(0.0, 4.0, (comps, slots, rows, cols))) / 2
    cells[(cells == 0.0) & (rng.random(cells.shape) < 0.5)] = -0.0

    def words(size):
        return np.array(draw(st.lists(_WORDS, min_size=size, max_size=size)), dtype=np.uint64)

    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=comps - 1, max_size=comps - 1)))
    bounds = (0, *cuts, n)
    spoilt = [bounds[:-1], (*bounds, n), list(bounds), (*bounds[:-1], n + 1), (0.0, *bounds[1:])]
    bounds = draw(st.sampled_from([bounds] * 10 + spoilt))
    masses = st.floats(0.0, 1e6) | st.sampled_from([0.0, -0.0])
    return {
        "cells": cells,
        "bounds": bounds,
        "mult": words(rows),
        "add": words(rows),
        "digests": words(n),
        "values": np.array(draw(st.lists(masses, min_size=n, max_size=n)), dtype=np.float64),
    }


_GRID_ARGS = ("cells", "bounds", "mult", "add", "digests", "values")


def _grid_fits(args: dict, writable: bool) -> bool:
    """Whether the kernel takes the shared arguments."""
    cells, bounds, mult, add, digests, values = (args[name] for name in _GRID_ARGS)
    if not (_is(cells, "f", 4, writable) and _is(values, "f", 1)):
        return False
    if not all(_is(a, "u", 1) for a in (mult, add, digests)):
        return False
    comps, _, rows, cols = cells.shape
    return (
        rows >= 1 and cols >= 1 and mult.shape == add.shape == (rows,)
        and values.shape == digests.shape
        and type(bounds) is tuple and len(bounds) == comps + 1
        and all(type(end) is int for end in bounds)
        and bounds[0] == 0 and bounds[-1] == len(digests)
        and all(a <= b for a, b in zip(bounds, bounds[1:]))
    )


def _held(args: dict) -> dict:
    arrays = {name: a for name, a in args.items() if hasattr(a, "dtype")}
    return {name: (a.dtype, a.shape, a.tobytes()) for name, a in arrays.items()}


def _buckets(args: dict) -> np.ndarray:
    return reference.multiply_shift(
        args["mult"], args["add"], args["digests"], args["cells"].shape[3]
    )


@settings(max_examples=300, deadline=None)
@given(args=_grid_args(), data=st.data())
def test_fuzz_graph_cross_raises_or_is_the_oracle(args, data):
    """``graph_cross`` on arrays of random shape, dtype, layout and
    writability, random bounds and live counts: arguments it does not take
    raise ValueError before ``out`` is written; others give
    ``reference.grid_cross`` at ``reference.multiply_shift``'s buckets.
    Every argument but ``out`` is left as it was."""
    slots = args["cells"].shape[1]
    m = data.draw(st.sampled_from([slots] * 3 + [-1, 0, slots + 1]) | st.integers(0, slots))
    args = {**args, "m": m, "out": np.full((max(m, 0), args["cells"].shape[0]), 7.0)}
    _spoil(data.draw, args, ["cells", "mult", "add", "digests", "values", "out"])
    held = _held(args)
    fits = _grid_fits(args, False) and 0 <= m <= slots and _is(args["out"], "f", 2, True) and (
        args["out"].shape == (m, args["cells"].shape[0])
    )
    try:
        kernel.graph_cross(*args.values())
    except ValueError:
        assert not fits
        assert _held(args) == held
    else:
        assert fits
        assert {**_held(args), "out": held["out"]} == held
        cells, bounds, values = args["cells"], args["bounds"], args["values"]
        want = reference.grid_cross(cells, m, bounds, _buckets(args), values)
        assert args["out"].tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(args=_grid_args(), data=st.data())
def test_fuzz_scatter_add_raises_or_is_the_oracle(args, data):
    """``scatter_add`` on arrays of random shape, dtype, layout and
    writability, random bounds and slots: arguments it does not take raise
    ValueError before the cells are written; into others it adds what
    ``reference.grid_add`` adds at ``reference.multiply_shift``'s buckets.
    Every argument but ``cells`` is left as it was."""
    slots = args["cells"].shape[1]
    slot = data.draw(st.sampled_from([*range(slots)] * 3 + [-1, slots]))
    args = {"cells": args["cells"], "slot": slot, **args, "fresh": data.draw(st.booleans())}
    _spoil(data.draw, args, ["cells", "mult", "add", "digests", "values"])
    held = _held(args)
    fits = _grid_fits(args, True) and 0 <= slot < slots
    want = args["cells"].copy()
    try:
        kernel.scatter_add(*args.values())
    except ValueError:
        assert not fits
        assert _held(args) == held
    else:
        assert fits
        assert {**_held(args), "cells": held["cells"]} == held
        bounds, values = args["bounds"], args["values"]
        reference.grid_add(want, slot, bounds, _buckets(args), values, args["fresh"])
        assert args["cells"].tobytes() == want.tobytes()


def test_the_kernel_compiles_without_warnings(tmp_path):
    """``_kernel.c`` under ``-Wall -Wextra -Werror``, with the build's own
    flags and headers."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    include = sysconfig.get_paths()["include"]
    command = [*native._FLAGS, "-Wall", "-Wextra", "-Werror", "-I", include,
               str(native._SOURCE), "-o", str(tmp_path / "kernel.so")]
    done = subprocess.run(command, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def _import(path: Path) -> subprocess.Popen:
    """``import sketchclust`` from ``path`` in a fresh interpreter that
    writes no bytecode; it prints the kernel's file and whether the import
    loaded ``subprocess`` or ``sysconfig``."""
    code = (
        "import sys, sketchclust.native as native; print(native.kernel.__file__); "
        "print('subprocess' in sys.modules, 'sysconfig' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(path), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.Popen(
        [sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )


def _run(path: Path) -> list[str]:
    proc = _import(path)
    out, err = proc.communicate()
    assert proc.returncode == 0, err
    return out.splitlines()


def test_a_warm_import_loads_the_cached_kernel_untouched():
    """With the kernel built, a fresh import loads that file without
    writing it, and imports neither ``subprocess`` nor ``sysconfig``."""
    built = Path(kernel.__file__).resolve()
    assert built.parent == PACKAGE / "__pycache__"
    before = built.stat()
    path, modules = _run(PACKAGE.parent)
    assert (Path(path).resolve(), modules) == (built, "False False")
    after = built.stat()
    assert (after.st_ino, after.st_mtime_ns, after.st_size) == (
        before.st_ino,
        before.st_mtime_ns,
        before.st_size,
    )


def _copy(tmp_path: Path) -> Path:
    """The package copied to ``tmp_path`` without its cache."""
    copy = tmp_path / "sketchclust"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    return copy


def test_an_edited_kernel_source_is_rebuilt(tmp_path):
    """Two imports at once on a cold cache both load a whole kernel, built
    under ``PYTHONDONTWRITEBYTECODE``, and leave one file; after the source
    changes, the next import builds and loads a second one and deletes the
    first, which no import loads any more; a kernel built for another
    interpreter's suffix stays."""
    copy = _copy(tmp_path)
    procs = [_import(tmp_path) for _ in range(2)]
    outs = [proc.communicate() for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], [err for _, err in outs]
    (first,) = (copy / "__pycache__").iterdir()
    assert [out.splitlines()[0] for out, _ in outs] == [str(first)] * 2
    other = copy / "__pycache__" / "_kernel.0123456789abcdef.cpython-399-other.so"
    other.write_bytes(b"")
    source = copy / "_kernel.c"
    source.write_text(source.read_text() + "/* edited */\n")
    (path, _) = _run(tmp_path)
    assert Path(path) != first
    assert sorted((copy / "__pycache__").iterdir()) == sorted([Path(path), other])


def test_a_failed_build_raises_import_error_with_the_command_and_its_output(tmp_path):
    copy = _copy(tmp_path)
    (copy / "_kernel.c").write_text('#error "this kernel does not build"\n')
    proc = _import(tmp_path)
    _, err = proc.communicate()
    assert proc.returncode != 0
    assert "ImportError: building the sketch kernel failed" in err
    assert "cc -O2 -shared -fPIC" in err and str(copy / "_kernel.c") in err
    assert "this kernel does not build" in err
    assert not list((copy / "__pycache__").iterdir())
