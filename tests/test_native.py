"""The compiled kernel: its boundary checks, its build cache and its source.

Each kernel function checks every buffer's element type, shape and
contiguity, a view's bounds, and every slot and bucket against the grid
shape, and raises ValueError before it writes anything. The sketch bank
hands a view's arrays and bounds to it as they are; ``graph_views``
builds every view and no view can be changed, so no bank is handed one
whose fields disagree. The ingest walk (``canonical_graph`` and
``graph_view``) writes only what it returns: a bad argument leaves its
input as it was, and no error path leaks a reference. The kernel is
built on the first import into the package's ``__pycache__`` and loaded
from there by later imports; its source compiles without a warning.
"""

import gc
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


def _grid():
    rng = np.random.default_rng(5)
    cells = rng.uniform(0.0, 1.0, (COMPS, SLOTS, ROWS, COLS))
    bounds = (0, 3, KEYS)
    buckets = rng.integers(0, COLS, (ROWS, KEYS)).astype(np.intp)
    return cells, bounds, buckets


def _read_only(array: np.ndarray) -> np.ndarray:
    array = array.copy()
    array.flags.writeable = False
    return array


def _set(array: np.ndarray, index, value) -> np.ndarray:
    array = array.copy()
    array[index] = value
    return array


# (name, bad value) per argument that the gather and the scatter share
_GRID_FAULTS = {
    "cells": [
        ("float32", lambda a: a.astype(np.float32)),
        ("int64", lambda a: a.astype(np.int64)),
        ("strided", lambda a: a[..., ::2]),
        ("3-d", lambda a: a[0]),
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
    "buckets": [
        ("uint64", lambda a: a.astype(np.uint64)),
        ("short", lambda a: a[:, :-1]),
        ("a row short", lambda a: a[:-1]),
        ("transposed", lambda a: np.asfortranarray(a)),
        ("too large", lambda a: _set(a, (-1, -1), COLS)),
        ("negative", lambda a: _set(a, (-1, -1), -1)),
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
    cells, bounds, buckets = _grid()
    args = {"cells": cells, "slot": 1, "bounds": bounds, "buckets": buckets, "values": np.ones(KEYS)}
    args[arg] = fault(args[arg])
    held = args["cells"].copy()
    with pytest.raises(ValueError):
        kernel.scatter_add(*args.values(), fresh)
    assert args["cells"].tobytes() == held.tobytes()
    assert cells.tobytes() == _grid()[0].tobytes()


@pytest.mark.parametrize("arg, name, fault", _GATHER, ids=[f"{a}-{n}" for a, n, _ in _GATHER])
def test_row_minima_rejects_a_bad_argument_before_any_write(arg, name, fault):
    """``graph_cross``, the gather that takes each key's row minimum in
    every live slot and sums its cross products, ``out`` ``(m, d+1)``."""
    cells, bounds, buckets = _grid()
    args = {"cells": cells, "bounds": bounds, "buckets": buckets, "values": np.ones(KEYS), "m": 2}
    args["out"] = np.full((2, COMPS), -1.0)
    args[arg] = fault(args[arg])
    held = args["out"].copy()
    with pytest.raises(ValueError):
        kernel.graph_cross(*args.values())
    assert args["out"].tobytes() == held.tobytes()


_HASH = [
    ("keys", "not a sequence", lambda keys: 5),
    ("keys", "a str key", lambda keys: (*keys[:-1], "k")),
    ("keys", "an int key", lambda keys: (*keys[:-1], 7)),
    ("keys", "short", lambda keys: keys[:-1]),
    ("mult", "int64", lambda a: a.astype(np.int64)),
    ("mult", "2-d", lambda a: a[:, None]),
    ("add", "short", lambda a: a[:-1]),
    ("add", "float64", lambda a: a.astype(np.float64)),
    ("cols", "zero", lambda cols: 0),
    ("cols", "negative", lambda cols: -COLS),
    ("out", "short", lambda a: a[:, :-1]),
    ("out", "uint64", lambda a: a.astype(np.uint64)),
    ("out", "read-only", _read_only),
]


@pytest.mark.parametrize("arg, name, fault", _HASH, ids=[f"{a}-{n}" for a, n, _ in _HASH])
def test_buckets_rejects_a_bad_argument_before_any_write(arg, name, fault):
    """``key_buckets``, the entry point of ``SketchConfig.buckets``: a key
    that is not bytes-like raises TypeError, as in ``hashlib``, and every
    other fault ValueError."""
    config = SketchConfig(rows=ROWS, cols=COLS, seed=3)
    args = {
        "keys": tuple(b"k%d" % i for i in range(KEYS)),
        "mult": config._mult,
        "add": config._add,
        "cols": COLS,
        "out": np.full((ROWS, KEYS), -1, dtype=np.intp),
    }
    args[arg] = fault(args[arg])
    held = args["out"].copy()
    with pytest.raises(TypeError if arg == "keys" and name != "short" else ValueError):
        kernel.key_buckets(*args.values())
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
_PAIR = _COUNTS + [
    ("first", "int32", lambda a: a.astype(np.int32)),
    ("first", "short", lambda a: a[:-1]),
    ("first", "too large", lambda a: _set(a, -1, SLOTS)),
    ("second", "negative", lambda a: _set(a, -1, -1)),
    ("second", "too large", lambda a: _set(a, 0, SLOTS)),
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
    self_sq, n, cross = _counts()
    pairs = [np.array(a, dtype=np.intp) for a in ([0, 0, 1], [1, 2, 2])]
    args = {"self_sq": self_sq, "n": n, "first": pairs[0], "second": pairs[1], "cross": cross}
    args[arg] = fault(args[arg])
    held = args["cross"].copy()
    with pytest.raises(ValueError):
        kernel.pair_distances_sq(*args.values())
    assert args["cross"].tobytes() == held.tobytes()


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
# (``comp``, which views once held, among them), an array written or made
# writable
_TAMPERED = {
    "comp float64": _rebind("comp", lambda v: np.array([0.0, 0.0, 1.0])),
    "comp short": _rebind("comp", lambda v: np.array([0, 0], dtype=np.intp)),
    "comp too large": _rebind("comp", lambda v: np.array([0, 0, 2], dtype=np.intp)),
    "values float32": _rebind("values", lambda v: v.values.astype(np.float32)),
    "values short": _rebind("values", lambda v: v.values[:-1]),
    "keys reordered": _rebind("keys", lambda v: v.keys[::-1]),
    "bounds moved": _rebind("bounds", lambda v: (0, 1, 3)),
    "sq_sum zeroed": _rebind("sq_sum", lambda v: np.zeros(2)),
    "d raised": _rebind("d", lambda v: 2),
    "values written": _write("values", 0),
    "sq_sum written": _write("sq_sum", 1),
    "values made writable": _unlock("values"),
    "sq_sum made writable": _unlock("sq_sum"),
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
        for name in ("keys", "bounds", "d"):
            assert getattr(view, name) == getattr(built, name)
        for name in ("values", "sq_sum"):
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
    ("checks", "two helpers", lambda c: c[:2], TypeError),
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
# square sum (_check_squares), a side shorthand, an undeclared type
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


def _walk(count: int) -> None:
    """``count`` valid records through ``preprocess`` and ``graph_views``,
    and as many faulting ones through each. Each record's labels and
    masses are new objects, so a reference the walk keeps to one holds its
    memory."""
    for i in range(count):
        a, m = f"a{i % 97}", float(i % 5 + 1)
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
    ``graph_views``: the traced heap grows by less than 64 KiB, which one
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
