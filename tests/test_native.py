"""The compiled kernel: its boundary checks, its build cache and its source.

Each kernel function checks every buffer's element type, shape and
contiguity, and every component id, slot and bucket against the grid
shape, and raises ValueError before it writes anything. The sketch bank
hands a view's arrays to it as they are, and ``GraphView`` is public, so
a caller can hand it a view whose arrays no constructor made. The ingest
walk (``canonical_graph`` and ``graph_view``) writes only what it
returns: a bad argument leaves its input as it was, and no error path
leaks a reference. The kernel is built on the first import into the
package's ``__pycache__`` and loaded from there by later imports; its
source compiles without a warning.
"""

import gc
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
from sketchclust import (
    GraphObject,
    GraphView,
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
    comp = np.array([0, 0, 0, 1, 1], dtype=np.intp)
    buckets = rng.integers(0, COLS, (ROWS, KEYS)).astype(np.intp)
    return cells, comp, buckets


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
    "comp": [
        ("float64", lambda a: a.astype(np.float64)),
        ("int32", lambda a: a.astype(np.int32)),
        ("short", lambda a: a[:-1]),
        ("too large", lambda a: _set(a, -1, COMPS)),
        ("negative", lambda a: _set(a, -1, -1)),
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
    ("out", "float32", lambda a: a.astype(np.float32)),
    ("out", "short", lambda a: a[:-1]),
    ("out", "transposed", lambda a: np.empty(a.shape[::-1]).T),
    ("out", "read-only", _read_only),
]


@pytest.mark.parametrize("fresh", [False, True], ids=["add", "fresh"])
@pytest.mark.parametrize("arg, name, fault", _SCATTER, ids=[f"{a}-{n}" for a, n, _ in _SCATTER])
def test_scatter_add_rejects_a_bad_argument_before_any_write(arg, name, fault, fresh):
    cells, comp, buckets = _grid()
    args = {"cells": cells, "slot": 1, "comp": comp, "buckets": buckets, "values": np.ones(KEYS)}
    args[arg] = fault(args[arg])
    held = args["cells"].copy()
    with pytest.raises(ValueError):
        kernel.scatter_add(*args.values(), fresh)
    assert args["cells"].tobytes() == held.tobytes()
    assert cells.tobytes() == _grid()[0].tobytes()


@pytest.mark.parametrize("arg, name, fault", _GATHER, ids=[f"{a}-{n}" for a, n, _ in _GATHER])
def test_row_minima_rejects_a_bad_argument_before_any_write(arg, name, fault):
    cells, comp, buckets = _grid()
    args = {"cells": cells, "comp": comp, "buckets": buckets, "m": 2, "out": np.full((KEYS, 2), -1.0)}
    args[arg] = fault(args[arg])
    held = args["out"].copy()
    with pytest.raises(ValueError):
        kernel.row_minima(*args.values())
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


# a hand-built view's arrays replaced after construction: the kernel's
# faults, and the short arrays that the bank itself rejects first
_TAMPERED = {
    "comp float64": ("comp", lambda a: a.astype(np.float64)),
    "comp short": ("comp", lambda a: a[:-1]),
    "comp too large": ("comp", lambda a: _set(a, -1, 2)),
    "values float32": ("values", lambda a: a.astype(np.float32)),
    "values short": ("values", lambda a: a[:-1]),
}


@pytest.mark.parametrize("cause", sorted(_TAMPERED))
def test_a_view_the_kernel_rejects_leaves_the_bank_as_it_was(cause):
    """``absorb`` and ``reset`` (into a live slot or the next free one)
    raise ValueError and change no checkpoint byte, no self product and no
    slot count; a faulty component id fails the scoring too. A short array
    is rejected by the bank's own check, before the kernel, and a faulty
    ``comp`` by the exact bank's own, so the exact backend rejects these
    as well."""
    banks = [ClusterBank(SketchConfig(rows=ROWS, cols=COLS), 1, 3)]
    attr, fault = _TAMPERED[cause]
    if cause.endswith("short") or attr == "comp":
        banks.append(ExactBank(1, 3))
    for bank in banks:
        bank.reset(0, GraphView((b"a", b"t"), [1.0, 2.0], (0, 1, 2)), 1)
        bank.reset(1, GraphView((b"b", b"t"), [3.0, 1.0], (0, 1, 2)), 2)
        view = GraphView((b"a", b"c", b"t"), [1.0, 2.0, 4.0], (0, 2, 3))
        setattr(view, attr, fault(getattr(view, attr)))
        before = (b"".join(bank.to_parts()), bank.self_sq.tobytes())
        for update, slot in ((bank.absorb, 0), (bank.reset, 0), (bank.reset, 2)):
            with pytest.raises(ValueError):
                update(slot, view, 3)
            assert (b"".join(bank.to_parts()), bank.self_sq.tobytes()) == before
            assert len(bank) == 2
        if attr == "comp":
            with pytest.raises(ValueError):
                bank.distances_sq(view)


def _founded(bank):
    bank.reset(0, GraphView((b"a", b"t"), [1.0, 2.0], (0, 1, 2)), 1)
    bank.reset(1, GraphView((b"b", b"t"), [3.0, 1.0], (0, 1, 2)), 2)
    return bank


@pytest.mark.parametrize(
    "comp, backends",
    [
        ([0, 0, 5], "sketch exact"),  # an id outside the grid
        ([0, 1, 1], "exact"),  # in range, but not the bounds' ids
        ([1, 1, 0], "exact"),
    ],
    ids=["out of range", "in range", "reversed"],
)
def test_a_comp_that_disagrees_with_its_bounds_is_rejected_before_any_write(comp, backends):
    """Keys ``(a, c, t)`` with bounds ``(0, 2, 3)``, whose ids are ``[0, 0,
    1]``. The sketch kernel rejects an id outside its grid; the exact bank,
    which reads the bounds to update and ``comp`` to score, rejects any
    ``comp`` but the bounds' own, with ValueError and before any write,
    where it once absorbed the graph and then raised IndexError scoring."""
    for backend in backends.split():
        bank = _founded(
            ClusterBank(SketchConfig(rows=ROWS, cols=COLS), 1, 3) if backend == "sketch"
            else ExactBank(1, 3)
        )
        view = GraphView((b"a", b"c", b"t"), [1.0, 2.0, 4.0], (0, 2, 3))
        view.comp = np.array(comp, dtype=np.intp)
        before = (b"".join(bank.to_parts()), bank.self_sq.tobytes())
        for update, slot in ((bank.absorb, 0), (bank.reset, 0), (bank.reset, 2)):
            with pytest.raises(ValueError):
                update(slot, view, 3)
            assert (b"".join(bank.to_parts()), bank.self_sq.tobytes()) == before
            assert len(bank) == 2
        with pytest.raises(ValueError):
            bank.distances_sq(view)


def test_the_exact_bank_takes_the_constructors_comp():
    bank = _founded(ExactBank(1, 3))
    view = GraphView((b"a", b"c", b"t"), [1.0, 2.0, 4.0], (0, 2, 3))
    assert view.comp.tolist() == [0, 0, 1]
    bank.absorb(0, view, 3)
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


# (name, bad value) per argument of ``graph_view(keys, values, bounds)``,
# given a view's parts
_VIEW_PARTS = [
    ("keys", "not sized", lambda keys: 5),
    ("keys", "short", lambda keys: keys[:-1]),
    ("values", "float32", lambda a: a.astype(np.float32)),
    ("values", "2-d", lambda a: a[None]),
    ("values", "short", lambda a: a[:-1]),
    ("values", "a list", lambda a: a.tolist()),
    ("bounds", "one end", lambda b: b[:1]),
    ("bounds", "not from 0", lambda b: (1, *b[1:])),
    ("bounds", "decreasing", lambda b: (0, 4, 3, 5)),
    ("bounds", "past the keys", lambda b: (*b[:-1], KEYS + 1)),
    ("bounds", "floats", lambda b: tuple(map(float, b))),
    ("bounds", "not a sequence", lambda b: 5),
]


@pytest.mark.parametrize(
    "arg, name, fault", _VIEW_PARTS, ids=[f"{a}-{n}" for a, n, _ in _VIEW_PARTS]
)
def test_graph_view_rejects_a_bad_argument_before_any_write(arg, name, fault):
    """The one construction of every view, from a view's parts."""
    args = {
        "keys": tuple(b"k%d" % i for i in range(KEYS)),
        "values": np.arange(KEYS, dtype=np.float64),
        "bounds": (0, 2, 2, KEYS),
    }
    kernel.graph_view(*args.values())
    args[arg] = fault(args[arg])
    held = repr(args)
    with pytest.raises((TypeError, ValueError)):
        kernel.graph_view(*args.values())
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
        kernel.graph_view(*args.values(), None)
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
            kernel.graph_view([*canonical.edges, (a, 3, m)], sides, None)


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
