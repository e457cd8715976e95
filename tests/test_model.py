import json
import random
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import reference
from reference import component
from sketchclust import (
    GraphObject,
    GraphView,
    SideType,
    SketchConfig,
    StreamSchema,
    graph_views,
    preprocess,
)
from sketchclust.model import from_json


def _schema(*types: SideType, directed: bool = False) -> StreamSchema:
    return StreamSchema(side_types=tuple(types), directed=directed)


def test_side_type_validation():
    with pytest.raises(ValueError):
        SideType("")
    with pytest.raises(ValueError):
        SideType("with\x1fsep")
    with pytest.raises(ValueError):
        SideType("topics", "weird")


def test_schema_rejects_duplicate_names():
    with pytest.raises(ValueError):
        StreamSchema(side_types=(SideType("a"), SideType("a")))


def test_schema_dict_round_trip():
    schema = _schema(SideType("topics"), SideType("venue", "categorical"), directed=True)
    assert from_json(StreamSchema, json.loads(json.dumps(asdict(schema)))) == schema
    assert schema.d == 2


@pytest.mark.parametrize(
    "raw",
    [
        {"directed": "false"},
        {"directed": None},
        {"side_types": [{"name": 5}]},
        {"side_types": [{"name": "topics", "kind": 1}]},
    ],
)
def test_schema_from_dict_requires_json_types(raw):
    with pytest.raises(ValueError):
        from_json(StreamSchema, raw)


def test_edge_key_is_injective_on_separator():
    # ("a", "b|c") and ("a|b", "c") must not encode to the same key, so
    # the separator byte is banned from labels outright.
    schema = _schema(SideType("topics"))
    g = GraphObject(id="g", edges=[("a", "b")], side={"topics": {"topic:x": 1.0}})
    assert graph_views(preprocess(g, schema), schema).keys == (b"a\x1fb", b"topic:x")
    for edge in (("a\x1fb", "c"), ("", "c")):
        with pytest.raises(ValueError):
            preprocess(GraphObject(id="g", edges=[edge]), schema)


def test_canonicalize_sorts_and_merges_undirected():
    schema = _schema()
    g = GraphObject(id="g1", edges=[("b", "a", 2.0), ("a", "b"), ("c", "d", 0.0)])
    out = preprocess(g, schema)
    assert out.edges == [("a", "b", 3.0)]


def test_canonicalize_keeps_direction_when_directed():
    schema = _schema(directed=True)
    g = GraphObject(id="g1", edges=[("b", "a", 1.0), ("a", "b", 1.0)])
    out = preprocess(g, schema)
    assert out.edges == [("a", "b", 1.0), ("b", "a", 1.0)]


def test_canonicalize_validates():
    schema = _schema(SideType("topics"))
    with pytest.raises(ValueError):
        preprocess(GraphObject(id=""), schema)
    with pytest.raises(ValueError):
        preprocess(GraphObject(id="g", edges=[("a", "b", -1.0)]), schema)
    with pytest.raises(ValueError):
        preprocess(GraphObject(id="g", edges=[("a", "b", float("nan"))]), schema)
    with pytest.raises(ValueError):
        preprocess(GraphObject(id="g", side={"undeclared": {"x": 1.0}}), schema)


_MISSHAPEN = {
    "two_char_edge": {"edges": ["ab"]},
    "three_char_edge": {"edges": ["abc"]},
    "number_edge": {"edges": [5]},
    "dict_edge": {"edges": [{"a": 1, "b": 2}]},
    "one_item_edge": {"edges": [("a",)]},
    "edges_not_a_list": {"edges": 5},
    "edges_a_string": {"edges": "ab"},
    "side_not_a_dict": {"side": 5},
    "side_a_list": {"side": [("topics", {"x": 1.0})]},
    "side_entry_a_list_of_numbers": {"side": {"topics": [3]}},
    "side_entry_a_number": {"side": {"topics": 2}},
    "side_ids_of_mixed_types": {"side": {"topics": {"x": 1.0, 2: 1.0}}},
    "label_a_number": {"label": 5},
    "label_a_list": {"label": ["k1"]},
}


@pytest.mark.parametrize("fields", list(_MISSHAPEN.values()), ids=list(_MISSHAPEN))
def test_preprocess_rejects_a_misshapen_graph_with_value_error(fields):
    with pytest.raises(ValueError):
        preprocess(GraphObject(id="g", **fields), _schema(SideType("topics")))


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"edges": 5}, "edges must be a list or tuple"),
        ({"edges": "ab"}, "edges must be a list or tuple"),
        ({"side": [1]}, "side must be an object keyed by type name"),
        ({"side": 3}, "side must be an object keyed by type name"),
        ({"edges": [("a", "b")], "side": [("topics", {"x": 1.0})]},
         "side must be an object keyed by type name"),
        ({"edges": 5, "side": 3}, "edges must be a list or tuple"),
    ],
    ids=["edges_a_number", "edges_a_string", "side_a_list", "side_a_number", "side_pairs",
         "both"],
)
def test_misshapen_edges_and_side_are_rejected_each_with_its_own_message(fields, message):
    with pytest.raises(ValueError) as exc_info:
        preprocess(GraphObject(id="g", **fields), _schema(SideType("topics")))
    assert str(exc_info.value) == message


@pytest.mark.parametrize(
    "entry, message",
    [
        (["x", None], "list items of 'topics' must be strings"),
        ([False], "list items of 'topics' must be strings"),
        (2, "side entry 'topics' must be an object, list or string"),
        (None, "side entry 'topics' must be an object, list or string"),
        (("x",), "side entry 'topics' must be an object, list or string"),
    ],
    ids=repr,
)
def test_a_misshapen_side_shorthand_is_rejected_with_its_message(entry, message):
    with pytest.raises(ValueError) as exc_info:
        preprocess(GraphObject(id="g", side={"topics": entry}), _schema(SideType("topics")))
    assert str(exc_info.value) == message


@pytest.mark.parametrize("where", ["src", "dst", "attr", "categorical"])
def test_label_not_encodable_as_utf8_is_rejected(where):
    lone = "\ud800"  # a lone surrogate: valid JSON, but no UTF-8 bytes
    schema = _schema(SideType("topics"), SideType("venue", "categorical"))
    edges = {"src": [(lone, "b")], "dst": [("a", lone)]}.get(where, [("a", "b")])
    side = {"attr": {"topics": {lone: 1.0}}, "categorical": {"venue": {lone: 1.0}}}
    g = GraphObject(id="g", edges=edges, side=side.get(where, {}))
    with pytest.raises(ValueError, match="not encodable as UTF-8"):
        preprocess(g, schema)


@pytest.mark.parametrize(
    "mass", ["2", True, np.bool_(True), b"2", None], ids=["str", "bool", "np_bool", "bytes", "none"]
)
def test_preprocess_rejects_a_mass_that_is_not_a_number(mass):
    schema = _schema(SideType("topics"))
    with pytest.raises(ValueError, match="must be a number"):
        preprocess(GraphObject(id="g", side={"topics": {"x": mass}}), schema)
    if mass is not None:  # a None edge frequency means 1
        with pytest.raises(ValueError, match="must be a number"):
            preprocess(GraphObject(id="g", edges=[("a", "b", mass)]), schema)


def test_preprocess_takes_numpy_numbers():
    schema = _schema(SideType("topics"))
    g = GraphObject(
        id="g",
        edges=[("a", "b", np.float32(2.0)), ("b", "c", np.int64(3))],
        side={"topics": {"x": np.float64(1.5)}},
    )
    out = preprocess(g, schema)
    assert out.edges == [("a", "b", 2.0), ("b", "c", 3.0)]
    assert all(type(f) is float for *_, f in out.edges)
    assert out.side == {"topics": {"x": 1.5}}


def test_canonicalize_drops_zero_attributes():
    schema = _schema(SideType("topics"))
    g = GraphObject(id="g", side={"topics": {"a": 0.0, "b": 2.0}})
    out = preprocess(g, schema)
    assert out.side == {"topics": {"b": 2.0}}


def test_expand_categorical_binarizes_present_values():
    schema = _schema(SideType("venue", "categorical"), SideType("topics"))
    g = GraphObject(
        id="g",
        side={"venue": {"kdd": 3.0, "www": 0.0}, "topics": {"x": 2.0}},
    )
    out = preprocess(g, schema)
    assert out.side["venue"] == {"venue=kdd": 1.0}
    assert out.side["topics"] == {"x": 2.0}


def test_preprocess_full_pipeline():
    schema = _schema(SideType("venue", "categorical"))
    g = GraphObject(
        id="g",
        edges=[("n2", "n1")],
        side={"venue": {"kdd": 1.0}},
    )
    out = preprocess(g, schema)
    assert out.edges == [("n1", "n2", 1.0)]
    assert out.side == {"venue": {"venue=kdd": 1.0}}


def test_graph_views_shape_and_order():
    schema = _schema(SideType("topics"), SideType("tags"))
    g = preprocess(
        GraphObject(
            id="g",
            edges=[("a", "b", 2.0)],
            side={"tags": {"t": 1.0}, "topics": {"x": 3.0}},
        ),
        schema,
    )
    view = graph_views(g, schema)
    assert view.d == 2
    # schema order, not dict order
    assert view.keys == (b"a\x1fb", b"x", b"t")
    keys, values = component(view, 1)
    assert keys == (b"x",)
    assert values.tolist() == [3.0]
    assert view.bounds == (0, 1, 2, 3)
    assert view.sq_sum.tolist() == [4.0, 9.0, 1.0]
    config = SketchConfig(rows=3, cols=16, seed=5)
    buckets = view.buckets(config)
    assert np.array_equal(buckets, config.buckets(view.keys))
    assert view.buckets(config) is buckets  # hashed on the first read only


def test_graph_view_rejects_bounds_that_miss_the_keys():
    """No view is built from parts, so none has bounds that miss its keys:
    ``graph_views`` alone builds a view, and the class takes no arguments."""
    keys = (b"a", b"b")
    for values, bounds in (([1.0, 2.0], (0, 1, 2)), ([1.0], (0, 2)), ([1.0, 2.0], (1, 2))):
        with pytest.raises(TypeError):
            GraphView(keys, values, bounds)
    with pytest.raises(TypeError):
        GraphView()


def test_graph_views_empty_components():
    schema = _schema(SideType("topics"))
    view = graph_views(preprocess(GraphObject(id="g"), schema), schema)
    assert [len(component(view, c)[0]) for c in range(2)] == [0, 0]
    assert view.sq_sum.tolist() == [0.0, 0.0]
    assert view.buckets(SketchConfig(rows=3)).shape == (3, 0)


@st.composite
def _flat_views(draw):
    """Values (any float64, NaN, -0.0 and subnormals included) cut into
    1..5 components, some of them empty, the empty view among them."""
    values = draw(st.lists(st.floats(width=64), max_size=12))
    cuts = draw(st.lists(st.integers(0, len(values)), max_size=4))
    return values, [0, *sorted(cuts), len(values)]


def _assert_same_view(view: GraphView, want: dict) -> None:
    """Equal keys and bounds, and every array of equal dtype, shape and bytes."""
    assert type(view.keys) is type(want["keys"]) and view.keys == want["keys"]
    assert type(view.bounds) is tuple and view.bounds == want["bounds"]
    for name in ("values", "sq_sum"):
        got, ref = getattr(view, name), want[name]
        assert (got.dtype, got.shape) == (ref.dtype, ref.shape), name
        assert got.tobytes() == ref.tobytes(), name


@given(_flat_views())
@example(([], [0, 0]))
@example(([], [0, 0, 0, 0]))
@example(([-0.0, 2.0], [0, 0, 2, 2]))
def test_view_arrays_are_bitwise_the_reference_construction(flat):
    """Any float64 masses, NaN and -0.0 among them, cut into components."""
    values, bounds = flat
    ids = [f"k{i}" for i in range(len(values))]
    keys = tuple((k + "\x1f" * (i < bounds[1])).encode() for i, k in enumerate(ids))
    with np.errstate(over="ignore", invalid="ignore"):  # huge or non-finite squares
        want = reference.view_fields(keys, values, bounds)
        _assert_same_view(reference.cut_view(ids, values, bounds), want)


VIEW_SCHEMA = _schema(SideType("topics"), SideType("venue", "categorical"), SideType("tags"))
# Labels a view must carry byte for byte: multi-byte UTF-8, characters
# below the separator (which sort before it), and plain ASCII.
_VIEW_LABELS = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x1f"), min_size=1,
            max_size=5),
    st.sampled_from(["a", "b", "a\x05", "\x01", "é", "日本", "🙂", "a b"]),
)
_VIEW_MASSES = st.one_of(
    st.floats(0.0, 1e100), st.integers(0, 2**64), st.sampled_from([0.0, 5e-324, 1.0, 2.0])
)


@st.composite
def _canonical_graphs(draw):
    """A preprocessed graph: edges to merge and drop, and side entries of
    some of the schema's types (maps or shorthands, any may end up empty),
    drawn in an order other than the schema's."""
    labels = _VIEW_LABELS
    edges = draw(st.lists(st.tuples(labels, labels, _VIEW_MASSES), max_size=12))
    names = draw(st.permutations([t.name for t in VIEW_SCHEMA.side_types]))
    side = {}
    for name in names[: draw(st.integers(0, len(names)))]:
        if draw(st.booleans()):
            side[name] = draw(st.dictionaries(labels, _VIEW_MASSES, max_size=6))
        else:
            side[name] = draw(st.lists(labels, max_size=4))
    return preprocess(GraphObject(id="g", edges=edges, side=side), VIEW_SCHEMA)


@given(_canonical_graphs())
@example(preprocess(GraphObject(id="g"), VIEW_SCHEMA))
def test_graph_views_is_the_python_walk(g):
    """The compiled ``graph_views`` against the Python walk it replaced:
    keys, bounds, and each array's dtype, shape and bytes."""
    _assert_same_view(graph_views(g, VIEW_SCHEMA), reference.graph_view(g, VIEW_SCHEMA))


# What a graph that was not preprocessed may hold: masses of any sign, NaN
# and ints, and side maps of None; a faulty one also ids that are no str or
# not UTF-8, masses that are no numbers, edges of two items, shorthands
_RAW_MASSES = st.one_of(st.floats(width=64), st.integers(-(2**70), 2**70), st.just(-0.0))
_BAD_LABELS = st.one_of(_VIEW_LABELS, st.sampled_from(["", "x\ud800"]), st.integers(0, 3))
_BAD_MASSES = st.one_of(_RAW_MASSES, st.sampled_from([None, "2"]))


@st.composite
def _raw_graphs(draw):
    """A graph as ``Engine.process`` may be handed it: edges unsorted and
    repeated, side entries of some schema types and of an undeclared one,
    in any order; every other graph may hold faults."""
    faulty = draw(st.booleans())
    labels, masses = (_BAD_LABELS, _BAD_MASSES) if faulty else (_VIEW_LABELS, _RAW_MASSES)
    entries = st.one_of(st.dictionaries(labels, masses, max_size=6), st.none())
    edge = st.tuples(labels, labels, masses)
    if faulty:
        edge = st.one_of(edge, st.lists(labels, min_size=3, max_size=3), st.tuples(labels, labels))
        entries = st.one_of(entries, st.lists(_VIEW_LABELS), _VIEW_LABELS)
    edges = draw(st.lists(edge, max_size=10))
    edges += draw(st.lists(st.sampled_from(edges), max_size=3)) if edges else []
    names = draw(st.permutations([*VIEW_SCHEMA._names, "undeclared"]))
    side = {name: draw(entries) for name in names[: draw(st.integers(0, 4))]}
    return GraphObject(id="g", edges=edges, side=side)


@given(_raw_graphs())
@example(GraphObject("g", [("b", "a", 2), ("a", "b", 1.5), ("b", "a", 2)], {"topics": None}))
@example(GraphObject("g", [("a", "b", -1.0)], {"tags": {"x": float("nan")}}))
@example(GraphObject("g", [("a", 3, 1.0)], {"topics": {3: 1.0}}))
def test_graph_views_of_a_raw_graph_raises_or_is_the_python_walk(g):
    """``graph_views`` on a graph that was not preprocessed raises
    TypeError or ValueError and leaves the graph as it was, or gives the
    Python walk's view."""
    held = repr(g)
    with np.errstate(over="ignore", invalid="ignore"):  # huge or non-finite squares
        try:
            view = graph_views(g, VIEW_SCHEMA)
        except (TypeError, ValueError):
            view = None
        else:
            _assert_same_view(view, reference.graph_view(g, VIEW_SCHEMA))
    assert repr(g) == held


def test_canonicalize_is_idempotent():
    rng = random.Random(3)
    schema = _schema(SideType("topics"))
    for trial in range(25):
        edges = [
            (f"n{rng.randrange(6)}", f"n{rng.randrange(6)}", float(rng.randrange(3)))
            for _ in range(rng.randrange(8))
        ]
        attrs = {f"a{rng.randrange(5)}": float(rng.randrange(3)) for _ in range(4)}
        g = GraphObject(id=f"g{trial}", edges=edges, side={"topics": attrs})
        once = preprocess(g, schema)
        twice = preprocess(once, schema)
        assert once.edges == twice.edges
        assert once.side == twice.side


def test_view_sq_sum_matches_values():
    rng = random.Random(11)
    schema = _schema(SideType("topics"))
    for trial in range(20):
        attrs = {
            f"a{i}": float(rng.randrange(1, 7))
            for i in range(rng.randrange(1, 10))
        }
        g = preprocess(GraphObject(id="g", side={"topics": attrs}), schema)
        view = graph_views(g, schema)
        _, values = component(view, 1)
        assert view.sq_sum[1] == float(values @ values)
        assert np.all(view.values > 0)
