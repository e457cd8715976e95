import json
import random
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from reference import view_arrays
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
    keys, values = view.component(1)
    assert keys == (b"x",)
    assert values.tolist() == [3.0]
    assert view.comp.tolist() == [0, 1, 2]
    assert view.sq_sum.tolist() == [4.0, 9.0, 1.0]
    assert view.block.tolist() == [[2.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 1.0]]
    assert view.buckets is None
    config = SketchConfig(rows=3, cols=16, seed=5)
    hashed = graph_views(g, schema, config)
    assert np.array_equal(hashed.buckets, config.buckets(view.keys))


def test_graph_view_rejects_bounds_that_miss_the_keys():
    keys = (b"a", b"b")
    assert GraphView(keys, [1.0, 2.0], (0, 1, 2)).comp.tolist() == [0, 1]
    for values, bounds in (([1.0], (0, 2)), ([1.0, 2.0], (0, 1)), ([1.0, 2.0], (1, 2)), ([], (0,))):
        with pytest.raises(ValueError, match="bounds"):
            GraphView(keys, values, bounds)


def test_graph_views_empty_components():
    schema = _schema(SideType("topics"))
    view = graph_views(preprocess(GraphObject(id="g"), schema), schema, SketchConfig(rows=3))
    assert [len(view.component(c)[0]) for c in range(2)] == [0, 0]
    assert view.sq_sum.tolist() == [0.0, 0.0]
    assert view.block.shape == (0, 2)
    assert view.buckets.shape == (3, 0)


@st.composite
def _flat_views(draw):
    """Values (any float64, NaN, -0.0 and subnormals included) cut into
    1..5 components, some of them empty, the empty view among them."""
    values = draw(st.lists(st.floats(width=64), max_size=12))
    cuts = draw(st.lists(st.integers(0, len(values)), max_size=4))
    return values, [0, *sorted(cuts), len(values)]


@given(_flat_views())
@example(([], [0, 0]))
@example(([], [0, 0, 0, 0]))
@example(([-0.0, 2.0], [0, 0, 2, 2]))
def test_view_arrays_are_bitwise_the_reference_construction(flat):
    values, bounds = flat
    with np.errstate(over="ignore", invalid="ignore"):  # huge or non-finite squares
        view = GraphView(tuple(b"k%d" % i for i in range(len(values))), values, bounds)
        reference = view_arrays(values, bounds)
    for name, want in zip(("comp", "sq_sum", "block"), reference):
        got = getattr(view, name)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name


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
        _, values = view.component(1)
        assert view.sq_sum[1] == float(values @ values)
        assert np.all(view.values > 0)
        assert np.array_equal(view.block.sum(1), view.values)
