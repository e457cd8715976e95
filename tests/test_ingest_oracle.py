"""``preprocess`` and the ingest pipeline against their verbatim
predecessors in ``reference``, which checked each label and mass on its own.

Records mix valid values with injected faults. ``preprocess`` must give the
same canonical graph (compared by ``repr``, so ``2`` and ``2.0`` or ``-0.0``
and ``0.0`` differ) or raise ``ValueError`` where the oracle does, with the
same message whenever the record holds one fault; with several it may
report another. The pipeline, ``_parse_record`` then ``preprocess``, must
accept and reject the lines the old one (which type-checked edges, masses
and ``ts`` in the reader too) does, and give each fault the old reader
still owns its old message, but for two carve-outs: a null edge frequency
now reads as 1, and the reader ignores ``ts``, so a line whose only fault
is its ``ts`` is now accepted.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import parse_record, preprocess_record
from sketchclust import GraphObject, SideType, StreamSchema, preprocess
from sketchclust.model import _SQUARES_SAFE
from sketchclust.stream_io import StreamFormatError, _parse_record

SCHEMAS = [
    StreamSchema(side_types=(SideType("topics"), SideType("tags", "categorical")), directed=d)
    for d in (False, True)
]

# Labels the checks accept: characters below the separator, DEL, non-ASCII.
GOOD_LABELS = ["a", "b", "ab", "a\x05", "\x01", "\x7f", "é", "日本", "b a", "c0n12"]
BAD_LABELS = ["", "a\x1fb", "\x1f", "x\ud800", 5, None, b"a", 1.5, ("a",)]
# Masses the checks accept, the fast paths' bounds among them.
GOOD_MASSES = [
    1, 2, 3, 0, 0.0, -0.0, 1.0, 2.5, 1e-300, 5e-324, 2**53 + 1, 2**479,
    _SQUARES_SAFE, 2**480, float(2**480), 1e150, np.float64(2.5), np.int64(3),
    np.float32(1.5), np.int8(2), np.float64(-0.0),
]
BAD_MASSES = [
    True, False, "1", "x", [1], math.nan, math.inf, -math.inf, -1, -1.0, -5e-324,
    2**1024, -(2**1024), 1e300, np.float64(math.nan), np.float64(-2.0), np.bool_(True),
    np.float64(math.inf),
]
BAD_EDGES = [("a",), "ab", {"a": 1}, ("a", "b", 1, 2), 5, None, ()]


def _outcome(fn, *args):
    try:
        return "ok", repr(fn(*args))
    except (ValueError, StreamFormatError) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def records(draw):
    """A graph and the number of faults injected into it."""
    faults = 0

    def pick(good, bad, rate=0.08):
        nonlocal faults
        if draw(st.floats(0, 1)) < rate:
            faults += 1
            return draw(st.sampled_from(bad))
        return draw(st.sampled_from(good))

    edges = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.floats(0, 1)) < 0.04:
            faults += 1
            edges.append(draw(st.sampled_from(BAD_EDGES)))
            continue
        src, dst = pick(GOOD_LABELS, BAD_LABELS), pick(GOOD_LABELS, BAD_LABELS)
        match draw(st.integers(0, 3)):
            case 0:
                edges.append((src, dst))
            case 1:
                edges.append([src, dst, None])
            case _:
                edges.append((src, dst, pick(GOOD_MASSES, BAD_MASSES)))
    if draw(st.booleans()):
        edges += edges[: draw(st.integers(0, 3))]  # duplicates to merge
    side = {}
    for name in draw(st.lists(st.sampled_from(["topics", "tags"]), unique=True)):
        side[name] = {
            pick(GOOD_LABELS, BAD_LABELS): pick(GOOD_MASSES, BAD_MASSES)
            for _ in range(draw(st.integers(0, 5)))
        }
    if draw(st.floats(0, 1)) < 0.04:
        faults += 1
        side[draw(st.sampled_from(["venue", 3]))] = {"a": 1}
    if draw(st.floats(0, 1)) < 0.04:
        faults += 1
        side["topics"] = draw(st.sampled_from([["a"], "a", 1]))
    graph_id = pick(["g1"], ["", 7, None], 0.03)
    label = pick([None, "k1"], [3, b"k"], 0.03)
    if draw(st.floats(0, 1)) < 0.02:
        faults += 1
        edges = draw(st.sampled_from([{"a": "b"}, "ab", 5]))
    return GraphObject(id=graph_id, edges=edges, side=side, label=label), faults


@settings(max_examples=600, deadline=None)
@given(record=records(), schema=st.sampled_from(SCHEMAS))
def test_preprocess_matches_the_oracle(record, schema):
    g, faults = record
    old = _outcome(preprocess_record, g, schema)
    new = _outcome(preprocess, g, schema)
    if faults <= 1:
        assert new == old
    else:
        assert new[0] == old[0]
        if old[0] == "ok":
            assert new == old


def _json_value(draw, good, bad, rate=0.06):
    if draw(st.floats(0, 1)) < rate:
        return draw(st.sampled_from(bad))
    return draw(st.sampled_from(good))


JSON_LABELS = ["a", "b", "é", "x\ud800", "", "a\x1fb", "\x05"]
JSON_MASSES = [1, 2, 0, 2.5, -0.0, 2**1024, math.nan, math.inf, -1, 1e300]
JSON_BAD = [True, None, "2", [1], {"a": 1}]


@st.composite
def lines(draw):
    """A JSON record line, faults in the JSON types included."""
    edges = []
    for _ in range(draw(st.integers(0, 6))):
        src = _json_value(draw, JSON_LABELS, [3, None, ["a"]])
        dst = _json_value(draw, JSON_LABELS, [3, None, ["a"]])
        if draw(st.booleans()):
            edges.append([src, dst])
        else:
            edges.append([src, dst, _json_value(draw, JSON_MASSES, JSON_BAD)])
        if draw(st.floats(0, 1)) < 0.03:
            edges[-1] = draw(st.sampled_from([["a"], ["a", "b", 1, 2], "ab", {"a": "b"}, 1]))
    obj = {"id": _json_value(draw, ["g1"], ["", 5, None], 0.03), "edges": edges}
    if draw(st.floats(0, 1)) < 0.02:
        obj["edges"] = draw(st.sampled_from([{"a": "b"}, "ab", 5, None]))
    if draw(st.booleans()):
        obj["ts"] = _json_value(draw, [0, 7], [-1, True, 1.5, "3"], 0.05)
    if draw(st.booleans()):
        obj["label"] = _json_value(draw, ["k1"], [3, ["k"]], 0.05)
    if draw(st.booleans()):
        side = {}
        for name in draw(st.lists(st.sampled_from(["topics", "tags", "venue"]), unique=True)):
            match draw(st.integers(0, 9)):
                case 0:
                    side[name] = [_json_value(draw, JSON_LABELS, [3, None])
                                  for _ in range(draw(st.integers(0, 3)))]
                case 1:
                    side[name] = _json_value(draw, JSON_LABELS, [3, None, True])
                case _:
                    side[name] = {
                        attr_id: _json_value(draw, JSON_MASSES, JSON_BAD)
                        for attr_id in draw(st.lists(st.sampled_from(JSON_LABELS), max_size=4))
                    }
        obj["side"] = _json_value(draw, [side], [[side], "s", 3], 0.03)
    text = json.dumps(obj)
    return draw(st.sampled_from([text, text, text, text, text[:-1], "[1]", "null"]))


# The faults the reader still reports, by the start of their messages.
READER_FAULTS = (
    "invalid JSON", "record must be a JSON object", "record needs a nonempty string id",
    "label must be a string", "side must be an object", "list items of", "side entry",
)


def _pipeline(parse, check, line, schema):
    """The canonical graph of a line, or the reader's or the check's error."""
    try:
        g = parse(line, 4)
    except StreamFormatError as exc:
        return "reader", str(exc)
    return _outcome(check, g, schema)


def _as_the_old_reader_should_read_it(line: str) -> str:
    """``line`` with no ``ts`` and each null edge frequency written as 1."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError:
        return line
    if not isinstance(obj, dict):
        return line
    obj.pop("ts", None)
    if not isinstance(obj.get("edges"), list):
        return json.dumps(obj)
    obj["edges"] = [
        [*e[:2], 1] if isinstance(e, list) and len(e) == 3 and e[2] is None else e
        for e in obj["edges"]
    ]
    return json.dumps(obj)


@settings(max_examples=600, deadline=None)
@given(line=lines(), schema=st.sampled_from(SCHEMAS))
def test_the_pipeline_matches_the_old_one(line, schema):
    new = _pipeline(_parse_record, preprocess, line, schema)
    old_line = _as_the_old_reader_should_read_it(line)
    old = _pipeline(parse_record, preprocess_record, old_line, schema)
    assert (new[0] == "ok") == (old[0] == "ok")
    if old[0] == "ok":
        assert new == old
    old_reader = _outcome(parse_record, old_line, 4)
    if old_reader[0] == "StreamFormatError" and old_reader[1][8:].startswith(READER_FAULTS):
        assert new == ("reader", old_reader[1])
    if new[0] == "reader":
        assert new[1].startswith("line 4: ") and new[1][8:].startswith(READER_FAULTS)


def test_a_null_frequency_reads_as_1():
    """The old reader rejected a null frequency; ``preprocess`` has always
    read it as 1."""
    line = json.dumps({"id": "g", "edges": [["b", "a", None], ["a", "c", 2]]})
    with pytest.raises(StreamFormatError, match="edge frequency must be numeric"):
        parse_record(line, 4)
    unit = json.dumps({"id": "g", "edges": [["b", "a"], ["a", "c", 2]]})
    out = _pipeline(_parse_record, preprocess, line, SCHEMAS[0])
    assert out == _pipeline(parse_record, preprocess_record, unit, SCHEMAS[0])
    assert out[0] == "ok"


@pytest.mark.parametrize("ts", [-1, 1.5, "3", True], ids=repr)
def test_a_line_whose_only_fault_is_its_ts_is_now_accepted(ts):
    record = {"id": "g", "edges": [["b", "a", 2]], "side": {"topics": ["x"]}}
    line = json.dumps({**record, "ts": ts})
    with pytest.raises(StreamFormatError, match="ts must be a nonnegative integer"):
        parse_record(line, 4)
    out = _pipeline(_parse_record, preprocess, line, SCHEMAS[0])
    assert out == _pipeline(parse_record, preprocess_record, json.dumps(record), SCHEMAS[0])
    assert out[0] == "ok"


# The fast paths' bounds, each on its own: a plain int or float below
# 2**480 skips ``_check_value``; at the bound, beyond float range, a bool,
# or a numpy number, the value goes through it as before.
@pytest.mark.parametrize(
    "mass",
    [
        _SQUARES_SAFE, 2**480, 2**480 - 1, math.nextafter(_SQUARES_SAFE, 0.0), 2**1024,
        -(2**1024), True, False, -0.0, 0, np.float64(3.0), np.int64(2**62), 2**53 + 1,
    ],
    ids=repr,
)
@pytest.mark.parametrize("where", ["edge", "numeric", "categorical"])
def test_a_fast_path_boundary_matches_the_oracle(mass, where):
    g = GraphObject(id="g", edges=[("b", "a", 1.0)], side={})
    if where == "edge":
        g.edges.append(("a", "c", mass))
    else:
        g.side = {"topics" if where == "numeric" else "tags": {"x": mass, "w": 1}}
    schema = SCHEMAS[0]
    assert _outcome(preprocess, g, schema) == _outcome(preprocess_record, g, schema)


def test_an_int_mass_is_stored_as_a_float():
    g = GraphObject(id="g", edges=[("b", "a", 2), ("b", "a", 2**480)], side={"topics": {"x": 3}})
    out = preprocess(g, SCHEMAS[0])
    assert repr(out) == repr(preprocess_record(g, SCHEMAS[0]))
    assert type(out.edges[0][2]) is float and type(out.side["topics"]["x"]) is float


@pytest.mark.parametrize("label", ["", "a\x1fb", "x\ud800", 5, None])
@pytest.mark.parametrize(
    "where", ["first", "middle", "zero-mass edge", "numeric id", "last", "only"]
)
def test_a_bad_label_is_reported_as_before(label, where):
    """The joint label test hands a failing graph to ``_check_label``
    wherever the one bad label sits: first, last or alone in the joined
    text, or on a dropped zero-mass edge."""
    edges = [("a", "b", 1.0), ("c", "a", 2)]
    side = {"topics": {"t1": 1.0}, "tags": {"v": 1}}
    match where:
        case "first":
            edges.insert(0, (label, "b"))
        case "middle":
            edges.append(("b", label))
        case "zero-mass edge":
            edges.append(("b", label, 0))
        case "numeric id":
            side["topics"][label] = 2.0
        case "last":
            side["tags"] = {label: 1}
        case "only":
            edges, side = [], {"topics": {label: 1.0}}
    g = GraphObject(id="g", edges=edges, side=side)
    old = _outcome(preprocess_record, g, SCHEMAS[0])
    assert old[0] == "ValueError"
    assert _outcome(preprocess, g, SCHEMAS[0]) == old


@pytest.mark.parametrize(
    "side",
    [
        {"topics": {1: 1.0, 2: 1.0}},
        {"topics": {5: 1.0}, "tags": {"a": 1}},
        {"tags": {b"a": 1, b"b": 1}},
    ],
)
def test_two_labels_that_are_no_strings_are_reported_as_before(side):
    """A graph of exactly two labels, some not strings, which no joined
    text can stand for."""
    g = GraphObject(id="g", edges=[], side=side)
    old = _outcome(preprocess_record, g, SCHEMAS[0])
    assert old == ("ValueError", "node/attribute labels must be nonempty strings")
    assert _outcome(preprocess, g, SCHEMAS[0]) == old


def test_edges_sort_by_their_endpoint_pair_not_their_joined_key():
    """A label may hold characters below the separator, where the order of
    ``src + 0x1f + dst`` strings differs from the order of the pairs."""
    g = GraphObject(id="g", edges=[("a\x05", "b"), ("a", "z", 2)])
    out = preprocess(g, SCHEMAS[0])
    assert [e[:2] for e in out.edges] == [("a", "z"), ("a\x05", "b")]
    assert repr(out) == repr(preprocess_record(g, SCHEMAS[0]))
