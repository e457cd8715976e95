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
is its ``ts`` is now accepted. The side shorthands, and their faults, are
read by ``preprocess`` in the library and in the oracle alike.
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


# 1e300 fails as a mass only by its square, which no categorical presence takes.
BAD_PRESENCES = [m for m in BAD_MASSES if m != 1e300]


def _is_one_of(value, pool) -> bool:
    """Whether ``value`` is one of ``pool``'s own objects: good values are
    drawn from their pools, and ``nan`` equals nothing."""
    return any(value is item for item in pool)


def _good_edge(edge) -> bool:
    return (
        isinstance(edge, list)
        and all(_is_one_of(label, GOOD_LABELS) for label in edge[:2])
        and (len(edge) == 2 or edge[2] is None or _is_one_of(edge[2], GOOD_MASSES))
    )


def _good_entry(entry) -> bool:
    if isinstance(entry, dict):
        return all(
            _is_one_of(k, GOOD_LABELS) and _is_one_of(v, GOOD_MASSES) for k, v in entry.items()
        )
    if isinstance(entry, list):
        return all(_is_one_of(item, GOOD_LABELS) for item in entry)
    return _is_one_of(entry, GOOD_LABELS)


def _fault_sites(g: dict) -> list[tuple]:
    """Where one more fault can go in the record ``g``: a value still good,
    or a part (an edge, a side entry, either list or map) that holds no
    fault, so that no fault lands on or replaces another."""
    sites: list[tuple] = []
    if g["id"] == "g1":
        sites.append(("id",))
    if g["label"] in (None, "k1"):
        sites.append(("label",))
    edges, side = g["edges"], g["side"]
    if isinstance(edges, list):
        if all(map(_good_edge, edges)):
            sites.append(("edges",))
        for i, edge in enumerate(edges):
            if not isinstance(edge, list):
                continue
            if _good_edge(edge):
                sites.append(("edge", i))
            sites += [(end, i) for end in (0, 1) if _is_one_of(edge[end], GOOD_LABELS)]
            if len(edge) == 3 and _is_one_of(edge[2], GOOD_MASSES):
                sites.append((2, i))
    if isinstance(side, dict):
        if side.keys() <= {"topics", "tags"}:
            sites.append(("undeclared",))
            if all(map(_good_entry, side.values())):
                sites.append(("side",))
        for name in ("topics", "tags"):
            entry = side.get(name, {})
            if _good_entry(entry):
                sites.append(("entry", name))
            if isinstance(entry, dict):
                sites += [("id_of", name, k) for k in entry if _is_one_of(k, GOOD_LABELS)]
                sites += [("mass_of", name, k) for k, v in entry.items()
                          if _is_one_of(v, GOOD_MASSES)]
            elif isinstance(entry, list):
                sites += [("item", name, j) for j, item in enumerate(entry)
                          if _is_one_of(item, GOOD_LABELS)]
            elif _is_one_of(entry, GOOD_LABELS):
                sites.append(("one_id", name))
    return sites


def _inject(draw, g: dict, site: tuple) -> None:
    """Put one fault at ``site`` of the record ``g``."""
    match site:
        case ("id",):
            g["id"] = draw(st.sampled_from(["", 7, None]))
        case ("label",):
            g["label"] = draw(st.sampled_from([3, b"k"]))
        case ("edges",):
            g["edges"] = draw(st.sampled_from([{"a": "b"}, "ab", 5]))
        case ("edge", i):
            g["edges"][i] = draw(st.sampled_from(BAD_EDGES))
        case (0 | 1 | 2 as field, i):
            bad = BAD_MASSES if field == 2 else BAD_LABELS
            g["edges"][i][field] = draw(st.sampled_from(bad))
        case ("undeclared",):
            g["side"][draw(st.sampled_from(["venue", 3]))] = {"a": 1}
        case ("side",):
            g["side"] = draw(st.sampled_from([[1], 3, [("topics", {"x": 1.0})]]))
        case ("entry", name):
            g["side"][name] = draw(st.sampled_from([1, None, ("a",)]))
        case ("id_of", name, key):
            entry = g["side"][name]
            bad = draw(st.sampled_from([b for b in BAD_LABELS if b not in entry]))
            entry[bad] = entry.pop(key)
        case ("mass_of", name, key):
            bad = BAD_PRESENCES if name == "tags" else BAD_MASSES
            g["side"][name][key] = draw(st.sampled_from(bad))
        case ("item", name, j):
            g["side"][name][j] = draw(st.sampled_from(BAD_LABELS))
        case ("one_id", name):
            g["side"][name] = draw(st.sampled_from(BAD_LABELS))


@st.composite
def records(draw):
    """A graph and the number of faults in it. The count is drawn first,
    1 in half the records and 0, 2 or 3 in the rest; then a valid graph is
    built and each fault put at a site drawn from ``_fault_sites``, so the
    count is exact."""
    faults = 1 if draw(st.booleans()) else draw(st.sampled_from([0, 2, 3]))
    labels, masses = st.sampled_from(GOOD_LABELS), st.sampled_from(GOOD_MASSES)
    edges = []
    for _ in range(draw(st.integers(0, 8))):
        edge = [draw(labels), draw(labels)]
        match draw(st.integers(0, 3)):
            case 0:
                pass
            case 1:
                edge.append(None)
            case _:
                edge.append(draw(masses))
        edges.append(edge)
    if draw(st.booleans()):
        edges += [list(e) for e in edges[: draw(st.integers(0, 3))]]  # duplicates to merge
    side: dict = {}
    for name in draw(st.lists(st.sampled_from(["topics", "tags"]), unique=True)):
        match draw(st.sampled_from(["map", "list", "one id"])):
            case "map":
                side[name] = {draw(labels): draw(masses) for _ in range(draw(st.integers(0, 5)))}
            case "list":  # the shorthand: a list of ids, each counted
                ids = [draw(labels) for _ in range(draw(st.integers(1, 3)))]
                side[name] = ids + ids[: draw(st.integers(0, 2))]  # repeats to count
            case _:
                side[name] = draw(labels)
    g = {"id": "g1", "label": draw(st.sampled_from([None, "k1"])), "edges": edges, "side": side}
    for _ in range(faults):
        _inject(draw, g, draw(st.sampled_from(_fault_sites(g))))
    if isinstance(g["edges"], list):  # a good edge may be a list or a tuple
        g["edges"] = [tuple(e) if isinstance(e, list) and draw(st.booleans()) else e
                      for e in g["edges"]]
    return GraphObject(**g), faults


@settings(max_examples=600, deadline=None)
@given(record=records(), schema=st.sampled_from(SCHEMAS))
def test_preprocess_matches_the_oracle(record, schema):
    g, faults = record
    old = _outcome(preprocess_record, g, schema)
    new = _outcome(preprocess, g, schema)
    assert (old[0] == "ok") == (faults == 0)
    if faults <= 1:
        assert new == old
    else:
        assert new[0] == old[0]


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
    "label must be a string",
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


@pytest.mark.parametrize(
    "entry",
    [["b", "a", "b", "b"], "a", [], ["a", "a\x05", "a"], ["a", ""], ["a", 3], 2, None, ("a",)],
    ids=repr,
)
@pytest.mark.parametrize("name", ["topics", "tags", "venue"])
def test_a_side_shorthand_matches_the_oracle(name, entry):
    """A list of ids, each counted, or one id, on a numeric, a categorical
    and an undeclared type; the faults among them are reported as before."""
    g = GraphObject(id="g", edges=[("b", "a")], side={"topics": {"x": 1}, name: entry})
    for schema in SCHEMAS:
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
