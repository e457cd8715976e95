"""Newline-delimited JSON stream reader/writer."""

import json
from dataclasses import asdict

import pytest

from sketchclust import (
    GraphObject,
    SideType,
    StreamFormatError,
    StreamSchema,
    iter_stream,
    preprocess,
    read_header,
    write_stream,
)


def _schema() -> StreamSchema:
    return StreamSchema(side_types=(SideType("topics"), SideType("tags")))


def _graphs() -> list[GraphObject]:
    return [
        GraphObject(
            id="g0",
            edges=[("a", "b", 2.0), ("b", "c", 1.0)],
            side={"topics": {"x": 1.0, "y": 2.5}},
            label="k0",
        ),
        GraphObject(id="g1", edges=[], side={}, label=None),
    ]


def test_round_trip(tmp_path):
    path = str(tmp_path / "s.ndjson")
    count = write_stream(path, _schema(), _graphs())
    assert count == 2
    schema, graphs = read_header(path), list(iter_stream(path))
    assert schema == _schema()
    # the reader yields edges as decoded JSON arrays: compare canonical forms
    assert graphs[0].edges == [["a", "b", 2], ["b", "c"]]
    assert [preprocess(g, schema) for g in graphs] == [preprocess(g, schema) for g in _graphs()]


def test_write_stream_writes_no_timestamp(tmp_path):
    path = str(tmp_path / "s.ndjson")
    write_stream(path, _schema(), _graphs())
    records = [json.loads(line) for line in open(path).readlines()[1:]]
    assert [sorted(r) for r in records] == [["edges", "id", "label", "side"], ["edges", "id"]]


@pytest.mark.parametrize(
    "extra", [{"ts": 5}, {"ts": -1}, {"ts": 1.5}, {"ts": "3"}, {"ts": True}, {"foo": [1]}], ids=repr
)
def test_a_key_the_format_does_not_define_is_ignored(tmp_path, extra):
    """Streams written before records lost their timestamp still read, and
    cluster, as they did; so does a record with any other unknown key."""
    record = {"id": "g0", "edges": [["a", "b", 2]], "side": {"topics": ["x"]}, "label": "k0"}
    (plain,) = iter_stream(_one_record_stream(tmp_path, record))
    (g,) = iter_stream(_one_record_stream(tmp_path, {**record, **extra}))
    assert g == plain


def test_write_is_byte_stable(tmp_path):
    p1, p2 = str(tmp_path / "a.ndjson"), str(tmp_path / "b.ndjson")
    write_stream(p1, _schema(), _graphs())
    write_stream(p2, _schema(), _graphs())
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_unit_frequencies_are_omitted(tmp_path):
    path = str(tmp_path / "s.ndjson")
    write_stream(path, _schema(), [GraphObject(id="g", edges=[("a", "b", 1.0)])])
    record = json.loads(open(path).readlines()[1])
    assert record["edges"] == [["a", "b"]]


def test_integral_masses_written_as_ints(tmp_path):
    path = str(tmp_path / "s.ndjson")
    write_stream(
        path,
        _schema(),
        [GraphObject(id="g", edges=[("a", "b", 2.0)], side={"tags": {"t": 3.0}})],
    )
    line = open(path).readlines()[1]
    assert '"freq": 2.0' not in line
    assert json.loads(line)["edges"] == [["a", "b", 2]]
    assert json.loads(line)["side"]["tags"]["t"] == 3


def test_side_shorthand_forms(tmp_path):
    """The reader passes a side entry's list or string form on as decoded;
    ``preprocess`` reads it as a map, each listed id counted."""
    schema = StreamSchema(side_types=(SideType("topics"), SideType("tags", "categorical")))
    cases = [
        ({"topics": ["x", "x", "y"]}, {"topics": {"x": 2.0, "y": 1.0}}),
        ({"topics": "solo"}, {"topics": {"solo": 1.0}}),
        ({"tags": ["x", "x"]}, {"tags": {"tags=x": 1.0}}),
    ]
    for side, canonical in cases:
        path = str(tmp_path / "s.ndjson")
        with open(path, "w") as fh:
            fh.write(json.dumps({"schema": asdict(schema)}) + "\n")
            fh.write(json.dumps({"id": "g", "side": side}) + "\n")
        (g,) = iter_stream(path)
        assert g.side == side
        assert preprocess(g, schema).side == canonical


def test_header_required(tmp_path):
    path = str(tmp_path / "s.ndjson")
    with open(path, "w") as fh:
        fh.write(json.dumps({"id": "g"}) + "\n")
    with pytest.raises(StreamFormatError):
        read_header(path)
    path2 = str(tmp_path / "empty.ndjson")
    open(path2, "w").close()
    with pytest.raises(StreamFormatError):
        list(iter_stream(path2))


@pytest.mark.parametrize(
    "schema",
    [{"directd": True}, {"side_types": [{"name": "topics", "knd": "binary"}]}],
    ids=["top_level", "side_type"],
)
def test_unknown_schema_key_is_a_format_error(tmp_path, schema):
    # a misspelled key would otherwise load as its default
    path = str(tmp_path / "s.ndjson")
    with open(path, "w") as fh:
        fh.write(json.dumps({"schema": schema, "stream_version": 1}) + "\n")
    with pytest.raises(StreamFormatError, match="unknown .*keys") as exc_info:
        read_header(path)
    assert exc_info.value.line_no == 1


@pytest.mark.parametrize("version", [2, 0, True, 1.0, "1", None])
def test_a_stream_version_other_than_1_is_a_format_error(tmp_path, version):
    path = str(tmp_path / "s.ndjson")
    with open(path, "w") as fh:
        fh.write(json.dumps({"schema": {}, "stream_version": version}) + "\n")
        fh.write(json.dumps({"id": "g0"}) + "\n")
    with pytest.raises(StreamFormatError, match="unsupported stream_version") as exc_info:
        read_header(path)
    assert exc_info.value.line_no == 1
    with pytest.raises(StreamFormatError, match="unsupported stream_version"):
        list(iter_stream(path))


def test_strict_mode_reports_line_numbers(tmp_path):
    path = str(tmp_path / "s.ndjson")
    with open(path, "w") as fh:
        fh.write(json.dumps({"schema": asdict(_schema())}) + "\n")
        fh.write("not json\n")
    with pytest.raises(StreamFormatError) as exc_info:
        list(iter_stream(path))
    assert exc_info.value.line_no == 2
    assert "line 2" in str(exc_info.value)


def test_lenient_mode_skips_and_reports(tmp_path):
    path = str(tmp_path / "s.ndjson")
    with open(path, "w") as fh:
        fh.write(json.dumps({"schema": asdict(_schema())}) + "\n")
        fh.write(json.dumps({"id": "g0"}) + "\n")
        fh.write("garbage\n")
        fh.write(json.dumps({"id": "", "edges": []}) + "\n")
        fh.write(json.dumps({"id": "g1"}) + "\n")
    seen: list[int] = []
    graphs = list(iter_stream(path, on_error=lambda n, m: seen.append(n)))
    assert [g.id for g in graphs] == ["g0", "g1"]
    assert seen == [3, 4]


def _one_record_stream(tmp_path, record) -> str:
    path = str(tmp_path / "s.ndjson")
    with open(path, "w") as fh:
        fh.write(json.dumps({"schema": asdict(_schema())}) + "\n")
        fh.write(json.dumps(record) + "\n")
    return path


def test_record_validation_errors(tmp_path):
    """A record the reader cannot decode, or whose id or label ``eval``
    could not read, is a format error on its line."""
    cases = [
        {"id": "g", "label": 7},
        {"id": "", "edges": []},
        {"id": 5},
        "not an object",
    ]
    for bad in cases:
        with pytest.raises(StreamFormatError) as exc_info:
            list(iter_stream(_one_record_stream(tmp_path, bad)))
        assert exc_info.value.line_no == 2


def test_a_bad_value_passes_the_reader_and_fails_preprocess(tmp_path):
    """Edges, side entries and masses pass the reader as decoded;
    ``preprocess`` rejects their faults."""
    cases = [
        {"id": "g", "side": 3},
        {"id": "g", "side": {"topics": ["x", None]}},
        {"id": "g", "side": {"topics": [False]}},
        {"id": "g", "side": {"topics": [3]}},
        {"id": "g", "side": {"topics": 2}},
        {"id": "g", "edges": [["a"]]},
        {"id": "g", "edges": "ab"},
        {"id": "g", "edges": [["a", "b", "fast"]]},
        {"id": "g", "side": {"topics": {"x": True}}},
        {"id": "g", "edges": [[None, "b"]]},
        {"id": "g", "edges": [["a", True]]},
        {"id": "g", "edges": [[5, "b", 1]]},
    ]
    for bad in cases:
        (g,) = iter_stream(_one_record_stream(tmp_path, bad))
        with pytest.raises(ValueError):
            preprocess(g, _schema())


def test_blank_lines_are_ignored(tmp_path):
    path = str(tmp_path / "s.ndjson")
    with open(path, "w") as fh:
        fh.write(json.dumps({"schema": asdict(_schema())}) + "\n\n")
        fh.write(json.dumps({"id": "g0"}) + "\n\n")
    graphs = list(iter_stream(path))
    assert len(graphs) == 1
