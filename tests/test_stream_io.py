"""Newline-delimited JSON stream reader/writer."""

import json

import pytest

from sketchclust import (
    GraphObject,
    SideType,
    StreamFormatError,
    StreamSchema,
    iter_stream,
    read_header,
    write_stream,
)


def _schema() -> StreamSchema:
    return StreamSchema(side_types=(SideType("topics"), SideType("tags")))


def _graphs() -> list[GraphObject]:
    return [
        GraphObject(
            id="g0",
            ts=0,
            edges=[("a", "b", 2.0), ("b", "c", 1.0)],
            side={"topics": {"x": 1.0, "y": 2.5}},
            label="k0",
        ),
        GraphObject(id="g1", ts=5, edges=[], side={}, label=None),
    ]


def test_round_trip(tmp_path):
    path = str(tmp_path / "s.ndjson")
    count = write_stream(path, _schema(), _graphs())
    assert count == 2
    schema, graphs = read_header(path), list(iter_stream(path))
    assert schema == _schema()
    assert [g.id for g in graphs] == ["g0", "g1"]
    assert graphs[0].edges == [("a", "b", 2.0), ("b", "c", 1.0)]
    assert graphs[0].side == {"topics": {"x": 1.0, "y": 2.5}}
    assert graphs[0].label == "k0"
    assert graphs[1].ts == 5


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
    path = str(tmp_path / "s.ndjson")
    header = {"schema": _schema().to_dict(), "stream_version": 1}
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        fh.write(
            json.dumps(
                {"id": "g", "side": {"topics": ["x", "x", "y"], "tags": "solo"}}
            )
            + "\n"
        )
    graphs = list(iter_stream(path))
    assert graphs[0].side == {"topics": {"x": 2.0, "y": 1.0}, "tags": {"solo": 1.0}}


def test_missing_ts_defaults_to_ordinal(tmp_path):
    path = str(tmp_path / "s.ndjson")
    header = {"schema": _schema().to_dict(), "stream_version": 1}
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        fh.write(json.dumps({"id": "g0"}) + "\n")
        fh.write(json.dumps({"id": "g1"}) + "\n")
    graphs = list(iter_stream(path))
    assert [g.ts for g in graphs] == [0, 1]


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


def test_strict_mode_reports_line_numbers(tmp_path):
    path = str(tmp_path / "s.ndjson")
    with open(path, "w") as fh:
        fh.write(json.dumps({"schema": _schema().to_dict()}) + "\n")
        fh.write("not json\n")
    with pytest.raises(StreamFormatError) as exc_info:
        list(iter_stream(path))
    assert exc_info.value.line_no == 2
    assert "line 2" in str(exc_info.value)


def test_lenient_mode_skips_and_reports(tmp_path):
    path = str(tmp_path / "s.ndjson")
    with open(path, "w") as fh:
        fh.write(json.dumps({"schema": _schema().to_dict()}) + "\n")
        fh.write(json.dumps({"id": "g0"}) + "\n")
        fh.write("garbage\n")
        fh.write(json.dumps({"id": "", "edges": []}) + "\n")
        fh.write(json.dumps({"id": "g1"}) + "\n")
    seen: list[int] = []
    graphs = list(iter_stream(path, strict=False, on_error=lambda n, m: seen.append(n)))
    assert [g.id for g in graphs] == ["g0", "g1"]
    assert seen == [3, 4]


def test_record_validation_errors(tmp_path):
    cases = [
        {"id": "g", "ts": -1},
        {"id": "g", "edges": [["a"]]},
        {"id": "g", "edges": [["a", "b", "fast"]]},
        {"id": "g", "side": {"topics": {"x": True}}},
        {"id": "g", "side": 3},
        {"id": "g", "label": 7},
        "not an object",
    ]
    for bad in cases:
        path = str(tmp_path / "s.ndjson")
        with open(path, "w") as fh:
            fh.write(json.dumps({"schema": _schema().to_dict()}) + "\n")
            fh.write(json.dumps(bad) + "\n")
        with pytest.raises(StreamFormatError):
            list(iter_stream(path))


def test_blank_lines_are_ignored(tmp_path):
    path = str(tmp_path / "s.ndjson")
    with open(path, "w") as fh:
        fh.write(json.dumps({"schema": _schema().to_dict()}) + "\n\n")
        fh.write(json.dumps({"id": "g0"}) + "\n\n")
    graphs = list(iter_stream(path))
    assert len(graphs) == 1
