"""Newline-delimited JSON stream files.

Line 1 is a header object declaring the schema; every following nonempty
line is one graph record:

    {"schema": {"directed": false, "side_types": [{"name": "keywords",
        "kind": "numeric"}]}, "stream_version": 1}
    {"id": "g0", "edges": [["a", "b", 2], ["b", "c"]],
        "side": {"keywords": {"db": 3}}, "label": "k1"}

A header's ``stream_version``, when present, must be the integer 1; one
without it reads as version 1. Node labels are strings, and edge frequency
defaults to 1 when omitted or null. A record's keys are ``id``, ``edges``,
``side`` and ``label``; the reader ignores any other key, such as the
timestamp key that streams written by earlier versions carry.
For convenience a side entry may be a mapping, a list of identifier
strings (occurrences are counted) or a single identifier string. The
reader only decodes: it checks the JSON, the ``id`` and ``label`` that
``eval`` reads, and the side shape; ``model.preprocess`` checks the rest.
Reader failures carry 1-based line numbers; given a callback, bad
records are skipped and reported through it instead of aborting the run.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Callable, Iterable, Iterator

from .model import GraphObject, StreamSchema, from_json

STREAM_VERSION = 1

ErrorHook = Callable[[int, str], None]


class StreamFormatError(Exception):
    """Malformed stream file; ``line_no`` is 1-based when known."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


def _normalize_side(raw: object, line_no: int) -> dict[str, dict]:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise StreamFormatError("side must be an object keyed by type name", line_no)
    side: dict[str, dict] = {}
    for name, entry in raw.items():  # JSON: names and ids are strings
        if isinstance(entry, str):
            entry = [entry]
        if isinstance(entry, list):  # each id counted
            attrs = {}
            for item in entry:
                if not isinstance(item, str):
                    raise StreamFormatError(
                        f"list items of {name!r} must be strings", line_no
                    )
                attrs[item] = attrs.get(item, 0.0) + 1.0
            entry = attrs
        elif not isinstance(entry, dict):
            raise StreamFormatError(
                f"side entry {name!r} must be an object, list or string", line_no
            )
        side[name] = entry  # masses as decoded: ``preprocess`` checks them
    return side


def _parse_record(line: str, line_no: int) -> GraphObject:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise StreamFormatError(f"invalid JSON: {exc.msg}", line_no) from None
    if not isinstance(obj, dict):
        raise StreamFormatError("record must be a JSON object", line_no)
    graph_id = obj.get("id")
    if not isinstance(graph_id, str) or not graph_id:
        raise StreamFormatError("record needs a nonempty string id", line_no)
    label = obj.get("label")
    if label is not None and not isinstance(label, str):
        raise StreamFormatError("label must be a string when present", line_no)
    return GraphObject(
        id=graph_id,
        edges=obj.get("edges", []),
        side=_normalize_side(obj.get("side"), line_no),
        label=label,
    )


def read_header(path: str) -> StreamSchema:
    """Parse just the schema header of a stream file."""
    with open(path, "r", encoding="utf-8") as fh:
        return _read_header(enumerate(fh, start=1))


def _read_header(lines: Iterator[tuple[int, str]]) -> StreamSchema:
    """The schema on the first nonblank of the numbered ``lines``, which
    are consumed up to it."""
    for line_no, line in lines:
        if line.strip():
            break
    else:
        raise StreamFormatError("empty stream file: missing schema header")
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise StreamFormatError(f"invalid JSON in header: {exc.msg}", line_no)
    if not isinstance(obj, dict) or "schema" not in obj:
        raise StreamFormatError("first line must be a schema header", line_no)
    # absent reads as the current version; True == 1 but is no version
    version = obj.get("stream_version", STREAM_VERSION)
    if type(version) is not int or version != STREAM_VERSION:
        raise StreamFormatError(f"unsupported stream_version {version!r}", line_no)
    try:
        return from_json(StreamSchema, obj["schema"])
    except ValueError as exc:
        raise StreamFormatError(str(exc), line_no)


def iter_stream(path: str, on_error: ErrorHook | None = None) -> Iterator[GraphObject]:
    """Yield raw graph records: edges (JSON arrays) and masses as decoded,
    for ``preprocess`` to check.

    The schema header is validated but not yielded; use ``read_header`` for
    it. A malformed record raises StreamFormatError, or, given ``on_error``,
    is skipped after reporting ``on_error(line_no, message)``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = enumerate(fh, start=1)
        _read_header(lines)
        for line_no, line in lines:
            if not line.strip():
                continue
            try:
                g = _parse_record(line, line_no)
            except StreamFormatError as err:
                if on_error is None:
                    raise
                on_error(line_no, str(err))
                continue
            yield g


def _json_number(value: float) -> int | float:
    return int(value) if float(value).is_integer() else float(value)


def _record_dict(g: GraphObject) -> dict:
    rec: dict = {"id": g.id}
    edges = []
    for e in g.edges:
        freq = e[2] if len(e) == 3 else 1.0
        if freq is None or freq == 1.0:
            edges.append([e[0], e[1]])
        else:
            edges.append([e[0], e[1], _json_number(freq)])
    rec["edges"] = edges
    if g.side:
        rec["side"] = {
            name: {a: _json_number(v) for a, v in attrs.items()}
            for name, attrs in g.side.items()
        }
    if g.label is not None:
        rec["label"] = g.label
    return rec


def write_stream(path: str, schema: StreamSchema, graphs: Iterable[GraphObject]) -> int:
    """Write a stream file; returns the record count. Output is byte-stable
    for identical inputs (sorted JSON keys)."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        header = {"schema": asdict(schema), "stream_version": STREAM_VERSION}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for g in graphs:
            fh.write(json.dumps(_record_dict(g), sort_keys=True) + "\n")
            count += 1
    return count
