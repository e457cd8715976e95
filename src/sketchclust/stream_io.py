"""Newline-delimited JSON stream files.

Line 1 is a header object declaring the schema; every following nonempty
line is one graph record:

    {"schema": {"directed": false, "side_types": [{"name": "keywords",
        "kind": "numeric"}]}, "stream_version": 1}
    {"id": "g0", "ts": 0, "edges": [["a", "b", 2], ["b", "c"]],
        "side": {"keywords": {"db": 3}}, "label": "k1"}

Edge frequency defaults to 1 when omitted. For convenience a side entry may
be a mapping, a list of identifiers (occurrences are counted) or a single
identifier string. Parse failures carry 1-based line numbers; in lenient
mode bad records are skipped and reported through a callback instead of
aborting the run.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable, Iterator

from .model import GraphObject, StreamSchema

STREAM_VERSION = 1

ErrorHook = Callable[[int, str], None]


class StreamFormatError(Exception):
    """Malformed stream file; ``line_no`` is 1-based when known."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


def _normalize_side(raw: object, line_no: int) -> dict[str, dict[str, float]]:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise StreamFormatError("side must be an object keyed by type name", line_no)
    side: dict[str, dict[str, float]] = {}
    for name, entry in raw.items():
        if isinstance(entry, dict):
            attrs = {}
            for attr_id, value in entry.items():
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise StreamFormatError(
                        f"attribute {attr_id!r} of {name!r} must be numeric", line_no
                    )
                attrs[str(attr_id)] = float(value)
        elif isinstance(entry, list):
            attrs = {}
            for item in entry:
                item = str(item)
                attrs[item] = attrs.get(item, 0.0) + 1.0
        elif isinstance(entry, str):
            attrs = {entry: 1.0}
        else:
            raise StreamFormatError(
                f"side entry {name!r} must be an object, list or string", line_no
            )
        side[str(name)] = attrs
    return side


def _parse_record(obj: object, line_no: int, default_ts: int) -> GraphObject:
    if not isinstance(obj, dict):
        raise StreamFormatError("record must be a JSON object", line_no)
    graph_id = obj.get("id")
    if not isinstance(graph_id, str) or not graph_id:
        raise StreamFormatError("record needs a nonempty string id", line_no)
    ts = obj.get("ts", default_ts)
    if not isinstance(ts, int) or isinstance(ts, bool) or ts < 0:
        raise StreamFormatError("ts must be a nonnegative integer", line_no)

    raw_edges = obj.get("edges", [])
    if not isinstance(raw_edges, list):
        raise StreamFormatError("edges must be a list", line_no)
    edges: list[tuple] = []
    for e in raw_edges:
        if not isinstance(e, list) or len(e) not in (2, 3):
            raise StreamFormatError(
                "each edge must be [src, dst] or [src, dst, freq]", line_no
            )
        src, dst = str(e[0]), str(e[1])
        if len(e) == 3:
            if not isinstance(e[2], (int, float)) or isinstance(e[2], bool):
                raise StreamFormatError("edge frequency must be numeric", line_no)
            edges.append((src, dst, float(e[2])))
        else:
            edges.append((src, dst, 1.0))

    label = obj.get("label")
    if label is not None and not isinstance(label, str):
        raise StreamFormatError("label must be a string when present", line_no)

    return GraphObject(
        id=graph_id,
        ts=ts,
        edges=edges,
        side=_normalize_side(obj.get("side"), line_no),
        label=label,
    )


def read_header(path: str) -> StreamSchema:
    """Parse just the schema header of a stream file."""
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            return _parse_header(line, line_no)
    raise StreamFormatError("empty stream file: missing schema header")


def _parse_header(line: str, line_no: int) -> StreamSchema:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise StreamFormatError(f"invalid JSON in header: {exc.msg}", line_no)
    if not isinstance(obj, dict) or "schema" not in obj:
        raise StreamFormatError("first line must be a schema header", line_no)
    try:
        return StreamSchema.from_dict(obj["schema"])
    except ValueError as exc:
        raise StreamFormatError(str(exc), line_no)


def iter_stream(
    path: str, strict: bool = True, on_error: ErrorHook | None = None
) -> Iterator[GraphObject]:
    """Yield raw (unpreprocessed) graph records.

    The schema header is validated but not yielded; use ``read_header`` for
    it. In lenient mode malformed records are skipped after invoking
    ``on_error(line_no, message)``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header_seen = False
        record_ordinal = 0
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            if not header_seen:
                _parse_header(line, line_no)
                header_seen = True
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                err = StreamFormatError(f"invalid JSON: {exc.msg}", line_no)
                if strict:
                    raise err
                if on_error:
                    on_error(line_no, str(err))
                continue
            try:
                g = _parse_record(obj, line_no, default_ts=record_ordinal)
            except StreamFormatError as err:
                if strict:
                    raise
                if on_error:
                    on_error(line_no, str(err))
                continue
            record_ordinal += 1
            yield g
        if not header_seen:
            raise StreamFormatError("empty stream file: missing schema header")


def _json_number(value: float) -> int | float:
    return int(value) if float(value).is_integer() else float(value)


def _record_dict(g: GraphObject) -> dict:
    rec: dict = {"id": g.id, "ts": g.ts}
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
        header = {"schema": schema.to_dict(), "stream_version": STREAM_VERSION}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for g in graphs:
            fh.write(json.dumps(_record_dict(g), sort_keys=True) + "\n")
            count += 1
    return count
