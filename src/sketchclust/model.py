"""Graph objects with typed side attributes, and their canonical form.

A stream element is a small graph (edge list with nonnegative frequencies)
plus ``d`` typed attribute maps (side information). Before anything touches
statistics, a graph is preprocessed into canonical form:

1. ``aggregate_local_attrs`` folds node/edge-scoped attribute observations
   into graph-level totals by summing per (type, identifier);
2. ``expand_categorical`` rewrites each present categorical value ``v`` of
   type ``T`` into the binary identifier ``"T=v"`` with value 1;
3. ``canonicalize`` validates, normalizes direction, merges duplicate
   edges, drops zero-mass entries and sorts everything.

Canonicalization is idempotent and preserves total edge mass. Edge keys are
built as ``src + 0x1f + dst``; the separator byte is reserved, so the
encoding is injective and node labels must never contain it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

SEPARATOR = b"\x1f"
_SEPARATOR_STR = "\x1f"

KIND_NUMERIC = "numeric"
KIND_CATEGORICAL = "categorical"
KIND_BINARY = "binary"
KINDS = (KIND_NUMERIC, KIND_CATEGORICAL, KIND_BINARY)


@dataclass(frozen=True)
class SideType:
    name: str
    kind: str = KIND_NUMERIC

    def __post_init__(self) -> None:
        if not self.name or _SEPARATOR_STR in self.name:
            raise ValueError("side type name must be nonempty and separator-free")
        if self.kind not in KINDS:
            raise ValueError(f"unknown side type kind {self.kind!r}")


@dataclass(frozen=True)
class StreamSchema:
    """Declares the side types (ordered) and edge directedness of a stream."""

    side_types: tuple[SideType, ...] = ()
    directed: bool = False

    def __post_init__(self) -> None:
        names = [t.name for t in self.side_types]
        if len(set(names)) != len(names):
            raise ValueError("duplicate side type names")
        object.__setattr__(self, "side_types", tuple(self.side_types))

    @property
    def d(self) -> int:
        return len(self.side_types)

    def to_dict(self) -> dict:
        return {
            "directed": self.directed,
            "side_types": [{"name": t.name, "kind": t.kind} for t in self.side_types],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "StreamSchema":
        if not isinstance(obj, dict):
            raise ValueError("schema must be an object")
        raw_types = obj.get("side_types", [])
        if not isinstance(raw_types, list):
            raise ValueError("schema side_types must be a list")
        types = []
        for t in raw_types:
            if not isinstance(t, dict) or "name" not in t:
                raise ValueError("side type entries need a name")
            types.append(SideType(str(t["name"]), str(t.get("kind", KIND_NUMERIC))))
        return cls(side_types=tuple(types), directed=bool(obj.get("directed", False)))


@dataclass
class GraphObject:
    """One stream element. ``label`` is evaluation-only metadata; the
    clustering path never reads it."""

    id: str
    ts: int = 0
    edges: list[tuple] = field(default_factory=list)
    side: dict[str, dict[str, float]] = field(default_factory=dict)
    label: str | None = None
    # (type_name, attr_id, value) observations scoped to nodes/edges,
    # pending aggregation into `side`.
    local_attrs: list[tuple[str, str, float]] = field(default_factory=list)

    def edge_count(self) -> int:
        return len(self.edges)


def edge_key(src: str, dst: str) -> bytes:
    """Injective byte encoding of an edge endpoint pair."""
    _check_label(src)
    _check_label(dst)
    return src.encode("utf-8") + SEPARATOR + dst.encode("utf-8")


def attr_key(attr_id: str) -> bytes:
    return attr_id.encode("utf-8")


def _check_label(label: str) -> None:
    if not isinstance(label, str) or not label:
        raise ValueError("node/attribute labels must be nonempty strings")
    if _SEPARATOR_STR in label:
        raise ValueError("labels must not contain the reserved separator 0x1f")


def _check_value(value: float, what: str) -> float:
    value = float(value)
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"{what} must be finite")
    if value < 0.0:
        raise ValueError(f"{what} must be nonnegative")
    return value


def aggregate_local_attrs(g: GraphObject) -> GraphObject:
    """Sum node/edge-scoped observations into graph-level side totals."""
    if not g.local_attrs:
        return g
    side = {name: dict(attrs) for name, attrs in g.side.items()}
    for type_name, attr_id, value in g.local_attrs:
        value = _check_value(value, "local attribute value")
        bucket = side.setdefault(type_name, {})
        bucket[attr_id] = bucket.get(attr_id, 0.0) + value
    return replace(g, side=side, local_attrs=[])


def expand_categorical(g: GraphObject, schema: StreamSchema) -> GraphObject:
    """Rewrite categorical values into per-value binary identifiers.

    A present value ``v`` of categorical type ``T`` becomes the identifier
    ``"T=v"`` with value 1 inside type ``T``; zero-valued entries count as
    absent. Numeric and binary types pass through unchanged.
    """
    cat_names = {t.name for t in schema.side_types if t.kind == KIND_CATEGORICAL}
    if not cat_names or not g.side:
        return g
    side: dict[str, dict[str, float]] = {}
    for name, attrs in g.side.items():
        if name in cat_names:
            expanded = {}
            for value_id, present in attrs.items():
                _check_label(value_id)
                if _check_value(present, "categorical presence") == 0.0:
                    continue
                expanded[f"{name}={value_id}"] = 1.0
            side[name] = expanded
        else:
            side[name] = dict(attrs)
    return replace(g, side=side)


def canonicalize(g: GraphObject, schema: StreamSchema) -> GraphObject:
    """Validate and normalize a graph against a schema.

    Undirected edges are stored with sorted endpoints, duplicates are
    summed, zero-frequency edges and zero-valued attributes are dropped,
    and edges/attributes are sorted for deterministic downstream iteration.
    Raises ValueError on negative masses, malformed labels, unknown side
    types, or pending (unaggregated) local attributes.
    """
    if g.local_attrs:
        raise ValueError("aggregate local attributes before canonicalizing")
    if not isinstance(g.id, str) or not g.id:
        raise ValueError("graph id must be a nonempty string")
    ts = int(g.ts)
    if ts < 0:
        raise ValueError("timestamp must be nonnegative")

    merged: dict[tuple[str, str], float] = {}
    for edge in g.edges:
        if len(edge) == 2:
            src, dst = edge
            freq = 1.0
        elif len(edge) == 3:
            src, dst, freq = edge
            freq = 1.0 if freq is None else _check_value(freq, "edge frequency")
        else:
            raise ValueError("edges must be (src, dst) or (src, dst, freq)")
        _check_label(src)
        _check_label(dst)
        if not schema.directed and dst < src:
            src, dst = dst, src
        if freq == 0.0:
            continue
        merged[(src, dst)] = merged.get((src, dst), 0.0) + freq
    edges = [(s, t, f) for (s, t), f in sorted(merged.items())]

    known = {t.name for t in schema.side_types}
    side: dict[str, dict[str, float]] = {}
    for name, attrs in g.side.items():
        if name not in known:
            raise ValueError(f"side type {name!r} not declared in schema")
        cleaned = {}
        for attr_id in sorted(attrs):
            _check_label(attr_id)
            value = _check_value(attrs[attr_id], f"attribute {attr_id!r} value")
            if value > 0.0:
                cleaned[attr_id] = value
        if cleaned:
            side[name] = cleaned

    return GraphObject(
        id=g.id, ts=ts, edges=edges, side=side, label=g.label, local_attrs=[]
    )


def preprocess(g: GraphObject, schema: StreamSchema) -> GraphObject:
    """Full pipeline: aggregate local attrs, expand categoricals, canonicalize."""
    return canonicalize(expand_categorical(aggregate_local_attrs(g), schema), schema)


def canonical_graphs(
    graphs: Iterable[GraphObject],
    schema: StreamSchema,
    strict: bool = True,
    on_error: Callable[[str, str], None] | None = None,
) -> Iterator[GraphObject]:
    """Preprocess a stream lazily, one graph at a time.

    A graph that ``preprocess`` rejects re-raises its ``ValueError``, or with
    ``strict=False`` is skipped after reporting ``on_error(graph_id, message)``.
    """
    for g in graphs:
        try:
            canonical = preprocess(g, schema)
        except ValueError as exc:
            if strict:
                raise
            if on_error:
                on_error(g.id if isinstance(g.id, str) else "?", str(exc))
            continue
        yield canonical


def total_edge_mass(g: GraphObject) -> float:
    return sum((e[2] if len(e) == 3 and e[2] is not None else 1.0) for e in g.edges)


class ComponentView(NamedTuple):
    """Flat key/value arrays for one distance component of one graph.

    Component 0 is the edge structure; components 1..d are the schema's
    side types in order. ``sq_sum`` caches the exact sum of squared values.
    """

    keys: tuple[bytes, ...]
    values: np.ndarray
    sq_sum: float


def _view(keys: tuple[bytes, ...], values: Iterable[float]) -> ComponentView:
    arr = np.fromiter(values, dtype=np.float64, count=len(keys))
    return ComponentView(keys, arr, float(arr @ arr))


def graph_views(g: GraphObject, schema: StreamSchema) -> list[ComponentView]:
    """Per-component views of a canonicalized graph (length d+1)."""
    views = [
        _view(
            tuple(edge_key(s, t) for s, t, _ in g.edges),
            (f for _, _, f in g.edges),
        )
    ]
    for side_type in schema.side_types:
        attrs = g.side.get(side_type.name, {})
        views.append(_view(tuple(attr_key(a) for a in attrs), attrs.values()))
    return views
