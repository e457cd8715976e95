"""Graph objects with typed side attributes, and their canonical form.

A stream element is a small graph (edge list with nonnegative frequencies)
plus ``d`` typed attribute maps (side information). Before anything touches
statistics, a graph is preprocessed into canonical form in one pass:
``preprocess`` validates it, normalizes edge direction, merges duplicate
edges, rewrites each present categorical value ``v`` of type ``T`` into the
binary identifier ``"T=v"`` with value 1, drops zero-mass entries and sorts
everything.

Canonicalization preserves total edge mass. On numeric and binary types it
is idempotent; categorical values are expanded once, so it is meant for raw
graphs. Edge keys are the UTF-8 bytes of ``src + 0x1f + dst``; the
separator byte is reserved, so the encoding is injective and node labels
must never contain it. ``preprocess`` checks every label once, encodability
included, so building keys needs no second check.

``preprocess`` alone reads the shorthands and checks edges, side entries
and masses (the stream reader only decodes them), once per record. A
plain ``int`` or ``float`` mass in ``[0, 2**480)`` is taken as it is; any
other mass (numpy's numbers, bool, str, NaN, inf, a negative, an int
beyond float range) goes through ``_check_value``. An endpoint's type is
tested where the edge is read, before its endpoints are compared. A
graph's labels (edge endpoints, then each side type's ids) are tested
together: each nonempty, and their joined text ASCII with no separator
but the joins. Only a graph that fails that test has each label checked
by ``_check_label``, the one source of its messages, which also accepts
a label that is not ASCII but encodes.

``graph_views`` gives one flat ``GraphView`` per graph: every component's
keys and values in one array, with the sketch buckets of all its keys from
one hash call, so each graph is hashed once.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import types
import typing
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import Callable, Sequence

import numpy as np

from .sketch import SketchConfig

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
        # a categorical type's name is part of its keys
        _check_label(self.name)
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
        # each declared name, and whether it is categorical, for ``preprocess``
        object.__setattr__(
            self, "_categorical", {t.name: t.kind == KIND_CATEGORICAL for t in self.side_types}
        )

    @property
    def d(self) -> int:
        return len(self.side_types)


def from_json(cls, obj):
    """The dataclass ``cls`` built from a decoded JSON object.

    Each field's JSON type comes from its annotation: ``bool``, ``int``,
    ``float`` (which takes integers too), ``str``, ``T | None``,
    ``list[T]`` or ``tuple[T, ...]`` (from arrays) and nested dataclasses
    (from objects). Numbers are kept as decoded. A field left out takes its
    default; a non-object, an unknown key, a missing required field or a
    value of the wrong type raises ValueError, as does the class's own
    ``__post_init__``.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, not {obj!r}")
    decoders, required = _field_decoders(cls)
    unknown = obj.keys() - decoders.keys()
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} fields {sorted(unknown)};"
            f" known keys are {sorted(decoders)}"
        )
    missing = required - obj.keys()
    if missing:
        raise ValueError(f"{cls.__name__} needs the fields {sorted(missing)}")
    values = {}
    for name, value in obj.items():
        try:
            values[name] = decoders[name](value)
        except ValueError as exc:
            raise ValueError(f"{cls.__name__}.{name}: {exc}") from None
    return cls(**values)


@functools.cache
def _field_decoders(cls) -> tuple[dict[str, Callable], frozenset[str]]:
    """Each field's decoder, and the names of the fields without a default."""
    hints = typing.get_type_hints(cls)
    decoders = {f.name: _decoder(hints[f.name]) for f in fields(cls)}
    required = frozenset(
        f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING
    )
    return decoders, required


# The JSON type of each scalar annotation, and the exact types ``json``
# decodes it to (``bool`` is not ``int`` here).
_SCALARS = {
    bool: ("boolean", {bool}),
    int: ("integer", {int}),
    float: ("number", {int, float}),
    str: ("string", {str}),
}


def _decoder(tp) -> Callable:
    """A function from a decoded JSON value to a value of type ``tp``, or
    ValueError."""
    if is_dataclass(tp):
        return functools.partial(from_json, tp)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:
        (inner,) = [a for a in args if a is not type(None)]
        decode = _decoder(inner)
        return lambda v: None if v is None else decode(v)
    if origin in (list, tuple):
        decode = _decoder(args[0])

        def sequence(v):
            if not isinstance(v, list):
                raise ValueError(f"expected a JSON array, not {v!r}")
            return origin(map(decode, v))

        return sequence
    kind, accepted = _SCALARS[tp]

    def scalar(v):
        if type(v) not in accepted:
            raise ValueError(f"expected a JSON {kind}, not {v!r}")
        return v

    return scalar


@dataclass
class GraphObject:
    """One stream element: an id, edges, side attributes and a label. An
    edge is ``(src, dst[, freq])``, a tuple or a decoded JSON array; a side
    entry maps ids to masses, or is a list of ids (each counted) or one id.
    ``label`` is evaluation-only metadata; the clustering path never reads
    it. A graph carries no time: the engine counts arrivals itself."""

    id: str
    edges: list[Sequence] = field(default_factory=list)
    side: dict[str, dict[str, float] | list[str] | str] = field(default_factory=dict)
    label: str | None = None


def _check_label(label: str) -> str:
    if not isinstance(label, str) or not label:
        raise ValueError("node/attribute labels must be nonempty strings")
    if _SEPARATOR_STR in label:
        raise ValueError("labels must not contain the reserved separator 0x1f")
    if not label.isascii():
        try:
            label.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate, which JSON can carry
            raise ValueError(f"label {label!r} is not encodable as UTF-8") from None
    return label


def _check_value(value: float, what: str) -> float:
    # the stream reader's number types; numpy's numbers too, but not bool or str
    if type(value) is not float and type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{what} must be a number, not {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond float range
        value = math.inf
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"{what} must be finite")
    if value < 0.0:
        raise ValueError(f"{what} must be nonnegative")
    return value


# While a component's masses (nonnegative, so each at most their sum) sum
# to no more than this, up to 2**50 of them cannot square-sum past float
# range, and ``preprocess`` forms no squares; a plain ``sum`` is the
# cheapest bound on the largest. A plain int or float below it is a mass
# ``preprocess`` takes without ``_check_value``.
_SQUARES_SAFE = 2.0**480


def _check_squares(values: list[float], what: str) -> None:
    """Reject masses, in canonical order, whose squares sum (as in
    ``GraphView.sq_sum``) to inf."""
    part = np.array(values, dtype=np.float64)
    with np.errstate(over="ignore"):
        if not math.isfinite(part.dot(part)):
            raise ValueError(f"{what} must have a finite sum of squares")


def preprocess(g: GraphObject, schema: StreamSchema) -> GraphObject:
    """Validate and normalize a graph against a schema.

    Undirected edges are stored with sorted endpoints, duplicates are
    summed, a side entry's list or single id becomes its map, a present
    categorical value ``v`` of type ``T`` becomes the identifier ``"T=v"``
    with value 1, zero-frequency edges and zero-valued attributes are
    dropped, and edges/attributes are sorted for deterministic downstream
    iteration; an edge frequency of None reads as 1. Raises ValueError on
    a mass that is not a nonnegative finite number (bool and str are not
    numbers), a graph label that is not a string, edges or side entries
    not shaped as ``GraphObject`` declares, a node or attribute label that
    is empty, holds the separator or is not encodable as UTF-8, an unknown
    side type, and on masses that are finite but whose merged sum or sum
    of squares within a component is not.
    Each record is checked once, as the module docstring says; a graph
    with several faults reports one, not necessarily the first in order.
    """
    if not isinstance(g.id, str) or not g.id:
        raise ValueError("graph id must be a nonempty string")
    if g.label is not None and not isinstance(g.label, str):
        raise ValueError(f"graph label must be a string, not {g.label!r}")

    if not isinstance(g.edges, (list, tuple)):
        raise ValueError("edges must be a list or tuple")
    if not isinstance(g.side, dict):
        raise ValueError("side must be an object keyed by type name")
    undirected = not schema.directed
    merged: dict[tuple[str, str], float] = {}
    for edge in g.edges:
        match edge:  # sequence patterns: no str, dict or number matches them
            case (src, dst, freq):
                if not ((type(freq) is float or type(freq) is int) and 0.0 <= freq < _SQUARES_SAFE):
                    freq = 1.0 if freq is None else _check_value(freq, "edge frequency")
            case (src, dst):
                freq = 1.0
            case _:
                raise ValueError(f"edges must be (src, dst) or (src, dst, freq), not {edge!r}")
        if type(src) is not str or type(dst) is not str:
            _check_label(src)  # before the compare, which needs two strings
            _check_label(dst)
        if freq == 0.0:
            _check_label(src)  # no merged key carries these to the joint check
            _check_label(dst)
            continue
        key = (dst, src) if undirected and dst < src else (src, dst)
        merged[key] = merged.get(key, 0.0) + freq
    # (src, dst) keys are unique, so no two edges compare on their masses
    edges = sorted([(s, t, f) for (s, t), f in merged.items()])
    if sum(merged.values()) > _SQUARES_SAFE:
        _check_squares([f for _, _, f in edges], "edge frequencies")

    labels = [*itertools.chain.from_iterable(merged)]
    side: dict[str, dict[str, float]] = {}
    for name, attrs in g.side.items():
        categorical = schema._categorical.get(name)
        if categorical is None:
            raise ValueError(f"side type {name!r} not declared in schema")
        if not isinstance(attrs, dict):  # a list of ids, each counted, or one id
            if isinstance(attrs, str):
                attrs = [attrs]
            elif not isinstance(attrs, list):
                raise ValueError(f"side entry {name!r} must be an object, list or string")
            if not all(isinstance(item, str) for item in attrs):
                raise ValueError(f"list items of {name!r} must be strings")
            attrs = Counter(attrs)
        try:
            ids = sorted(attrs)
        except TypeError:  # ids that do not compare: some id is no string
            for attr_id in attrs:
                _check_label(attr_id)
            raise
        labels += ids
        cleaned = {}
        for attr_id in ids:
            value = attrs[attr_id]
            if not ((type(value) is float or type(value) is int) and 0.0 <= value < _SQUARES_SAFE):
                what = "categorical presence" if categorical else f"attribute {attr_id!r} value"
                value = _check_value(value, what)
            if value > 0.0:
                if categorical:
                    cleaned[f"{name}={attr_id}"] = 1.0
                else:
                    cleaned[attr_id] = float(value)
        if cleaned:
            if sum(cleaned.values()) > _SQUARES_SAFE:
                _check_squares(list(cleaned.values()), f"side type {name!r} values")
            side[name] = cleaned
    # One test of all labels together; each label on its own only if it fails
    try:
        text = _SEPARATOR_STR.join(labels)
    except TypeError:  # some label is no string, which its check rejects
        for label in labels:
            _check_label(label)
        raise
    if text.count(_SEPARATOR_STR) != len(labels) - 1 or not text.isascii() or not all(labels):
        for label in labels:
            _check_label(label)

    return GraphObject(id=g.id, edges=edges, side=side, label=g.label)


class GraphView:
    """One graph's keys and masses, flat, in component order.

    Component 0 is the edge structure; components 1..d are the schema's
    side types in order. Component ``c`` owns ``keys[bounds[c]:bounds[c+1]]``
    and the same slice of ``values``; ``comp`` holds each key's component
    id. ``sq_sum`` ``(d+1,)`` holds each component's exact sum of squared
    values, and ``block`` ``(N, d+1)`` the values placed block-diagonally
    (row ``i`` holds ``values[i]`` in column ``comp[i]``), so one product
    with it sums per-key terms into per-component ones. Given a sketch
    config, ``buckets`` holds the keys' cells in every row ``(rows, N)``,
    hashed once in one call, and is None otherwise; a sketch bank reads
    them and rejects a view without them.
    """

    __slots__ = ("keys", "values", "bounds", "comp", "sq_sum", "block", "buckets")

    def __init__(
        self,
        keys: tuple[bytes, ...],
        values: Sequence[float],
        bounds: Sequence[int],
        config: SketchConfig | None = None,
    ):
        n = len(keys)
        self.keys = keys
        self.values = values = np.array(values, dtype=np.float64)
        self.bounds = bounds = tuple(bounds)
        if values.shape != (n,) or len(bounds) < 2 or bounds[0] != 0 or bounds[-1] != n:
            raise ValueError("need one value per key and bounds from 0 to the key count")
        spans = list(zip(bounds, bounds[1:]))
        self.comp = np.repeat(np.arange(len(spans)), [b - a for a, b in spans])
        self.block = block = np.zeros((n, len(spans)), dtype=np.float64)
        sq_sum = []
        for c, (a, b) in enumerate(spans):
            part = values[a:b]
            block[a:b, c] = part
            sq_sum.append(part.dot(part))
        self.sq_sum = np.array(sq_sum, dtype=np.float64)
        self.buckets = None if config is None else config.buckets(keys)

    @property
    def d(self) -> int:
        return len(self.bounds) - 2

    def component(self, c: int) -> tuple[tuple[bytes, ...], np.ndarray]:
        """Component ``c``'s keys and values."""
        a, b = self.bounds[c], self.bounds[c + 1]
        return self.keys[a:b], self.values[a:b]


def graph_views(
    g: GraphObject, schema: StreamSchema, config: SketchConfig | None = None
) -> GraphView:
    """The flat view of a ``preprocess`` output over the schema's d+1
    components, its keys hashed for ``config`` when one is given. Labels
    are not checked again: ``preprocess`` has checked each one."""
    keys = [(s + _SEPARATOR_STR + t).encode() for s, t, _ in g.edges]
    values = [f for _, _, f in g.edges]
    bounds = [0, len(keys)]
    for side_type in schema.side_types:
        attrs = g.side.get(side_type.name, {})
        keys += map(str.encode, attrs)
        values += attrs.values()
        bounds.append(len(keys))
    return GraphView(tuple(keys), values, bounds, config)
