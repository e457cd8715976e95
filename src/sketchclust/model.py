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
included, so hashing keys needs no second check.

``preprocess`` alone reads the shorthands and checks edges, side entries
and masses (the stream reader only decodes them), once per record. A
plain ``int`` or ``float`` mass in ``[0, 2**480)`` is taken as it is; any
other mass (numpy's numbers, bool, str, NaN, inf, a negative, an int
beyond float range) goes through ``_check_value``. An endpoint's type is
tested where the edge is read, before its endpoints are compared; every
label that is not a nonempty str free of the separator and of lone
surrogates goes to ``_check_label``, the one source of its messages. A
component whose squares sum past float range is rejected.

``graph_views`` alone builds a ``GraphView``, one read-only flat view per
graph: every component's key digests (BLAKE2b, 8 bytes, hashed from the
labels' UTF-8 with no object made per key) and masses in one array, each
mass checked and each component's squares summed. A view knows no sketch:
a sketch bank buckets the digests for its own grid on every read.

Both walks run in the compiled kernel (``native``): ``preprocess`` is
``canonical_graph``, which calls the two ``_check_*`` helpers above on its
slow path, and ``graph_views`` takes a view's masses, bounds, ``sq_sum``
and digests from ``graph_view``. Both add a component's squares in one
order, view order from 0.0.
"""

from __future__ import annotations

import functools
import math
import numbers
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import Callable, Sequence

import numpy as np

from .native import kernel

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
        object.__setattr__(self, "_names", tuple(names))

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


# A plain int or float in [0, this) is a mass ``preprocess`` takes without
# ``_check_value``: one far inside float range, whose square is too.
_SQUARES_SAFE = 2.0**480

# The helpers that own every label and mass fault, for the kernel
_CHECKS = (_check_label, _check_value)


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
    edges, side = kernel.canonical_graph(g, schema.directed, schema._categorical, _CHECKS)
    return GraphObject(g.id, edges, side, g.label)


class GraphView:
    """One graph's key digests and masses, flat, in component order.

    Component 0 is the edge structure; components 1..d are the schema's
    side types in order. Component ``c`` owns ``digests[bounds[c]:bounds[c+1]]``
    and the same slice of ``values``, and ``sq_sum`` ``(d+1,)`` holds each
    component's sum of squared values, added in view order from 0.0. Every
    mass is finite and nonnegative, and every sum finite. ``digests`` holds
    each key's ``hashlib.blake2b(key, digest_size=8)`` read as a
    little-endian integer, as native uint64: the key's one identity on both
    backends. Only ``graph_views`` builds a view; no field can be rebound,
    and its arrays lie over immutable bytes, so none can be written or made
    writable, and the fields always agree.
    """

    __slots__ = ("_fields",)

    def __new__(cls, *args, **kwargs):
        raise TypeError("graph_views builds every GraphView")

    values = property(lambda self: self._fields[0])
    bounds = property(lambda self: self._fields[1])
    sq_sum = property(lambda self: self._fields[2])
    digests = property(lambda self: self._fields[3])
    d = property(lambda self: len(self._fields[1]) - 2)


def graph_views(g: GraphObject, schema: StreamSchema) -> GraphView:
    """The flat view of a ``preprocess`` output over the schema's d+1
    components. Labels are not checked again: ``preprocess`` has checked
    each one. A graph that was not preprocessed raises ``preprocess``'s
    ValueError for a ``side`` that is no dict or an undeclared side type,
    and may raise TypeError, or ValueError for a mass that is negative,
    NaN or infinite or a component whose squares sum past float range."""
    if not isinstance(g.side, dict):
        raise ValueError("side must be an object keyed by type name")
    for name in g.side:
        if name not in schema._categorical:
            raise ValueError(f"side type {name!r} not declared in schema")
    sides = [g.side.get(name) for name in schema._names]
    masses, bounds, squares, digests = kernel.graph_view(g.edges, sides)
    view = object.__new__(GraphView)
    view._fields = (np.frombuffer(masses), bounds, np.frombuffer(squares),
                    np.frombuffer(digests, np.uint64))
    return view
