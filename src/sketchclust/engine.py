"""Single-pass streaming clusterer over graph objects.

The engine keeps at most k cluster summaries and a nonnegative weight
vector over the d+1 distance components. Each incoming graph is handled
in one of three ways:

* ``initialized`` - while fewer than k clusters exist, the graph founds a
  new singleton cluster;
* ``assigned`` - the graph joins the nearest cluster (weighted squared
  distance, ties to the lowest index) when it falls within that cluster's
  structural spread, or unconditionally when the nearest cluster is still
  a singleton;
* ``replaced_stale`` - otherwise the graph founds a singleton that evicts
  the stalest cluster (smallest last-update count, ties to the lowest
  index; a graph's count is its arrival order in the stream).

Every ``gamma`` graphs, with at least two live clusters, the weight vector
is re-tuned against the current cluster geometry (see ``weight_opt``);
``gamma = 0`` never re-tunes it, so the weights stay uniform.

The clusters live in one bank, ``Engine.bank``, a ``stats.Bank`` that
scores a graph against all clusters at once. Its arithmetic is shared by
both backends, which differ only in where first moments live: count-min
sketches (``stats.ClusterBank``) or exact maps (``exact.ExactBank``).
``process`` routes a graph as decide, then apply: ``_decide`` reads the
bank and returns the route as a value; ``_apply`` makes its one update,
then any refresh due. Graph edges are consumed exactly once; memory is
constant in the stream length on the sketch backend. Engine state
checkpoints to a versioned blob: a JSON header, the graph count and
weights, then the bank's arrays whole, joined once. An engine encodes
its header once, and ``from_bytes`` caches the last few headers it
decoded, so engines resumed from one header share one immutable config
(and one drawn hash family) and write back its bytes. Loading rejects a
header or config field that is unknown or of the wrong JSON type, and
state no run produces (such as a cluster count other than
``min(graph_count, k)``); a resumed run replays identically.
"""

from __future__ import annotations

import functools
import json
import math
import struct
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .exact import ExactBank
from .model import GraphObject, GraphView, StreamSchema, from_json, graph_views
from .sketch import SketchConfig
from .stats import ClusterBank, read_array, unpack_at
from .weight_opt import BarrierConfig, TraceHook, ensure_weights, refine_weights

_MAGIC = b"SCE1"
_VERSION = 2

ACTION_INITIALIZED = "initialized"
ACTION_ASSIGNED = "assigned"
ACTION_REPLACED = "replaced_stale"

BACKENDS = ("sketch", "exact")

# ``json.dumps(..., sort_keys=True, allow_nan=False)``, built once. Its
# ``encode`` still builds a C encoder on every call, so ``to_json`` writes
# strings, ints, finite floats and None itself and passes only the rest here.
_EVENT_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False)
_encode_str = json.encoder.encode_basestring_ascii


def _json_value(x) -> str:
    """``x`` as ``_EVENT_ENCODER`` writes it. A str, int, finite float or
    None is written here; anything else (the distance lists, a non-finite
    float, which raises) goes through the encoder."""
    kind = type(x)
    if kind is float and math.isfinite(x):
        return float.__repr__(x)
    if kind is str:
        return _encode_str(x)
    if kind is int:
        return int.__repr__(x)
    if x is None:
        return "null"
    return _EVENT_ENCODER.encode(x)


@dataclass(frozen=True)
class EngineConfig:
    k: int
    gamma: int = 250
    p: float = 3.0
    sketch: SketchConfig = field(default_factory=SketchConfig)
    barrier: BarrierConfig = field(default_factory=BarrierConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if not 0 < self.p < math.inf:
            raise ValueError("p must be positive and finite")

    def to_dict(self) -> dict:
        """Every field as JSON values; the sketch's hash arrays are not
        fields, so they stay out."""
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "EngineConfig":
        """Inverse of ``to_dict``; a field left out takes its default."""
        return from_json(cls, obj)


@dataclass
class AssignmentEvent:
    """Outcome of processing one graph.

    ``es_distance_sq``/``spread`` refer to the nearest cluster at decision
    time and are None for initializations. ``distances`` optionally holds
    the unsquared per-component distance vector to every live cluster.
    """

    graph_id: str
    action: str
    cluster_index: int
    es_distance_sq: float | None = None
    spread: float | None = None
    distances: list[list[float]] | None = None

    def to_json(self) -> str:
        """The event's fields (``distances`` only when set), byte for byte
        as ``json.dumps(..., sort_keys=True, allow_nan=False)`` writes them."""
        distances = (
            "" if self.distances is None else f'"distances": {_json_value(self.distances)}, '
        )
        return (
            f'{{"action": {_json_value(self.action)}, '
            f'"cluster_index": {_json_value(self.cluster_index)}, {distances}'
            f'"es_distance_sq": {_json_value(self.es_distance_sq)}, '
            f'"graph_id": {_json_value(self.graph_id)}, "spread": {_json_value(self.spread)}}}'
        )

    @classmethod
    def from_dict(cls, obj: dict) -> "AssignmentEvent":
        """The event a decoded ``to_json`` line holds; a negative
        ``cluster_index`` also raises ValueError."""
        event = from_json(cls, obj)
        if event.cluster_index < 0:
            raise ValueError("event cluster_index must be nonnegative")
        return event


@dataclass(frozen=True)
class _Header:
    """The JSON header of a checkpoint; ``encoded`` is its bytes, encoded
    on first use and then kept."""

    backend: str
    config: EngineConfig
    schema: StreamSchema
    record_distances: bool = False

    @functools.cached_property
    def encoded(self) -> bytes:
        return json.dumps(asdict(self), sort_keys=True).encode("utf-8")


@functools.lru_cache(maxsize=8)
def _decode_header(raw: bytes) -> _Header:
    """A checkpoint's header, from its exact bytes. Cached, so the
    checkpoints of one run share one decoded header (and its encoding).
    Keyed by bytes, never by ``_Header`` equality: ``p=3`` and ``p=3.0``
    compare equal but encode apart. A bad header raises, and is not
    cached."""
    return from_json(_Header, json.loads(raw.decode("utf-8")))


class _Decision(NamedTuple):
    """A graph's route; the distances are None while the bank has a free slot."""

    action: str
    slot: int
    best: float | None = None
    spread: float | None = None
    comp_sq: np.ndarray | None = None


class Engine:
    # The header fields are read-only: the engine keeps its header's bytes.
    config = property(lambda self: self._header.config)
    schema = property(lambda self: self._header.schema)
    backend = property(lambda self: self._header.backend)
    record_distances = property(lambda self: self._header.record_distances)

    def __init__(
        self,
        config: EngineConfig,
        schema: StreamSchema,
        backend: str = "sketch",
        record_distances: bool = False,
        trace: TraceHook | None = None,
    ):
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        self._header = _Header(backend, config, schema, record_distances)
        self.trace = trace
        self.weights = np.ones(schema.d + 1, dtype=np.float64)
        if backend == "sketch":
            self.bank = ClusterBank(config.sketch, schema.d, config.k)
        else:
            self.bank = ExactBank(schema.d, config.k)
        self.graph_count = 0

    # -- core loop -----------------------------------------------------------

    def process(self, g: GraphObject) -> AssignmentEvent:
        """Route one graph, as ``preprocess`` returns it, and return the
        resulting event. ``process(preprocess(g, schema))`` over what
        ``iter_stream`` yields is the one way a record reaches the engine.
        A graph that ``_decide`` or the bank update rejects raises
        ValueError, and one that was not preprocessed may raise TypeError
        or ValueError from ``graph_views`` (an id that is no str, a mass
        that is no number), each before any change; a refresh that raises
        does so after the graph's update, with the weights not refreshed."""
        view = graph_views(g, self.schema)
        decision = self._decide(view)
        self._apply(decision, view)
        action, slot, best, spread, comp_sq = decision
        record = self.record_distances and comp_sq is not None
        distances = np.sqrt(comp_sq).tolist() if record else None
        return AssignmentEvent(g.id, action, slot, best, spread, distances)

    def _decide(self, view: GraphView) -> _Decision:
        """The graph's route, from the bank and weights; writes nothing.
        ValueError when a squared distance, the weighted distance to the
        nearest cluster or its spread is not finite."""
        bank, config = self.bank, self.config
        if len(bank) < config.k:
            return _Decision(ACTION_INITIALIZED, len(bank))
        comp_sq = bank.distances_sq(view)
        es_all = comp_sq.dot(self.weights)
        nearest = int(es_all.argmin())  # first minimum: lowest index
        best = float(es_all[nearest])
        n = int(bank.n[nearest])
        spread = (config.p / n) * float(bank.intra_sq(nearest).dot(self.weights))
        if not (math.isfinite(best) and math.isfinite(spread)):
            raise ValueError(f"weighted distance {best!r} or spread {spread!r} is not finite")
        if n == 1 or best < spread:
            return _Decision(ACTION_ASSIGNED, nearest, best, spread, comp_sq)
        return _Decision(ACTION_REPLACED, bank.stalest(), best, spread, comp_sq)

    def _apply(self, decision: _Decision, view: GraphView) -> None:
        """The decision's one bank update, then the weight refresh when due."""
        bank, config = self.bank, self.config
        now = self.graph_count + 1
        update = bank.absorb if decision.action == ACTION_ASSIGNED else bank.reset
        update(decision.slot, view, now)
        self.graph_count = now
        if config.gamma and now % config.gamma == 0 and len(bank) >= 2:
            self.refresh_weights()

    def refresh_weights(self) -> None:
        """Re-tune the weights against the live clusters (at least two)."""
        self.weights = refine_weights(
            self.weights, self.bank.geometry(), self.config.barrier, trace=self.trace
        )

    # -- checkpointing ---------------------------------------------------------

    def to_bytes(self) -> bytes:
        header = self._header.encoded
        parts = [
            _MAGIC,
            struct.pack("<BI", _VERSION, len(header)),
            header,
            # fixed width: a decimal count in the header would make the
            # checkpoint size depend on how many graphs were processed
            struct.pack("<QI", self.graph_count, len(self.weights)),
            self.weights.astype("<f8", copy=False).tobytes(),
            *self.bank.to_parts(),
        ]
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes, trace: TraceHook | None = None) -> "Engine":
        """The engine a ``to_bytes`` blob (``bytes``, ``bytearray`` or
        ``memoryview``) holds; ValueError for anything no run writes."""
        if data[:4] != _MAGIC:
            raise ValueError("bad engine checkpoint magic")
        version, hlen = unpack_at("<BI", data, 4)
        if version != _VERSION:
            raise ValueError(f"unsupported engine checkpoint version {version}")
        try:
            header = _decode_header(bytes(data[9 : 9 + hlen]))
            engine = cls(
                header.config, header.schema, header.backend, header.record_distances, trace
            )
        except ValueError as exc:
            # not JSON, or a header field that is missing, unknown or of the wrong type
            raise ValueError(f"bad engine checkpoint header: {exc!r}") from None
        engine._header = header  # shared, with its bytes, by every resume from it
        off = 9 + hlen
        graph_count, wlen = unpack_at("<QI", data, off)
        off += 12
        weights = read_array(data, off, "<f8", (wlen,))
        engine.weights = ensure_weights(weights, engine.schema.d).copy()
        off = engine.bank.load(data, off + weights.nbytes, graph_count)
        if off != len(data):
            raise ValueError(f"engine checkpoint is {len(data)} bytes but ends at {off}")
        engine.graph_count = graph_count
        return engine
