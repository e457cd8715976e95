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
  the stalest cluster (smallest last-update timestamp, ties to the lowest
  index).

Every ``gamma`` graphs, with at least two live clusters, the weight vector
is re-tuned against the current cluster geometry (see ``weight_opt``).

The clusters live in one bank, ``Engine.bank``, a ``stats.Bank`` that
scores a graph against all clusters at once. Its arithmetic is shared by
both backends, which differ only in where first moments live:
count-min sketches (``stats.ClusterBank``) or exact maps
(``exact.ExactBank``); ``process`` has one path for both. Graph edges are
consumed exactly once; memory is constant in the stream length on the
sketch backend. Engine state checkpoints to a versioned blob: a JSON
header, the graph count and weights, then the bank's arrays whole,
joined once. Loading rejects a header or config field that is unknown or
of the wrong JSON type, and state no run produces (such as a cluster
count other than ``min(graph_count, k)``); a resumed run replays
identically.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Iterable

import numpy as np

from .exact import ExactBank
from .model import GraphObject, StreamSchema, canonical_graphs, from_json, graph_views
from .sketch import SketchConfig
from .stats import ClusterBank, read_array, unpack_at
from .weight_opt import BarrierConfig, TraceHook, refine_weights

_MAGIC = b"SCE1"
_VERSION = 2

ACTION_INITIALIZED = "initialized"
ACTION_ASSIGNED = "assigned"
ACTION_REPLACED = "replaced_stale"

BACKENDS = ("sketch", "exact")

# one encoder for every event: ``json.dumps`` with options builds a new one per call
_EVENT_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False)


@dataclass(frozen=True)
class EngineConfig:
    k: int
    gamma: int = 250
    p: float = 3.0
    sketch: SketchConfig = field(default_factory=SketchConfig)
    barrier: BarrierConfig = field(default_factory=BarrierConfig)
    seed: int = 0
    optimize_weights: bool = True

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.gamma < 1:
            raise ValueError("gamma must be >= 1")
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

    def to_dict(self) -> dict:
        out = {
            "graph_id": self.graph_id,
            "action": self.action,
            "cluster_index": self.cluster_index,
            "es_distance_sq": self.es_distance_sq,
            "spread": self.spread,
        }
        if self.distances is not None:
            out["distances"] = self.distances
        return out

    def to_json(self) -> str:
        return _EVENT_ENCODER.encode(self.to_dict())

    @classmethod
    def from_dict(cls, obj: dict) -> "AssignmentEvent":
        """Inverse of ``to_dict``; a negative ``cluster_index`` also raises
        ValueError."""
        event = from_json(cls, obj)
        if event.cluster_index < 0:
            raise ValueError("event cluster_index must be nonnegative")
        return event


def _fields(obj) -> dict:
    """A dataclass's fields by name, for ``json.dumps`` to encode (unlike
    ``asdict``, without copying every value, which tripled a save's header
    cost)."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


@dataclass(frozen=True)
class _Header:
    """The JSON header of a checkpoint."""

    backend: str
    config: EngineConfig
    schema: StreamSchema
    record_distances: bool = False


def ensure_weights(weights, d: int) -> np.ndarray:
    """Validate a (d+1)-component nonnegative weight vector."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (d + 1,):
        raise ValueError(f"weights must have shape ({d + 1},), got {w.shape}")
    if not bool(np.all(np.isfinite(w) & (w >= 0.0))):
        raise ValueError("weights must be nonnegative and finite")
    return w


class Engine:
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
        self.config = config
        self.schema = schema
        self.backend = backend
        self.record_distances = record_distances
        self.trace = trace
        self.weights = np.ones(schema.d + 1, dtype=np.float64)
        if backend == "sketch":
            self.bank = ClusterBank(config.sketch, schema.d, config.k)
        else:
            self.bank = ExactBank(schema.d, config.k)
        self.graph_count = 0

    # -- core loop -----------------------------------------------------------

    def process(self, g: GraphObject) -> AssignmentEvent:
        """Route one canonicalized graph and return the resulting event."""
        bank = self.bank
        view = graph_views(g, self.schema, bank.config)
        now = self.graph_count + 1

        if len(bank) < self.config.k:
            index = bank.add(view, now)
            event = AssignmentEvent(g.id, ACTION_INITIALIZED, index)
        else:
            comp_sq = bank.distances_sq(view)
            es_all = comp_sq @ self.weights
            nearest = int(np.argmin(es_all))  # first minimum: lowest index
            best = float(es_all[nearest])
            n = bank.count(nearest)
            spread = (self.config.p / n) * float(bank.intra_sq(nearest) @ self.weights)
            distances = np.sqrt(comp_sq).tolist() if self.record_distances else None
            if n == 1 or best < spread:
                bank.absorb(nearest, view, now)
                event = AssignmentEvent(
                    g.id, ACTION_ASSIGNED, nearest, best, spread, distances
                )
            else:
                stale = bank.stalest()
                bank.reset(stale, view, now)
                event = AssignmentEvent(
                    g.id, ACTION_REPLACED, stale, best, spread, distances
                )

        self.graph_count = now
        if (
            self.config.optimize_weights
            and self.graph_count % self.config.gamma == 0
            and len(bank) >= 2
        ):
            self.refresh_weights()
        return event

    def refresh_weights(self) -> None:
        """Re-tune the weights against the live clusters (at least two)."""
        self.weights = refine_weights(
            self.weights, self.bank.geometry(), self.config.barrier, trace=self.trace
        )

    def run(
        self,
        graphs: Iterable[GraphObject],
        on_error: Callable[[str, str], None] | None = None,
    ) -> list[AssignmentEvent]:
        """Preprocess and process a whole stream; returns the event per
        accepted graph. ``on_error`` is as in ``model.canonical_graphs``.
        """
        graphs = canonical_graphs(graphs, self.schema, on_error)
        return [self.process(g) for g in graphs]

    # -- checkpointing ---------------------------------------------------------

    def to_bytes(self) -> bytes:
        header = _Header(self.backend, self.config, self.schema, self.record_distances)
        header = json.dumps(header, default=_fields, sort_keys=True).encode("utf-8")
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
        if data[:4] != _MAGIC:
            raise ValueError("bad engine checkpoint magic")
        version, hlen = unpack_at("<BI", data, 4)
        if version != _VERSION:
            raise ValueError(f"unsupported engine checkpoint version {version}")
        try:
            header = from_json(_Header, json.loads(data[9 : 9 + hlen].decode("utf-8")))
            engine = cls(
                header.config, header.schema, header.backend, header.record_distances, trace
            )
        except ValueError as exc:
            # not JSON, or a header field that is missing, unknown or of the wrong type
            raise ValueError(f"bad engine checkpoint header: {exc!r}") from None
        off = 9 + hlen
        graph_count, wlen = unpack_at("<QI", data, off)
        off += 12
        weights = read_array(data, off, "<f8", (wlen,))
        engine.weights = ensure_weights(weights, engine.schema.d).copy()
        off = engine.bank.load(data, off + weights.nbytes)
        if off != len(data):
            raise ValueError(f"engine checkpoint is {len(data)} bytes but ends at {off}")
        engine.bank.validate(graph_count)
        engine.graph_count = graph_count
        return engine

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path: str, trace: TraceHook | None = None) -> "Engine":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read(), trace=trace)
