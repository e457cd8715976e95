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
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable

import numpy as np

from .exact import ExactBank
from .model import GraphObject, StreamSchema, canonical_graphs, graph_views
from .sketch import SketchConfig
from .stats import ClusterBank, read_array, unpack_at
from .weight_opt import BarrierConfig, TraceHook, refine_weights

_MAGIC = b"SCE1"
_VERSION = 2

ACTION_INITIALIZED = "initialized"
ACTION_ASSIGNED = "assigned"
ACTION_REPLACED = "replaced_stale"

BACKENDS = ("sketch", "exact")


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
        """Every field as JSON values; the sketch's private hash arrays left out."""
        sketch = {k: v for k, v in vars(self.sketch).items() if not k.startswith("_")}
        return {**vars(self), "sketch": sketch, "barrier": dict(vars(self.barrier))}

    @classmethod
    def from_dict(cls, obj: dict) -> "EngineConfig":
        """Inverse of ``to_dict``, built through the dataclasses, so a field
        left out takes its default; a field that is unknown or of the wrong
        JSON type raises ValueError."""
        obj = dict(_typed(obj))
        for name, kind in (("sketch", SketchConfig), ("barrier", BarrierConfig)):
            if name in obj:
                obj[name] = _build(kind, obj[name])
        return _build(cls, obj)


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
        return json.dumps(self.to_dict(), sort_keys=True, allow_nan=False)

    @classmethod
    def from_dict(cls, obj: dict) -> "AssignmentEvent":
        """Inverse of ``to_dict``; raises ValueError on a record that is not
        an object, or on a field that is missing or of the wrong type."""
        if not isinstance(obj, dict):
            raise ValueError("event must be a JSON object")
        for name in ("graph_id", "action", "cluster_index"):
            if name not in obj:
                raise ValueError(f"event needs a {name!r} field")
        ev = cls(
            obj["graph_id"],
            obj["action"],
            obj["cluster_index"],
            obj.get("es_distance_sq"),
            obj.get("spread"),
            obj.get("distances"),
        )
        if not isinstance(ev.graph_id, str) or not isinstance(ev.action, str):
            raise ValueError("event graph_id and action must be strings")
        if not _is_number(ev.cluster_index, int) or ev.cluster_index < 0:
            raise ValueError("event cluster_index must be a nonnegative integer")
        if not all(v is None or _is_number(v) for v in (ev.es_distance_sq, ev.spread)):
            raise ValueError("event es_distance_sq and spread must be numbers or null")
        rows = ev.distances
        if rows is not None and not (
            isinstance(rows, list)
            and all(isinstance(row, list) and all(map(_is_number, row)) for row in rows)
        ):
            raise ValueError("event distances must be a list of number lists")
        return ev


def _is_number(value, kinds=(int, float)) -> bool:
    """A JSON number of the given kinds (``bool`` is not one)."""
    return isinstance(value, kinds) and not isinstance(value, bool)


# The JSON kind of each checkpoint header and config field, by name.
_KINDS = {
    **dict.fromkeys(("k", "gamma", "seed", "rows", "cols", "max_steps"), "integer"),
    **dict.fromkeys(("p", "t", "step_size", "feasibility_margin", "weight_floor"), "number"),
    **dict.fromkeys(("optimize_weights", "record_distances"), "bool"),
}
_IS_KIND = {
    "integer": lambda value: _is_number(value, int),
    "number": _is_number,
    "bool": lambda value: isinstance(value, bool),
}


def ensure_weights(weights, d: int) -> np.ndarray:
    """Validate a (d+1)-component nonnegative weight vector."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (d + 1,):
        raise ValueError(f"weights must have shape ({d + 1},), got {w.shape}")
    if not bool(np.all(np.isfinite(w) & (w >= 0.0))):
        raise ValueError("weights must be nonnegative and finite")
    return w


def _build(cls, obj: dict):
    """``cls(**obj)`` from a JSON object checked by ``_typed``; a field
    ``cls`` does not declare raises ValueError."""
    unknown = sorted(set(_typed(obj)) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {cls.__name__} fields {unknown}")
    return cls(**obj)


# The fields of a checkpoint header.
_HEADER_FIELDS = {"backend", "record_distances", "config", "schema"}


def _typed(obj: dict) -> dict:
    """``obj``, a JSON object whose fields named in ``_KINDS`` each hold a
    value of their kind; ValueError otherwise."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, not {obj!r}")
    for name, value in obj.items():
        kind = _KINDS.get(name)
        if kind is not None and not _IS_KIND[kind](value):
            raise ValueError(f"{name} must be a JSON {kind}, not {value!r}")
    return obj


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
        strict: bool = True,
        on_error: Callable[[str, str], None] | None = None,
    ) -> list[AssignmentEvent]:
        """Preprocess and process a whole stream; returns the event per
        accepted graph. ``strict`` and ``on_error`` are as in
        ``model.canonical_graphs``.
        """
        graphs = canonical_graphs(graphs, self.schema, strict, on_error)
        return [self.process(g) for g in graphs]

    # -- checkpointing ---------------------------------------------------------

    def to_bytes(self) -> bytes:
        header = json.dumps(
            {
                "backend": self.backend,
                "record_distances": self.record_distances,
                "config": self.config.to_dict(),
                "schema": self.schema.to_dict(),
            },
            sort_keys=True,
        ).encode("utf-8")
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
            header = _typed(json.loads(data[9 : 9 + hlen].decode("utf-8")))
            unknown = sorted(set(header) - _HEADER_FIELDS)
            if unknown:
                raise ValueError(f"unknown header fields {unknown}")
            engine = cls(
                config=EngineConfig.from_dict(header["config"]),
                schema=StreamSchema.from_dict(header["schema"]),
                backend=header["backend"],
                record_distances=header.get("record_distances", False),
                trace=trace,
            )
        except (KeyError, TypeError, ValueError) as exc:
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
