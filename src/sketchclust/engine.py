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
Graph edges are consumed exactly once; memory is constant in the stream
length on the sketch backend. Engine state checkpoints to a versioned
binary blob, and resuming a checkpoint replays identically to an
uninterrupted run.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .distance import component_distances_sq, ensure_weights, intra_vector_sq
from .exact import ExactClusterStats
from .model import GraphObject, StreamSchema, canonical_graphs, graph_views
from .sketch import SketchConfig
from .stats import ClusterStats
from .weight_opt import BarrierConfig, TraceHook, refine_weights

_MAGIC = b"SCE1"
_VERSION = 1

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
        if not self.p > 0:
            raise ValueError("p must be positive")

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "gamma": self.gamma,
            "p": self.p,
            "sketch": {
                "rows": self.sketch.rows,
                "cols": self.sketch.cols,
                "seed": self.sketch.seed,
            },
            "barrier": {
                "t": self.barrier.t,
                "step_size": self.barrier.step_size,
                "max_steps": self.barrier.max_steps,
                "feasibility_margin": self.barrier.feasibility_margin,
                "weight_floor": self.barrier.weight_floor,
            },
            "seed": self.seed,
            "optimize_weights": self.optimize_weights,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "EngineConfig":
        return cls(
            k=obj["k"],
            gamma=obj.get("gamma", 250),
            p=obj.get("p", 3.0),
            sketch=SketchConfig(**obj.get("sketch", {})),
            barrier=BarrierConfig(**obj.get("barrier", {})),
            seed=obj.get("seed", 0),
            optimize_weights=obj.get("optimize_weights", True),
        )


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
        return cls(
            graph_id=obj["graph_id"],
            action=obj["action"],
            cluster_index=obj["cluster_index"],
            es_distance_sq=obj.get("es_distance_sq"),
            spread=obj.get("spread"),
            distances=obj.get("distances"),
        )


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
        self.clusters: list = []
        self.graph_count = 0

    # -- construction helpers ----------------------------------------------

    def _new_singleton(self, views, now: int):
        if self.backend == "sketch":
            c = ClusterStats.empty(self.config.sketch, self.schema.d)
        else:
            c = ExactClusterStats.empty(self.schema.d)
        c.absorb_views(views, now)
        return c

    # -- core loop -----------------------------------------------------------

    def process(self, g: GraphObject) -> AssignmentEvent:
        """Route one canonicalized graph and return the resulting event."""
        views = graph_views(g, self.schema)
        now = self.graph_count + 1

        if len(self.clusters) < self.config.k:
            index = len(self.clusters)
            self.clusters.append(self._new_singleton(views, now))
            event = AssignmentEvent(g.id, ACTION_INITIALIZED, index)
        else:
            comp_sq = np.empty((len(self.clusters), self.schema.d + 1))
            for i, c in enumerate(self.clusters):
                comp_sq[i] = component_distances_sq(views, c)
            es_all = comp_sq @ self.weights
            nearest = int(np.argmin(es_all))  # first minimum: lowest index
            best = float(es_all[nearest])
            target = self.clusters[nearest]
            spread = (self.config.p / target.n) * float(
                intra_vector_sq(target) @ self.weights
            )
            distances = np.sqrt(comp_sq).tolist() if self.record_distances else None
            if target.n == 1 or best < spread:
                target.absorb_views(views, now)
                event = AssignmentEvent(
                    g.id, ACTION_ASSIGNED, nearest, best, spread, distances
                )
            else:
                stale = min(
                    range(len(self.clusters)), key=lambda i: (self.clusters[i].t_last, i)
                )
                self.clusters[stale] = self._new_singleton(views, now)
                event = AssignmentEvent(
                    g.id, ACTION_REPLACED, stale, best, spread, distances
                )

        self.graph_count = now
        if (
            self.config.optimize_weights
            and self.graph_count % self.config.gamma == 0
            and len(self.clusters) >= 2
        ):
            self.refresh_weights()
        return event

    def refresh_weights(self) -> None:
        self.weights = refine_weights(
            self.weights, self.clusters, self.config.barrier, trace=self.trace
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
            struct.pack("<B", _VERSION),
            struct.pack("<I", len(header)),
            header,
            # fixed width: a decimal count in the header would make the
            # checkpoint size depend on how many graphs were processed
            struct.pack("<Q", self.graph_count),
            struct.pack("<I", len(self.weights)),
            self.weights.astype("<f8", copy=False).tobytes(),
            struct.pack("<I", len(self.clusters)),
        ]
        for c in self.clusters:
            blob = c.to_bytes()
            parts.append(struct.pack("<Q", len(blob)))
            parts.append(blob)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes, trace: TraceHook | None = None) -> "Engine":
        if data[:4] != _MAGIC:
            raise ValueError("bad engine checkpoint magic")
        (version,) = struct.unpack_from("<B", data, 4)
        if version != _VERSION:
            raise ValueError(f"unsupported engine checkpoint version {version}")
        off = 5
        (hlen,) = struct.unpack_from("<I", data, off)
        off += 4
        header = json.loads(data[off : off + hlen].decode("utf-8"))
        off += hlen
        (graph_count,) = struct.unpack_from("<Q", data, off)
        off += 8
        engine = cls(
            config=EngineConfig.from_dict(header["config"]),
            schema=StreamSchema.from_dict(header["schema"]),
            backend=header["backend"],
            record_distances=header.get("record_distances", False),
            trace=trace,
        )
        (wlen,) = struct.unpack_from("<I", data, off)
        off += 4
        engine.weights = np.frombuffer(data, dtype="<f8", count=wlen, offset=off).copy()
        off += wlen * 8
        ensure_weights(engine.weights, engine.schema.d)
        (n_clusters,) = struct.unpack_from("<I", data, off)
        off += 4
        stats_cls = ClusterStats if engine.backend == "sketch" else ExactClusterStats
        for _ in range(n_clusters):
            (blob_len,) = struct.unpack_from("<Q", data, off)
            off += 8
            engine.clusters.append(stats_cls.from_bytes(data[off : off + blob_len]))
            off += blob_len
        if off != len(data):
            raise ValueError(f"engine checkpoint is {len(data)} bytes but ends at {off}")
        engine.graph_count = graph_count
        return engine

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path: str, trace: TraceHook | None = None) -> "Engine":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read(), trace=trace)
