"""Benchmark workloads: seeded stream generation and their engine configs.

Every workload is a labeled synthetic stream built from
``synth.generate_graph`` and written with ``stream_io.write_stream``. A
pass is the whole stream file; the benchmark replays it on a fresh engine.
The reason each workload exists is in README.md; ``measure_properties``
reports the properties that reason rests on.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from sketchclust import EngineConfig, SketchConfig, SynthConfig, preprocess
from sketchclust.model import KIND_CATEGORICAL, KIND_NUMERIC, SideType, StreamSchema
from sketchclust.stream_io import iter_stream, write_stream
from sketchclust.synth import generate_graph

# Entries in the sketch module's key-digest cache (lru maxsize 1 << 16).
DIGEST_CACHE_SIZE = 1 << 16

SKETCH_ROWS = 10
SKETCH_COLS = 500


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: dict
    k: int
    gamma: int
    # Admission spread multiplier (the CLI's --p).
    p: float = 3.0
    # Side types declared categorical in the stream header.
    categorical: tuple[str, ...] = ()
    # Checkpoint and resume the engine after every this many graphs.
    checkpoint_every: int | None = None

    def synth_config(self, seed: int, n_graphs: int = 0) -> SynthConfig:
        return SynthConfig(n_graphs=n_graphs, seed=seed, **self.synth)

    def schema(self) -> StreamSchema:
        cfg = self.synth_config(0)
        names = [n for n, _ in cfg.informative_types] + [n for n, _ in cfg.noise_types]
        return StreamSchema(
            side_types=tuple(
                SideType(n, KIND_CATEGORICAL if n in self.categorical else KIND_NUMERIC)
                for n in names
            ),
            directed=False,
        )

    def engine_config(self, seed: int) -> EngineConfig:
        """The config ``sketchclust cluster`` builds from ``cli_args(seed)``."""
        return EngineConfig(
            k=self.k,
            gamma=self.gamma,
            p=self.p,
            sketch=SketchConfig(rows=SKETCH_ROWS, cols=SKETCH_COLS, seed=seed),
            seed=seed,
        )

    def cli_args(self, seed: int) -> list[str]:
        return [
            "--k", str(self.k),
            "--gamma", str(self.gamma),
            "--p", repr(self.p),
            "--sketch-rows", str(SKETCH_ROWS),
            "--sketch-cols", str(SKETCH_COLS),
            "--seed", str(seed),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="c10-stream",
            why="criterion-10 shape (5 classes, k=5, 24 edges/graph): the shipped "
            "throughput guarantee, with distance, ingest and refresh all in play",
            synth=dict(
                n_clusters=5,
                edges_per_graph=24,
                attrs_per_graph=4,
                noise_attrs_per_graph=2,
                nodes_per_community=40,
            ),
            k=5,
            gamma=250,
        ),
        Workload(
            name="many-clusters",
            why="k=16 small graphs, refresh every 50: summary reads and weight "
            "refresh dominate, ingest is a small share",
            synth=dict(
                n_clusters=16,
                edges_per_graph=6,
                attrs_per_graph=3,
                noise_attrs_per_graph=1,
                nodes_per_community=20,
            ),
            k=16,
            gamma=50,
        ),
        Workload(
            name="wide-churn",
            why="k=2, p=1 over 8 classes, 60-edge graphs, noise keys beyond the "
            "digest cache, checkpoint+resume every 250: ingest, hashing, replacement",
            synth=dict(
                n_clusters=8,
                edges_per_graph=60,
                attrs_per_graph=12,
                noise_attrs_per_graph=12,
                nodes_per_community=3000,
                noise_types=(("tags", 1_000_000),),
            ),
            categorical=("tags",),
            k=2,
            gamma=250,
            # At p=3 an unrelated graph sits right at the spread of a
            # two-member cluster, so churn flips between ~2/3 replaced and
            # none depending on the seed; at p=1 it stays near 2/3.
            p=1.0,
            checkpoint_every=250,
        ),
    )
}


def class_sequence(n: int, n_classes: int, seed: int) -> list[int]:
    """Balanced class labels in a seeded random order."""
    classes = [i % n_classes for i in range(n)]
    random.Random(f"{seed}:benchmark-labels").shuffle(classes)
    return classes


def write_workload(w: Workload, seed: int, path: str, n_graphs: int) -> int:
    """Write one pass of ``n_graphs`` records; returns the record count."""
    cfg = w.synth_config(seed, n_graphs)
    classes = class_sequence(cfg.n_graphs, cfg.n_clusters, seed)
    graphs = (generate_graph(cfg, i, cls) for i, cls in enumerate(classes))
    return write_stream(path, w.schema(), graphs)


def measure_properties(w: Workload, path: str, actions: Counter) -> tuple[dict, dict]:
    """Key statistics of a canonicalized pass, and its labels.

    Distinct keys per component are compared with the digest cache size;
    ``actions`` is the action mix of one pass.
    """
    schema = w.schema()
    components = ["edges"] + [t.name for t in schema.side_types]
    distinct = {c: set() for c in components}
    keys_total = Counter()
    labels = {}
    graphs = 0
    for g in iter_stream(path):
        c = preprocess(g, schema)
        graphs += 1
        labels[c.id] = c.label
        distinct["edges"].update((s, t) for s, t, _ in c.edges)
        keys_total["edges"] += len(c.edges)
        for name, attrs in c.side.items():
            distinct[name].update(attrs)
            keys_total[name] += len(attrs)
    n_distinct = {c: len(keys) for c, keys in distinct.items()}
    total_distinct = sum(n_distinct.values())
    props = {
        "graphs_per_pass": graphs,
        "distinct_keys": n_distinct,
        "distinct_keys_total": total_distinct,
        "digest_cache_size": DIGEST_CACHE_SIZE,
        "distinct_over_digest_cache": total_distinct / DIGEST_CACHE_SIZE,
        "mean_keys_per_graph": {c: keys_total[c] / graphs for c in components},
        "action_mix": {a: n / graphs for a, n in sorted(actions.items())},
    }
    return props, labels
