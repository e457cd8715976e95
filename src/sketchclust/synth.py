"""Labeled synthetic graph streams with planted structure.

Each class maps to a node community and, per informative side type, owns a
private vocabulary. A graph of class c draws edges inside its community
(leaking to another community with probability ``cross_edge_rate``) and
attribute tokens from c's vocabulary with the type's fidelity (otherwise
from some other class's vocabulary). Noise types draw uniformly from one
shared vocabulary regardless of class. With ``n_communities`` below
``n_clusters``, several classes share a community and only attributes can
tell them apart. Edge frequencies and attribute values are small integers,
so downstream float arithmetic on them is exact.

Generation is deterministic: graph i depends only on (seed, i), so a
config reproduces byte-identical stream files on every run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .model import GraphObject, SideType, StreamSchema
from .stream_io import write_stream

MAX_FREQ = 3  # edge frequencies are drawn from 1..MAX_FREQ


@dataclass(frozen=True)
class SynthConfig:
    n_clusters: int = 4
    n_graphs: int = 2000
    nodes_per_community: int = 30
    edges_per_graph: int = 8
    informative_types: tuple[tuple[str, float], ...] = (("topics", 0.9),)
    noise_types: tuple[tuple[str, int], ...] = (("tags", 150),)
    cross_edge_rate: float = 0.3
    attrs_per_graph: int = 5
    noise_attrs_per_graph: int | None = None
    class_vocab: int = 12
    n_communities: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        if self.n_communities is not None and not (
            1 <= self.n_communities <= self.n_clusters
        ):
            raise ValueError("n_communities must lie in [1, n_clusters]")
        if self.n_graphs < 0:
            raise ValueError("n_graphs must be >= 0")
        if self.nodes_per_community < 2:
            raise ValueError("nodes_per_community must be >= 2")
        if self.edges_per_graph < 0 or self.attrs_per_graph < 0:
            raise ValueError("per-graph sizes must be >= 0")
        if self.noise_attrs_per_graph is not None and self.noise_attrs_per_graph < 0:
            raise ValueError("noise_attrs_per_graph must be >= 0")
        if not 0.0 <= self.cross_edge_rate <= 1.0:
            raise ValueError("cross_edge_rate must lie in [0, 1]")
        for name, fidelity in self.informative_types:
            if not 0.0 <= fidelity <= 1.0:
                raise ValueError(f"fidelity of {name!r} must lie in [0, 1]")
        for name, vocab in self.noise_types:
            if vocab < 1:
                raise ValueError(f"vocabulary of {name!r} must be >= 1")
        if self.class_vocab < 1:
            raise ValueError("class_vocab must be >= 1")
        names = [n for n, _ in self.informative_types] + [
            n for n, _ in self.noise_types
        ]
        if len(set(names)) != len(names):
            raise ValueError("side type names must be unique")


def synth_schema(cfg: SynthConfig) -> StreamSchema:
    types = [SideType(name, "numeric") for name, _ in cfg.informative_types]
    types += [SideType(name, "numeric") for name, _ in cfg.noise_types]
    return StreamSchema(side_types=tuple(types), directed=False)


def _class_sequence(cfg: SynthConfig) -> list[int]:
    # Round-robin base guarantees balance; a seeded shuffle hides the order.
    classes = [i % cfg.n_clusters for i in range(cfg.n_graphs)]
    random.Random(f"{cfg.seed}:labels").shuffle(classes)
    return classes


def _node(cls_id: int, idx: int) -> str:
    return f"c{cls_id}n{idx}"


def generate_graph(cfg: SynthConfig, index: int, cls_id: int) -> GraphObject:
    rng = random.Random(f"{cfg.seed}:{index}")
    nodes = cfg.nodes_per_community
    n_comm = cfg.n_communities if cfg.n_communities is not None else cfg.n_clusters
    comm = cls_id % n_comm

    edges = []
    for _ in range(cfg.edges_per_graph):
        src = _node(comm, rng.randrange(nodes))
        if n_comm > 1 and rng.random() < cfg.cross_edge_rate:
            other = rng.randrange(n_comm - 1)
            if other >= comm:
                other += 1
            dst = _node(other, rng.randrange(nodes))
        else:
            dst = _node(comm, rng.randrange(nodes))
            for _ in range(4):
                if dst != src:
                    break
                dst = _node(comm, rng.randrange(nodes))
        edges.append((src, dst, float(rng.randint(1, MAX_FREQ))))

    side: dict[str, dict[str, float]] = {}
    for name, fidelity in cfg.informative_types:
        attrs: dict[str, float] = {}
        for _ in range(cfg.attrs_per_graph):
            if cfg.n_clusters > 1 and rng.random() >= fidelity:
                vocab_cls = rng.randrange(cfg.n_clusters - 1)
                if vocab_cls >= cls_id:
                    vocab_cls += 1
            else:
                vocab_cls = cls_id
            token = f"{name}:c{vocab_cls}:v{rng.randrange(cfg.class_vocab)}"
            attrs[token] = attrs.get(token, 0.0) + 1.0
        if attrs:
            side[name] = attrs
    noise_draws = (
        cfg.attrs_per_graph
        if cfg.noise_attrs_per_graph is None
        else cfg.noise_attrs_per_graph
    )
    for name, vocab in cfg.noise_types:
        attrs = {}
        for _ in range(noise_draws):
            token = f"{name}:x{rng.randrange(vocab)}"
            attrs[token] = attrs.get(token, 0.0) + 1.0
        if attrs:
            side[name] = attrs

    return GraphObject(
        id=f"g{index:06d}", ts=index, edges=edges, side=side, label=f"k{cls_id}"
    )


def _graphs(cfg: SynthConfig) -> Iterator[GraphObject]:
    """The config's graphs in stream order, each made as it is asked for."""
    return (generate_graph(cfg, i, cls) for i, cls in enumerate(_class_sequence(cfg)))


def generate_stream(cfg: SynthConfig, path: str) -> int:
    """Write a stream file for the config, each graph as it is made, so
    memory stays flat in the graph count; returns the record count."""
    return write_stream(path, synth_schema(cfg), _graphs(cfg))
