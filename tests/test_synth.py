"""Synthetic stream generator: determinism, balance, planted structure."""

import collections
import re

import pytest

from reference import generate_graphs
from sketchclust import SynthConfig, preprocess, synth, synth_schema
from sketchclust.synth import MAX_FREQ, generate_graph, generate_stream
from sketchclust.stream_io import iter_stream, read_header


def test_generation_is_deterministic():
    cfg = SynthConfig(n_graphs=40, seed=7)
    assert generate_graphs(cfg) == generate_graphs(cfg)


def test_seed_changes_output():
    a = generate_graphs(SynthConfig(n_graphs=40, seed=0))
    b = generate_graphs(SynthConfig(n_graphs=40, seed=1))
    assert a != b


def test_stream_files_are_byte_identical(tmp_path):
    cfg = SynthConfig(n_graphs=25, seed=3)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    n1 = generate_stream(cfg, str(p1))
    n2 = generate_stream(cfg, str(p2))
    assert n1 == n2 == 25
    assert p1.read_bytes() == p2.read_bytes()


def test_stream_round_trip_matches_in_memory(tmp_path):
    cfg = SynthConfig(n_graphs=15, seed=5)
    path = tmp_path / "s.jsonl"
    generate_stream(cfg, str(path))
    schema, graphs = read_header(str(path)), list(iter_stream(str(path)))
    assert schema == synth_schema(cfg)
    # the reader yields edges as decoded JSON arrays: compare canonical forms
    canonical = [preprocess(g, schema) for g in graphs]
    assert canonical == [preprocess(g, schema) for g in generate_graphs(cfg)]


def test_generate_stream_makes_each_graph_as_it_is_written(tmp_path, monkeypatch):
    """The writer is handed graphs one at a time, so a stream of any length
    is written in the memory of one graph."""
    made, seen = [], []
    real = synth.generate_graph
    monkeypatch.setattr(synth, "generate_graph", lambda *a: made.append(a[1]) or real(*a))

    def write(path, schema, graphs):
        seen.extend(len(made) for _ in graphs)  # graphs made when each is written
        return len(seen)

    monkeypatch.setattr(synth, "write_stream", write)
    assert generate_stream(SynthConfig(n_graphs=5), str(tmp_path / "s.jsonl")) == 5
    assert seen == [1, 2, 3, 4, 5]


def test_labels_are_balanced():
    cfg = SynthConfig(n_clusters=4, n_graphs=200, seed=2)
    counts = collections.Counter(g.label for g in generate_graphs(cfg))
    assert counts == {f"k{c}": 50 for c in range(4)}


def test_label_balance_with_remainder():
    cfg = SynthConfig(n_clusters=3, n_graphs=20, seed=2)
    counts = collections.Counter(g.label for g in generate_graphs(cfg))
    assert sum(counts.values()) == 20
    assert max(counts.values()) - min(counts.values()) <= 1


def test_pure_graphs_stay_inside_their_community():
    cfg = SynthConfig(
        n_clusters=3,
        n_graphs=30,
        cross_edge_rate=0.0,
        informative_types=(("topics", 1.0),),
        noise_types=(),
        seed=4,
    )
    for g in generate_graphs(cfg):
        cls = int(g.label[1:])
        for src, dst, freq in g.edges:
            assert src.startswith(f"c{cls}n")
            assert dst.startswith(f"c{cls}n")
            assert 1.0 <= freq <= MAX_FREQ and freq == int(freq)
        assert len(g.edges) == cfg.edges_per_graph
        for token in g.side["topics"]:
            assert token.startswith(f"topics:c{cls}:v")


def test_shared_communities_follow_class_modulo():
    cfg = SynthConfig(
        n_clusters=4, n_communities=2, n_graphs=40, cross_edge_rate=0.0, seed=6
    )
    for g in generate_graphs(cfg):
        comm = int(g.label[1:]) % 2
        for src, dst, _ in g.edges:
            assert src.startswith(f"c{comm}n")
            assert dst.startswith(f"c{comm}n")


def test_single_community_mixes_all_classes():
    cfg = SynthConfig(n_clusters=3, n_communities=1, n_graphs=30, seed=8)
    for g in generate_graphs(cfg):
        for src, dst, _ in g.edges:
            assert src.startswith("c0n")
            assert dst.startswith("c0n")


def test_cross_edges_leave_the_community():
    cfg = SynthConfig(
        n_clusters=2, n_graphs=60, cross_edge_rate=1.0, edges_per_graph=6, seed=9
    )
    crossing = 0
    for g in generate_graphs(cfg):
        comm = int(g.label[1:])
        for src, dst, _ in g.edges:
            assert src.startswith(f"c{comm}n")
            if not dst.startswith(f"c{comm}n"):
                crossing += 1
    assert crossing == 60 * 6


def test_noise_tokens_ignore_class():
    cfg = SynthConfig(
        n_clusters=2, n_graphs=50, noise_types=(("tags", 7),), seed=10
    )
    pattern = re.compile(r"tags:x([0-6])$")
    for g in generate_graphs(cfg):
        assert sum(g.side["tags"].values()) == cfg.attrs_per_graph
        for token in g.side["tags"]:
            assert pattern.match(token)


def test_noise_attr_budget_is_separate():
    cfg = SynthConfig(n_graphs=10, attrs_per_graph=4, noise_attrs_per_graph=9, seed=1)
    for g in generate_graphs(cfg):
        assert sum(g.side["topics"].values()) == 4
        assert sum(g.side["tags"].values()) == 9


def test_zero_attr_budgets_drop_side_entries():
    cfg = SynthConfig(n_graphs=5, attrs_per_graph=0, noise_attrs_per_graph=0, seed=1)
    for g in generate_graphs(cfg):
        assert g.side == {}


def test_schema_lists_all_side_types_undirected():
    cfg = SynthConfig(noise_types=(("tags", 5), ("junk", 9)))
    schema = synth_schema(cfg)
    assert [t.name for t in schema.side_types] == ["topics", "tags", "junk"]
    assert not schema.directed


def test_graph_ids_follow_index():
    cfg = SynthConfig(n_graphs=3, seed=0)
    graphs = generate_graphs(cfg)
    assert [g.id for g in graphs] == ["g000000", "g000001", "g000002"]


def test_single_graph_depends_only_on_seed_and_index():
    cfg_small = SynthConfig(n_graphs=10, seed=12)
    cfg_large = SynthConfig(n_graphs=1000, seed=12)
    assert generate_graph(cfg_small, 4, 1) == generate_graph(cfg_large, 4, 1)


@pytest.mark.parametrize(
    "kw",
    [
        dict(n_clusters=0),
        dict(n_graphs=-1),
        dict(nodes_per_community=1),
        dict(edges_per_graph=-1),
        dict(attrs_per_graph=-2),
        dict(noise_attrs_per_graph=-1),
        dict(cross_edge_rate=1.5),
        dict(informative_types=(("topics", -0.1),)),
        dict(noise_types=(("tags", 0),)),
        dict(n_communities=0),
        dict(n_communities=9),
        dict(informative_types=(("dup", 0.5),), noise_types=(("dup", 3),)),
        dict(class_vocab=0),
    ],
)
def test_config_validation(kw):
    with pytest.raises(ValueError):
        SynthConfig(**kw)
