"""Streaming engine: initialization, admission, replacement, checkpoints."""

import random
import struct

import numpy as np
import pytest

from sketchclust import (
    ACTION_ASSIGNED,
    ACTION_INITIALIZED,
    ACTION_REPLACED,
    AssignmentEvent,
    Engine,
    EngineConfig,
    GraphObject,
    SideType,
    SketchConfig,
    StreamSchema,
    SynthConfig,
    generate_graphs,
    preprocess,
    synth_schema,
)

SCHEMA = StreamSchema(side_types=(SideType("topics"),))


def _config(**kw) -> EngineConfig:
    kw.setdefault("k", 2)
    kw.setdefault("sketch", SketchConfig(rows=4, cols=256, seed=0))
    return EngineConfig(**kw)


def _graph(i: int, edges, topics=None) -> GraphObject:
    return GraphObject(id=f"g{i}", ts=i, edges=edges, side={"topics": topics or {}})


def test_engine_config_validation():
    with pytest.raises(ValueError):
        _config(k=1)
    with pytest.raises(ValueError):
        _config(gamma=0)
    with pytest.raises(ValueError):
        _config(p=0.0)
    with pytest.raises(ValueError):
        Engine(_config(), SCHEMA, backend="gpu")


def test_config_dict_round_trip():
    cfg = _config(k=3, gamma=10, p=2.0, optimize_weights=False)
    assert EngineConfig.from_dict(cfg.to_dict()) == cfg


def test_first_k_graphs_initialize():
    engine = Engine(_config(k=3), SCHEMA)
    events = engine.run([_graph(i, [("a", f"n{i}", 1.0)]) for i in range(3)])
    assert [e.action for e in events] == [ACTION_INITIALIZED] * 3
    assert [e.cluster_index for e in events] == [0, 1, 2]
    assert all(c.n == 1 for c in engine.clusters)


def test_near_graph_is_assigned():
    # singleton target: unconditional admit regardless of spread
    engine = Engine(_config(k=2, gamma=1000), SCHEMA)
    engine.run([_graph(0, [("a", "b", 1.0)]), _graph(1, [("x", "y", 9.0)])])
    event = engine.run([_graph(2, [("a", "b", 1.0)])])[0]
    assert event.action == ACTION_ASSIGNED
    assert event.cluster_index == 0
    assert engine.clusters[0].n == 2


def test_far_graph_replaces_stalest():
    engine = Engine(_config(k=2, gamma=1000), SCHEMA)
    # grow both clusters past the singleton bypass, leaving nonzero spread,
    # then send something far from both
    engine.run(
        [
            _graph(0, [("a", "b", 1.0)]),
            _graph(1, [("x", "y", 5.0)]),
            _graph(2, [("a", "b", 2.0)]),
            _graph(3, [("x", "y", 6.0)]),
            _graph(4, [("x", "y", 5.5)]),
        ]
    )
    assert [c.n for c in engine.clusters] == [2, 3]
    event = engine.run([_graph(5, [("q", "r", 50.0)])])[0]
    assert event.action == ACTION_REPLACED
    assert event.cluster_index == 0  # smallest t_last
    assert engine.clusters[0].n == 1
    assert event.es_distance_sq is not None and event.spread is not None
    assert event.es_distance_sq >= event.spread


def test_zero_spread_cluster_rejects_even_duplicates():
    # identical members leave spread 0; the strict comparison sends an
    # exact duplicate to replacement once no singleton is nearer
    engine = Engine(_config(k=2, gamma=1000), SCHEMA)
    engine.run(
        [
            _graph(0, [("x", "y", 5.0)]),
            _graph(1, [("a", "b", 1.0)]),
            _graph(2, [("x", "y", 5.0)]),
            _graph(3, [("a", "b", 2.0)]),
        ]
    )
    event = engine.run([_graph(4, [("x", "y", 5.0)])])[0]
    assert event.action == ACTION_REPLACED
    assert event.es_distance_sq == pytest.approx(0.0)
    assert event.spread == pytest.approx(0.0)


def test_replacement_picks_minimum_t_last():
    engine = Engine(_config(k=3, gamma=1000), SCHEMA)
    engine.run(
        [
            _graph(0, [("a", "b", 1.0)]),
            _graph(1, [("x", "y", 5.0)]),
            _graph(2, [("u", "v", 9.0)]),
            _graph(3, [("a", "b", 2.0)]),   # cluster 0, t_last 4
            _graph(4, [("x", "y", 6.0)]),   # cluster 1, t_last 5
            _graph(5, [("u", "v", 10.0)]),  # cluster 2, t_last 6
        ]
    )
    e1 = engine.run([_graph(6, [("q", "q2", 80.0)])])[0]
    assert (e1.action, e1.cluster_index) == (ACTION_REPLACED, 0)
    # fresh singleton at index 0 now has the newest t_last; next stalest
    # is cluster 1, and a graph near plain heavy edges lands there
    e2 = engine.run([_graph(7, [("z", "z2", 40.0)])])[0]
    assert (e2.action, e2.cluster_index) == (ACTION_REPLACED, 1)


def test_nearest_tie_breaks_to_lowest_index():
    engine = Engine(_config(k=2, gamma=1000), SCHEMA)
    engine.run([_graph(0, [("a", "b", 2.0)]), _graph(1, [("a", "b", 2.0)])])
    event = engine.run([_graph(2, [("a", "b", 2.0)])])[0]
    assert event.cluster_index == 0


def test_weights_refresh_only_on_gamma_boundary():
    cfg = SynthConfig(
        n_clusters=2,
        n_graphs=30,
        nodes_per_community=4,
        edges_per_graph=6,
        informative_types=(("topics", 1.0),),
        noise_types=(),
        attrs_per_graph=4,
        class_vocab=2,
        seed=3,
    )
    schema = synth_schema(cfg)
    graphs = generate_graphs(cfg)
    engine = Engine(
        EngineConfig(k=2, gamma=10, sketch=SketchConfig(rows=6, cols=512, seed=1)),
        schema,
    )
    seen: list[np.ndarray] = []
    for i, g in enumerate(graphs, start=1):
        engine.process(preprocess(g, schema))
        seen.append(engine.weights.copy())
        if i % 10 != 0 and i > 1:
            assert np.array_equal(seen[-1], seen[-2])
    assert not np.array_equal(seen[9], np.ones(2))


def test_optimize_weights_false_keeps_equal_weights():
    cfg = SynthConfig(n_clusters=2, n_graphs=40, seed=5)
    schema = synth_schema(cfg)
    engine = Engine(
        EngineConfig(
            k=2,
            gamma=5,
            optimize_weights=False,
            sketch=SketchConfig(rows=4, cols=128, seed=2),
        ),
        schema,
    )
    engine.run(generate_graphs(cfg))
    assert np.array_equal(engine.weights, np.ones(schema.d + 1))


def test_run_strict_and_lenient():
    engine = Engine(_config(), SCHEMA)
    bad = GraphObject(id="bad", side={"undeclared": {"x": 1.0}})
    with pytest.raises(ValueError):
        engine.run([bad])
    engine = Engine(_config(), SCHEMA)
    skipped: list[str] = []
    events = engine.run(
        [_graph(0, [("a", "b", 1.0)]), bad, _graph(1, [("c", "d", 1.0)])],
        strict=False,
        on_error=lambda gid, msg: skipped.append(gid),
    )
    assert [e.graph_id for e in events] == ["g0", "g1"]
    assert skipped == ["bad"]


def test_event_json_round_trip():
    event = AssignmentEvent("g1", ACTION_ASSIGNED, 2, 1.5, 2.5, [[0.1, 0.2]])
    import json

    again = AssignmentEvent.from_dict(json.loads(event.to_json()))
    assert again == event


def test_event_json_rejects_non_finite_distance():
    event = AssignmentEvent("g1", ACTION_ASSIGNED, 0, float("inf"), 2.5)
    with pytest.raises(ValueError):
        event.to_json()


def test_record_distances_attaches_matrix():
    engine = Engine(_config(k=2, gamma=1000), SCHEMA, record_distances=True)
    engine.run([_graph(0, [("a", "b", 1.0)]), _graph(1, [("x", "y", 3.0)])])
    event = engine.run([_graph(2, [("a", "b", 1.0)])])[0]
    assert event.distances is not None
    assert len(event.distances) == 2
    assert len(event.distances[0]) == SCHEMA.d + 1


def test_deterministic_rerun():
    cfg = SynthConfig(n_clusters=3, n_graphs=120, seed=9)
    schema = synth_schema(cfg)
    graphs = generate_graphs(cfg)

    def run_once() -> list[str]:
        engine = Engine(
            EngineConfig(k=3, gamma=25, sketch=SketchConfig(rows=5, cols=128, seed=4)),
            schema,
        )
        return [e.to_json() for e in engine.run(graphs)]

    assert run_once() == run_once()


def test_sketch_and_exact_agree_in_collision_free_regime():
    cfg = SynthConfig(
        n_clusters=3,
        n_graphs=150,
        nodes_per_community=5,
        edges_per_graph=4,
        attrs_per_graph=3,
        class_vocab=3,
        noise_types=(),
        seed=21,
    )
    schema = synth_schema(cfg)
    graphs = generate_graphs(cfg)
    sketch_engine = Engine(
        EngineConfig(k=3, gamma=50, sketch=SketchConfig(rows=8, cols=4096, seed=2)),
        schema,
        backend="sketch",
    )
    exact_engine = Engine(
        EngineConfig(k=3, gamma=50, sketch=SketchConfig(rows=8, cols=4096, seed=2)),
        schema,
        backend="exact",
    )
    sk_events = [e.to_json() for e in sketch_engine.run(graphs)]
    ex_events = [e.to_json() for e in exact_engine.run(graphs)]
    assert sk_events == ex_events


def test_checkpoint_round_trip(tmp_path):
    cfg = SynthConfig(n_clusters=3, n_graphs=90, seed=13)
    schema = synth_schema(cfg)
    graphs = generate_graphs(cfg)
    engine = Engine(
        EngineConfig(k=3, gamma=20, sketch=SketchConfig(rows=5, cols=128, seed=6)),
        schema,
    )
    engine.run(graphs[:60])
    path = str(tmp_path / "engine.bin")
    engine.save(path)
    resumed = Engine.load(path)
    assert resumed.config == engine.config
    assert resumed.schema == engine.schema
    assert resumed.backend == engine.backend
    assert resumed.graph_count == engine.graph_count
    assert np.array_equal(resumed.weights, engine.weights)
    assert resumed.to_bytes() == engine.to_bytes()

    # resuming must continue exactly like the uninterrupted run
    tail_a = [e.to_json() for e in engine.run(graphs[60:])]
    tail_b = [e.to_json() for e in resumed.run(graphs[60:])]
    assert tail_a == tail_b
    assert engine.to_bytes() == resumed.to_bytes()


def test_checkpoint_size_independent_of_stream_length():
    cfg = SynthConfig(n_clusters=3, n_graphs=400, seed=17)
    schema = synth_schema(cfg)
    graphs = generate_graphs(cfg)
    engine = Engine(
        EngineConfig(k=3, gamma=50, sketch=SketchConfig(rows=4, cols=64, seed=1)),
        schema,
    )
    engine.run(graphs[:100])
    size_small = len(engine.to_bytes())
    engine.run(graphs[100:])
    assert len(engine.to_bytes()) == size_small


def test_from_bytes_rejects_garbage():
    engine = Engine(_config(), SCHEMA)
    blob = bytearray(engine.to_bytes())
    blob[:4] = b"EVIL"
    with pytest.raises(ValueError):
        Engine.from_bytes(bytes(blob))


def _run_engine() -> Engine:
    engine = Engine(_config(), SCHEMA)
    engine.run([_graph(i, [("a", f"n{i % 3}", 1.0)], {"x": 1.0}) for i in range(6)])
    return engine


def test_from_bytes_rejects_trailing_bytes():
    blob = _run_engine().to_bytes()
    assert Engine.from_bytes(blob).to_bytes() == blob
    with pytest.raises(ValueError):
        Engine.from_bytes(blob + b"\0")


def test_from_bytes_rejects_non_finite_weights():
    engine = _run_engine()
    blob = bytearray(engine.to_bytes())
    (hlen,) = struct.unpack_from("<I", blob, 5)
    # magic, version, header length, header, graph count, weight count
    off = 4 + 1 + 4 + hlen + 8 + 4
    assert struct.unpack_from("<d", blob, off)[0] == engine.weights[0]
    struct.pack_into("<d", blob, off, float("inf"))
    with pytest.raises(ValueError):
        Engine.from_bytes(bytes(blob))
