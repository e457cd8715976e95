"""Streaming engine: initialization, admission, replacement, checkpoints."""

import copy
import hashlib
import json
import math
import random
import struct
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import SCHEMA, distances, generate_graphs, graph, process_all
from sketchclust import (
    ACTION_ASSIGNED,
    ACTION_INITIALIZED,
    ACTION_REPLACED,
    AssignmentEvent,
    BarrierConfig,
    Engine,
    EngineConfig,
    GraphObject,
    SideType,
    SketchConfig,
    StreamSchema,
    SynthConfig,
    graph_views,
    preprocess,
    synth_schema,
    write_stream,
)
from sketchclust.engine import _VERSION, _Header
from sketchclust.model import from_json
from sketchclust.native import kernel
from sketchclust.stats import Bank


def _config(**kw) -> EngineConfig:
    kw.setdefault("k", 2)
    kw.setdefault("sketch", SketchConfig(rows=4, cols=256, seed=0))
    return EngineConfig(**kw)


def test_engine_config_validation():
    with pytest.raises(ValueError):
        _config(k=1)
    with pytest.raises(ValueError):
        _config(gamma=-1)
    with pytest.raises(ValueError):
        _config(p=0.0)
    with pytest.raises(ValueError):
        _config(p=float("inf"))
    with pytest.raises(ValueError):
        Engine(_config(), SCHEMA, backend="gpu")


def test_config_dict_round_trip():
    cfg = _config(k=3, gamma=0, p=2.0)
    assert EngineConfig.from_dict(cfg.to_dict()) == cfg
    # a field left out takes the dataclass default; an unknown one is an error
    assert EngineConfig.from_dict({"k": 3}) == EngineConfig(k=3)
    with pytest.raises(ValueError, match="unknown EngineConfig fields"):
        EngineConfig.from_dict({"k": 3, "gama": 5})


def test_from_json_keeps_an_integer_given_for_a_float():
    # kept as decoded, so a resumed engine writes the header it read
    config = EngineConfig.from_dict({"k": 3, "p": 1, "barrier": {"max_steps": 5}})
    assert config == EngineConfig(k=3, p=1.0, barrier=BarrierConfig(max_steps=5))
    assert type(config.p) is int


def _json_sample(cls):
    """A valid decoded JSON object for each class ``from_json`` builds."""
    schema = StreamSchema((SideType("topics", "categorical"),), directed=True)
    config = EngineConfig(k=3)
    instance = {
        EngineConfig: config,
        SketchConfig: config.sketch,
        BarrierConfig: config.barrier,
        StreamSchema: schema,
        SideType: schema.side_types[0],
        _Header: _Header("exact", config, schema, record_distances=True),
        AssignmentEvent: AssignmentEvent("g1", ACTION_ASSIGNED, 0, 1.5, 2.5, [[0.1, 0.2]]),
    }[cls]
    return instance, json.loads(json.dumps(asdict(instance)))


@pytest.mark.parametrize(
    "cls",
    [EngineConfig, SketchConfig, BarrierConfig, StreamSchema, SideType, _Header, AssignmentEvent],
    ids=lambda cls: cls.__name__,
)
def test_from_json_rejects_a_wrong_type_in_every_field_and_unknown_keys(cls):
    instance, sample = _json_sample(cls)
    assert from_json(cls, sample) == instance
    for f in fields(cls):
        valid = sample[f.name]
        if isinstance(valid, str):
            wrong = [7, True]
        elif isinstance(valid, bool):
            wrong = ["x", 1]
        elif isinstance(valid, int):
            wrong = ["x", True, 1.5]
        else:
            wrong = ["x", True]
        for value in wrong:
            with pytest.raises(ValueError, match=rf"^{cls.__name__}\.{f.name}: "):
                from_json(cls, {**sample, f.name: value})
    with pytest.raises(ValueError, match=f"unknown {cls.__name__} fields"):
        from_json(cls, {**sample, "unknown_key": 0})


def test_first_k_graphs_initialize():
    engine = Engine(_config(k=3), SCHEMA)
    events = process_all(engine, [graph(i, [("a", f"n{i}", 1.0)]) for i in range(3)])
    assert [e.action for e in events] == [ACTION_INITIALIZED] * 3
    assert [e.cluster_index for e in events] == [0, 1, 2]
    assert engine.bank.n.tolist() == [1, 1, 1]


def test_near_graph_is_assigned():
    # singleton target: unconditional admit regardless of spread
    engine = Engine(_config(k=2, gamma=1000), SCHEMA)
    process_all(engine, [graph(0, [("a", "b", 1.0)]), graph(1, [("x", "y", 9.0)])])
    event = process_all(engine, [graph(2, [("a", "b", 1.0)])])[0]
    assert event.action == ACTION_ASSIGNED
    assert event.cluster_index == 0
    assert engine.bank.n[0] == 2


def test_far_graph_replaces_stalest():
    engine = Engine(_config(k=2, gamma=1000), SCHEMA)
    # grow both clusters past the singleton bypass, leaving nonzero spread,
    # then send something far from both
    process_all(
        engine,
        [
            graph(0, [("a", "b", 1.0)]),
            graph(1, [("x", "y", 5.0)]),
            graph(2, [("a", "b", 2.0)]),
            graph(3, [("x", "y", 6.0)]),
            graph(4, [("x", "y", 5.5)]),
        ]
    )
    assert engine.bank.n.tolist() == [2, 3]
    event = process_all(engine, [graph(5, [("q", "r", 50.0)])])[0]
    assert event.action == ACTION_REPLACED
    assert event.cluster_index == 0  # smallest t_last
    assert engine.bank.n[0] == 1
    assert event.es_distance_sq is not None and event.spread is not None
    assert event.es_distance_sq >= event.spread


def test_zero_spread_cluster_rejects_even_duplicates():
    # identical members leave spread 0; the strict comparison sends an
    # exact duplicate to replacement once no singleton is nearer
    engine = Engine(_config(k=2, gamma=1000), SCHEMA)
    process_all(
        engine,
        [
            graph(0, [("x", "y", 5.0)]),
            graph(1, [("a", "b", 1.0)]),
            graph(2, [("x", "y", 5.0)]),
            graph(3, [("a", "b", 2.0)]),
        ]
    )
    event = process_all(engine, [graph(4, [("x", "y", 5.0)])])[0]
    assert event.action == ACTION_REPLACED
    assert event.es_distance_sq == pytest.approx(0.0)
    assert event.spread == pytest.approx(0.0)


def test_replacement_picks_minimum_t_last():
    engine = Engine(_config(k=3, gamma=1000), SCHEMA)
    process_all(
        engine,
        [
            graph(0, [("a", "b", 1.0)]),
            graph(1, [("x", "y", 5.0)]),
            graph(2, [("u", "v", 9.0)]),
            graph(3, [("a", "b", 2.0)]),   # cluster 0, t_last 4
            graph(4, [("x", "y", 6.0)]),   # cluster 1, t_last 5
            graph(5, [("u", "v", 10.0)]),  # cluster 2, t_last 6
        ]
    )
    e1 = process_all(engine, [graph(6, [("q", "q2", 80.0)])])[0]
    assert (e1.action, e1.cluster_index) == (ACTION_REPLACED, 0)
    # fresh singleton at index 0 now has the newest t_last; next stalest
    # is cluster 1, and a graph near plain heavy edges lands there
    e2 = process_all(engine, [graph(7, [("z", "z2", 40.0)])])[0]
    assert (e2.action, e2.cluster_index) == (ACTION_REPLACED, 1)


def test_nearest_tie_breaks_to_lowest_index():
    engine = Engine(_config(k=2, gamma=1000), SCHEMA)
    process_all(engine, [graph(0, [("a", "b", 2.0)]), graph(1, [("a", "b", 2.0)])])
    event = process_all(engine, [graph(2, [("a", "b", 2.0)])])[0]
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


def test_gamma_0_keeps_equal_weights():
    cfg = SynthConfig(n_clusters=2, n_graphs=40, seed=5)
    schema = synth_schema(cfg)
    engine = Engine(
        EngineConfig(
            k=2,
            gamma=0,
            sketch=SketchConfig(rows=4, cols=128, seed=2),
        ),
        schema,
    )
    process_all(engine, generate_graphs(cfg))
    assert np.array_equal(engine.weights, np.ones(schema.d + 1))


def _check_rejected(bad: GraphObject, match: str) -> None:
    """A run over g0, ``bad``, g1 stops at ``bad`` with a ValueError from
    ``preprocess``, before the engine sees it. Going on past it, as
    ``--lenient`` does, leaves the engine as a run without it would."""
    g0, g1 = graph(0, [("a", "b", 1.0)]), graph(1, [("c", "d", 1.0)])
    engine = Engine(_config(), SCHEMA)
    with pytest.raises(ValueError, match=match):
        process_all(engine, [g0, bad, g1])
    assert engine.graph_count == 1
    process_all(engine, [g1])
    clean = Engine(_config(), SCHEMA)
    process_all(clean, [g0, g1])
    assert engine.to_bytes() == clean.to_bytes()
    assert Engine.from_bytes(engine.to_bytes()).graph_count == 2


def test_run_strict_and_lenient():
    bad = GraphObject(id="bad", side={"undeclared": {"x": 1.0}})
    _check_rejected(bad, "side type 'undeclared' not declared in schema")


@pytest.mark.parametrize("where", ["edge", "side"])
def test_run_skips_a_mass_beyond_float_range(where):
    if where == "edge":
        huge = GraphObject(id="g9", edges=[("a", "b", 10**400)])
    else:
        side = {"topics": {"x": 10**400}}
        huge = GraphObject(id="g9", edges=[("a", "b", 1.0)], side=side)
    _check_rejected(huge, "must be finite")


@pytest.mark.parametrize(
    "edges, side",
    [
        ([("a", "b", 1e200)], {}),
        ([("a", "b", 1e308), ("b", "a", 1e308)], {}),
        ([("a", "b", 1e154), ("c", "d", 1e154)], {}),
        ([("a", "b", 1.0)], {"x": 1e200}),
    ],
    ids=["square", "merged_sum", "sum_of_squares", "side"],
)
def test_run_skips_a_mass_whose_square_overflows(edges, side):
    bad = GraphObject(id="g9", edges=edges, side={"topics": side})
    _check_rejected(bad, "must have a finite sum of squares")


def test_a_mass_whose_square_stays_finite_is_kept():
    # 1e154 squares to 1e308, just inside float range
    engine = Engine(_config(), SCHEMA)
    (event,) = process_all(engine, [graph(0, [("a", "b", 1e154)], {"x": 1e154})])
    assert event.graph_id == "g0"


def test_event_json_round_trip():
    event = AssignmentEvent("g1", ACTION_ASSIGNED, 2, 1.5, 2.5, [[0.1, 0.2]])
    again = AssignmentEvent.from_dict(json.loads(event.to_json()))
    assert again == event


_EVENT = {"graph_id": "g1", "action": ACTION_ASSIGNED, "cluster_index": 0}

_EVENT_FAULTS = {
    "array": [],
    "string": "g1",
    "no_graph_id": {"action": ACTION_ASSIGNED, "cluster_index": 0},
    "int_graph_id": {**_EVENT, "graph_id": 7},
    "null_action": {**_EVENT, "action": None},
    "string_index": {**_EVENT, "cluster_index": "x"},
    "float_index": {**_EVENT, "cluster_index": 1.0},
    "bool_index": {**_EVENT, "cluster_index": True},
    "negative_index": {**_EVENT, "cluster_index": -1},
    "string_distance": {**_EVENT, "es_distance_sq": "0.5"},
    "list_spread": {**_EVENT, "spread": [1.0]},
    "flat_distances": {**_EVENT, "distances": [1.0, 2.0]},
    "string_in_distances": {**_EVENT, "distances": [["1.0"]]},
}


@pytest.mark.parametrize("fault", sorted(_EVENT_FAULTS))
def test_event_from_dict_rejects_malformed_records(fault):
    with pytest.raises(ValueError):
        AssignmentEvent.from_dict(_EVENT_FAULTS[fault])


def test_event_json_rejects_non_finite_distance():
    event = AssignmentEvent("g1", ACTION_ASSIGNED, 0, float("inf"), 2.5)
    with pytest.raises(ValueError):
        event.to_json()


# Characters json escapes: quotes, backslashes, control characters,
# non-ASCII and lone surrogates (which no UTF-8 stream carries, but a str can).
_ID_CHARS = st.one_of(
    st.characters(),
    st.characters(codec=None, categories=["Cs"]),
    st.sampled_from('"\\/\x00\x1f\x7f\u2028\xe9\U0001f600'),
)
_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308])
# what a float field can hold: floats (non-finite ones too), an int as
# ``from_dict`` keeps it, or None
_NUMBERS = st.one_of(st.floats(), _EDGE_FLOATS, st.integers(), st.none())


@given(
    graph_id=st.text(_ID_CHARS),
    action=st.one_of(st.sampled_from([ACTION_INITIALIZED, ACTION_ASSIGNED, ACTION_REPLACED]),
                     st.text(_ID_CHARS)),
    cluster_index=st.integers(min_value=0),
    es_distance_sq=_NUMBERS,
    spread=_NUMBERS,
    distances=st.none() | st.lists(st.lists(st.floats() | _EDGE_FLOATS | st.integers())),
)
def test_event_json_is_json_dumps_of_its_dict(
    graph_id, action, cluster_index, es_distance_sq, spread, distances
):
    event = AssignmentEvent(graph_id, action, cluster_index, es_distance_sq, spread, distances)
    try:
        present = {k: v for k, v in asdict(event).items() if k != "distances" or v is not None}
        expected = json.dumps(present, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # a non-finite value
        with pytest.raises(ValueError, match=str(exc)):
            event.to_json()
    else:
        assert event.to_json() == expected


@pytest.mark.parametrize("field", ["es_distance_sq", "spread", "distances"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_event_json_rejects_each_non_finite_value(field, value):
    event = AssignmentEvent("g1", ACTION_ASSIGNED, 0, 1.0, 2.0, [[0.5, 1.5]])
    setattr(event, field, [[0.5, value]] if field == "distances" else value)
    with pytest.raises(ValueError, match="not JSON compliant"):
        event.to_json()


def test_record_distances_attaches_matrix():
    engine = Engine(_config(k=2, gamma=1000), SCHEMA, record_distances=True)
    process_all(engine, [graph(0, [("a", "b", 1.0)]), graph(1, [("x", "y", 3.0)])])
    event = process_all(engine, [graph(2, [("a", "b", 1.0)])])[0]
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
        return [e.to_json() for e in process_all(engine, graphs)]

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
    sk_events = [e.to_json() for e in process_all(sketch_engine, graphs)]
    ex_events = [e.to_json() for e in process_all(exact_engine, graphs)]
    assert sk_events == ex_events


def test_checkpoint_round_trip(tmp_path):
    cfg = SynthConfig(n_clusters=3, n_graphs=90, seed=13)
    schema = synth_schema(cfg)
    graphs = generate_graphs(cfg)
    engine = Engine(
        EngineConfig(k=3, gamma=20, sketch=SketchConfig(rows=5, cols=128, seed=6)),
        schema,
    )
    process_all(engine, graphs[:60])
    path = tmp_path / "engine.bin"
    path.write_bytes(engine.to_bytes())
    resumed = Engine.from_bytes(path.read_bytes())
    assert resumed.config == engine.config
    assert resumed.schema == engine.schema
    assert resumed.backend == engine.backend
    assert resumed.graph_count == engine.graph_count
    assert np.array_equal(resumed.weights, engine.weights)
    assert resumed.bank.config is resumed.config.sketch
    assert resumed.to_bytes() == engine.to_bytes()

    # resuming must continue exactly like the uninterrupted run
    tail_a = [e.to_json() for e in process_all(engine, graphs[60:])]
    tail_b = [e.to_json() for e in process_all(resumed, graphs[60:])]
    assert tail_a == tail_b
    assert engine.to_bytes() == resumed.to_bytes()


def _same(a, b) -> bool:
    """Whether two attribute values are equal: arrays and floats bit for
    bit, containers item by item in order, banks attribute for attribute."""
    if isinstance(a, np.ndarray):
        return (
            isinstance(b, np.ndarray)
            and (a.dtype, a.shape) == (b.dtype, b.shape)
            and a.tobytes() == b.tobytes()
        )
    if isinstance(a, Bank):
        return type(a) is type(b) and _same(vars(a), vars(b))
    if isinstance(a, dict):
        return isinstance(b, dict) and list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float):
        return isinstance(b, float) and a.hex() == b.hex()
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("n_graphs", [3, 10], ids=["m<k", "m==k"])
@pytest.mark.parametrize("backend", ["sketch", "exact"])
def test_from_bytes_restores_every_attribute(backend, n_graphs):
    """A resumed engine and its bank hold exactly what was saved and
    nothing else: state the checkpoint does not restore (a cache filled by
    a refresh, say) would show here as an attribute that differs. Deciding
    a graph's route, while the bank fills or once it is full, writes
    nothing: no checkpoint byte and no self product."""
    records: list[dict] = []
    engine = Engine(_config(k=4, gamma=2), SCHEMA, backend, trace=records.append)
    process_all(
        engine,
        [graph(i, [("a", f"n{i % 5}", 1.0 + i % 3)], {"x": 1.0 + i % 2}) for i in range(n_graphs)],
    )
    assert len(engine.bank) == min(n_graphs, 4)
    before = (engine.to_bytes(), engine.bank.self_sq.tobytes())
    routes = {
        engine._decide(graph_views(g, SCHEMA))[:2]
        for g in (graph(n_graphs, [("a", "n0", 1.0)], {"x": 1.0}), graph(99, [("p", "q", 9.0)]))
    }
    full = {(ACTION_ASSIGNED, 0), (ACTION_REPLACED, int(engine.bank.t_last.argmin()))}
    assert routes == ({(ACTION_INITIALIZED, 3)} if n_graphs < 4 else full)
    assert (engine.to_bytes(), engine.bank.self_sq.tobytes()) == before
    assert any("final_weights" in record for record in records)  # refreshed
    resumed = Engine.from_bytes(engine.to_bytes(), trace=records.append)
    assert vars(resumed).keys() == vars(engine).keys()
    assert vars(resumed.bank).keys() == vars(engine.bank).keys()
    bank, loaded = vars(engine.bank), vars(resumed.bank)
    assert [n for n in bank if not _same(bank[n], loaded[n])] == []
    assert [n for n in vars(engine) if not _same(vars(engine)[n], vars(resumed)[n])] == []


@pytest.mark.parametrize("backend", ["sketch", "exact"])
def test_an_update_that_would_overflow_the_second_moments_changes_nothing(backend):
    """Graphs of one edge on keys a, b, a, masses ``1.3e154``, ``1e154`` and
    ``0.5e154``: the third lies a finite ``0.64e308`` from the first's
    singleton cluster and joins it, which would take that slot's second
    moment to ``1.94e308`` and its self product to ``3.24e308``, past float
    range, a state no checkpoint loads. ``process`` rejects it first, by the
    self product, which bounds the second moment, and the engine is left as
    it was and still round-trips. So it is by a graph that was not
    preprocessed and holds an endpoint that is no str, which
    ``graph_views`` rejects with TypeError."""
    engine = Engine(_config(k=2), SCHEMA, backend)
    edges = [("a", 1.3e154), ("b", 1e154), ("a", 0.5e154)]
    graphs = [graph(i, [(key, "z", mass)]) for i, (key, mass) in enumerate(edges)]
    process_all(engine, graphs[:2])
    view = graph_views(graphs[2], SCHEMA)
    assert distances(engine.bank, view)[0, 0] == pytest.approx(0.64e308)
    before = copy.deepcopy(engine.bank)
    rejected = [
        (graphs[2], ValueError, "slot 0's self product would not be finite"),
        (GraphObject("g3", [("a", 3, 1.0)]), TypeError, "edge endpoints must be str"),
    ]
    for g, error, match in rejected:
        with np.errstate(over="ignore"):
            with pytest.raises(error, match=match):
                engine.process(g)
        assert engine.graph_count == 2
        assert _same(engine.bank, before)
    blob = engine.to_bytes()
    assert Engine.from_bytes(blob).to_bytes() == blob


def _one_edge(i: int, key: str, mass: float) -> GraphObject:
    """Graph ``g{i}`` of one edge ``key-z``, preprocessed for an empty schema."""
    return preprocess(GraphObject(f"g{i}", [(key, "z", mass)]), StreamSchema())


@pytest.mark.parametrize("backend", ["sketch", "exact"])
def test_a_graph_whose_distance_overflows_is_rejected_before_its_update(backend):
    """Slot 0 holds 56 graphs of edge x-z, masses ``1.5e152`` and ``0.5e152``
    in turn, slot 1 the other 45 graphs of the stream. A graph of x-z at
    ``1.3e154`` lies ``1.654e308`` from slot 0's centroid, finite and far
    above its spread, but the cross term ``2 * cross`` overflows; clamped,
    it read as 0.0 and the graph was assigned. ``process`` raises before
    any update, and the engine still round-trips."""
    engine = Engine(_config(k=2, gamma=10**6), StreamSchema(), backend)
    masses = [0.5e152, 1.0] + [(1.5e152, 0.5e152)[i % 2] for i in range(99)]
    keys = ["x", "y"] + ["x"] * 99
    for i, (key, mass) in enumerate(zip(keys, masses)):
        engine.process(_one_edge(i, key, mass))
    assert engine.bank.n.tolist() == [56, 45]
    before = engine.to_bytes()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="a squared distance is not finite"):
            engine.process(_one_edge(101, "x", 1.3e154))
    assert engine.to_bytes() == before
    assert Engine.from_bytes(before).to_bytes() == before


@pytest.mark.parametrize("backend", ["sketch", "exact"])
def test_a_graph_that_would_overflow_a_self_product_is_rejected_before_its_update(backend):
    """The stream above, run on: x-z at ``0.5e152``, y-z at ``1.0``, then
    x-z at ``1.5e152`` and ``0.5e152`` in turn. Graph 176 would join slot 0
    as its 94th member, taking its mass from ``1.335e154`` to ``1.350e154``
    and its self product past float range, with its second moment at
    ``2e306``. That self product once became inf, and every later graph
    raised at its distance; ``process`` now rejects graph 176 before its
    update, and the engine still round-trips."""
    engine = Engine(_config(k=2, gamma=10**6), StreamSchema(), backend)
    masses = [0.5e152, 1.0] + [(1.5e152, 0.5e152)[i % 2] for i in range(174)]
    keys = ["x", "y"] + ["x"] * 174
    for i, (key, mass) in enumerate(zip(keys, masses)):
        engine.process(_one_edge(i, key, mass))
        assert np.isfinite(engine.bank.self_sq).all()
    assert engine.bank.n.tolist() == [93, 83]
    assert engine.bank.self_sq[0, 0] == pytest.approx(1.335e154**2)
    before = engine.to_bytes()
    with pytest.raises(ValueError, match="slot 0's self product would not be finite"):
        engine.process(_one_edge(176, "x", 1.5e152))
    assert engine.to_bytes() == before
    assert Engine.from_bytes(before).to_bytes() == before


@pytest.mark.parametrize("backend", ["sketch", "exact"])
def test_a_refresh_whose_geometry_overflows_raises_after_the_update(backend):
    """Two singleton slots of edge x-z, masses ``1.3e154`` and ``1.2e154``:
    their centroids lie ``1e306`` apart, but ``2 * cross`` overflows, which
    once dropped the pair as coincident. The refresh due after the second
    graph raises; that graph's update stays, the graph count includes it,
    and the weights are not refreshed: the engine is the one that skipped
    the refresh, and it round-trips."""
    engine = Engine(_config(k=2, gamma=2), StreamSchema(), backend)
    first, second = _one_edge(0, "x", 1.3e154), _one_edge(1, "x", 1.2e154)
    engine.process(first)
    twin = Engine.from_bytes(engine.to_bytes())
    twin.refresh_weights = lambda: None
    twin.process(second)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="a squared distance is not finite"):
            engine.process(second)
    assert engine.graph_count == 2 and engine.weights.tolist() == [1.0]
    blob = engine.to_bytes()
    assert blob == twin.to_bytes()
    assert Engine.from_bytes(blob).to_bytes() == blob


def test_checkpoint_size_independent_of_stream_length():
    cfg = SynthConfig(n_clusters=3, n_graphs=400, seed=17)
    schema = synth_schema(cfg)
    graphs = generate_graphs(cfg)
    engine = Engine(
        EngineConfig(k=3, gamma=50, sketch=SketchConfig(rows=4, cols=64, seed=1)),
        schema,
    )
    process_all(engine, graphs[:100])
    size_small = len(engine.to_bytes())
    process_all(engine, graphs[100:])
    assert len(engine.to_bytes()) == size_small


def test_from_bytes_rejects_garbage():
    engine = Engine(_config(), SCHEMA)
    blob = bytearray(engine.to_bytes())
    blob[:4] = b"EVIL"
    with pytest.raises(ValueError):
        Engine.from_bytes(bytes(blob))


def _run_engine(backend: str = "sketch", **config) -> Engine:
    engine = Engine(_config(**config), SCHEMA, backend)
    process_all(engine, [graph(i, [("a", f"n{i % 3}", 1.0)], {"x": 1.0}) for i in range(6)])
    return engine


@pytest.mark.parametrize("backend", ["sketch", "exact"])
def test_from_bytes_rejects_trailing_bytes(backend):
    blob = _run_engine(backend).to_bytes()
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


@pytest.mark.parametrize("backend", ["sketch", "exact"])
def test_from_bytes_rejects_every_truncation(backend):
    engine = _run_engine(backend, sketch=SketchConfig(rows=2, cols=8, seed=5))
    blob = engine.to_bytes()
    assert Engine.from_bytes(blob).to_bytes() == blob
    for size in range(len(blob)):
        with pytest.raises(ValueError):
            Engine.from_bytes(blob[:size])


def test_from_bytes_rejects_another_version():
    """Version 3 keys the exact maps by digest; a version-2 exact section
    can parse in its layout, so every earlier version is refused."""
    blob = bytearray(_run_engine().to_bytes())
    assert blob[4] == _VERSION == 3
    for version in (1, 2):
        blob[4] = version
        with pytest.raises(ValueError, match=f"unsupported engine checkpoint version {version}"):
            Engine.from_bytes(bytes(blob))


@pytest.mark.parametrize("backend", ["sketch", "exact"])
def test_from_bytes_takes_bytes_bytearray_and_memoryview(backend):
    blob = _run_engine(backend).to_bytes()
    for data in (blob, bytearray(blob), memoryview(blob)):
        assert Engine.from_bytes(data).to_bytes() == blob


def _raw_header(blob: bytes) -> bytes:
    (hlen,) = struct.unpack_from("<I", blob, 5)
    return blob[9 : 9 + hlen]


def test_equal_configs_keep_their_own_header_bytes():
    # 3 and 3.0 compare equal and hash alike but are written apart; each
    # engine writes its own header, before and after a resume
    whole, fractional = _config(p=3), _config(p=3.0)
    assert whole == fractional and hash(whole) == hash(fractional)
    blobs = [Engine(c, SCHEMA).to_bytes() for c in (whole, fractional)]
    assert _raw_header(blobs[0]) != _raw_header(blobs[1])
    for _ in range(2):
        for blob in blobs:
            assert Engine.from_bytes(blob).to_bytes() == blob
    assert b'"p": 3,' in _raw_header(blobs[0])
    assert b'"p": 3.0,' in _raw_header(blobs[1])


_MIXED_SCHEMA = StreamSchema(
    (SideType("topics"), SideType("venue", "categorical"), SideType("tags", "binary")),
    directed=True,
)
_MIXED_SCHEMA_JSON = (
    '{"directed": true, "side_types": [{"kind": "numeric", "name": "topics"},'
    ' {"kind": "categorical", "name": "venue"}, {"kind": "binary", "name": "tags"}]}'
)


def test_stream_and_checkpoint_headers_are_pinned(tmp_path):
    # a directed schema of every kind, and int-valued float fields kept as ints
    path = tmp_path / "s.jsonl"
    write_stream(str(path), _MIXED_SCHEMA, [])
    assert path.read_text(encoding="utf-8") == (
        f'{{"schema": {_MIXED_SCHEMA_JSON}, "stream_version": 1}}\n'
    )
    engine = Engine(EngineConfig(k=3, p=3), _MIXED_SCHEMA)
    assert _raw_header(engine.to_bytes()).decode("utf-8") == (
        '{"backend": "sketch", "config": {"barrier": {"max_steps": 25}, "gamma": 250,'
        ' "k": 3, "p": 3, "seed": 0,'
        ' "sketch": {"cols": 500, "rows": 10, "seed": 0}}, "record_distances": false,'
        f' "schema": {_MIXED_SCHEMA_JSON}}}'
    )


@pytest.mark.parametrize("fault", ["string_k", "array"])
def test_a_bad_header_fails_every_time_and_leaves_good_ones_loading(fault):
    blob = _run_engine().to_bytes()
    bad = _with_header(blob, _HEADER_FAULTS[fault](_header_of(blob)))
    for _ in range(3):
        with pytest.raises(ValueError, match="bad engine checkpoint header"):
            Engine.from_bytes(bad)
    assert Engine.from_bytes(blob).to_bytes() == blob
    with pytest.raises(ValueError, match="bad engine checkpoint header"):
        Engine.from_bytes(bad)


def test_resumes_of_one_blob_share_one_immutable_config():
    blob = _run_engine().to_bytes()
    first, second = Engine.from_bytes(blob), Engine.from_bytes(bytearray(blob))
    assert second.config is first.config and second.schema is first.schema
    for engine in (first, second):
        assert engine.bank.config is engine.config.sketch
    assert second.bank is not first.bank
    with pytest.raises(AttributeError):
        first.config = _config(k=3)


@pytest.mark.parametrize("backend", ["sketch", "exact"])
def test_each_graph_is_hashed_once_on_the_sketch_backend(backend, monkeypatch):
    """``Engine.process`` digests each graph's keys once, in the one view
    build of the graph (``kernel.graph_view``), which ``_decide`` and
    ``_apply`` both read, on either backend, through weight refreshes and a
    checkpoint and resume."""
    cfg = SynthConfig(n_clusters=5, n_graphs=160, seed=19)
    schema = synth_schema(cfg)
    graphs = [preprocess(g, schema) for g in generate_graphs(cfg)]
    calls = [0]
    build = kernel.graph_view

    def counting(edges, sides):
        calls[0] += 1
        return build(edges, sides)

    monkeypatch.setattr(kernel, "graph_view", counting)
    records: list[dict] = []
    engine = Engine(EngineConfig(k=5, gamma=40), schema, backend, trace=records.append)
    for g in graphs[:100]:
        engine.process(g)
    engine = Engine.from_bytes(engine.to_bytes(), trace=records.append)
    for g in graphs[100:]:
        engine.process(g)
    assert sum("final_weights" in record for record in records) == 4  # refreshed
    assert calls[0] == len(graphs)


def _header_of(blob: bytes):
    return json.loads(_raw_header(blob))


def _with_header(blob: bytes, header) -> bytes:
    """The checkpoint re-framed around another JSON header."""
    (hlen,) = struct.unpack_from("<I", blob, 5)
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    return blob[:5] + struct.pack("<I", len(raw)) + raw + blob[9 + hlen :]


def _with_config(h: dict, **fields) -> dict:
    return {**h, "config": {**h["config"], **fields}}


_HEADER_FAULTS = {
    "no_config": lambda h: {k: v for k, v in h.items() if k != "config"},
    "no_k": lambda h: {**h, "config": {k: v for k, v in h["config"].items() if k != "k"}},
    "unknown_sketch_key": lambda h: _with_config(
        h, sketch={**h["config"]["sketch"], "depth": 3}
    ),
    "string_k": lambda h: _with_config(h, k="2"),
    "bool_k": lambda h: _with_config(h, k=True),
    "float_gamma": lambda h: _with_config(h, gamma=2.5),
    "bool_p": lambda h: _with_config(h, p=True),
    "infinite_p": lambda h: _with_config(h, p=float("inf")),
    "float_seed": lambda h: _with_config(h, seed=1.5),
    "float_sketch_seed": lambda h: _with_config(h, sketch={**h["config"]["sketch"], "seed": 5.5}),
    "bool_sketch_rows": lambda h: _with_config(h, sketch={**h["config"]["sketch"], "rows": True}),
    "float_max_steps": lambda h: _with_config(
        h, barrier={**h["config"]["barrier"], "max_steps": 2.5}
    ),
    "negative_max_steps": lambda h: _with_config(
        h, barrier={**h["config"]["barrier"], "max_steps": -1}
    ),
    # unknown fields: the optimizer's margin, floor, barrier weight and step are constants
    "inf_weight_floor": lambda h: _with_config(
        h, barrier={**h["config"]["barrier"], "weight_floor": float("inf")}
    ),
    "nan_weight_floor": lambda h: _with_config(
        h, barrier={**h["config"]["barrier"], "weight_floor": float("nan")}
    ),
    "string_record_distances": lambda h: {**h, "record_distances": "false"},
    "unknown_header_key": lambda h: {**h, "bakend": "exact"},
    "unknown_config_key": lambda h: _with_config(h, gama=5),
    "unknown_schema_key": lambda h: {**h, "schema": {**h["schema"], "directd": True}},
    "unknown_side_type_key": lambda h: {
        **h,
        "schema": {
            **h["schema"],
            "side_types": [{**t, "knd": "binary"} for t in h["schema"]["side_types"]],
        },
    },
    "array": lambda h: [h],
    "array_sketch": lambda h: _with_config(h, sketch=[4, 256, 0]),
}


@pytest.mark.parametrize("fault", sorted(_HEADER_FAULTS))
def test_from_bytes_rejects_a_malformed_header(fault):
    blob = _run_engine().to_bytes()
    header = _header_of(blob)
    assert _with_header(blob, header) == blob
    with pytest.raises(ValueError, match="bad engine checkpoint header"):
        Engine.from_bytes(_with_header(blob, _HEADER_FAULTS[fault](header)))


@pytest.mark.parametrize(
    "retired",
    [
        ["feasibility_margin"],
        ["weight_floor"],
        ["feasibility_margin", "weight_floor"],
        ["t"],
        ["step_size"],
        ["step_size", "t"],
        ["feasibility_margin", "step_size", "t", "weight_floor"],
    ],
)
def test_from_bytes_rejects_a_header_with_a_retired_barrier_field(retired):
    # Headers once carried the optimizer's rescale margin, projection floor,
    # barrier weight and first step, at these values; they are constants
    # now, and a header that still names one is rejected by name.
    blob = _run_engine().to_bytes()
    header = _header_of(blob)
    old = {"feasibility_margin": 0.05, "weight_floor": 0.0, "t": 1.0, "step_size": 0.1}
    barrier = {**header["config"]["barrier"], **{name: old[name] for name in retired}}
    listed = ", ".join(f"'{name}'" for name in retired)
    with pytest.raises(ValueError, match=rf"unknown BarrierConfig fields \[{listed}\]"):
        Engine.from_bytes(_with_header(blob, _with_config(header, barrier=barrier)))


def test_from_bytes_rejects_a_header_that_carries_optimize_weights():
    # Headers once carried the switch that ``gamma=0`` replaces; one that
    # still names it is rejected by name.
    blob = _run_engine().to_bytes()
    old = _with_config(_header_of(blob), optimize_weights=True)
    with pytest.raises(ValueError, match=r"unknown EngineConfig fields \['optimize_weights'\]"):
        Engine.from_bytes(_with_header(blob, old))


def _cluster_section(blob: bytes) -> int:
    """Offset of a checkpoint's bank section, which opens with the slot
    count ``m``, then ``n`` and ``t_last`` as ``i8[m]``."""
    (hlen,) = struct.unpack_from("<I", blob, 5)
    off = 4 + 1 + 4 + hlen + 8
    (wlen,) = struct.unpack_from("<I", blob, off)
    return off + 4 + 8 * wlen


def _splice_clusters(head: Engine, clusters: Engine) -> bytes:
    """``head``'s checkpoint with ``clusters``'s bank section."""
    a, b = head.to_bytes(), clusters.to_bytes()
    return a[: _cluster_section(a)] + b[_cluster_section(b) :]


@pytest.mark.parametrize("backend", ["sketch", "exact"])
def test_from_bytes_rejects_clusters_unlike_the_header(backend):
    wide = StreamSchema(side_types=(SideType("topics"), SideType("tags")))
    engine_d2 = Engine(_config(), wide, backend)
    process_all(
        engine_d2,
        [graph(i, [("a", f"n{i % 3}", 1.0)], {"x": 1.0}) for i in range(6)]
    )
    engine_d1 = _run_engine(backend)
    same = _splice_clusters(engine_d1, engine_d1)
    assert Engine.from_bytes(same).to_bytes() == same
    # shapes come from the d=1 header, so the d=2 arrays do not parse to
    # the checkpoint's end
    with pytest.raises(ValueError):
        Engine.from_bytes(_splice_clusters(engine_d1, engine_d2))
    # three clusters into a k=2 checkpoint
    engine_k3 = _run_engine(backend, k=3)
    assert len(engine_k3.bank) == 3
    with pytest.raises(ValueError, match="more than k"):
        Engine.from_bytes(_splice_clusters(engine_d1, engine_k3))


def _corrupt_cells(engine, value):
    engine.bank.cells[0, 1, 0, 0] = value


def _corrupt_masses(engine, value):
    maps = engine.bank.maps[1][0]
    maps[next(iter(maps))] = value


def _corrupt_last_cell(engine, value):
    engine.bank.cells[-1, len(engine.bank) - 1, -1, -1] = value


def _corrupt_last_mass(engine, value):
    maps = engine.bank.maps[len(engine.bank) - 1][-1]
    maps[next(reversed(maps))] = value


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, -float("inf"), -1e-300])
@pytest.mark.parametrize(
    "backend, corrupt",
    [
        ("sketch", _corrupt_cells),
        ("exact", _corrupt_masses),
        ("sketch", _corrupt_last_cell),
        ("exact", _corrupt_last_mass),
    ],
)
def test_from_bytes_rejects_bad_first_moments(backend, corrupt, value):
    engine = _run_engine(backend)
    corrupt(engine, value)
    with pytest.raises(ValueError, match="negative or non-finite"):
        Engine.from_bytes(engine.to_bytes())


def _set_empty_cell(engine, value):
    # an empty cell of a grid that holds mass, so its rows still agree
    grid = engine.bank.cells[0, 0]
    row, col = np.argwhere(grid == 0.0)[0]
    grid[row, col] = value


@pytest.mark.parametrize("value", [-0.0, 5e-324, 2.0**-1030])
@pytest.mark.parametrize(
    "backend, corrupt", [("sketch", _set_empty_cell), ("exact", _corrupt_masses)]
)
def test_from_bytes_loads_signed_zero_and_subnormal_first_moments(backend, corrupt, value):
    engine = _run_engine(backend)
    corrupt(engine, value)
    blob = engine.to_bytes()
    assert Engine.from_bytes(blob).to_bytes() == blob


@pytest.mark.parametrize("backend", ["sketch", "exact"])
def test_from_bytes_loads_an_engine_without_clusters(backend):
    blob = Engine(_config(), SCHEMA, backend).to_bytes()
    resumed = Engine.from_bytes(blob)
    assert resumed.bank.second_moments[: len(resumed.bank)].size == 0
    assert resumed.to_bytes() == blob


def _scaled_engine() -> Engine:
    """A sketch engine over 60 graphs of non-integer masses."""
    rng = random.Random(5)
    engine = Engine(_config(), SCHEMA)
    process_all(
        engine,
        [
            graph(
                i,
                [
                    ("a", f"n{i % 7}", rng.uniform(0.1, 3.0)),
                    ("b", f"n{i % 5}", rng.uniform(0.1, 3.0)),
                ],
                {f"t{i % 4}": rng.uniform(0.1, 3.0)},
            )
            for i in range(60)
        ],
    )
    return engine


def test_from_bytes_rejects_a_bumped_cell_on_integer_masses():
    # every key adds its mass to one cell per row, so the rows of a grid
    # sum to one total; on whole cells totalling under 1 / ROW_SUM_RTOL the
    # check is exact, so a cell one higher is caught
    engine = _run_engine()
    Engine.from_bytes(engine.to_bytes())
    engine.bank.cells[0, 1, 0, 0] += 1.0
    with pytest.raises(ValueError, match="rows sum to different totals"):
        Engine.from_bytes(engine.to_bytes())


def _row_gaps(engine: Engine) -> np.ndarray:
    sums = engine.bank.cells[:, : len(engine.bank)].sum(-1)
    return sums.max(-1) - sums.min(-1)


def test_from_bytes_loads_rows_rounded_apart_on_large_integer_masses():
    # epoch-microsecond masses: row totals pass 2**53, where rows that add
    # the same integers in other orders round differently; p is so large
    # that every graph joins its nearest cluster, which grows to 11 members
    rng = random.Random(11)
    schema = StreamSchema(side_types=(SideType("ts"),))
    engine = Engine(_config(p=1e40, sketch=SketchConfig(rows=4, cols=4, seed=0)), schema)
    process_all(
        engine,
        [
            GraphObject(
                id=f"g{i}",
                edges=[("a", f"n{i % 3}", 1.0)],
                side={
                    "ts": {f"t{j}": 1_700_000_000_000_000 + rng.randrange(10**9) for j in range(6)}
                },
            )
            for i in range(12)
        ],
    )
    assert np.any(_row_gaps(engine) > 0.0)
    blob = engine.to_bytes()
    assert Engine.from_bytes(blob).to_bytes() == blob


def test_from_bytes_loads_whole_cells_rounded_from_fractional_masses():
    # 2**52 + 0.5 + 0.5 rounds to the whole cell 2**52 in the first row,
    # where the three keys collide; the second row keeps 2**52 apart from
    # the halves and sums 2**52 + 1. Every cell is whole, and the run's own
    # checkpoint must still load.
    schema = StreamSchema(side_types=(SideType("t"),))
    engine = Engine(_config(sketch=SketchConfig(rows=2, cols=2, seed=0)), schema)
    side = {"k0": 2.0**52, "k4": 0.5, "k9": 0.5}
    process_all(
        engine,
        [
            GraphObject(id="g0", edges=[("u", "v", 1.0)], side={"t": side}),
            GraphObject(id="g1", edges=[("p", "q", 1.0)], side={}),
        ]
    )
    grid = engine.bank.cells[1, 0]
    assert np.all(np.trunc(grid) == grid)
    assert grid.sum(-1).tolist() == [2.0**52, 2.0**52 + 1]
    blob = engine.to_bytes()
    assert Engine.from_bytes(blob).to_bytes() == blob


def test_from_bytes_checks_row_sums_within_tolerance_on_float_masses():
    engine = _scaled_engine()
    blob = engine.to_bytes()
    cells = engine.bank.cells[:, : len(engine.bank)]
    assert not np.all(cells % 1.0 == 0.0)
    # the rows' totals differ only by rounding, and the checkpoint loads
    assert Engine.from_bytes(blob).to_bytes() == blob
    total = cells[0, 1, 0].sum()
    engine.bank.cells[0, 1, 0, 0] += 1e-5 * total
    with pytest.raises(ValueError, match="rows sum to different totals"):
        Engine.from_bytes(engine.to_bytes())


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("backend", ["sketch", "exact"])
def test_from_bytes_rejects_bad_second_moments(backend, value):
    engine = _run_engine(backend)
    engine.bank.second_moments[1, 0] = value
    with pytest.raises(ValueError, match="second moments"):
        Engine.from_bytes(engine.to_bytes())


def _patch_slot(blob: bytes, field: str, value: int) -> bytes:
    """Set the second slot's ``n`` or ``t_last`` in the checkpoint."""
    out = bytearray(blob)
    off = _cluster_section(blob)
    (m,) = struct.unpack_from("<I", out, off)
    row = {"n": 0, "t_last": 1}[field]
    struct.pack_into("<q", out, off + 4 + 8 * (row * m + 1), value)
    return bytes(out)


@pytest.mark.parametrize("backend", ["sketch", "exact"])
def test_from_bytes_rejects_a_cluster_without_members(backend):
    blob = _run_engine(backend).to_bytes()
    assert Engine.from_bytes(_patch_slot(blob, "n", 1)).bank.n[1] == 1
    with pytest.raises(ValueError, match="no members"):
        Engine.from_bytes(_patch_slot(blob, "n", 0))


@pytest.mark.parametrize("graphs", [30, 3])
@pytest.mark.parametrize("backend", ["sketch", "exact"])
def test_from_bytes_rejects_fewer_clusters_than_a_run_holds(backend, graphs):
    # a run holds min(graph_count, k) clusters: k=5 at 30 graphs, 3 at 3
    engine = Engine(_config(k=5), SCHEMA, backend)
    process_all(engine, [graph(i, [("a", f"n{i % 7}", 1.0)], {"x": 1.0}) for i in range(graphs)])
    assert len(engine.bank) == min(graphs, 5)
    engine.bank.size -= 1  # the last slot cut out
    with pytest.raises(ValueError, match="a run with k=5 holds"):
        Engine.from_bytes(engine.to_bytes())


@pytest.mark.parametrize("backend", ["sketch", "exact"])
def test_from_bytes_rejects_more_members_than_graphs(backend):
    engine = _run_engine(backend)
    blob = engine.to_bytes()
    most = engine.graph_count - engine.bank.n[0]
    assert Engine.from_bytes(_patch_slot(blob, "n", most)).bank.n[1] == most
    with pytest.raises(ValueError, match="more than its"):
        Engine.from_bytes(_patch_slot(blob, "n", most + 1))


@pytest.mark.parametrize("backend", ["sketch", "exact"])
def test_from_bytes_rejects_an_update_after_the_graph_count(backend):
    engine = _run_engine(backend)
    blob = engine.to_bytes()
    latest = _patch_slot(blob, "t_last", engine.graph_count)
    assert Engine.from_bytes(latest).bank.t_last[1] == engine.graph_count
    for t_last in (engine.graph_count + 1, -1):
        with pytest.raises(ValueError, match="updated outside"):
            Engine.from_bytes(_patch_slot(blob, "t_last", t_last))


@pytest.mark.parametrize("backend", ["sketch", "exact"])
def test_from_bytes_reports_the_first_fault_in_file_order(backend):
    # a slot without members, read before a NaN second moment
    engine = _run_engine(backend)
    engine.bank.second_moments[1, 0] = float("nan")
    blob = engine.to_bytes()
    with pytest.raises(ValueError, match="second moments"):
        Engine.from_bytes(blob)
    with pytest.raises(ValueError, match="no members"):
        Engine.from_bytes(_patch_slot(blob, "n", 0))


def _digest(key: bytes) -> bytes:
    """A key's digest as an exact map's checkpoint writes it."""
    return hashlib.blake2b(key, digest_size=8).digest()


def _two_edge_engine() -> Engine:
    """An exact engine whose slot 0 edge map holds a-b and b-c, mass 1 each."""
    engine = Engine(_config(), SCHEMA, "exact")
    process_all(
        engine,
        [graph(0, [("a", "b", 1.0), ("b", "c", 1.0)], {}), graph(1, [("x", "y", 1.0)], {})],
    )
    return engine


def test_from_bytes_rejects_a_key_repeated_in_an_exact_map():
    blob = _two_edge_engine().to_bytes()
    assert blob.count(_digest(b"b\x1fc")) == 1
    assert Engine.from_bytes(blob).to_bytes() == blob
    # slot 0's edge map would read {a-b: 1, a-b: 1}, and keep only one
    with pytest.raises(ValueError, match="key twice"):
        Engine.from_bytes(blob.replace(_digest(b"b\x1fc"), _digest(b"a\x1fb")))


def test_from_bytes_reports_an_exact_maps_first_fault_in_file_order():
    """An exact map checkpoints as its entry count, its digests, then its
    masses: a repeated digest is reported before a negative mass in the
    same map, and an entry count near 2**63 or 2**64 reads as a truncated
    checkpoint, before any allocation."""
    engine = _two_edge_engine()
    blob = engine.to_bytes()
    m = len(engine.bank)
    first = _cluster_section(blob) + 4 + m * (16 + 8 * (SCHEMA.d + 1))  # slot 0's edge map
    assert struct.unpack_from("<Q", blob, first) == (2,)
    negative = bytearray(blob)
    struct.pack_into("<d", negative, first + 8 + 16 + 8, -1.0)
    with pytest.raises(ValueError, match="negative or non-finite"):
        Engine.from_bytes(bytes(negative))
    with pytest.raises(ValueError, match="key twice"):
        Engine.from_bytes(bytes(negative).replace(_digest(b"b\x1fc"), _digest(b"a\x1fb")))
    for entries in (2**63 - 1, 2**63, 2**64 - 1):
        huge = bytearray(blob)
        struct.pack_into("<Q", huge, first, entries)
        with pytest.raises(ValueError, match="truncated"):
            Engine.from_bytes(bytes(huge))


# Graphs ``preprocess`` rejects, and its message, which ``Engine.process``
# gives for them too
_UNPROCESSED = {
    "id an int": (GraphObject(5, [("a", "b", 1.0)]), "graph id must be a nonempty string"),
    "id None": (GraphObject(None, [("a", "b", 1.0)]), "graph id must be a nonempty string"),
    "id empty": (GraphObject("", [("a", "b", 1.0)]), "graph id must be a nonempty string"),
    "side a list": (GraphObject("g", [("a", "b", 1.0)], [1]),
                    "side must be an object keyed by type name"),
    "side None": (GraphObject("g", [("a", "b", 1.0)], None),
                  "side must be an object keyed by type name"),
    "side a str": (GraphObject("g", [("a", "b", 1.0)], "topics"),
                   "side must be an object keyed by type name"),
    "side undeclared": (GraphObject("g", [("a", "b", 1.0)], {"nope": {"x": 1.0}}),
                        "side type 'nope' not declared in schema"),
}


@pytest.mark.parametrize("backend", ["sketch", "exact"])
@pytest.mark.parametrize("case", sorted(_UNPROCESSED))
def test_process_rejects_what_preprocess_rejects_before_any_change(backend, case):
    """A graph that was not preprocessed, with an id that is not a
    nonempty str, a ``side`` that is no dict or an undeclared side type,
    raises ``preprocess``'s ValueError from ``Engine.process``, with the
    graph count, the bank and the checkpoint as they were."""
    g, message = _UNPROCESSED[case]
    with pytest.raises(ValueError, match=message):
        preprocess(g, SCHEMA)
    engine = _run_engine(backend)
    before = (engine.graph_count, engine.bank.self_sq.tobytes(), engine.to_bytes())
    with pytest.raises(ValueError, match=message):
        engine.process(g)
    assert (engine.graph_count, engine.bank.self_sq.tobytes(), engine.to_bytes()) == before


@pytest.mark.parametrize("backend", ["sketch", "exact"])
def test_every_checkpoint_that_loads_round_trips(backend):
    # A byte changed anywhere after the header (which is re-encoded
    # canonically) is rejected, or loads into an engine that writes the
    # changed checkpoint back byte for byte. Finite cells whose row totals
    # overflow load by design, so their warnings are silenced.
    engine = Engine(
        _config(k=3, sketch=SketchConfig(rows=2, cols=16, seed=0)), SCHEMA, backend
    )
    rng = random.Random(24)
    process_all(
        engine,
        [
            graph(
                i,
                [(f"n{rng.randrange(6)}", f"n{rng.randrange(6)}", rng.choice([1.0, 2.5]))],
                {f"t{rng.randrange(5)}": rng.uniform(0.1, 3.0)},
            )
            for i in range(60)
        ],
    )
    blob = engine.to_bytes()
    start = _cluster_section(blob) - 12 - 8 * (SCHEMA.d + 1)  # the graph count
    loaded = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(3000):
            changed = bytearray(blob)
            at = rng.randrange(start, len(blob))
            changed[at] = (changed[at] + rng.randrange(1, 256)) % 256
            try:
                resumed = Engine.from_bytes(bytes(changed))
            except ValueError:
                continue
            assert resumed.to_bytes() == changed, at
            loaded += 1
    assert loaded > 0
