"""Stateful differential test: a sketch engine and an exact engine driven
through one random interleaving of processing, checkpoint and resume
(twice from one blob, once through a memoryview), and weight refreshes.

The stream and sketch are criterion 1's: integer masses, and a hash seed
whose every component has a collision-free row over its whole key
universe, so every sketch estimate is exact and both backends must agree
bit for bit. After every step the two engines' events, weights and bank
scalars must be equal.

A second property drives either backend with masses up to ``1e308``, where
squares, cross terms and sums leave float range: no graph it accepts
leaves a self product that is not finite, and a run either completes and
round-trips, or stops with ``ValueError`` and leaves the state the README
documents.
"""

import re

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from reference import component, generate_graphs, separating_rows
from sketchclust import (
    Engine,
    EngineConfig,
    GraphObject,
    SketchConfig,
    StreamSchema,
    SynthConfig,
    graph_views,
    preprocess,
    synth_schema,
)

SYNTH = SynthConfig(
    n_clusters=3,
    n_graphs=200,
    nodes_per_community=5,
    edges_per_graph=4,
    informative_types=(("topics", 0.9),),
    noise_types=(("tags", 12),),
    cross_edge_rate=0.2,
    attrs_per_graph=3,
    class_vocab=3,
    seed=21,
)
SCHEMA = synth_schema(SYNTH)
GRAPHS = [preprocess(g, SCHEMA) for g in generate_graphs(SYNTH)]


def _separating_config() -> SketchConfig:
    keys: list[set] = [set() for _ in range(SCHEMA.d + 1)]
    for g in GRAPHS:
        view = graph_views(g, SCHEMA)
        for comp, comp_keys in enumerate(keys):
            comp_keys.update(component(view, comp)[0])
    for seed in range(64):
        cfg = SketchConfig(rows=10, cols=4096, seed=seed)
        if all(separating_rows(cfg, sorted(k)) for k in keys):
            return cfg
    raise AssertionError("no separating seed in range")


CONFIG = EngineConfig(k=3, gamma=50, p=3.0, sketch=_separating_config())


class BackendsAgree(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.engines = [
            Engine(CONFIG, SCHEMA, backend, record_distances=True)
            for backend in ("sketch", "exact")
        ]
        self.events: list[list[str]] = [[], []]

    @rule(picks=st.lists(st.integers(0, len(GRAPHS) - 1), min_size=1, max_size=12))
    def process(self, picks):
        for events, engine in zip(self.events, self.engines):
            events[:] = [engine.process(GRAPHS[i]).to_json() for i in picks]

    @rule()
    def checkpoint_and_resume(self):
        self.engines = [Engine.from_bytes(e.to_bytes()) for e in self.engines]

    @rule(pick=st.integers(0, len(GRAPHS) - 1))
    def resume_twice_from_one_blob(self, pick):
        engines = []
        for events, engine in zip(self.events, self.engines):
            blob = engine.to_bytes()
            a, b = Engine.from_bytes(blob), Engine.from_bytes(memoryview(blob))
            assert a.to_bytes() == blob and b.to_bytes() == blob
            events[:] = [a.process(GRAPHS[pick]).to_json()]
            assert b.process(GRAPHS[pick]).to_json() == events[0]
            engines.append(a)
        self.engines = engines

    @precondition(lambda self: len(self.engines[0].bank) >= 2)
    @rule()
    def refresh_weights(self):
        for engine in self.engines:
            engine.refresh_weights()

    @invariant()
    def same_state(self):
        sketch, exact = self.engines
        assert self.events[0] == self.events[1]
        assert sketch.graph_count == exact.graph_count
        assert np.array_equal(sketch.weights, exact.weights)
        a, b = sketch.bank, exact.bank
        assert len(a) == len(b)
        for name in ("n", "t_last", "second_moments"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


BackendsAgree.TestCase.settings = settings(
    max_examples=50, stateful_step_count=30, deadline=None, database=None
)
test_backends_agree_under_interleaving = BackendsAgree.TestCase


# Masses up to 1e308: most squares leave float range, and preprocess rejects
# those graphs; masses near 1e154 pass it, and their sums of squares, cross
# terms and spreads are where a run can overflow.
_MASS = st.one_of(
    st.floats(0.0, 1e308),
    st.floats(1e153, 1.34e154),
    st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(140, 153)),
    st.integers(1, 4).map(float),
)
_GRAPH = st.lists(st.tuples(st.sampled_from("xyw"), _MASS), min_size=1, max_size=2)
_EMPTY = StreamSchema()
# the update check, the distance check (in routing or in the refresh's
# geometry), and the refresh's rescale when no float weights separate a pair
_STOPS = (
    "self product would not be finite|squared distance is not finite"
    "|weighted distance .* is not finite|no float weights separate"
)


@settings(max_examples=150, deadline=None, database=None)
@given(backend=st.sampled_from(["sketch", "exact"]), run=st.lists(_GRAPH, min_size=1, max_size=14))
def test_a_run_near_float_range_round_trips_or_stops_cleanly(backend, run):
    """Each graph that ``preprocess`` accepts is processed. A run that
    completes writes every event as JSON and round-trips its checkpoint.
    A run that stops raises ``ValueError``: rejected before its update,
    the engine is byte for byte as it was; raised by the refresh, the
    engine holds the graph's update and its count, with the weights not
    refreshed, which is the engine that skipped the refresh."""
    config = EngineConfig(k=2, gamma=3, sketch=SketchConfig(rows=4, cols=64))
    engine = Engine(config, _EMPTY, backend, record_distances=True)
    stop = None
    with np.errstate(over="ignore", invalid="ignore"):
        for i, edges in enumerate(run):
            try:
                g = preprocess(GraphObject(f"g{i}", [(key, "z", m) for key, m in edges]), _EMPTY)
            except ValueError:
                continue  # the engine never sees a graph preprocess rejects
            before = engine.to_bytes()
            try:
                engine.process(g).to_json()
            except ValueError as exc:
                stop = exc
                break
            assert np.isfinite(engine.bank.self_sq).all()
        blob = engine.to_bytes()
        assert Engine.from_bytes(blob).to_bytes() == blob
        if stop is None:
            event("completed")
            return
        assert re.search(_STOPS, str(stop)), stop
        if blob == before:
            event(f"rejected before the update: {stop}")
            return
        event(f"raised by the refresh: {stop}")
        twin = Engine.from_bytes(before)
        twin.refresh_weights = lambda: None
        twin.process(g)
        assert blob == twin.to_bytes()
