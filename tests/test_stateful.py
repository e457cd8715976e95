"""Stateful differential test: a sketch engine and an exact engine driven
through one random interleaving of processing, checkpoint and resume
(twice from one blob, once through a memoryview), and weight refreshes.

The stream and sketch are criterion 1's: integer masses, and a hash seed
whose every component has a collision-free row over its whole key
universe, so every sketch estimate is exact and both backends must agree
bit for bit. After every step the two engines' events, weights and bank
scalars must be equal.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from reference import separating_rows
from sketchclust import (
    Engine,
    EngineConfig,
    SketchConfig,
    SynthConfig,
    graph_views,
    preprocess,
    synth_schema,
)
from sketchclust.synth import generate_graphs

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
            comp_keys.update(view.component(comp)[0])
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
