"""Golden outputs: the events and final checkpoint of one fixed run, pinned.

A refactor that claims to keep the engine's behaviour must keep these bytes.
The run is a 1,500-graph synth stream with diagnostics on, checkpointed and
resumed every 250 graphs, on both backends; the same run without
diagnostics pins the event line that a plain ``cluster`` run writes. At
p=1 about two graphs in three replace a cluster and the rest are assigned.
On this stream the default sketch sees no collision that changes an event,
so both backends emit the same events. The digests were taken on x86-64
with numpy 2.4; synth masses are small integers, so every distance
sum is exact, but the weight refresh's floating point could differ on
another platform or numpy, which would show here first.
"""

import hashlib

import pytest

from reference import generate_graphs
from sketchclust import (
    Engine,
    EngineConfig,
    SynthConfig,
    preprocess,
    synth_schema,
)

SYNTH = SynthConfig(n_graphs=1500, seed=3)
CONFIG = EngineConfig(k=4, gamma=100, p=1.0)
RESUME_EVERY = 250

# sha256 of (events.jsonl, final checkpoint) per backend
GOLDEN = {
    "sketch": (
        "f5a9a21cb6ed071fe6b0cba45c6f638e18049c3142b43f3b208eeecd4a66310a",
        "555078d4588666fa0881eea8c6143026b78fea1025c64fdbc80591ef84a62164",
    ),
    "exact": (
        "f5a9a21cb6ed071fe6b0cba45c6f638e18049c3142b43f3b208eeecd4a66310a",
        "e50f0cfbeba996d6f7f328287d9ffab3d6fb66779119fa008aa6e704c7cba6bc",
    ),
}

# the same without ``record_distances``: the default event line
GOLDEN_DEFAULT = {
    "sketch": (
        "1f52dd6646f8c5ef34d0752a4a2df3f9652134a6cdb4c2c8cbb39d853a906e07",
        "e49c25bfa90b41fb67608174ed31d9a897b6015f4c9a68e1497f502c5c46c436",
    ),
    "exact": (
        "1f52dd6646f8c5ef34d0752a4a2df3f9652134a6cdb4c2c8cbb39d853a906e07",
        "e7ed9f72984171cf55fe348d54b9b212abd3f6c786489f1c796a5008bce98caa",
    ),
}


def _run(backend: str, record_distances: bool = True) -> tuple[str, str]:
    schema = synth_schema(SYNTH)
    engine = Engine(CONFIG, schema, backend=backend, record_distances=record_distances)
    events = hashlib.sha256()
    for now, g in enumerate(generate_graphs(SYNTH), start=1):
        events.update(engine.process(preprocess(g, schema)).to_json().encode() + b"\n")
        if now % RESUME_EVERY == 0:
            engine = Engine.from_bytes(engine.to_bytes())
    return events.hexdigest(), hashlib.sha256(engine.to_bytes()).hexdigest()


@pytest.mark.parametrize("backend", sorted(GOLDEN))
def test_events_and_checkpoint_match_golden_digests(backend):
    assert _run(backend) == GOLDEN[backend]


@pytest.mark.parametrize("backend", sorted(GOLDEN_DEFAULT))
def test_default_events_and_checkpoint_match_golden_digests(backend):
    assert _run(backend, record_distances=False) == GOLDEN_DEFAULT[backend]
