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
another platform or numpy, which would show here first. A checkpoint is
pinned in two parts, its header (magic, version, length and JSON) and the
state after it, so a change to the config's fields moves only the first.
"""

import hashlib
import struct

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

# sha256 of (events.jsonl, final checkpoint's header, the checkpoint after
# its header) per backend
GOLDEN = {
    "sketch": (
        "f5a9a21cb6ed071fe6b0cba45c6f638e18049c3142b43f3b208eeecd4a66310a",
        "5414b9e6df1010d87c30754e2acf8433b922fc2b4aa9dd2f2eb72c07bd4fab1b",
        "42f6871c907fcbe0998753877ccd29c14669fdfd556cf61ff959956c8608c4b7",
    ),
    "exact": (
        "f5a9a21cb6ed071fe6b0cba45c6f638e18049c3142b43f3b208eeecd4a66310a",
        "ccef8065fab72ed65fa6d7cb492b2f4857a3df3007edbc333519db0e898f90a2",
        "78808e6daf42ab9b7a48b4b8b048e8d4c6c08cb8dd0f93adbb1783c87afdb2e5",
    ),
}

# the same without ``record_distances``: the default event line
GOLDEN_DEFAULT = {
    "sketch": (
        "1f52dd6646f8c5ef34d0752a4a2df3f9652134a6cdb4c2c8cbb39d853a906e07",
        "62ebf95ce15896566a6f2781a1f27b032d8b5bf55b7980e90a0bf01620bc6688",
        "42f6871c907fcbe0998753877ccd29c14669fdfd556cf61ff959956c8608c4b7",
    ),
    "exact": (
        "1f52dd6646f8c5ef34d0752a4a2df3f9652134a6cdb4c2c8cbb39d853a906e07",
        "796ed46414d6749e220830ae2e02cb1b0fc8c750a7ad339017fcb63d1c19265c",
        "78808e6daf42ab9b7a48b4b8b048e8d4c6c08cb8dd0f93adbb1783c87afdb2e5",
    ),
}


def _run(backend: str, record_distances: bool = True) -> tuple[str, str, str]:
    schema = synth_schema(SYNTH)
    engine = Engine(CONFIG, schema, backend=backend, record_distances=record_distances)
    events = hashlib.sha256()
    for now, g in enumerate(generate_graphs(SYNTH), start=1):
        events.update(engine.process(preprocess(g, schema)).to_json().encode() + b"\n")
        if now % RESUME_EVERY == 0:
            engine = Engine.from_bytes(engine.to_bytes())
    blob = engine.to_bytes()
    (hlen,) = struct.unpack_from("<I", blob, 5)
    end = 9 + hlen
    return (
        events.hexdigest(),
        hashlib.sha256(blob[:end]).hexdigest(),
        hashlib.sha256(blob[end:]).hexdigest(),
    )


@pytest.mark.parametrize("backend", sorted(GOLDEN))
def test_events_and_checkpoint_match_golden_digests(backend):
    assert _run(backend) == GOLDEN[backend]


@pytest.mark.parametrize("backend", sorted(GOLDEN_DEFAULT))
def test_default_events_and_checkpoint_match_golden_digests(backend):
    assert _run(backend, record_distances=False) == GOLDEN_DEFAULT[backend]
