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
        "8f39531991ad607086d0282842c10c6d05a3f8b6c8d57233d353528969269665",
        "42f6871c907fcbe0998753877ccd29c14669fdfd556cf61ff959956c8608c4b7",
    ),
    "exact": (
        "f5a9a21cb6ed071fe6b0cba45c6f638e18049c3142b43f3b208eeecd4a66310a",
        "90ad328e076e419cf4dd8e26d961b892ac839c6b49cc5e4b526c9ca0bc65d65e",
        "78808e6daf42ab9b7a48b4b8b048e8d4c6c08cb8dd0f93adbb1783c87afdb2e5",
    ),
}

# the same without ``record_distances``: the default event line
GOLDEN_DEFAULT = {
    "sketch": (
        "1f52dd6646f8c5ef34d0752a4a2df3f9652134a6cdb4c2c8cbb39d853a906e07",
        "c9510fc9c9c6910f2e89b86084f709981ad361b3634b014db2a3a23cc56d7093",
        "42f6871c907fcbe0998753877ccd29c14669fdfd556cf61ff959956c8608c4b7",
    ),
    "exact": (
        "1f52dd6646f8c5ef34d0752a4a2df3f9652134a6cdb4c2c8cbb39d853a906e07",
        "55e9a20a9d4ee0e08409f1645c73fd8d265dba219c00b607e9ac2c4dfaf1e23e",
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
