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
        "e3d1a197bdd69429ef67d74651ae1e97f217f3b2a9a33458f9b037869f7f2d0e",
        "42f6871c907fcbe0998753877ccd29c14669fdfd556cf61ff959956c8608c4b7",
    ),
    "exact": (
        "f5a9a21cb6ed071fe6b0cba45c6f638e18049c3142b43f3b208eeecd4a66310a",
        "8346892194859d92475ba0912bf007f5cdede0e7937912c95e771173bd2e6f87",
        "8ec37850de698a4ff1feafd403301aa8ddc5896f4d9dbdcef18d9e2cfa7c14c6",
    ),
}

# the same without ``record_distances``: the default event line
GOLDEN_DEFAULT = {
    "sketch": (
        "1f52dd6646f8c5ef34d0752a4a2df3f9652134a6cdb4c2c8cbb39d853a906e07",
        "424dba54aed0b577b004864de90ddf2309476787a8d49af572c7cbeda42e2aa5",
        "42f6871c907fcbe0998753877ccd29c14669fdfd556cf61ff959956c8608c4b7",
    ),
    "exact": (
        "1f52dd6646f8c5ef34d0752a4a2df3f9652134a6cdb4c2c8cbb39d853a906e07",
        "99547d1e70071a1b215e93f8a7a39c4cf520e2c2af815b273e2dda0eff2f5d6f",
        "8ec37850de698a4ff1feafd403301aa8ddc5896f4d9dbdcef18d9e2cfa7c14c6",
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


def test_an_exact_engine_resumes_its_maps_in_order():
    """The golden stream's exact engine, resumed from its checkpoint, holds
    the same maps, keyed by the same digests in the same insertion order,
    and the same self products, and writes the same bytes back."""
    schema = synth_schema(SYNTH)
    engine = Engine(CONFIG, schema, backend="exact")
    for g in generate_graphs(SYNTH):
        engine.process(preprocess(g, schema))
    blob = engine.to_bytes()
    resumed = Engine.from_bytes(blob)

    def entries(e: Engine) -> list:
        return [[list(mp.items()) for mp in maps] for maps in e.bank.maps]

    assert all(type(key) is int for maps in engine.bank.maps for mp in maps for key in mp)
    assert entries(resumed) == entries(engine)
    assert resumed.bank.self_sq.tobytes() == engine.bank.self_sq.tobytes()
    assert resumed.to_bytes() == blob
