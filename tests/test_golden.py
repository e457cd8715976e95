"""Golden outputs: the events and final checkpoint of one fixed run, pinned.

A refactor that claims to keep the engine's behaviour must keep these bytes.
The run is a 1,500-graph synth stream with diagnostics on, checkpointed and
resumed every 250 graphs, on both backends; the same run without
diagnostics pins the event line that a plain ``cluster`` run writes. At
p=1 about two graphs in three replace a cluster and the rest are assigned.
On this stream the default sketch sees no collision that changes an event,
so both backends emit the same events. A checkpoint is pinned in two
parts, its header (magic, version, length and JSON) and the state after
it, so a change to the config's fields moves only the first.

The digests are meant to hold on any x86-64 host with numpy 2.4, whatever
its BLAS kernel, vector units or libm: every sum on the event path is
added in a stated order in the compiled kernel (a graph's cross products
and squares in view order, the routing's weighted sums and the whole
weight refresh left to right from 0.0, with the kernel's own ``log``).
Two sums are still the libraries': the refresh's pair cross products
(``ClusterBank._pair_cross``, a gemm) and the sketch rows' squares
(``ClusterBank._square_rows``, an ``einsum``). Synth masses are small
integers, so on this stream both are exact in any order; on real masses
the digests would depend on them. ``test_every_host_setting_gives_the_golden_digests``
runs the stream in subprocesses under BLAS cores, numpy dispatch levels
and glibc variants that differ from this host's defaults, and asserts
the same digests.
"""

import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import sketchclust

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
# its header) per backend. Re-pinned when the weight refresh moved into the
# kernel and the routing's weighted sums into a stated order: the learned
# weights, and so the events and checkpoints, moved in their last bits.
GOLDEN = {
    "sketch": (
        "72add6a59840e40773881b8922c27c707393c8b85330174788b65acf49c8ed83",
        "e3d1a197bdd69429ef67d74651ae1e97f217f3b2a9a33458f9b037869f7f2d0e",
        "4a847c039216a4944119c1306c173855076833ad778cdab5ee64592b5f018502",
    ),
    "exact": (
        "72add6a59840e40773881b8922c27c707393c8b85330174788b65acf49c8ed83",
        "8346892194859d92475ba0912bf007f5cdede0e7937912c95e771173bd2e6f87",
        "f18d858fb782b7472a71b6c71505773a889102b871d856e3a05283d20d8335e7",
    ),
}

# the same without ``record_distances``: the default event line
GOLDEN_DEFAULT = {
    "sketch": (
        "c16c3a3fce72a02887e7ea85c9590589426a23c7c63df524bfa8b3feffc803e8",
        "424dba54aed0b577b004864de90ddf2309476787a8d49af572c7cbeda42e2aa5",
        "4a847c039216a4944119c1306c173855076833ad778cdab5ee64592b5f018502",
    ),
    "exact": (
        "c16c3a3fce72a02887e7ea85c9590589426a23c7c63df524bfa8b3feffc803e8",
        "99547d1e70071a1b215e93f8a7a39c4cf520e2c2af815b273e2dda0eff2f5d6f",
        "f18d858fb782b7472a71b6c71505773a889102b871d856e3a05283d20d8335e7",
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


# Settings that change which library code runs, each set for one
# subprocess only: another OpenBLAS core, numpy's dispatch limited to
# X86_V2, and glibc without its AVX2 and FMA variants (of ``log`` among
# others). Under the first two the digests differed before every event
# sum had a stated order.
HOST_SETTINGS = {
    "default": {},
    "openblas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "openblas-prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "numpy-x86-v2": {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
    "glibc-no-fma": {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2_Usable,-FMA_Usable,-AVX2,-FMA"},
}


@pytest.mark.parametrize("setting", sorted(HOST_SETTINGS))
def test_every_host_setting_gives_the_golden_digests(setting):
    """The golden runs of both backends, with and without diagnostics, in a
    fresh interpreter under the setting, give the pinned digests."""
    tests = Path(__file__).resolve().parent
    src = Path(sketchclust.__file__).resolve().parent.parent
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(tests), str(src)]),
        PYTHONDONTWRITEBYTECODE="1",
        **HOST_SETTINGS[setting],
    )
    code = (
        "import json, test_golden as t; print(json.dumps("
        "[[t._run(b), t._run(b, record_distances=False)] for b in ('exact', 'sketch')]))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=tests, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr[-4000:]
    got = [[tuple(run) for run in runs] for runs in json.loads(done.stdout)]
    assert got == [[GOLDEN[b], GOLDEN_DEFAULT[b]] for b in ("exact", "sketch")]


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
