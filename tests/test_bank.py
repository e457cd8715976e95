"""The engine's cluster bank against the per-cluster reference.

A reference loop routes the same stream with one ``ClusterStats`` per
cluster, and ``reference.py``'s ``component_distances_sq``,
``intra_vector_sq`` and ``cluster_geometry`` with the library's
``refine_weights``: the arithmetic the bank batches. The engine resumes
from a checkpoint mid-stream, where the bank's section of it, before and
after loading, must equal bytes built here from the reference clusters. Actions and cluster indices must match;
distances must be bitwise equal on integer masses, where every sum is
exact, and within ``rtol=1e-12`` otherwise, where the batched products may
add in another order. The bank's checkpoint section round-trips, and
rejects a truncation, on both backends.
"""

import random
import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from reference import (
    SCHEMA,
    ClusterStats,
    add_at,
    bank_distances_sq,
    bank_geometry,
    cluster_geometry,
    component_distances_sq,
    cut,
    distance_sq,
    filled,
    gathered_cross,
    generate_graphs,
    graph,
    graph_of,
    graph_view,
    intra_vector_sq,
    pair_cross,
    pair_distances_sq,
    separating_rows,
    view_of,
)
from sketchclust import (
    ACTION_ASSIGNED,
    ACTION_INITIALIZED,
    ACTION_REPLACED,
    Engine,
    EngineConfig,
    GraphObject,
    GraphView,
    SketchConfig,
    StreamSchema,
    SynthConfig,
    graph_views,
    preprocess,
    refine_weights,
    synth_schema,
)
from sketchclust.exact import ExactBank, _self_product
from sketchclust.native import kernel
from sketchclust.stats import ClusterBank


def _bank_bytes(clusters: list[ClusterStats]) -> bytes:
    """The bank's checkpoint section for these clusters: slot count, ``n``
    and ``t_last`` as ``i8``, second moments ``(m, d+1)``, then every cell
    as one ``(d+1, m, rows, cols)`` block."""
    m = len(clusters)
    cells = np.stack([np.stack([s.cells for s in c.sketches]) for c in clusters], axis=1)
    return b"".join(
        (
            struct.pack(f"<I{m}q{m}q", m, *(c.n for c in clusters), *(c.t_last for c in clusters)),
            np.stack([c.second_moments for c in clusters]).astype("<f8").tobytes(),
            cells.astype("<f8").tobytes(),
        )
    )


def _bank_section(engine: Engine) -> bytes:
    """The bank's section of the engine's checkpoint: everything after the
    magic, version, header, graph count and weights."""
    blob = engine.to_bytes()
    (hlen,) = struct.unpack_from("<I", blob, 5)
    off = 4 + 1 + 4 + hlen + 8
    (wlen,) = struct.unpack_from("<I", blob, off)
    return blob[off + 4 + 8 * wlen :]


def _reference(graphs, config: EngineConfig, schema, resume_at: int):
    """(action, cluster index, nearest distance, spread, component
    distances) per graph, the final weights and the bank section expected
    at ``resume_at``, from per-cluster code."""
    clusters: list[ClusterStats] = []
    section = b""
    weights = np.ones(schema.d + 1)
    out = []

    def founded(view, now):
        c = ClusterStats.empty(config.sketch, schema.d)
        c.absorb_views(view, now)
        return c

    for now, g in enumerate(graphs, 1):
        view = graph_views(g, schema)
        if len(clusters) < config.k:
            clusters.append(founded(view, now))
            out.append((ACTION_INITIALIZED, len(clusters) - 1, None, None, None))
        else:
            comp_sq = np.array([component_distances_sq(view, c) for c in clusters])
            es_all = comp_sq @ weights
            nearest = int(np.argmin(es_all))
            best = float(es_all[nearest])
            target = clusters[nearest]
            spread = (config.p / target.n) * float(intra_vector_sq(target) @ weights)
            if target.n == 1 or best < spread:
                target.absorb_views(view, now)
                out.append((ACTION_ASSIGNED, nearest, best, spread, comp_sq))
            else:
                stale = min(range(len(clusters)), key=lambda i: (clusters[i].t_last, i))
                clusters[stale] = founded(view, now)
                out.append((ACTION_REPLACED, stale, best, spread, comp_sq))
        if now % config.gamma == 0 and len(clusters) >= 2:
            weights = refine_weights(weights, cluster_geometry(clusters), config.barrier)
        if now == resume_at:
            section = _bank_bytes(clusters)
    return out, weights, section


def _engine(graphs, config: EngineConfig, schema, resume_at: int):
    """The events and final engine of a run that resumes from its own
    checkpoint at ``resume_at``, and its bank section there, before and
    after loading."""
    engine = Engine(config, schema, record_distances=True)
    events = []
    sections: list[bytes] = []
    for now, g in enumerate(graphs, 1):
        events.append(engine.process(g))
        if now == resume_at:
            sections.append(_bank_section(engine))
            engine = Engine.from_bytes(engine.to_bytes())
            sections.append(_bank_section(engine))
    return events, engine, sections


def _scaled(g: GraphObject, rng: random.Random) -> GraphObject:
    """The graph with every mass times a random non-integer factor."""
    return GraphObject(
        id=g.id,
        edges=[(s, t, f * rng.uniform(0.5, 2.0)) for s, t, f in g.edges],
        side={
            name: {a: v * rng.uniform(0.5, 2.0) for a, v in attrs.items()}
            for name, attrs in g.side.items()
        },
        label=g.label,
    )


STREAMS = {
    # k=2 at p=1 over four classes: replacements are frequent
    "k2": (
        SynthConfig(n_clusters=4, n_graphs=500, seed=23, edges_per_graph=12),
        dict(k=2, gamma=25, p=1.0),
    ),
    # k=16 small graphs over 16 classes, frequent refreshes
    "k16": (
        SynthConfig(
            n_clusters=16,
            n_graphs=700,
            seed=29,
            edges_per_graph=6,
            attrs_per_graph=3,
            noise_attrs_per_graph=1,
            nodes_per_community=20,
        ),
        dict(k=16, gamma=50),
    ),
}


@pytest.mark.parametrize("integer", [True, False], ids=["integer", "scaled"])
@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_bank_matches_per_cluster_reference(stream, integer):
    synth, engine_kw = STREAMS[stream]
    schema = synth_schema(synth)
    graphs = generate_graphs(synth)
    if not integer:
        rng = random.Random(31)
        graphs = [_scaled(g, rng) for g in graphs]
    graphs = [preprocess(g, schema) for g in graphs]
    config = EngineConfig(sketch=SketchConfig(rows=5, cols=64, seed=7), **engine_kw)
    resume_at = len(graphs) // 2 + 3

    expected, weights, section = _reference(graphs, config, schema, resume_at)
    events, engine, sections = _engine(graphs, config, schema, resume_at)

    assert [(e.action, e.cluster_index) for e in events] == [x[:2] for x in expected]
    # the bank writes, and reads back, exactly the reference clusters' arrays
    assert struct.unpack_from("<I", section)[0] == config.k
    assert sections == [section, section]
    actions = {e.action for e in events}
    assert actions == {ACTION_INITIALIZED, ACTION_ASSIGNED, ACTION_REPLACED}
    if integer:
        check = np.testing.assert_array_equal
    else:
        def check(actual, desired):
            np.testing.assert_allclose(actual, desired, rtol=1e-12, atol=0.0)
    for event, (_, _, best, spread, comp_sq) in zip(events, expected):
        if comp_sq is None:
            assert event.es_distance_sq is None and event.distances is None
            continue
        check(event.es_distance_sq, best)
        check(event.spread, spread)
        check(np.array(event.distances), np.sqrt(comp_sq))
    check(engine.weights, weights)
    assert not np.array_equal(weights, np.ones(schema.d + 1))


@given(
    d=st.integers(0, 3),
    rows=st.integers(1, 4),
    cols=st.integers(2, 12),
    m=st.integers(2, 8),
    spare=st.integers(0, 3),
    zero_slot=st.none() | st.integers(0, 7),
    integer=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=1, rows=3, cols=8, m=2, spare=0, zero_slot=0, integer=True, seed=1)
@example(d=2, rows=10, cols=12, m=16, spare=0, zero_slot=5, integer=False, seed=2)
def test_pair_cross_matches_the_square_product(d, rows, cols, m, spare, zero_slot, integer, seed):
    """``_pair_cross()``, the gemm of slots ``0..m-2`` against ``1..m-1``,
    gives each pair ``i < j`` at ``[:, i, j - 1]`` the syrk product's
    value: bitwise on whole cells, within the module's ``rtol=1e-12``
    otherwise; on whole cells the geometry built on it is bitwise the one
    built on the syrk product. ``m`` runs from 2 to the bank's ``k``, and a
    live slot may be all zero."""
    rng = np.random.default_rng(seed)
    bank = ClusterBank(SketchConfig(rows=rows, cols=cols), d, m + spare)
    # every slot filled, the dead ones too, so a read past m would show
    shape = bank.cells.shape
    if integer:
        cells = rng.integers(1, 1000, shape).astype(np.float64)
    else:
        cells = rng.uniform(0.0, 100.0, shape)
    cells[rng.random(shape) < rng.uniform(0.0, 0.9)] = 0.0
    if zero_slot is not None:
        cells[:, zero_slot % m] = 0.0
    bank.cells[...] = cells
    bank.size = m
    bank.n[:m] = rng.integers(1, 6, m)
    bank._square_rows(slice(0, m))
    bank.second_moments[:m] = bank.self_sq[:, :m].T * rng.uniform(1.0, 2.0, (m, d + 1))

    first, second = np.triu_indices(m, 1)
    block = bank._pair_cross()
    assert block.shape == (d + 1, m - 1, m - 1) and block.flags.c_contiguous
    got, want = block[:, first, second - 1].T, pair_cross(bank)[first, second]
    if not integer:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        return
    assert got.tobytes() == want.tobytes()
    geom = bank.geometry()
    square = pair_cross(bank).transpose(2, 0, 1)  # [c, i, j]
    bank._pair_cross = lambda: np.ascontiguousarray(square[:, :-1, 1:])
    oracle = bank.geometry()
    assert (geom.inter_sq.shape, geom.dropped) == (oracle.inter_sq.shape, oracle.dropped)
    assert geom.intra.tobytes() == oracle.intra.tobytes()
    assert geom.inter_sq.tobytes() == oracle.inter_sq.tobytes()


def _numpy_bank(config: SketchConfig, d: int, k: int) -> ClusterBank:
    """A sketch bank whose gather, scatter and closed form are numpy's:
    ``reference.gathered_cross``, ``reference.add_at`` (both over
    ``reference.digest_buckets``) and ``reference.bank_distances_sq``."""
    bank = ClusterBank(config, d, k)
    bank._cross = lambda view: gathered_cross(bank, view)
    bank._add = lambda slot, view, fresh: add_at(bank, slot, view, fresh)
    bank.distances_sq = lambda view: bank_distances_sq(bank, view)
    return bank


def _real_graph(rng, d: int, pool: list[str]) -> tuple[GraphObject, StreamSchema]:
    """A graph of real masses, not preprocessed, and its schema, over ids
    drawn with replacement from ``pool``: an edge may repeat, and keys
    collide in one cell within one graph. Some masses are 0.0 or -0.0, and
    about one graph in six has no key at all."""
    sizes = rng.integers(0, 25, d + 1) * (rng.random() > 1 / 6)
    ids = [pool[i] for i in rng.integers(0, len(pool), int(sizes.sum()))]
    values = rng.uniform(0.0, 10.0, len(ids)) * 10.0 ** rng.integers(-3, 4, len(ids))
    values[rng.random(len(ids)) < 0.1] = 0.0
    values[rng.random(len(ids)) < 0.1] = -0.0
    return graph_of(*cut(ids, values.tolist(), np.concatenate([[0], np.cumsum(sizes)]).tolist()))


def _signed_zeros(bank: ClusterBank, rng) -> bytes:
    """The bank's checkpoint section with about half its zero cells written
    as -0.0, which ``Bank.load`` accepts (``-0.0 >= 0``, and the row sums
    do not move)."""
    *parts, cells = bank.to_parts()
    cells = cells.copy()
    cells[(cells == 0.0) & (rng.random(cells.shape) < 0.5)] = -0.0
    return b"".join([*parts, cells])


@given(
    d=st.integers(0, 3),
    k=st.integers(1, 6),
    rows=st.integers(1, 12),
    cols=st.integers(2, 40),
    graphs=st.integers(1, 24),
    load_at=st.integers(0, 24),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=0, k=1, rows=1, cols=2, graphs=3, load_at=1, seed=0)
@example(d=2, k=5, rows=12, cols=37, graphs=24, load_at=9, seed=1)
@example(d=1, k=3, rows=10, cols=500, graphs=12, load_at=12, seed=2)
def test_the_bank_keeps_the_numpy_gather_and_scatter_bits(d, k, rows, cols, graphs, load_at, seed):
    """The sketch bank, on real masses, gives bit for bit what the numpy
    gather, ``np.add.at`` scatter and closed form give: the view's digests
    against hashlib's; ``_cross`` against the fancy-index gather summed in
    view order, and ``distances_sq`` against both with the numpy closed
    form, with ``m`` from 1 to ``k``; the cells and ``self_sq`` after each
    ``reset`` and ``absorb``, and then ``geometry`` against its numpy
    construction. Keys
    collide within one graph, a view may have no key, column counts need
    not be powers of two, and after ``load_at`` graphs both banks resume
    from a checkpoint whose zero cells are partly -0.0."""
    rng = np.random.default_rng(seed)
    config = SketchConfig(rows=rows, cols=cols, seed=seed)
    banks = ClusterBank(config, d, k), _numpy_bank(config, d, k)
    pool = [f"k{i}" for i in range(cols + 3)]
    for t in range(graphs):
        if t == load_at:
            blob = _signed_zeros(banks[0], rng)
            banks = ClusterBank(config, d, k), _numpy_bank(config, d, k)
            for bank in banks:
                assert bank.load(blob, 0, t) == len(blob)
        g, schema = _real_graph(rng, d, pool)
        view = graph_views(g, schema)
        assert view.digests.tobytes() == graph_view(g, schema)["digests"].tobytes()
        if len(banks[0]):
            got, want = (bank._cross(view) for bank in banks)
            assert got.shape == want.shape == (len(banks[0]), d + 1)
            assert got.tobytes() == want.tobytes()
            got, want = (bank.distances_sq(view) for bank in banks)
            assert got.tobytes() == want.tobytes()
        size = len(banks[0])
        slot = size if size < k else int(rng.integers(0, k))
        update = "reset" if slot == size or rng.random() < 0.3 else "absorb"
        for bank in banks:
            getattr(bank, update)(slot, view, t)
        assert banks[0].cells.tobytes() == banks[1].cells.tobytes()
        assert banks[0].self_sq.tobytes() == banks[1].self_sq.tobytes()
        if len(banks[0]) >= 2:
            got, want = banks[0].geometry(), bank_geometry(banks[1])
            assert got.inter_sq.tobytes() == want.inter_sq.tobytes()
            assert got.dropped == want.dropped


def _masses(rng, shape, zeros: float) -> np.ndarray:
    """Real masses over twelve decades, a ``zeros`` share of them 0.0 or -0.0."""
    masses = rng.uniform(0.0, 10.0, shape) * 10.0 ** rng.integers(-6, 7, shape)
    masses[rng.random(shape) < zeros / 2] = 0.0
    masses[rng.random(shape) < zeros / 2] = -0.0
    return masses


@given(
    d=st.integers(0, 3),
    k=st.integers(1, 16),
    m=st.integers(0, 16),
    top=st.integers(1, 2**26),
    zeros=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=1, k=4, m=4, top=2**26, zeros=0.3, seed=0)
@example(d=2, k=5, m=5, top=1, zeros=1.0, seed=1)
@example(d=0, k=16, m=9, top=2**26, zeros=0.0, seed=2)
def test_the_closed_forms_keep_the_numpy_bits(d, k, m, top, zeros, seed):
    """The kernel's graph and pair closed forms give bit for bit what numpy
    gave (``reference.distance_sq``, and for the pairs the listing, gather
    and kept mask of ``reference.pair_distances_sq``), on real-valued terms
    with counts up to ``top`` (2**26, where ``n * n`` needs all 53 bits),
    some terms 0.0 or -0.0 (all of them with ``zeros == 1``, where the
    clamp must turn every -0.0 into +0.0 and every pair is dropped) and
    many values clamped."""
    m = min(m, k)
    rng = np.random.default_rng(seed)
    self_sq = _masses(rng, (d + 1, k), zeros)
    n = rng.integers(max(1, top // 2), top + 1, k)
    n[rng.random(k) < 0.3] = top
    sq_sum = _masses(rng, d + 1, zeros)
    # cross terms near a + b: their differences cancel, and many go negative
    cross = _masses(rng, (m, d + 1), zeros) * (n[:m, None] / 2.0)
    got = cross.copy()
    kernel.graph_distances_sq(self_sq, n, sq_sum, got)
    nf = n[:m, None].astype(np.float64)
    want = distance_sq(sq_sum, cross, nf, self_sq[:, :m].T / (nf * nf))
    assert got.tobytes() == want.tobytes()
    side = max(m, 1) - 1
    cross = _masses(rng, (d + 1, side, side), zeros) * (n[:side, None] * n[1 : side + 1] / 2.0)
    got = np.full((side * (side + 1) // 2, d + 1), np.nan)
    kept = kernel.pair_distances_sq(self_sq, n, cross, got)
    assert got[:kept].tobytes() == pair_distances_sq(self_sq, n, cross).tobytes()


# (term, cross, sq_sum or a, self_sq): each value overflows or is not finite
_NOT_FINITE = {
    "2 cross": (1e308, 1.0, 1.0),
    "a + b": (0.0, 1.5e308, 1.5e308),
    "infinite a": (1.0, np.inf, 1.0),
    "nan cross": (np.nan, 1.0, 1.0),
}


@pytest.mark.parametrize("term", sorted(_NOT_FINITE))
def test_a_closed_form_that_is_not_finite_raises_as_numpy_did(term):
    """A term that overflows, or an input that is not finite, makes both
    closed forms raise the one ValueError that the numpy form raised; the
    clamp would have read an infinity as a distance or a NaN as 0."""
    cross, a, b = _NOT_FINITE[term]
    self_sq, n = np.array([[a, b]]), np.array([1, 1])
    forms = [
        lambda c: kernel.graph_distances_sq(self_sq[:, 1:], n[1:], np.array([a]), c),
        lambda c: distance_sq(np.array([a]), c, 1.0, self_sq[:, 1:].T),
        lambda c: kernel.pair_distances_sq(self_sq, n, c[None], np.empty((1, 1))),
        lambda c: pair_distances_sq(self_sq, n, c[None]),
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        for form in forms:
            with pytest.raises(ValueError, match="^a squared distance is not finite$"):
                form(np.array([[cross]]))


def _random_bank(exact, d, k, m, integer, rng) -> ExactBank | ClusterBank:
    """A bank of ``k`` slots with ``m`` live, every slot filled with random
    masses (some zero), counts from 1 to 5 and second moments at or above
    the self products over n."""
    if exact:
        bank = ExactBank(d, k)
        for slot in range(k):
            for comp in range(d + 1):
                size = int(rng.integers(0, 6))
                keys = rng.choice(8, size, replace=False)
                if integer:
                    masses = rng.integers(0, 9, size).astype(np.float64)
                else:
                    masses = rng.uniform(0.0, 10.0, size)
                bank.maps[slot][comp] = {int(key): float(v) for key, v in zip(keys, masses)}
                bank.self_sq[comp, slot] = _self_product(bank.maps[slot][comp])
    else:
        bank = ClusterBank(SketchConfig(rows=int(rng.integers(1, 4)), cols=6), d, k)
        shape = bank.cells.shape
        if integer:
            cells = rng.integers(1, 9, shape).astype(np.float64)
        else:
            cells = rng.uniform(0.0, 10.0, shape)
        cells[rng.random(shape) < rng.uniform(0.0, 0.9)] = 0.0
        bank.cells[...] = cells
        bank._square_rows(slice(0, k))
    bank.n[:] = rng.integers(1, 6, k)
    bank.second_moments[:] = bank.self_sq.T / bank.n[:, None] * rng.uniform(1.0, 2.0, (k, d + 1))
    bank.size = m
    return bank


def _copy_slot(bank, src: int, dst: int) -> None:
    """Slot ``dst`` made ``src``'s twin: their centroids coincide."""
    if isinstance(bank, ExactBank):
        bank.maps[dst] = [dict(mp) for mp in bank.maps[src]]
    else:
        bank.cells[:, dst] = bank.cells[:, src]
    bank.self_sq[:, dst] = bank.self_sq[:, src]
    bank.n[dst] = bank.n[src]
    bank.second_moments[dst] = bank.second_moments[src]


def _zero_slot(bank, slot: int) -> None:
    """Slot ``slot`` with no mass: its intra row and its self product are 0."""
    if isinstance(bank, ExactBank):
        bank.maps[slot] = [{} for _ in range(bank.d + 1)]
    else:
        bank.cells[:, slot] = 0.0
    bank.self_sq[:, slot] = 0.0
    bank.second_moments[slot] = 0.0


@given(
    exact=st.booleans(),
    d=st.integers(0, 3),
    k=st.integers(2, 16),
    m=st.integers(2, 16),
    other_m=st.integers(2, 16),
    twins=st.integers(0, 3),
    zeros=st.integers(0, 3),
    signed_zeros=st.booleans(),
    integer=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(
    exact=False, d=1, k=4, m=4, other_m=2, twins=0, zeros=0, signed_zeros=False, integer=True, seed=1
)
@example(
    exact=True, d=2, k=3, m=3, other_m=2, twins=1, zeros=3, signed_zeros=True, integer=False, seed=2
)
@example(
    exact=False, d=0, k=16, m=16, other_m=9, twins=0, zeros=0, signed_zeros=False, integer=False, seed=3
)
def test_geometry_matches_the_reference_construction(
    exact, d, k, m, other_m, twins, zeros, signed_zeros, integer, seed
):
    """``Bank.geometry`` gives bitwise the ``intra``, the ``inter_sq`` rows
    in order and the dropped count of its old construction, on both
    backends, with ``m`` from 2 to ``k``. Twin slots and empty slots make
    dropped pairs; with ``signed_zeros`` every zero intra row reads
    ``-0.0``, whose sums must keep the old sign. The size changes between
    calls, and each call lists the pairs of its own size."""
    m, other_m = min(m, k), min(other_m, k)
    rng = np.random.default_rng(seed)
    bank = _random_bank(exact, d, k, m, integer, rng)
    for _ in range(twins):
        _copy_slot(bank, *rng.integers(0, k, 2))
    for _ in range(zeros):
        _zero_slot(bank, int(rng.integers(0, k)))
    if signed_zeros:
        intra_sq = bank.intra_sq
        bank.intra_sq = lambda slots: np.where(intra_sq(slots) == 0.0, -0.0, intra_sq(slots))
    for size in (m, other_m, m):
        bank.size = size
        got, want = bank.geometry(), bank_geometry(bank)
        assert got.dropped == want.dropped
        assert got.intra.tobytes() == want.intra.tobytes()
        kept = size * (size - 1) // 2 - want.dropped
        assert got.inter_sq.shape == want.inter_sq.shape == (kept, d + 1)
        assert got.inter_sq.tobytes() == want.inter_sq.tobytes()


@pytest.mark.parametrize("exact", [False, True], ids=["sketch", "exact"])
def test_geometry_and_distances_share_one_closed_form(exact):
    """With slot 0 a singleton holding graph ``g``, each ``geometry`` row
    ``(0, j)`` is bitwise ``distances_sq(view of g)[j]``: on integer masses
    the two read the same terms, through the one closed form. The sketch's
    seed separates every key, so its estimates are exact."""
    rng = random.Random(25)
    graphs = [
        graph(
            i,
            [(f"n{rng.randrange(6)}", f"n{rng.randrange(6)}", float(rng.randrange(1, 9)))],
            {f"t{rng.randrange(8)}": float(rng.randrange(1, 4)) for _ in range(2)},
        )
        for i in range(13)
    ]
    keys = sorted({key for g in graphs for key in graph_views(g, SCHEMA).digests.tolist()})
    configs = (SketchConfig(rows=4, cols=256, seed=seed) for seed in range(100))
    config = next(c for c in configs if separating_rows(c, keys))
    views = [graph_views(g, SCHEMA) for g in graphs]
    bank = ExactBank(SCHEMA.d, 5) if exact else ClusterBank(config, SCHEMA.d, 5)
    # slot 0 holds graph 0; slots 1..4 hold three graphs each
    filled(bank, views[:1], *(views[j::4] for j in range(1, 5)))
    geometry = bank.geometry()
    assert geometry.dropped == 0
    assert geometry.inter_sq[:4].tobytes() == bank.distances_sq(views[0])[1:].tobytes()


# the graphs ``_two_clusters`` absorbs, and the graph count ``_loads`` passes
_GRAPHS = 6


def _two_clusters(exact: bool) -> ExactBank | ClusterBank:
    """A bank of two slots, both live, over integer masses: the state a
    ``k=2`` run holds after ``_GRAPHS`` graphs."""
    if exact:
        bank = ExactBank(SCHEMA.d, 2)
    else:
        bank = ClusterBank(SketchConfig(rows=3, cols=16), SCHEMA.d, 2)
    for i in range(_GRAPHS):
        g = graph(i, [("a", f"n{i % 3}", 1.0 + i)], {f"t{i % 4}": 2.0})
        view = graph_views(g, SCHEMA)
        if len(bank) < 2:
            bank.reset(len(bank), view, i)
        else:
            bank.absorb(i % 2, view, i)
    return bank


def _empty_like(bank) -> ExactBank | ClusterBank:
    """An empty two-slot bank of ``bank``'s backend and shape."""
    if isinstance(bank, ExactBank):
        return ExactBank(bank.d, 2)
    return ClusterBank(bank.config, bank.d, 2)


def _loads(bank, blob: bytes) -> bytes:
    """``blob`` loaded by an empty bank of ``bank``'s shape, written back."""
    again = _empty_like(bank)
    assert again.load(blob, 0, _GRAPHS) == len(blob)
    return b"".join(again.to_parts())


@pytest.mark.parametrize("exact", [False, True], ids=["sketch", "exact"])
def test_serialization_round_trip(exact):
    bank = _two_clusters(exact)
    blob = b"".join(bank.to_parts())
    again = _empty_like(bank)
    assert again.load(b"pad" + blob, 3, _GRAPHS) == 3 + len(blob)
    assert len(again) == 2
    if exact:
        assert again.maps == bank.maps
    else:
        assert np.array_equal(again.cells, bank.cells)
    for name in ("self_sq", "second_moments", "n", "t_last"):
        assert np.array_equal(getattr(again, name), getattr(bank, name)), name
    assert b"".join(again.to_parts()) == blob


@pytest.mark.parametrize("exact", [False, True], ids=["sketch", "exact"])
def test_from_bytes_rejects_garbage(exact):
    bank = _two_clusters(exact)
    blob = bytearray(b"".join(bank.to_parts()))
    for size in range(len(blob)):
        with pytest.raises(ValueError, match="truncated"):
            _empty_like(bank).load(bytes(blob[:size]), 0, _GRAPHS)
    blob[:4] = b"XXXX"  # a slot count far above k, rejected before any array
    with pytest.raises(ValueError, match="more than k"):
        _empty_like(bank).load(bytes(blob), 0, _GRAPHS)


@pytest.mark.parametrize("update", ["reset", "absorb"])
@pytest.mark.parametrize("exact", [False, True], ids=["sketch", "exact"])
def test_an_update_whose_second_moments_would_not_be_finite_writes_nothing(exact, update):
    """A graph not preprocessed, one mass of ``1e200``, squares past float
    range: ``graph_views`` rejects it, so no ``reset`` or ``absorb`` is
    handed its view, and no array changes."""
    bank = _two_clusters(exact)
    before = (b"".join(bank.to_parts()), bank.self_sq.tobytes())
    overflows = "^component 0's masses must have a finite sum of squares$"
    with pytest.raises(ValueError, match=overflows):
        getattr(bank, update)(1, view_of({"a\x1fb": 1e200}, {"t": 1.0}), _GRAPHS)
    assert (b"".join(bank.to_parts()), bank.self_sq.tobytes()) == before


def _one_edge_view(bank, mass: float) -> GraphView:
    """The view of one x-z edge of ``mass``, for an empty schema."""
    schema = StreamSchema()
    g = preprocess(GraphObject("g", [("x", "z", mass)]), schema)
    return graph_views(g, schema)


@pytest.mark.parametrize("exact", [False, True], ids=["sketch", "exact"])
def test_an_absorb_whose_self_product_would_not_be_finite_writes_nothing(exact):
    """A slot founded on x-z at ``1e154`` absorbing x-z at ``0.4e154``: the
    second moment would be a finite ``1.16e308``, but the self product
    ``(1.4e154)**2`` is past float range. ``absorb`` rejects it before any
    array changes; the bound is exact for one key, so ``1.3e154`` in total
    still joins."""
    bank = ExactBank(0, 2) if exact else ClusterBank(SketchConfig(rows=3, cols=16), 0, 2)
    bank.reset(0, _one_edge_view(bank, 1e154), 1)
    before = (b"".join(bank.to_parts()), bank.self_sq.tobytes())
    with pytest.raises(ValueError, match="slot 0's self product would not be finite"):
        bank.absorb(0, _one_edge_view(bank, 0.4e154), 2)
    assert (b"".join(bank.to_parts()), bank.self_sq.tobytes()) == before
    bank.absorb(0, _one_edge_view(bank, 0.3e154), 2)
    assert bank.self_sq[0, 0] == pytest.approx(1.3e154**2)


@pytest.mark.parametrize("exact", [False, True], ids=["sketch", "exact"])
def test_a_reset_whose_self_product_could_overflow_keeps_the_evicted_cluster(exact):
    """Two edge keys of ``0.9e154`` square-sum to a finite ``1.62e308``,
    but the sketch may hash both into one cell, where their self product
    ``(1.8e154)**2`` is past float range; the bound takes that case on
    either backend. ``reset`` rejects the graph and slot 1's cluster stays
    byte for byte."""
    bank = _two_clusters(exact)
    before = (b"".join(bank.to_parts()), bank.self_sq.tobytes())
    view = view_of({"a\x1fb": 0.9e154, "c\x1fd": 0.9e154}, {"t": 1.0})
    assert np.isfinite(view.sq_sum).all()
    with pytest.raises(ValueError, match="slot 1's self product would not be finite"):
        bank.reset(1, view, _GRAPHS)
    assert (b"".join(bank.to_parts()), bank.self_sq.tobytes()) == before


@pytest.mark.parametrize("exact", [False, True], ids=["sketch", "exact"])
def test_a_geometry_whose_pair_cross_product_overflows_raises(exact):
    """Two singleton slots of edge x-z, masses ``1.3e154`` and ``1.2e154``:
    finite second moments and centroids ``1e306`` apart, but the pair's
    ``2 * cross`` overflows. Clamped, the pair read as coincident and was
    dropped; ``geometry`` raises instead."""
    schema = StreamSchema()
    bank = ExactBank(0, 2) if exact else ClusterBank(SketchConfig(rows=3, cols=16), 0, 2)
    for slot, mass in enumerate((1.3e154, 1.2e154)):
        g = preprocess(GraphObject(f"g{slot}", [("x", "z", mass)]), schema)
        bank.reset(slot, graph_views(g, schema), slot + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="a squared distance is not finite"):
            bank.geometry()


def _set_second_moment(bank, value) -> None:
    bank.second_moments[1, 0] = value


def _set_first_moment(bank, value) -> None:
    if isinstance(bank, ExactBank):
        masses = bank.maps[1][0]
        masses[next(iter(masses))] = value
    else:
        bank.cells[0, 1, 0, 0] = value


@pytest.mark.parametrize("value", [float("nan"), -1.0, float("inf")])
@pytest.mark.parametrize("moment", ["second", "first"])
@pytest.mark.parametrize("exact", [False, True], ids=["sketch", "exact"])
def test_load_alone_rejects_negative_or_non_finite_moments(exact, moment, value):
    """``Bank.load`` alone checks each array as it reads it: a second
    moment, or a cell or map mass, that no run holds."""
    bank = _two_clusters(exact)
    blob = b"".join(bank.to_parts())
    assert _loads(bank, blob) == blob
    {"second": _set_second_moment, "first": _set_first_moment}[moment](bank, value)
    with pytest.raises(ValueError, match=f"negative or non-finite {moment} moments"):
        _loads(bank, b"".join(bank.to_parts()))


@pytest.mark.parametrize("value", [float("inf"), float("nan"), -1.0])
@pytest.mark.parametrize("cell", [(0, 0, 0, 0), (1, 1, 2, 15)], ids=["first", "last"])
def test_load_reports_a_bad_cell_with_the_one_message(cell, value):
    """Whichever of its passes finds it, a sketch cell of inf, NaN or -1
    is reported with the same message, and before the row-sum check."""
    bank = _two_clusters(exact=False)
    bank.cells[cell] = value
    with pytest.raises(ValueError) as info:
        _loads(bank, b"".join(bank.to_parts()))
    assert str(info.value) == "checkpoint holds negative or non-finite first moments"


def _set_large_first_moments(bank, value) -> None:
    """Slot 1's edge masses, or every cell of its edge grid, at ``value``."""
    if isinstance(bank, ExactBank):
        masses = bank.maps[1][0]
        masses.update(dict.fromkeys(masses, value))
    else:
        bank.cells[0, 1] = value


@pytest.mark.parametrize("value", [1e308, 1e154], ids=["totals_overflow", "squares_overflow"])
@pytest.mark.parametrize("exact", [False, True], ids=["sketch", "exact"])
def test_load_rejects_finite_first_moments_whose_self_product_overflows(exact, value):
    """No update leaves a self product that is not finite, so a checkpoint
    whose first moments, each finite, recompute to one is rejected: sketch
    cells or map masses of ``1e308``, whose row totals overflow as well,
    or of ``1e154``, whose totals stay finite. Neither warns first."""
    bank = _two_clusters(exact)
    _set_large_first_moments(bank, value)
    with pytest.raises(ValueError, match="a cluster whose self product is not finite"):
        _loads(bank, b"".join(bank.to_parts()))


def test_load_alone_rejects_a_sketch_whose_rows_sum_apart():
    bank = _two_clusters(exact=False)
    bank.cells[0, 1, 0, 0] += 1.0  # one row's total now one above the others
    with pytest.raises(ValueError, match="rows sum to different totals"):
        _loads(bank, b"".join(bank.to_parts()))
