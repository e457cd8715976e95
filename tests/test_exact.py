"""The exact bank's map-backed statistics, keyed by the keys' digests: the
differential-testing oracle."""

import random

import numpy as np
import pytest

from reference import (
    SCHEMA,
    component,
    cut_view,
    distances,
    filled,
    generate_graphs,
    graph,
    key_digests,
    members_intra_sq,
    separating_rows,
    spreads,
    view_of,
)
from sketchclust import (
    Engine,
    EngineConfig,
    GraphObject,
    SketchConfig,
    graph_views,
    preprocess,
    synth_schema,
)
from sketchclust.exact import ExactBank
from sketchclust.stats import ClusterBank
from test_golden import CONFIG, RESUME_EVERY, SYNTH


def _random_graph(rng: random.Random, i: int) -> GraphObject:
    edges = [
        (f"n{rng.randrange(6)}", f"n{rng.randrange(6)}", float(rng.randrange(1, 4)))
        for _ in range(rng.randrange(1, 6))
    ]
    topics = {
        f"t{rng.randrange(10)}": float(rng.randrange(1, 4))
        for _ in range(rng.randrange(1, 5))
    }
    return graph(i, edges, topics)


def _one_slot(graphs, bank=None):
    """A one-slot bank (exact unless given) holding ``graphs``."""
    bank = bank if bank is not None else ExactBank(SCHEMA.d, 1)
    return filled(bank, [graph_views(g, SCHEMA) for g in graphs])


def test_accessor_surface_matches_truth():
    c = _one_slot(
        [
            graph(0, [("a", "b", 2.0)], {"x": 1.0, "y": 2.0}),
            graph(1, [("a", "b", 1.0)], {"x": 3.0}),
        ]
    )
    assert c.n[0] == 2
    assert c.second_moments[0].tolist() == [5.0, 14.0]
    ab, x, y = key_digests([b"a\x1fb", b"x", b"y"]).tolist()
    assert c.maps[0] == [{ab: 3.0}, {x: 4.0, y: 2.0}]
    assert c.self_sq[:, 0].tolist() == [9.0, 16.0 + 4.0]
    view = graph_views(graph(2, [("a", "b", 1.0)], {"x": 1.0, "z": 1.0}), SCHEMA)
    # edges 1 - 2 * 3 / 2 + 9 / 4, topics 2 - 2 * (1 * 4 + 1 * 0) / 2 + 20 / 4
    assert distances(c, view)[0].tolist() == [1.0 - 3.0 + 9.0 / 4.0, 3.0]


def test_cross_product_is_exact():
    bank = filled(
        ExactBank(SCHEMA.d, 2),
        [graph_views(graph(0, [], {"x": 2.0, "y": 1.0}), SCHEMA)],
        [graph_views(graph(1, [], {"x": 3.0, "z": 5.0}), SCHEMA)],
    )
    # 5 - 2 * 6 + 34: the squared distance between the two maps
    assert bank.geometry().inter_sq.tolist() == [[0.0, 27.0]]


def test_cross_product_sums_the_smaller_maps_keys_in_its_order():
    """``_pair_cross`` walks the smaller of two maps in its insertion order,
    whichever slot holds it, and adds from 0.0 left to right. The common
    keys' products run 1e16, 1, 1 in the smaller map, which sums to 1e16
    (each 1 rounds away), and 1, 1, 1e16 in the larger one, which would sum
    to 1e16 + 2, as would a compensated sum (Python 3.12's ``sum``) in
    either order. The smaller map's self product, its squares 1e16, 1, 1
    in that order, is 1e16 too."""
    small = view_of({"k1\x1f": 1e8, "k2\x1f": 1.0, "k3\x1f": 1.0}, {})
    large = view_of({"k3\x1f": 1.0, "k2\x1f": 1.0, "k1\x1f": 1e8, "k4\x1f": 1.0}, {})
    for first, second in ((small, large), (large, small)):
        bank = filled(ExactBank(SCHEMA.d, 2), [first], [second])
        assert bank._pair_cross().tolist() == [[[1e16]], [[0.0]]]
        assert bank.self_sq[0, 0 if first is small else 1] == 1e16


def test_parity_with_sketch_backend_when_separated():
    rng = random.Random(7)
    graphs = [_random_graph(rng, i) for i in range(12)]
    keys_by_comp: list[set[int]] = [set(), set()]
    for g in graphs:
        view = graph_views(g, SCHEMA)
        for comp, keys in enumerate(keys_by_comp):
            keys.update(component(view, comp)[0])
    cfg = None
    for seed in range(50):
        candidate = SketchConfig(rows=6, cols=1024, seed=seed)
        if all(
            separating_rows(candidate, sorted(keys))
            for keys in keys_by_comp
            if keys
        ):
            cfg = candidate
            break
    assert cfg is not None, "no separating seed found"

    # three clusters over the first nine graphs; the rest are probes
    clusters = [[graph_views(g, SCHEMA) for g in graphs[i:9:3]] for i in range(3)]
    sketch = filled(ClusterBank(cfg, SCHEMA.d, 3), *clusters)
    exact = filled(ExactBank(SCHEMA.d, 3), *clusters)
    for g in graphs[9:]:
        view = graph_views(g, SCHEMA)
        np.testing.assert_allclose(distances(sketch, view), distances(exact, view))
    np.testing.assert_allclose(
        spreads(sketch.second_moments[:3], sketch.self_sq[:, :3], sketch.n[:3]),
        spreads(exact.second_moments[:3], exact.self_sq[:, :3], exact.n[:3]),
    )
    ours, theirs = sketch.geometry(), exact.geometry()
    assert (ours.inter_sq.shape, ours.dropped) == (theirs.inter_sq.shape, theirs.dropped)
    np.testing.assert_allclose(ours.intra, theirs.intra)
    np.testing.assert_allclose(ours.inter_sq, theirs.inter_sq)


def _rows_separating(keys) -> SketchConfig:
    """A config every row of which puts ``keys`` in distinct cells."""
    for seed in range(100):
        config = SketchConfig(rows=3, cols=4096, seed=seed)
        if len(separating_rows(config, keys)) == config.rows:
            return config
    raise AssertionError("no seed separates the keys")


@pytest.mark.parametrize("seed", range(6))
def test_sketch_distances_are_the_exact_banks_bit_for_bit_when_rows_separate(seed):
    """With every row separating every key, each estimate is its key's
    exact mass, and both banks sum each cross product in view order from
    0.0: the sketch bank's ``distances_sq`` is the exact bank's, bit for
    bit, for ``m`` from 1 to ``k``. The scored views hold 16 to 40 edge
    keys of real masses, drawn from 12 ids so that most of them are in
    the clusters, ids repeated and some masses 0.0 or -0.0, so the order
    of each sum shows in its bits. The clusters hold whole masses, so
    each bank's self products, summed in its own order, are exact."""
    rng = np.random.default_rng(seed)
    d, k = 2, 5
    ids = [f"k{i}" for i in range(12)]
    config = _rows_separating(key_digests([s.encode() for i in ids for s in (i, i + "\x1f")]))
    sketch, exact = ClusterBank(config, d, k), ExactBank(d, k)

    def view(real: bool):
        sizes = [rng.integers(16, 41), *rng.integers(0, 9, d)]
        picked = [ids[i] for i in rng.integers(0, len(ids), sum(sizes))]
        if real:
            masses = rng.uniform(0.0, 10.0, len(picked)) * 10.0 ** rng.integers(-3, 4, len(picked))
            masses[rng.random(len(picked)) < 0.1] = 0.0
            masses[rng.random(len(picked)) < 0.1] = -0.0
        else:
            masses = rng.integers(1, 10, len(picked)).astype(np.float64)
        return cut_view(picked, masses.tolist(), np.cumsum([0, *sizes]).tolist())

    for t in range(3 * k):
        for probe in [view(real=True) for _ in range(3)] if len(sketch) else []:
            assert distances(sketch, probe).tobytes() == distances(exact, probe).tobytes()
        member, slot = view(real=False), t if t < k else int(rng.integers(0, k))
        for bank in (sketch, exact):
            (bank.reset if t < k else bank.absorb)(slot, member, t)


def test_merge_is_field_exact():
    rng = random.Random(13)
    for trial in range(15):
        graphs = [_random_graph(rng, i) for i in range(rng.randrange(2, 10))]
        split = rng.randrange(1, len(graphs))
        whole = _one_slot(graphs)
        left, right = _one_slot(graphs[:split]), _one_slot(graphs[split:])
        # summing the two slots' maps and scalars gives the whole stream's slot
        for comp in range(SCHEMA.d + 1):
            merged = dict(left.maps[0][comp])
            for key, value in right.maps[0][comp].items():
                merged[key] = merged.get(key, 0.0) + value
            assert merged == whole.maps[0][comp]
        assert left.n[0] + right.n[0] == whole.n[0]
        assert np.array_equal(left.second_moments + right.second_moments, whole.second_moments)


def test_members_intra_sq_matches_definition():
    rng = random.Random(17)
    for trial in range(20):
        graphs = [_random_graph(rng, i) for i in range(rng.randrange(1, 8))]
        members = [graph_views(g, SCHEMA) for g in graphs]
        c = _one_slot(graphs)
        n = c.n[0]
        for comp in (0, 1):
            # definitional: sum over members of squared distance to centroid
            keys = sorted(c.maps[0][comp])
            centroid = {k: c.maps[0][comp][k] / n for k in keys}
            total = 0.0
            for g in graphs:
                masses = dict(zip(*component(graph_views(g, SCHEMA), comp)))
                support = set(keys) | set(masses)
                total += sum(
                    (masses.get(k, 0.0) - centroid.get(k, 0.0)) ** 2 for k in support
                )
            assert members_intra_sq(members, comp) == pytest.approx(total, abs=1e-9)


def test_an_exact_bank_holds_maps_only_for_the_slots_it_founds():
    """A bank of k = 10**6 slots holds no map, built or resumed from a
    checkpoint of no graph, so a checkpoint's k costs no map a slot; along
    the golden stream, checkpointed and resumed every 250 graphs, it holds
    one list of maps per live slot."""
    schema = synth_schema(SYNTH)
    engine = Engine(EngineConfig(k=10**6), schema, backend="exact")
    assert engine.bank.maps == []
    assert Engine.from_bytes(engine.to_bytes()).bank.maps == []
    engine = Engine(CONFIG, schema, backend="exact")
    for t, g in enumerate(generate_graphs(SYNTH), start=1):
        engine.process(preprocess(g, schema))
        if t % RESUME_EVERY == 0:
            engine = Engine.from_bytes(engine.to_bytes())
        assert len(engine.bank.maps) == len(engine.bank)
