"""The per-cluster reference summary of a sketched cluster, and the cluster
bank's update checks."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from reference import (
    SCHEMA,
    ClusterStats,
    cut_view,
    digest_buckets,
    graph,
    separating_rows,
    view_of,
)
from sketchclust import GraphObject, SketchConfig, graph_views
from sketchclust.exact import ExactBank
from sketchclust.stats import ClusterBank


def _cfg(seed: int = 0) -> SketchConfig:
    return SketchConfig(rows=4, cols=256, seed=seed)


def test_empty_and_singleton():
    empty = ClusterStats.empty(_cfg(), SCHEMA.d)
    assert empty.n == 0
    assert empty.d == 1
    g = graph(0, [("a", "b", 2.0)], {"x": 1.0})
    single = ClusterStats.empty(_cfg(), SCHEMA.d)
    single.absorb_views(graph_views(g, SCHEMA), 7)
    assert single.n == 1
    assert single.t_last == 7
    assert single.second_moment(0) == pytest.approx(4.0)  # squared edge mass
    assert single.second_moment(1) == pytest.approx(1.0)


def test_absorb_accumulates_moments_and_time():
    c = ClusterStats.empty(_cfg(), SCHEMA.d)
    c.absorb_views(graph_views(graph(0, [("a", "b", 1.0)], {"x": 2.0}), SCHEMA), 1)
    c.absorb_views(graph_views(graph(1, [("a", "b", 3.0)], {"y": 1.0}), SCHEMA), 5)
    assert c.n == 2
    assert c.t_last == 5
    # second moments add per graph: 1^2 + 3^2 and 2^2 + 1^2
    assert c.second_moment(0) == pytest.approx(10.0)
    assert c.second_moment(1) == pytest.approx(5.0)
    assert c.second_moments.tolist() == pytest.approx([10.0, 5.0])


def test_first_moments_exact_when_separated():
    cfg = _cfg(seed=1)
    g0 = graph(0, [("a", "b", 1.0)], {"x": 2.0})
    g1 = graph(1, [("a", "b", 3.0)], {"x": 2.0})
    view = graph_views(g0, SCHEMA)
    assert separating_rows(cfg, view.digests.tolist())
    c = ClusterStats.empty(cfg, SCHEMA.d)
    c.absorb_views(graph_views(g0, SCHEMA), 1)
    c.absorb_views(graph_views(g1, SCHEMA), 2)
    est = c.first_moments(0, view)
    assert est.tolist() == pytest.approx([4.0])
    assert c.first_moments(1, view).tolist() == pytest.approx([4.0])


def test_self_product_overestimates_truth():
    rng = random.Random(23)
    for trial in range(20):
        cfg = SketchConfig(rows=3, cols=32, seed=trial)
        c = ClusterStats.empty(cfg, SCHEMA.d)
        truth: dict[str, float] = {}
        for i in range(rng.randrange(1, 12)):
            topics = {
                f"t{rng.randrange(18)}": float(rng.randrange(1, 4))
                for _ in range(rng.randrange(1, 5))
            }
            g = graph(i, [], topics)
            for view_key, value in g.side.get("topics", {}).items():
                truth[view_key] = truth.get(view_key, 0.0) + value
            c.absorb_views(graph_views(g, SCHEMA), i)
        exact = sum(v * v for v in truth.values())
        assert c.self_product(1) >= exact - 1e-9


def test_cross_product_overestimates_truth():
    rng = random.Random(29)
    cfg = SketchConfig(rows=3, cols=32, seed=5)
    a = ClusterStats.empty(cfg, SCHEMA.d)
    b = ClusterStats.empty(cfg, SCHEMA.d)
    ta: dict[str, float] = {}
    tb: dict[str, float] = {}
    for c, t in ((a, ta), (b, tb)):
        for i in range(6):
            topics = {f"t{rng.randrange(12)}": 1.0 for _ in range(3)}
            g = graph(i, [], topics)
            for key, value in g.side.get("topics", {}).items():
                t[key] = t.get(key, 0.0) + value
            c.absorb_views(graph_views(g, SCHEMA), i)
    exact = sum(v * tb.get(k, 0.0) for k, v in ta.items())
    assert a.cross_product(1, b) >= exact - 1e-9


def test_merge_matches_sequential_absorption():
    rng = random.Random(37)
    cfg = _cfg(seed=2)
    graphs = [
        graph(
            i,
            [(f"n{rng.randrange(5)}", f"n{rng.randrange(5)}", float(rng.randrange(1, 4)))],
            {f"t{rng.randrange(8)}": float(rng.randrange(1, 3))},
        )
        for i in range(10)
    ]
    whole = ClusterStats.empty(cfg, SCHEMA.d)
    left = ClusterStats.empty(cfg, SCHEMA.d)
    right = ClusterStats.empty(cfg, SCHEMA.d)
    for i, g in enumerate(graphs):
        view = graph_views(g, SCHEMA)
        whole.absorb_views(view, i)
        (left if i % 2 == 0 else right).absorb_views(view, i)
    merged = ClusterStats.merge(left, right)
    assert merged.n == whole.n
    assert merged.t_last == whole.t_last
    for comp in range(SCHEMA.d + 1):
        assert merged.second_moment(comp) == pytest.approx(whole.second_moment(comp))
        assert np.array_equal(merged.sketches[comp].cells, whole.sketches[comp].cells)


def test_merge_requires_same_shape():
    a = ClusterStats.empty(_cfg(), 1)
    b = ClusterStats.empty(_cfg(), 2)
    with pytest.raises(ValueError):
        ClusterStats.merge(a, b)


def _bank(cfg: SketchConfig, k: int, graphs: int, seed: int) -> ClusterBank:
    """A bank of ``k`` slots with two live clusters over random graphs."""
    rng = random.Random(seed)
    bank = ClusterBank(cfg, SCHEMA.d, k)
    for i in range(graphs):
        g = graph(
            i,
            [(f"n{rng.randrange(4)}", f"n{rng.randrange(4)}", 1.0)],
            {f"t{rng.randrange(5)}": 2.0},
        )
        view = graph_views(g, SCHEMA)
        if len(bank) < 2:
            bank.reset(len(bank), view, i)
        else:
            bank.absorb(i % 2, view, i)
    return bank


def test_an_update_whose_view_cannot_be_hashed_writes_nothing():
    """A view's keys are digested as the view is built, so an update hashes
    nothing and cannot fail on a key: a graph with an id that makes no key
    (no str, or not UTF-8) has no view, so ``Engine.process`` stops in
    ``graph_views``, before the bank."""
    bank = _bank(_cfg(1), 3, 6, 47)
    before = (b"".join(bank.to_parts()), bank.self_sq.tobytes())
    for g in (GraphObject("g", [("n0", 1, 1.0)]), GraphObject("g", [("n0", "n\ud800", 1.0)]),
              GraphObject("g", [], {"topics": {2: 1.0}})):
        with pytest.raises((TypeError, ValueError)):
            graph_views(g, SCHEMA)
    assert (b"".join(bank.to_parts()), bank.self_sq.tobytes()) == before
    view = view_of([("n0\x1fn1", 1), ("n0\x1fn1", 2.0)], {"t0": 2.0})  # not preprocessed
    assert view.digests.shape == (3,)
    bank.absorb(0, view, 9)


def test_one_view_serves_sketch_banks_of_different_seeds():
    """Two sketch banks of different seeds read each graph's one view in
    turn, each scoring it before either updates; each gives the distances
    and cells it gives on views that it alone reads, as each bank buckets
    the view's digests for its own config."""
    rng = random.Random(53)
    graphs = [
        graph(
            i,
            [(f"n{rng.randrange(6)}", f"n{rng.randrange(6)}", 1.0)],
            {f"t{rng.randrange(9)}": 2.0},
        )
        for i in range(12)
    ]
    configs = (_cfg(3), _cfg(4))
    probe = graph_views(graphs[0], SCHEMA)
    buckets = [digest_buckets(config, probe.digests) for config in configs]
    assert not np.array_equal(*buckets)
    shared = [ClusterBank(cfg, SCHEMA.d, 3) for cfg in configs]
    alone = [ClusterBank(cfg, SCHEMA.d, 3) for cfg in configs]
    for now, g in enumerate(graphs, start=1):
        view = graph_views(g, SCHEMA)
        own_views = [graph_views(g, SCHEMA) for _ in alone]
        full = now > 3
        if full:
            for bank, own, own_view in zip(shared, alone, own_views):
                got, want = bank.distances_sq(view), own.distances_sq(own_view)
                assert got.tobytes() == want.tobytes()
        for bank, own, own_view in zip(shared, alone, own_views):
            for b, v in ((bank, view), (own, own_view)):
                (b.absorb if full else b.reset)((now - 1) % 3, v, now)
    for bank, own in zip(shared, alone):
        assert bank.cells.tobytes() == own.cells.tobytes()
        assert b"".join(bank.to_parts()) == b"".join(own.to_parts())


_BANKS = {
    "sketch": lambda k=2: ClusterBank(_cfg(), SCHEMA.d, k),
    "exact": lambda k=2: ExactBank(SCHEMA.d, k),
}


@pytest.mark.parametrize("backend", sorted(_BANKS))
@given(
    values=st.lists(
        st.floats(-1e6, 1e6)
        | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf]),
        max_size=8,
    ),
    cut=st.integers(0, 8),
)
@example(values=[], cut=0)
@example(values=[-0.0, 0.0], cut=1)
@example(values=[1.0, math.nan], cut=1)
@example(values=[-5e-324], cut=0)
@example(values=[2.0, math.inf], cut=2)
def test_absorb_rejects_negative_and_nan_values_only(backend, values, cut):
    """A graph is absorbed unless a value is negative, NaN or infinite
    (``-0.0`` and the empty view are absorbed); ``graph_views`` rejects
    such a graph, so the bank is never handed it and stays as it was."""
    bank = _BANKS[backend]()
    bank.reset(0, _two_keys([1.0, 2.0]), 1)
    before = b"".join(bank.to_parts())
    cut = min(cut, len(values))
    ids = [f"k{i}" for i in range(len(values))]
    if any(not 0.0 <= v < math.inf for v in values):
        with pytest.raises(ValueError, match="^view masses must be finite and nonnegative$"):
            bank.absorb(0, cut_view(ids, values, (0, cut, len(values))), 2)
        assert b"".join(bank.to_parts()) == before
    else:
        bank.absorb(0, cut_view(ids, values, (0, cut, len(values))), 2)
        assert (bank.n[0], bank.t_last[0]) == (2, 2)


def _two_keys(values):
    return view_of({"a\x1f": values[0]}, {"t": values[1]})


# cause: the rejected view, its time, the error and its message
_REJECTED = {
    "components": (lambda: view_of({"a\x1f": 1.0}), 3, ValueError, "component count"),
    "timestamp": (lambda: _two_keys([1.0, 2.0]), -1, ValueError, "nonnegative"),
    "negative": (lambda: _two_keys([-1.0, 2.0]), 3, ValueError, "finite and nonnegative"),
    "nan": (lambda: _two_keys([1.0, math.nan]), 3, ValueError, "finite and nonnegative"),
}


@pytest.mark.parametrize(
    "backend, cause",
    [(b, c) for b in sorted(_BANKS) for c in sorted(_REJECTED)],
)
def test_a_rejected_update_leaves_the_bank_as_it_was(backend, cause):
    """``absorb`` and ``reset`` (into a live slot or the next free one)
    check the graph before they write, while the bank fills and once it is
    full: a rejected one changes no checkpoint byte, no self product and no
    slot count. A graph with a negative or NaN mass is rejected before
    that, by ``graph_views``, which builds no view of it."""
    bank = _BANKS[backend](3)
    bank.reset(0, _two_keys([1.0, 2.0]), 1)
    bank.reset(1, _two_keys([3.0, 1.0]), 2)
    build, now, error, match = _REJECTED[cause]
    for size in (2, 3):
        if size == 3:  # slot 2 goes from the next free slot to a live one
            bank.reset(2, _two_keys([2.0, 2.0]), 3)
        before = (b"".join(bank.to_parts()), bank.self_sq.tobytes())
        for update, slot in ((bank.absorb, 0), (bank.reset, 0), (bank.reset, 2)):
            with pytest.raises(error, match=match):
                update(slot, build(), now)
            assert (b"".join(bank.to_parts()), bank.self_sq.tobytes()) == before
            assert len(bank) == size


@pytest.mark.parametrize("backend", sorted(_BANKS))
def test_an_update_needs_a_live_slot_or_a_free_one(backend):
    """``absorb`` writes only a live slot, ``0..len(bank)-1``, and
    ``reset`` a live slot or the next free one, ``len(bank)``, which a full
    bank lacks; any other update raises ValueError before it writes, so no
    member lands outside the checkpoint and no later ``reset`` founds a
    slot on top of one."""
    bank = _BANKS[backend](4)
    bank.reset(0, _two_keys([1.0, 2.0]), 1)
    bank.reset(1, _two_keys([3.0, 1.0]), 2)
    view = _two_keys([5.0, 3.0])

    def state():
        arrays = (bank.self_sq, bank.n, bank.t_last, bank.second_moments)
        return b"".join(bank.to_parts()), *(a.tobytes() for a in arrays)

    def rejected(update, slots):
        before, size = state(), len(bank)
        for slot in slots:
            with pytest.raises(ValueError, match="outside"):
                update(slot, view, 3)
            assert state() == before
            assert len(bank) == size

    rejected(bank.absorb, (2, 3, 9, -1, -4))
    rejected(bank.reset, (3, 9, -1, -4))
    bank.reset(2, view, 3)
    bank.reset(3, view, 4)
    assert bank.n.tolist() == [1, 1, 1, 1] and len(bank) == 4
    rejected(bank.absorb, (4, 9, -1))
    rejected(bank.reset, (4, 9, -1))


@pytest.mark.parametrize("backend", sorted(_BANKS))
@given(
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=5),
    integer=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_intra_sq_of_a_slice_is_its_slots_rows(backend, sizes, integer, seed):
    """The rows of ``intra_sq`` on a slice of slots, which ``geometry``
    sums, are bitwise what it gives each slot alone, as ``process`` reads
    it."""
    rng = np.random.default_rng(seed)
    bank = _BANKS[backend](len(sizes))
    vocab = [f"k{i}" for i in range(6)]
    for members in sizes:
        slot = None
        for now in range(1, members + 1):
            counts = rng.integers(0, 4, SCHEMA.d + 1)
            ids = [k for c in counts for k in rng.choice(vocab, c, replace=False).tolist()]
            size = len(ids)
            values = rng.integers(1, 50, size) if integer else rng.uniform(0.0, 1e3, size)
            view = cut_view(ids, values.tolist(), (0, *np.cumsum(counts).tolist()))
            if slot is None:
                slot = len(bank)
                bank.reset(slot, view, now)
            else:
                bank.absorb(slot, view, now)
    m = len(sizes)
    rows = bank.intra_sq(slice(0, m))
    assert rows.shape == (m, SCHEMA.d + 1)
    for slot in range(m):
        assert rows[slot].tobytes() == bank.intra_sq(slot).tobytes()
