"""Count-min sketch grid: a view's digests, the kernel's buckets, and the
per-cluster reference sketch's estimates, products and serialization."""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from reference import (
    CountMinSketch,
    add_at,
    gathered_cross,
    grid_add,
    grid_cross,
    multiply_shift,
    separating_rows,
    view_of,
)
from sketchclust import SketchConfig
from sketchclust.native import kernel
from sketchclust.stats import ClusterBank


def test_config_validation():
    with pytest.raises(ValueError):
        SketchConfig(rows=0, cols=10)
    with pytest.raises(ValueError):
        SketchConfig(rows=3, cols=0)


def _d(key: bytes) -> int:
    """A key's ``hashlib.blake2b(key, digest_size=8)`` read as a
    little-endian integer: the identity a sketch buckets."""
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "little")


def test_point_update_accumulates():
    sk = CountMinSketch(SketchConfig(rows=4, cols=64, seed=1))
    sk.update(_d(b"x"), 2.0)
    sk.update(_d(b"x"), 3.0)
    assert sk.estimate(_d(b"x")) == 5.0


def test_update_rejects_bad_values():
    sk = CountMinSketch(SketchConfig(rows=4, cols=64, seed=1))
    with pytest.raises(ValueError):
        sk.update(_d(b"x"), -1.0)
    with pytest.raises(ValueError):
        sk.update(_d(b"x"), float("nan"))


def test_update_many_matches_single_updates():
    rng = random.Random(7)
    for trial in range(20):
        cfg = SketchConfig(rows=3, cols=32, seed=trial)
        keys = [_d(f"k{i}".encode()) for i in range(rng.randrange(1, 30))]
        values = np.array([rng.randrange(1, 9) for _ in keys], dtype=np.float64)
        a = CountMinSketch(cfg)
        a.update_many(keys, values)
        b = CountMinSketch(cfg)
        for key, value in zip(keys, values):
            b.update(key, float(value))
        assert np.array_equal(a.cells, b.cells)


def test_estimates_never_underestimate():
    rng = random.Random(99)
    for trial in range(30):
        cfg = SketchConfig(rows=3, cols=16, seed=trial)
        sk = CountMinSketch(cfg)
        truth: dict[int, float] = {}
        for _ in range(rng.randrange(5, 60)):
            key = _d(f"k{rng.randrange(40)}".encode())
            value = float(rng.randrange(1, 6))
            sk.update(key, value)
            truth[key] = truth.get(key, 0.0) + value
        keys = sorted(truth)
        estimates = sk.estimate_many(keys)
        for key, est in zip(keys, estimates):
            assert est >= truth[key] - 1e-12


def test_estimates_exact_without_collisions():
    keys = [_d(f"key{i}".encode()) for i in range(20)]
    cfg = SketchConfig(rows=6, cols=512, seed=3)
    assert separating_rows(cfg, keys), "pick a seed that separates the keys"
    sk = CountMinSketch(cfg)
    values = np.arange(1.0, 21.0)
    sk.update_many(keys, values)
    assert np.array_equal(sk.estimate_many(keys), values)


def test_self_inner_product_overestimates():
    rng = random.Random(5)
    for trial in range(25):
        cfg = SketchConfig(rows=3, cols=16, seed=trial)
        sk = CountMinSketch(cfg)
        truth = {}
        for _ in range(rng.randrange(2, 40)):
            key = _d(f"k{rng.randrange(25)}".encode())
            value = float(rng.randrange(1, 5))
            sk.update(key, value)
            truth[key] = truth.get(key, 0.0) + value
        exact = sum(v * v for v in truth.values())
        assert sk.self_inner_product() >= exact - 1e-9


def test_self_inner_product_exact_when_separated():
    cfg = SketchConfig(rows=4, cols=128, seed=2)
    keys = [_d(b"alpha"), _d(b"beta")]
    assert separating_rows(cfg, keys)
    sk = CountMinSketch(cfg)
    sk.update(_d(b"alpha"), 1.0)
    sk.update(_d(b"beta"), 3.0)
    assert sk.self_inner_product() == pytest.approx(10.0)


def test_self_inner_product_tracks_mutation():
    # The cached row squares must be invalidated by any update.
    sk = CountMinSketch(SketchConfig(rows=4, cols=128, seed=2))
    sk.update(_d(b"a"), 2.0)
    first = sk.self_inner_product()
    sk.update(_d(b"b"), 1.0)
    assert sk.self_inner_product() > first


def test_cross_inner_product_overestimates():
    rng = random.Random(17)
    for trial in range(25):
        cfg = SketchConfig(rows=3, cols=16, seed=100 + trial)
        a = CountMinSketch(cfg)
        b = CountMinSketch(cfg)
        ta: dict[int, float] = {}
        tb: dict[int, float] = {}
        for sk, t in ((a, ta), (b, tb)):
            for _ in range(rng.randrange(2, 30)):
                key = _d(f"k{rng.randrange(20)}".encode())
                value = float(rng.randrange(1, 5))
                sk.update(key, value)
                t[key] = t.get(key, 0.0) + value
        exact = sum(v * tb.get(k, 0.0) for k, v in ta.items())
        assert a.inner_product(b) >= exact - 1e-9
        assert a.inner_product(b) == pytest.approx(b.inner_product(a))


def test_inner_product_requires_matching_config():
    a = CountMinSketch(SketchConfig(rows=3, cols=16, seed=0))
    b = CountMinSketch(SketchConfig(rows=3, cols=16, seed=1))
    with pytest.raises(ValueError):
        a.inner_product(b)


def test_merge_adds_cells():
    rng = random.Random(31)
    cfg = SketchConfig(rows=4, cols=32, seed=9)
    a = CountMinSketch(cfg)
    b = CountMinSketch(cfg)
    for sk in (a, b):
        for _ in range(40):
            sk.update(_d(f"k{rng.randrange(30)}".encode()), float(rng.randrange(1, 4)))
    merged = a.merge(b)
    assert np.array_equal(merged.cells, a.cells + b.cells)
    assert merged.total() == pytest.approx(a.total() + b.total())


def test_total_counts_mass():
    sk = CountMinSketch(SketchConfig(rows=3, cols=16, seed=0))
    sk.update(_d(b"a"), 2.5)
    sk.update(_d(b"b"), 1.5)
    assert sk.total() == pytest.approx(4.0)


def test_copy_is_independent():
    sk = CountMinSketch(SketchConfig(rows=2, cols=8, seed=0))
    sk.update(_d(b"a"), 1.0)
    dup = sk.copy()
    dup.update(_d(b"a"), 1.0)
    assert sk.estimate(_d(b"a")) == 1.0
    assert dup.estimate(_d(b"a")) == 2.0


def _absorbed(config: SketchConfig, view) -> np.ndarray:
    """The cells of a one-slot sketch bank founded on ``view``."""
    bank = ClusterBank(config, view.d, 1)
    bank.reset(0, view, 0)
    return bank.cells


def test_hash_rows_are_deterministic():
    """Equal configs put a view's keys in equal cells; another seed does not."""
    view = view_of({}, {f"k{i}": float(i + 1) for i in range(12)})
    first = _absorbed(SketchConfig(rows=5, cols=64, seed=42), view)
    assert np.array_equal(first, _absorbed(SketchConfig(rows=5, cols=64, seed=42), view))
    assert not np.array_equal(first, _absorbed(SketchConfig(rows=5, cols=64, seed=43), view))


# Multipliers, offsets and digests at the edges of uint64, where a * x + b
# wraps mod 2**64
_WORDS = st.sampled_from([0, 1, 2**32, 2**64 - 1]) | st.integers(0, 2**64 - 1)


@given(
    data=st.data(),
    rows=st.integers(1, 3),
    cols=st.sampled_from([1, 2, 3, 2**16 + 1, 2**20]) | st.integers(1, 1 << 20),
    n=st.integers(0, 30),
)
def test_buckets_equal_the_per_key_digests(data, rows, cols, n):
    """The gather and the scatter bucket each digest as the numpy
    multiply-shift does, for crafted multipliers, offsets and digests: the
    scatter adds key ``i``'s mass ``2**i`` (distinct, and exact in any sum)
    where ``np.add.at`` adds it at ``reference.multiply_shift``'s buckets,
    and the gather's cross products over those cells are
    ``reference.grid_cross``'s at the same buckets."""
    def words(size):
        return np.array(data.draw(st.lists(_WORDS, min_size=size, max_size=size)), np.uint64)

    mult, add, digests = words(rows), words(rows), words(n)
    values = 2.0 ** np.arange(n)
    bounds = (0, n // 3, n)
    buckets = multiply_shift(mult, add, digests, cols)
    cells, want = np.zeros((2, 2, rows, cols)), np.zeros((2, 2, rows, cols))
    kernel.scatter_add(cells, 1, bounds, mult, add, digests, values, False)
    grid_add(want, 1, bounds, buckets, values, False)
    assert cells.tobytes() == want.tobytes()
    out = np.empty((2, 2))
    kernel.graph_cross(cells, bounds, mult, add, digests, values, 2, out)
    assert out.tobytes() == grid_cross(cells, 2, bounds, buckets, values).tobytes()


# Ids whose keys take every length from 0 to 300 bytes: side ids of each
# length, the empty one among them, and edges ``src + 0x1f + dst`` of each
# length from 1, so the 127/128/129- and 256/257-byte block edges and
# three-block keys; random ASCII letters each
_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _letters(length: int) -> str:
    rnd = random.Random(length)
    return "".join(rnd.choice(_ALPHABET) for _ in range(length))


_LENGTHS = (
    [_letters(length)[: length // 2] + "\x1f" + _letters(length)[length // 2 + 1 :]
     for length in range(1, 301)],
    [_letters(length) for length in range(301)],
)
_UTF8 = st.text(st.characters(min_codepoint=0x80, exclude_categories=("Cs",)), max_size=90)
_IDS = _UTF8 | st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x1f"),
                       max_size=300)
_MULTIBYTE = (["é€😀" * i + "\x1f" + "日本" * i for i in range(40)], ["é€😀" * i for i in range(40)])
# Endpoint lengths in bytes about BLAKE2b's 128-byte block edges: their
# pairs put the separator at byte 126, 127 and 128 and make keys of every
# total length about 128 and 256 bytes, and of two 4 KiB endpoints
_EDGE_LENGTHS = (0, 1, 2, 63, 64, 125, 126, 127, 128, 129, 254, 255, 256, 257, 4095, 4096)
# Labels with a character of two, three or four bytes across byte 128 or 256
_STRADDLING = [
    "a" * length + char + "b" for length in (*range(124, 128), *range(252, 256)) for char in "é€😀"
]
_BLOCK_EDGES = (
    ["s" * a + "\x1f" + "t" * b for a in _EDGE_LENGTHS for b in _EDGE_LENGTHS]
    + [src + "\x1f" + dst for src in _STRADDLING for dst in ("", "€", _STRADDLING[0])],
    ["i" * length for length in (4095, 4096, 4097)] + _STRADDLING,
)


@given(
    edges=st.lists(st.tuples(_IDS, _IDS).map("\x1f".join), max_size=10),
    ids=st.lists(_IDS, max_size=10),
)
@example(*_LENGTHS)
@example(*_MULTIBYTE)
@example(*_BLOCK_EDGES)
@example(edges=["x" * 63 + "\x1f" + "y" * 64, "x" * 64 + "\x1f" + "y" * 64], ids=["", "k"])
def test_each_digest_is_the_keys_own_blake2b(edges, ids):
    """A view's ``digests`` are native uint64, each its key's
    ``hashlib.blake2b(key, digest_size=8)`` read as a little-endian
    integer: edge keys and side ids of every length from 0 to 300 bytes,
    random text and multi-byte UTF-8 (two to four bytes a character), and
    keys about the 128- and 256-byte block edges (the separator at byte 126
    to 128, endpoints up to 4 KiB, a character across an edge)."""
    view = view_of([(key, 1.0) for key in edges], dict.fromkeys(ids, 1.0))
    keys = [key.encode() for key in (*edges, *dict.fromkeys(ids))]
    assert view.digests.dtype == np.dtype(np.uint64) and view.digests.dtype.isnative
    assert view.digests.tolist() == [_d(key) for key in keys]


@given(
    edges=st.lists(st.tuples(_IDS, _IDS).map("\x1f".join), max_size=30),
    ids=st.lists(_IDS, max_size=30),
    rows=st.integers(1, 12),
    cols=st.integers(2, 1 << 16),
    seed=st.integers(-(2**63), 2**63 - 1),
)
@example(*_LENGTHS, 10, 500, 7)
@example(*_MULTIBYTE, 4, 1 << 16, -1)
def test_buckets_equal_the_reference_on_block_edges_and_utf8(edges, ids, rows, cols, seed):
    """A sketch bank founded on a view of keys of every length up to 300
    bytes, random text and multi-byte UTF-8 holds the cells that
    ``reference.add_at`` adds at ``reference.digest_buckets`` (the
    multiply-shift in numpy) of the view's digests, each hashlib's digest of
    its key, and reads the view's cross products as
    ``reference.gathered_cross`` does."""
    cfg = SketchConfig(rows=rows, cols=cols, seed=seed)
    view = view_of([(key, 1.0) for key in edges], {i: float(len(i) + 1) for i in ids})
    keys = [key.encode() for key in (*edges, *dict.fromkeys(ids))]
    assert view.digests.tolist() == [_d(key) for key in keys]
    bank, numpy_bank = ClusterBank(cfg, 1, 1), ClusterBank(cfg, 1, 1)
    numpy_bank._add = lambda slot, view, fresh: add_at(numpy_bank, slot, view, fresh)
    for founded in (bank, numpy_bank):
        founded.reset(0, view, 0)
    assert bank.cells.tobytes() == numpy_bank.cells.tobytes()
    assert bank._cross(view).tobytes() == gathered_cross(numpy_bank, view).tobytes()


def test_separating_rows_sees_collisions():
    # With more keys than columns every row must collide somewhere.
    cfg = SketchConfig(rows=4, cols=8, seed=0)
    keys = [_d(f"k{i}".encode()) for i in range(9)]
    assert separating_rows(cfg, keys) == []


def test_estimate_many_empty():
    sk = CountMinSketch(SketchConfig(rows=2, cols=8, seed=0))
    assert sk.estimate_many([]).shape == (0,)
