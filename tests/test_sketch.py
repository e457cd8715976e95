"""Count-min sketch grid: hashing, and the per-cluster reference sketch's
estimates, products and serialization."""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from reference import CountMinSketch, digest_buckets, separating_rows
from sketchclust import SketchConfig
from sketchclust.native import kernel


def test_config_validation():
    with pytest.raises(ValueError):
        SketchConfig(rows=0, cols=10)
    with pytest.raises(ValueError):
        SketchConfig(rows=3, cols=0)


def test_point_update_accumulates():
    sk = CountMinSketch(SketchConfig(rows=4, cols=64, seed=1))
    sk.update(b"x", 2.0)
    sk.update(b"x", 3.0)
    assert sk.estimate(b"x") == 5.0


def test_update_rejects_bad_values():
    sk = CountMinSketch(SketchConfig(rows=4, cols=64, seed=1))
    with pytest.raises(ValueError):
        sk.update(b"x", -1.0)
    with pytest.raises(ValueError):
        sk.update(b"x", float("nan"))


def test_update_many_matches_single_updates():
    rng = random.Random(7)
    for trial in range(20):
        cfg = SketchConfig(rows=3, cols=32, seed=trial)
        keys = [f"k{i}".encode() for i in range(rng.randrange(1, 30))]
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
        truth: dict[bytes, float] = {}
        for _ in range(rng.randrange(5, 60)):
            key = f"k{rng.randrange(40)}".encode()
            value = float(rng.randrange(1, 6))
            sk.update(key, value)
            truth[key] = truth.get(key, 0.0) + value
        keys = sorted(truth)
        estimates = sk.estimate_many(keys)
        for key, est in zip(keys, estimates):
            assert est >= truth[key] - 1e-12


def test_estimates_exact_without_collisions():
    keys = [f"key{i}".encode() for i in range(20)]
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
            key = f"k{rng.randrange(25)}".encode()
            value = float(rng.randrange(1, 5))
            sk.update(key, value)
            truth[key] = truth.get(key, 0.0) + value
        exact = sum(v * v for v in truth.values())
        assert sk.self_inner_product() >= exact - 1e-9


def test_self_inner_product_exact_when_separated():
    cfg = SketchConfig(rows=4, cols=128, seed=2)
    keys = [b"alpha", b"beta"]
    assert separating_rows(cfg, keys)
    sk = CountMinSketch(cfg)
    sk.update(b"alpha", 1.0)
    sk.update(b"beta", 3.0)
    assert sk.self_inner_product() == pytest.approx(10.0)


def test_self_inner_product_tracks_mutation():
    # The cached row squares must be invalidated by any update.
    sk = CountMinSketch(SketchConfig(rows=4, cols=128, seed=2))
    sk.update(b"a", 2.0)
    first = sk.self_inner_product()
    sk.update(b"b", 1.0)
    assert sk.self_inner_product() > first


def test_cross_inner_product_overestimates():
    rng = random.Random(17)
    for trial in range(25):
        cfg = SketchConfig(rows=3, cols=16, seed=100 + trial)
        a = CountMinSketch(cfg)
        b = CountMinSketch(cfg)
        ta: dict[bytes, float] = {}
        tb: dict[bytes, float] = {}
        for sk, t in ((a, ta), (b, tb)):
            for _ in range(rng.randrange(2, 30)):
                key = f"k{rng.randrange(20)}".encode()
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
            sk.update(f"k{rng.randrange(30)}".encode(), float(rng.randrange(1, 4)))
    merged = a.merge(b)
    assert np.array_equal(merged.cells, a.cells + b.cells)
    assert merged.total() == pytest.approx(a.total() + b.total())


def test_total_counts_mass():
    sk = CountMinSketch(SketchConfig(rows=3, cols=16, seed=0))
    sk.update(b"a", 2.5)
    sk.update(b"b", 1.5)
    assert sk.total() == pytest.approx(4.0)


def test_copy_is_independent():
    sk = CountMinSketch(SketchConfig(rows=2, cols=8, seed=0))
    sk.update(b"a", 1.0)
    dup = sk.copy()
    dup.update(b"a", 1.0)
    assert sk.estimate(b"a") == 1.0
    assert dup.estimate(b"a") == 2.0


def test_hash_rows_are_deterministic():
    cfg = SketchConfig(rows=5, cols=64, seed=42)
    keys = tuple(f"k{i}".encode() for i in range(12))
    first = cfg.buckets(keys)
    assert first.shape == (5, 12) and first.dtype == np.intp
    assert np.array_equal(first, SketchConfig(rows=5, cols=64, seed=42).buckets(keys))
    other = SketchConfig(rows=5, cols=64, seed=43).buckets(keys)
    assert not np.array_equal(first, other)


@given(
    keys=st.lists(st.binary(max_size=40), max_size=30),
    rows=st.integers(1, 12),
    cols=st.integers(2, 1 << 20),
    seed=st.integers(-(2**63), 2**63 - 1),
)
@example(keys=[], rows=3, cols=8, seed=0)
def test_buckets_equal_the_per_key_digests(keys, rows, cols, seed):
    cfg = SketchConfig(rows=rows, cols=cols, seed=seed)
    got, want = cfg.buckets(keys), digest_buckets(cfg, keys)
    assert got.dtype == want.dtype == np.intp
    assert got.shape == want.shape == (rows, len(keys))
    assert np.array_equal(got, want)


def _digest_words(keys) -> list[int]:
    """Each key's 64-bit digest as the kernel computes it, read back whole
    through ``key_buckets``: a multiplier of 1 keeps its high 32 bits, one
    of 2**32 its low 32 bits, and no column count reduces either."""
    out = np.empty((2, len(keys)), dtype=np.intp)
    kernel.key_buckets(keys, np.array([1, 2**32], np.uint64), np.zeros(2, np.uint64), 2**62, out)
    return [(hi << 32) | lo for hi, lo in zip(out[0].tolist(), out[1].tolist())]


def _blake2b(keys) -> list[int]:
    return [int.from_bytes(hashlib.blake2b(k, digest_size=8).digest(), "little") for k in keys]


# every length from 0 to 300 bytes: the empty key, the 127/128/129 and
# 256/257-byte block edges and three-block keys, random bytes of each
_LENGTHS = [random.Random(length).randbytes(length) for length in range(301)]


@given(keys=st.lists(st.binary(max_size=300), max_size=20))
@example(keys=_LENGTHS)
@example(keys=[b"", b"k", b"x" * 128, b"x" * 129, b"y" * 256, b"y" * 257, b""])
def test_each_digest_is_the_keys_own_blake2b(keys):
    assert _digest_words(keys) == _blake2b(keys)


_UTF8 = st.text(st.characters(min_codepoint=0x80, exclude_categories=("Cs",)), max_size=90)


@given(
    keys=st.lists(st.binary(max_size=300) | _UTF8.map(str.encode), max_size=30),
    rows=st.integers(1, 12),
    cols=st.integers(2, 1 << 20),
    seed=st.integers(-(2**63), 2**63 - 1),
)
@example(keys=_LENGTHS, rows=10, cols=500, seed=7)
@example(keys=["é€😀".encode() * i for i in range(40)], rows=4, cols=1 << 20, seed=-1)
def test_buckets_equal_the_reference_on_block_edges_and_utf8(keys, rows, cols, seed):
    """``SketchConfig.buckets`` against ``reference.digest_buckets`` on
    keys of every length up to 300 bytes, random bytes and multi-byte
    UTF-8 text (two to four bytes a character)."""
    cfg = SketchConfig(rows=rows, cols=cols, seed=seed)
    assert cfg.buckets(keys).tobytes() == digest_buckets(cfg, keys).tobytes()


def test_a_str_key_raises_as_hashlib_does_before_any_write():
    cfg = SketchConfig(rows=3, cols=16)
    with pytest.raises(TypeError, match="^Strings must be encoded before hashing$"):
        hashlib.blake2b("k", digest_size=8)
    out = np.full((3, 2), -1, dtype=np.intp)
    with pytest.raises(TypeError, match="^Strings must be encoded before hashing$"):
        kernel.key_buckets((b"a", "k"), cfg._mult, cfg._add, cfg.cols, out)
    assert (out == -1).all()
    with pytest.raises(TypeError, match="^Strings must be encoded before hashing$"):
        cfg.buckets((b"a", "k"))


def test_separating_rows_sees_collisions():
    # With more keys than columns every row must collide somewhere.
    cfg = SketchConfig(rows=4, cols=8, seed=0)
    keys = [f"k{i}".encode() for i in range(9)]
    assert separating_rows(cfg, keys) == []


def test_estimate_many_empty():
    sk = CountMinSketch(SketchConfig(rows=2, cols=8, seed=0))
    assert sk.estimate_many([]).shape == (0,)
