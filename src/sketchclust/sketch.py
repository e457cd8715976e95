"""Count-min sketch over byte-string keys with nonnegative real counters.

The sketch is a ``rows x cols`` grid of float64 cells. Each row owns one
hash function from a pairwise-independent family; an update adds its value
to exactly one cell per row, and a point query returns the minimum of the
row cells a key maps to. Because counters only grow, every row
overestimates the true total and the minimum is the tightest of the row
estimates (Cormode & Muthukrishnan, 2005). With ``eps = e / cols`` and
``delta = exp(-rows)``, a point estimate exceeds the true value by more
than ``eps * T`` (T = total mass inserted) with probability at most
``delta``.

Beyond point queries the grid supports second-moment style estimators:
``self_inner_product`` returns ``min_r sum_c cell[r][c]^2`` and
``inner_product`` returns ``min_r sum_c a[r][c] * b[r][c]``. Both
overestimate the exact quantity over the underlying key/value maps, again
because colliding keys can only add nonnegative cross terms.

Hashing is deterministic given the config seed: a key is digested to a
64-bit integer (blake2b) and each row applies a seeded multiply-shift
``(a * x + b) mod 2^64 mod cols`` with an odd multiplier, drawn by the
config itself. ``SketchConfig.buckets`` maps keys to their cells in every
row; nothing is memoised here, but each graph's ``ComponentView`` keeps its
buckets, and the sketch methods take keys or such a bucket matrix. Sketches
built from the same config are mergeable cell-wise, and merged grids equal
the grid of the concatenated update stream.
"""

from __future__ import annotations

import hashlib
import math
import random
import struct
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

_MAGIC = b"CMS1"
_VERSION = 1
_HEADER = struct.Struct("<4sBIIq")


@dataclass(frozen=True)
class SketchConfig:
    """Grid shape and hash seed. Equal configs produce identical hashing."""

    rows: int = 10
    cols: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rows < 1:
            raise ValueError("rows must be >= 1")
        if self.cols < 2:
            raise ValueError("cols must be >= 2")
        if not -(2**63) <= self.seed < 2**63:
            raise ValueError("seed must fit in a signed 64-bit integer")
        # One (a, b) pair per row; odd multipliers keep the map 2^64-universal.
        rnd = random.Random(self.seed)
        a = [rnd.getrandbits(64) | 1 for _ in range(self.rows)]
        b = [rnd.getrandbits(64) for _ in range(self.rows)]
        object.__setattr__(self, "_mult", np.array(a, dtype=np.uint64)[:, None])
        object.__setattr__(self, "_add", np.array(b, dtype=np.uint64)[:, None])
        object.__setattr__(self, "_row_span", np.arange(self.rows, dtype=np.intp)[:, None])

    @property
    def epsilon(self) -> float:
        """Additive overestimate factor: error exceeds epsilon*T w.p. <= delta."""
        return math.e / self.cols

    @property
    def delta(self) -> float:
        return math.exp(-self.rows)

    def buckets(self, keys: Sequence[bytes]) -> np.ndarray:
        """Cell index of each key in each row, shape (rows, len(keys)), intp."""
        digests = b"".join(hashlib.blake2b(k, digest_size=8).digest() for k in keys)
        x = np.frombuffer(digests, dtype="<u8")
        mixed = self._mult * x + self._add
        # Keep the high product bits: the low bits of a*x mod 2^64 depend only
        # on the low bits of x, which would make rows collide in lockstep for
        # power-of-two column counts.
        idx = (mixed >> np.uint64(32)) % np.uint64(self.cols)
        return idx.astype(np.intp)


def separating_rows(config: SketchConfig, keys: Iterable[bytes]) -> list[int]:
    """Rows in which all given keys land in pairwise distinct cells.

    Useful for sizing checks: if at least one separating row exists for the
    full key universe, every estimator on that universe is exact.
    """
    keys = tuple(dict.fromkeys(keys))
    if len(keys) <= 1:
        return list(range(config.rows))
    idx = config.buckets(keys)
    return [r for r in range(config.rows) if len(set(idx[r].tolist())) == len(keys)]


class CountMinSketch:
    __slots__ = ("config", "cells", "_row_sq")

    def __init__(self, config: SketchConfig, cells: np.ndarray | None = None):
        """An empty sketch, or one over ``cells`` (a ``(rows, cols)`` float64
        array, used as given, not copied)."""
        self.config = config
        if cells is None:
            cells = np.zeros((config.rows, config.cols), dtype=np.float64)
        self.cells = cells
        self._row_sq: np.ndarray | None = None

    # -- updates ---------------------------------------------------------

    def update(self, key: bytes, value: float) -> None:
        self.update_many((key,), np.array([value], dtype=np.float64))

    def update_many(self, keys: Sequence[bytes] | np.ndarray, values: np.ndarray) -> None:
        """Add values[i] to keys[i]'s cell in every row. Values must be >= 0.
        ``keys`` may instead be their bucket matrix from ``config.buckets``."""
        idx = self._buckets(keys)
        if idx.shape[1] != len(values):
            raise ValueError("keys and values length mismatch")
        if len(values) == 0:
            return
        values = np.asarray(values, dtype=np.float64)
        if not bool(np.all(values >= 0.0)):
            raise ValueError("negative or NaN update value")
        np.add.at(self.cells, (self.config._row_span, idx), values[None, :])
        self._row_sq = None

    # -- queries ---------------------------------------------------------

    def estimate(self, key: bytes) -> float:
        return float(self.estimate_many((key,))[0])

    def estimate_many(self, keys: Sequence[bytes] | np.ndarray) -> np.ndarray:
        """Row-minimum point estimates for each key, never below the truth.
        ``keys`` may instead be their bucket matrix from ``config.buckets``."""
        return self.cells[self.config._row_span, self._buckets(keys)].min(axis=0)

    def _buckets(self, keys: Sequence[bytes] | np.ndarray) -> np.ndarray:
        if isinstance(keys, np.ndarray) and keys.dtype == np.intp:
            return keys
        return self.config.buckets(keys)

    def self_inner_product(self) -> float:
        """min over rows of sum(cell^2); overestimates sum of squared totals."""
        if self._row_sq is None:
            self._row_sq = np.einsum("rc,rc->r", self.cells, self.cells)
        return float(self._row_sq.min())

    def inner_product(self, other: "CountMinSketch") -> float:
        """min over rows of the row dot product; overestimates the exact
        inner product between the two underlying key/value maps."""
        self._check_compatible(other)
        return float(np.einsum("rc,rc->r", self.cells, other.cells).min())

    def total(self) -> float:
        """Total inserted mass (row sums are identical across rows)."""
        return float(self.cells[0].sum())

    # -- combination -----------------------------------------------------

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        """Cell-wise sum; equals the sketch of the concatenated streams."""
        self._check_compatible(other)
        return CountMinSketch(self.config, self.cells + other.cells)

    def copy(self) -> "CountMinSketch":
        return CountMinSketch(self.config, self.cells.copy())

    def _check_compatible(self, other: "CountMinSketch") -> None:
        if self.config != other.config:
            raise ValueError("sketch configs differ (shape or seed)")

    # -- serialization ---------------------------------------------------

    def to_bytes(self) -> bytes:
        head = _HEADER.pack(
            _MAGIC, _VERSION, self.config.rows, self.config.cols, self.config.seed
        )
        return head + self.cells.astype("<f8", copy=False).tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "CountMinSketch":
        shape, cells = read_sketch(data)
        return cls(SketchConfig(*shape), cells.copy())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountMinSketch):
            return NotImplemented
        return self.config == other.config and bool(
            np.array_equal(self.cells, other.cells)
        )

    def __repr__(self) -> str:
        return (
            f"CountMinSketch(rows={self.config.rows}, cols={self.config.cols}, "
            f"seed={self.config.seed}, total={self.total():g})"
        )


def read_sketch(data: bytes | memoryview) -> tuple[tuple[int, int, int], np.ndarray]:
    """Parse one ``to_bytes`` blob without copying its cells: its config's
    ``(rows, cols, seed)`` and a read-only ``(rows, cols)`` view of the
    payload."""
    if len(data) < _HEADER.size:
        raise ValueError("truncated sketch blob")
    magic, version, rows, cols, seed = _HEADER.unpack_from(data, 0)
    if magic != _MAGIC:
        raise ValueError("bad sketch magic")
    if version != _VERSION:
        raise ValueError(f"unsupported sketch version {version}")
    if len(data) - _HEADER.size != rows * cols * 8:
        raise ValueError("sketch payload size mismatch")
    cells = np.frombuffer(data, dtype="<f8", count=rows * cols, offset=_HEADER.size)
    return (rows, cols, seed), cells.reshape(rows, cols)
