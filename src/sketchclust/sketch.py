"""Count-min sketch geometry over byte-string keys: hashing and error bounds.

A sketch is a ``rows x cols`` grid of nonnegative float64 cells. Each row
owns one hash function from a pairwise-independent family; an update adds
its value to exactly one cell per row, and a point query returns the
minimum of the row cells a key maps to. Because counters only grow, every
row overestimates the true total and the minimum is the tightest of the
row estimates (Cormode & Muthukrishnan, 2005). With ``eps = e / cols`` and
``delta = exp(-rows)``, a point estimate exceeds the true value by more
than ``eps * T`` (T = total mass inserted) with probability at most
``delta``. The row-minimum of ``sum_c a[r][c] * b[r][c]`` likewise
overestimates the inner product of two sketched key/value maps, because
colliding keys only add nonnegative cross terms. ``stats.ClusterBank``
holds the grids of every cluster and computes these estimates for all of
them at once.

Hashing is deterministic given the config seed: a key is digested to a
64-bit integer (blake2b) and each row applies a seeded multiply-shift
``(a * x + b) mod 2^64 mod cols`` with an odd multiplier, drawn by the
config itself. ``SketchConfig.buckets`` maps keys to their cells in every
row; nothing is memoised here. Each graph's ``model.GraphView`` holds the
buckets of all its keys, every component's together, from one call. A
checkpoint stores the config in its header and the grids as plain arrays
(``stats.Bank.to_parts``).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

_TEMPLATE = hashlib.blake2b(digest_size=8)  # copied per key: cheaper than a new hasher


def _digests(keys: Sequence[bytes]) -> bytes:
    """Each key's 64-bit blake2b digest, in key order, by three C-level maps."""
    hashers = list(map(hashlib.blake2b.copy, repeat(_TEMPLATE, len(keys))))
    any(map(hashlib.blake2b.update, hashers, keys))  # each returns None: any() runs them all
    return b"".join(map(hashlib.blake2b.digest, hashers))


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

    def buckets(self, keys: Sequence[bytes]) -> np.ndarray:
        """Cell index of each key in each row, shape (rows, len(keys)), intp."""
        idx = self._mult * np.frombuffer(_digests(keys), dtype="<u8")
        idx += self._add
        # Keep the high product bits: the low bits of a*x mod 2^64 depend only
        # on the low bits of x, which would make rows collide in lockstep for
        # power-of-two column counts.
        idx >>= np.uint64(32)
        idx %= np.uint64(self.cols)
        return idx.astype(np.intp)
