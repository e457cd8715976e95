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
64-bit integer (BLAKE2b with an 8-byte digest, RFC 7693: the bits of
``hashlib.blake2b(key, digest_size=8)``) and each row applies a seeded
multiply-shift ``((a * x + b) mod 2^64 >> 32) mod cols`` with an odd
multiplier, drawn by the config itself. The digest belongs to the key: a
graph's ``model.GraphView`` holds its keys' digests, made as the view is
built. The multiply-shift belongs to the sketch: ``stats.ClusterBank``
hands the config's multipliers and offsets with a view's digests to the
compiled kernel (``native``), whose gather and scatter each bucket the
digests for their grid, as integer arithmetic that needs no rounding. A
checkpoint stores the config in its header and the grids as plain arrays
(``stats.Bank.to_parts``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np


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
        object.__setattr__(self, "_mult", np.array(a, dtype=np.uint64))
        object.__setattr__(self, "_add", np.array(b, dtype=np.uint64))
