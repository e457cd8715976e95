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
multiplier, drawn by the config itself. ``SketchConfig.buckets`` maps keys
to their cells in every row: the digest and the multiply-shift of every
key and row run in one call of the compiled kernel (``native``), as
integer arithmetic that needs no rounding; nothing is memoised here. A
graph's ``model.GraphView`` holds no buckets: ``GraphView.buckets(config)``
hashes all its keys, every component's together, in one call for the
config that reads them, and keeps them for that config's later reads. A
checkpoint stores the config in its header and the grids as plain arrays
(``stats.Bank.to_parts``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .native import kernel


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

    def buckets(self, keys: Sequence[bytes]) -> np.ndarray:
        """Cell index of each key in each row, shape (rows, len(keys)), intp.

        The kernel keeps the high product bits, ``(a * x + b) mod 2^64 >>
        32``, before the ``mod cols``: the low bits of a*x mod 2^64 depend
        only on the low bits of x, which would make rows collide in lockstep
        for power-of-two column counts. A key must be bytes-like: a ``str``
        raises TypeError, as it does in ``hashlib``."""
        out = np.empty((self.rows, len(keys)), dtype=np.intp)
        kernel.key_buckets(keys, self._mult, self._add, self.cols, out)
        return out
