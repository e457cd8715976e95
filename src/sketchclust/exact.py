"""Exact backend: the bank's first moments as full key/value maps.

``ExactBank`` keeps, per slot and component, the map from key to
aggregated mass instead of a sketch, so every first moment, self product
and cross product is exact; the scalars and the distance arithmetic are
``stats.Bank``'s, shared with the sketch backend. Memory grows with the
number of distinct keys; this backend exists for differential testing and
small runs, not for unbounded streams. It reads a view's keys by the
view's ``bounds`` and sums each cross product in view order, as the
sketch kernel does. It checkpoints as the sketch bank does, the scalars
first, then each slot's maps in place of the cells; loading rejects a key
repeated in its map, and each mass that is negative or not finite, as it
parses them.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .model import GraphView
from .stats import Bank, unpack_at


def _self_product(masses: dict[bytes, float]) -> float:
    return sum(v * v for v in masses.values())


class ExactBank(Bank):
    """``maps[slot][comp]`` holds a cluster's exact masses by key; the
    slot's ``self_sq`` is their sum of squares, recomputed on every absorb
    into the slot in the map's own order."""

    def __init__(self, d: int, k: int):
        super().__init__(d, k)
        self.maps: list[list[dict[bytes, float]]] = [
            [{} for _ in range(d + 1)] for _ in range(k)
        ]

    def _add(self, slot: int, view: GraphView, fresh: bool) -> None:
        keys, values, ends = view.keys, view.values.tolist(), view.bounds
        if fresh:
            self.maps[slot] = [{} for _ in range(self.d + 1)]
            self.self_sq[:, slot] = 0.0
        for comp, (m, a, b) in enumerate(zip(self.maps[slot], ends, ends[1:])):
            if a < b:
                for key, value in zip(keys[a:b], values[a:b]):
                    m[key] = m.get(key, 0.0) + value
                self.self_sq[comp, slot] = _self_product(m)

    def _cross(self, view: GraphView) -> np.ndarray:
        keys, values, ends = view.keys, view.values.tolist(), view.bounds
        cross = []
        for maps in self.maps[: self.size]:
            for mp, a, b in zip(maps, ends, ends[1:]):
                acc = 0.0  # a loop: ``sum`` of floats compensates from Python 3.12
                for key, value in zip(keys[a:b], values[a:b]):
                    acc += mp.get(key, 0.0) * value
                cross.append(acc)
        return np.array(cross, dtype=np.float64).reshape(self.size, self.d + 1)

    def _pair_cross(self, first: np.ndarray, second: np.ndarray) -> np.ndarray:
        cross = np.zeros((len(first), self.d + 1), dtype=np.float64)
        for p, (i, j) in enumerate(zip(first.tolist(), second.tolist())):
            for comp, (a, b) in enumerate(zip(self.maps[i], self.maps[j])):
                if len(b) < len(a):
                    a, b = b, a
                cross[p, comp] = sum(v * b.get(k, 0.0) for k, v in a.items())
        return cross

    def _write_first(self, m: int) -> list:
        """Per slot and component a ``<Q`` entry count, then each entry as
        ``<I`` key length, key, ``<d`` value."""
        parts = []
        for maps in self.maps[:m]:
            for mp in maps:
                parts.append(struct.pack("<Q", len(mp)))
                for key, value in mp.items():
                    parts += (struct.pack("<I", len(key)), key, struct.pack("<d", value))
        return parts

    def _load_first(self, data: bytes, off: int, m: int) -> int:
        for slot in range(m):
            for comp in range(self.d + 1):
                (entries,) = unpack_at("<Q", data, off)
                off += 8
                mp = self.maps[slot][comp]
                for _ in range(entries):
                    (klen,) = unpack_at("<I", data, off)
                    (key,) = unpack_at(f"<{klen}s", data, off + 4)
                    if key in mp:
                        raise ValueError("checkpoint holds a key twice in one map")
                    (value,) = unpack_at("<d", data, off + 4 + klen)
                    # NaN fails the comparison, and -0.0 passes it
                    if not 0.0 <= value < math.inf:
                        raise ValueError("checkpoint holds negative or non-finite first moments")
                    mp[key] = value
                    off += 4 + klen + 8
                self.self_sq[comp, slot] = _self_product(mp)
        return off
