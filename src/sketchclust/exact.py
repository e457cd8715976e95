"""Exact backend: the bank's first moments as full maps by key digest.

``ExactBank`` keeps, per slot and component, the map from each key's
64-bit digest (the view's ``digests``) to its aggregated mass instead of a
sketch, so every first moment, self product and cross product is exact
over the keys' digests: two keys merge only if their BLAKE2b-64 digests
are equal, with probability about D**2 / 2**65 for D distinct keys. The
scalars and the distance arithmetic are ``stats.Bank``'s, shared with the
sketch backend. Memory grows with the number of distinct keys; this
backend exists for differential testing and small runs, not for
unbounded streams. It sums each cross product in view order, as the
sketch kernel does. It checkpoints as the sketch bank does, the scalars
first, then each slot's maps in place of the cells; loading rejects a
digest repeated in its map, then a mass that is negative or not finite.
Every sum is a loop from 0.0: ``sum`` of floats compensates from Python
3.12, so its bits would depend on the interpreter.
"""

from __future__ import annotations

import struct

import numpy as np

from .model import GraphView
from .stats import Bank, read_array, unpack_at
from .weight_opt import finite_nonneg


def _self_product(masses: dict[int, float]) -> float:
    acc = 0.0
    for v in masses.values():
        acc += v * v
    return acc


class ExactBank(Bank):
    """``maps[slot][comp]`` holds a cluster's exact masses by key digest;
    the slot's ``self_sq`` is their sum of squares, recomputed on every
    absorb into the slot in the map's own order. ``maps`` grows as slots
    are founded (``reset``) or loaded, never to ``k`` up front."""

    def __init__(self, d: int, k: int):
        super().__init__(d, k)
        self.maps: list[list[dict[int, float]]] = []

    def _add(self, slot: int, view: GraphView, fresh: bool) -> None:
        keys, values, ends = view.digests.tolist(), view.values.tolist(), view.bounds
        if fresh:
            if slot == len(self.maps):
                self.maps.append([])
            self.maps[slot] = [{} for _ in range(self.d + 1)]
            self.self_sq[:, slot] = 0.0
        for comp, (m, a, b) in enumerate(zip(self.maps[slot], ends, ends[1:])):
            if a < b:
                for key, value in zip(keys[a:b], values[a:b]):
                    m[key] = m.get(key, 0.0) + value
                self.self_sq[comp, slot] = _self_product(m)

    def _cross(self, view: GraphView) -> np.ndarray:
        keys, values, ends = view.digests.tolist(), view.values.tolist(), view.bounds
        cross = []
        for maps in self.maps[: self.size]:
            for mp, a, b in zip(maps, ends, ends[1:]):
                acc = 0.0
                for key, value in zip(keys[a:b], values[a:b]):
                    acc += mp.get(key, 0.0) * value
                cross.append(acc)
        return np.array(cross, dtype=np.float64).reshape(self.size, self.d + 1)

    def _pair_cross(self) -> np.ndarray:
        m = self.size
        cross = np.zeros((self.d + 1, m - 1, m - 1), dtype=np.float64)
        for i in range(m - 1):
            for j in range(i + 1, m):
                for comp, (a, b) in enumerate(zip(self.maps[i], self.maps[j])):
                    if len(b) < len(a):
                        a, b = b, a
                    acc = 0.0
                    for k, v in a.items():
                        acc += v * b.get(k, 0.0)
                    cross[comp, i, j - 1] = acc
        return cross

    def _write_first(self, m: int) -> list:
        """Per slot and component a ``<Q`` entry count, then the map's
        digests as ``u8[entries]`` and masses as ``f8[entries]``."""
        parts = []
        for maps in self.maps[:m]:
            for mp in maps:
                parts += (
                    struct.pack("<Q", len(mp)),
                    np.fromiter(mp.keys(), "<u8", len(mp)),
                    np.fromiter(mp.values(), "<f8", len(mp)),
                )
        return parts

    def _load_first(self, data: bytes, off: int, m: int) -> int:
        for slot in range(m):
            self.maps.append([])
            for comp in range(self.d + 1):
                (entries,) = unpack_at("<Q", data, off)
                digests = read_array(data, off + 8, "<u8", (entries,)).tolist()
                if len(set(digests)) != entries:
                    raise ValueError("checkpoint holds a key twice in one map")
                masses = read_array(data, off + 8 + 8 * entries, "<f8", (entries,))
                if not finite_nonneg(masses):
                    raise ValueError("checkpoint holds negative or non-finite first moments")
                mp = dict(zip(digests, masses.tolist()))
                self.maps[slot].append(mp)
                self.self_sq[comp, slot] = _self_product(mp)
                off += 8 + 16 * entries
        return off
