"""Exact reference backend mirroring the sketched statistics.

``ExactClusterStats`` keeps full key/value maps per component instead of
sketches, so every first moment, self product and cross product is exact,
next to the same scalars as a sketched cluster (second moments, member
count, last-update time). Memory grows with the number of distinct keys;
this backend exists for differential testing and small runs, not for
unbounded streams. ``ExactBank`` gives the engine the sketch
``ClusterBank``'s interface over a list of these summaries; the
per-cluster functions of ``distance`` and ``weight_opt`` read them. It
checkpoints as the sketch bank does, ``stats.write_scalars`` first, then
each slot's maps in place of the cells.
"""

from __future__ import annotations

import struct

import numpy as np

from .distance import component_distances_sq, intra_vector_sq
from .model import ComponentView
from .stats import check_loaded, finite_nonneg, read_scalars, unpack_at, write_scalars
from .weight_opt import ClusterGeometry, cluster_geometry


class ExactClusterStats:
    __slots__ = ("maps", "second_moments", "n", "t_last", "_self_cache")

    def __init__(self, maps, second_moments, n, t_last):
        self.maps: list[dict[bytes, float]] = maps
        self.second_moments: np.ndarray = second_moments
        self.n: int = n
        self.t_last: int = t_last
        self._self_cache: list[float | None] = [None] * len(maps)

    @classmethod
    def empty(cls, d: int) -> "ExactClusterStats":
        if d < 0:
            raise ValueError("d must be >= 0")
        return cls([{} for _ in range(d + 1)], np.zeros(d + 1, dtype=np.float64), 0, 0)

    @property
    def d(self) -> int:
        return len(self.second_moments) - 1

    def absorb_views(self, views: list[ComponentView], now: int) -> None:
        if len(views) != len(self.second_moments):
            raise ValueError("component count mismatch with schema")
        if now < 0:
            raise ValueError("timestamp must be nonnegative")
        self.n += 1
        self.t_last = max(self.t_last, now)
        for comp, view in enumerate(views):
            if not view.keys:
                continue
            m = self.maps[comp]
            for key, value in zip(view.keys, view.values):
                m[key] = m.get(key, 0.0) + float(value)
            self.second_moments[comp] += view.sq_sum
            self._self_cache[comp] = None

    # -- the accessors the per-cluster distance code reads --------------------

    def second_moment(self, comp: int) -> float:
        return float(self.second_moments[comp])

    def first_moments(self, comp: int, view: ComponentView) -> np.ndarray:
        m = self.maps[comp]
        keys = view.keys
        return np.fromiter((m.get(k, 0.0) for k in keys), np.float64, count=len(keys))

    def self_product(self, comp: int) -> float:
        cached = self._self_cache[comp]
        if cached is None:
            cached = sum(v * v for v in self.maps[comp].values())
            self._self_cache[comp] = cached
        return cached

    def cross_product(self, comp: int, other: "ExactClusterStats") -> float:
        a, b = self.maps[comp], other.maps[comp]
        if len(b) < len(a):
            a, b = b, a
        return sum(v * b.get(k, 0.0) for k, v in a.items())

    def __repr__(self) -> str:
        return f"ExactClusterStats(n={self.n}, d={self.d}, t_last={self.t_last})"


class ExactBank:
    """The ``ClusterBank`` interface over a list of ``ExactClusterStats``,
    one per live slot, so the engine has one path for both backends. Each
    method loops over the slots with the per-cluster code."""

    def __init__(self, d: int):
        self.d = d
        self.slots: list[ExactClusterStats] = []

    def __len__(self) -> int:
        return len(self.slots)

    def _founded(self, views: list[ComponentView], now: int) -> ExactClusterStats:
        c = ExactClusterStats.empty(self.d)
        c.absorb_views(views, now)
        return c

    def add(self, views: list[ComponentView], now: int) -> int:
        self.slots.append(self._founded(views, now))
        return len(self.slots) - 1

    def reset(self, slot: int, views: list[ComponentView], now: int) -> None:
        self.slots[slot] = self._founded(views, now)

    def absorb(self, slot: int, views: list[ComponentView], now: int) -> None:
        self.slots[slot].absorb_views(views, now)

    def distances_sq(self, views: list[ComponentView]) -> np.ndarray:
        return np.array([component_distances_sq(views, c) for c in self.slots])

    def intra_sq(self, slot: int) -> np.ndarray:
        return intra_vector_sq(self.slots[slot])

    def count(self, slot: int) -> int:
        return self.slots[slot].n

    def stalest(self) -> int:
        return min(range(len(self.slots)), key=lambda i: (self.slots[i].t_last, i))

    def geometry(self) -> ClusterGeometry:
        return cluster_geometry(self.slots)

    def _scalars(self) -> tuple[list, list, list]:
        """Every slot's ``n``, ``t_last`` and second moments."""
        slots = self.slots
        return [c.n for c in slots], [c.t_last for c in slots], [c.second_moments for c in slots]

    def to_bytes(self) -> bytes:
        """``write_scalars``, then per slot and component a ``<Q`` entry
        count and each entry as ``<I`` key length, key, ``<d`` value."""
        parts = [write_scalars(*self._scalars())]
        for c in self.slots:
            for m in c.maps:
                parts.append(struct.pack("<Q", len(m)))
                for key, value in m.items():
                    parts += (struct.pack("<I", len(key)), key, struct.pack("<d", value))
        return b"".join(parts)

    def load(self, data: bytes, off: int, k: int) -> int:
        """Fill the empty bank from a ``to_bytes`` section at ``off``;
        returns the offset after it."""
        n, t_last, moments, off = read_scalars(data, off, self.d, k)
        for slot in range(len(n)):
            maps: list[dict[bytes, float]] = []
            for _ in range(self.d + 1):
                (entries,) = unpack_at("<Q", data, off)
                off += 8
                m: dict[bytes, float] = {}
                for _ in range(entries):
                    (klen,) = unpack_at("<I", data, off)
                    key = bytes(data[off + 4 : off + 4 + klen])
                    (m[key],) = unpack_at("<d", data, off + 4 + klen)
                    off += 4 + klen + 8
                maps.append(m)
            # a copy: absorb_views adds to the second moments in place
            self.slots.append(
                ExactClusterStats(maps, moments[slot].copy(), int(n[slot]), int(t_last[slot]))
            )
        return off

    def validate(self, graph_count: int, k: int) -> None:
        """``check_loaded`` on the scalars, and map values negative or not finite."""
        check_loaded(*self._scalars(), graph_count, k)
        values = (v for c in self.slots for m in c.maps for v in m.values())
        if not finite_nonneg(np.fromiter(values, dtype=np.float64)):
            raise ValueError("checkpoint holds negative or non-finite masses")
