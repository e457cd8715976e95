"""Exact reference backend mirroring the sketched statistics.

Keeps full key/value maps per component instead of sketches, so every
first moment, self product and cross product is exact. Memory grows with
the number of distinct keys; this backend exists for differential testing
and small runs, not for unbounded streams. With ``keep_members=True`` the
bundle also retains per-member component views so aggregate quantities can
be recomputed directly from the membership for identity checks.
"""

from __future__ import annotations

import struct

import numpy as np

from .model import ComponentView
from .stats import SummaryBase


class ExactClusterStats(SummaryBase):
    __slots__ = ("maps", "members", "_self_cache")
    _MAGIC = b"XST1"

    def __init__(self, maps, second_moments, n, t_last, members=None):
        super().__init__(second_moments, n, t_last)
        self.maps: list[dict[bytes, float]] = maps
        self.members: list[list[ComponentView]] | None = members
        self._self_cache: list[float | None] = [None] * len(maps)

    @classmethod
    def empty(cls, d: int, keep_members: bool = False) -> "ExactClusterStats":
        scalars = cls._empty_scalars(d)
        members = [] if keep_members else None
        return cls([{} for _ in range(d + 1)], *scalars, members=members)

    def absorb_views(self, views: list[ComponentView], now: int) -> None:
        self._admit(views, now)
        for comp, view in enumerate(views):
            if not view.keys:
                continue
            m = self.maps[comp]
            for key, value in zip(view.keys, view.values):
                m[key] = m.get(key, 0.0) + float(value)
            self.second_moments[comp] += view.sq_sum
            self._self_cache[comp] = None
        if self.members is not None:
            self.members.append(views)

    @classmethod
    def merge(cls, a: "ExactClusterStats", b: "ExactClusterStats") -> "ExactClusterStats":
        scalars = a._merged_scalars(b)
        maps = []
        for ma, mb in zip(a.maps, b.maps):
            merged = dict(ma)
            for key, value in mb.items():
                merged[key] = merged.get(key, 0.0) + value
            maps.append(merged)
        members = None
        if a.members is not None and b.members is not None:
            members = list(a.members) + list(b.members)
        return cls(maps, *scalars, members=members)

    # -- accessor surface shared with the sketch backend --------------------

    def first_moments(self, comp: int, keys) -> np.ndarray:
        m = self.maps[comp]
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

    # -- member-level recomputation (testing aid) ----------------------------

    def members_intra_sq(self, comp: int) -> float:
        """Sum over members of squared distance to the component centroid,
        computed directly from retained member views."""
        if self.members is None:
            raise ValueError("bundle was built without keep_members")
        if self.n < 1:
            raise ValueError("empty cluster")
        centroid = {k: v / self.n for k, v in self.maps[comp].items()}
        centroid_sq = sum(c * c for c in centroid.values())
        total = 0.0
        for views in self.members:
            view = views[comp]
            part = centroid_sq
            for key, value in zip(view.keys, view.values):
                c = centroid.get(key, 0.0)
                part += (value - c) ** 2 - c * c
            total += part
        return total

    # -- serialization -------------------------------------------------------

    def to_bytes(self) -> bytes:
        parts = [self._header_bytes()]
        for m in self.maps:
            parts.append(struct.pack("<Q", len(m)))
            for key, value in m.items():
                parts.append(struct.pack("<I", len(key)))
                parts.append(key)
                parts.append(struct.pack("<d", value))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ExactClusterStats":
        moments, n, t_last, off = cls._read_header(data)
        maps: list[dict[bytes, float]] = []
        for _ in range(len(moments)):
            (entries,) = struct.unpack_from("<Q", data, off)
            off += 8
            m: dict[bytes, float] = {}
            for _ in range(entries):
                (klen,) = struct.unpack_from("<I", data, off)
                off += 4
                key = bytes(data[off : off + klen])
                off += klen
                (value,) = struct.unpack_from("<d", data, off)
                off += 8
                m[key] = value
            maps.append(m)
        return cls(maps, moments, n, t_last)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactClusterStats):
            return NotImplemented
        return self._scalars_equal(other) and self.maps == other.maps
