"""Constant-size per-cluster statistics.

A cluster is summarized by d+1 count-min sketches of first moments (one
for the edge structure, one per side type), the exact running sums of
squared masses per component, the member count and the last-update
timestamp. Absorbing a graph touches each sketch once; merging two bundles
is cell-wise sketch addition plus scalar sums with the later timestamp
winning, and equals absorbing both member sets sequentially.

The accessor surface (``second_moment`` / ``first_moments`` /
``self_product`` / ``cross_product``) is shared with the exact backend in
``exact.py`` so distance code runs unchanged against either;
``first_moments`` takes a graph's ``ComponentView``, whose sketch buckets
the sketch backend reuses and whose keys the exact backend reads. Both
backends derive from ``SummaryBase``, which holds the scalar half of a
summary (second moments, member count, last-update time) and its
serialization header; each backend keeps its own first-moment storage and
estimators. ``unpack_at`` is the bounds-checked read that every layer of a
checkpoint uses, so a truncated blob raises ValueError.
"""

from __future__ import annotations

import struct

import numpy as np

from .model import ComponentView, GraphObject, StreamSchema, graph_views
from .sketch import CountMinSketch, SketchConfig

_VERSION = 1
_HEADER = struct.Struct("<4sBIQq")


def unpack_at(fmt: str, data: bytes, off: int) -> tuple:
    """``struct.unpack_from`` that raises ValueError, not ``struct.error``,
    when ``data`` ends before the record, as in a truncated checkpoint."""
    if off + struct.calcsize(fmt) > len(data):
        raise ValueError(f"truncated blob: no {fmt!r} at offset {off} of {len(data)}")
    return struct.unpack_from(fmt, data, off)


class SummaryBase:
    """Scalar state shared by both cluster-summary backends.

    A subclass sets ``_MAGIC``, stores its first moments per component, and
    implements ``absorb_views`` (calling ``_admit`` first), ``merge``,
    ``to_bytes``/``from_bytes`` and ``__eq__`` around the helpers here.
    """

    __slots__ = ("second_moments", "n", "t_last")
    _MAGIC = b""

    def __init__(self, second_moments: np.ndarray, n: int, t_last: int):
        self.second_moments = second_moments
        self.n = n
        self.t_last = t_last

    @staticmethod
    def _empty_scalars(d: int) -> tuple[np.ndarray, int, int]:
        if d < 0:
            raise ValueError("d must be >= 0")
        return np.zeros(d + 1, dtype=np.float64), 0, 0

    @property
    def d(self) -> int:
        return len(self.second_moments) - 1

    @property
    def er(self) -> float:
        return float(self.second_moments[0])

    @property
    def sr(self) -> np.ndarray:
        return self.second_moments[1:]

    def second_moment(self, comp: int) -> float:
        return float(self.second_moments[comp])

    # -- updates -----------------------------------------------------------

    def absorb(self, g: GraphObject, now: int, schema: StreamSchema) -> None:
        self.absorb_views(graph_views(g, schema), now)

    def _admit(self, views: list[ComponentView], now: int) -> None:
        """Check an absorb's arguments and count the new member."""
        if len(views) != len(self.second_moments):
            raise ValueError("component count mismatch with schema")
        if now < 0:
            raise ValueError("timestamp must be nonnegative")
        self.n += 1
        self.t_last = max(self.t_last, now)

    def _merged_scalars(self, other: "SummaryBase") -> tuple[np.ndarray, int, int]:
        if self.d != other.d:
            raise ValueError("component count mismatch")
        return (
            self.second_moments + other.second_moments,
            self.n + other.n,
            max(self.t_last, other.t_last),
        )

    def _scalars_equal(self, other: "SummaryBase") -> bool:
        return (
            self.n == other.n
            and self.t_last == other.t_last
            and np.array_equal(self.second_moments, other.second_moments)
        )

    # -- serialization -------------------------------------------------------

    def _header_bytes(self) -> bytes:
        """Header and second moments; the first moments follow them."""
        head = _HEADER.pack(self._MAGIC, _VERSION, self.d, self.n, self.t_last)
        return head + self.second_moments.astype("<f8", copy=False).tobytes()

    @classmethod
    def _read_header(cls, data: bytes) -> tuple[np.ndarray, int, int, int]:
        """Inverse of ``_header_bytes``: (second_moments, n, t_last, offset of
        the first moments)."""
        magic, version, d, n, t_last = unpack_at(_HEADER.format, data, 0)
        if magic != cls._MAGIC:
            raise ValueError(f"bad {cls.__name__} magic")
        if version != _VERSION:
            raise ValueError(f"unsupported {cls.__name__} version {version}")
        off = _HEADER.size
        moments = np.frombuffer(data, dtype="<f8", count=d + 1, offset=off).copy()
        return moments, n, t_last, off + (d + 1) * 8

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, d={self.d}, t_last={self.t_last})"


class ClusterStats(SummaryBase):
    __slots__ = ("sketches",)
    _MAGIC = b"CST1"

    def __init__(self, sketches, second_moments, n, t_last):
        super().__init__(second_moments, n, t_last)
        self.sketches: list[CountMinSketch] = sketches

    @classmethod
    def empty(cls, config: SketchConfig, d: int) -> "ClusterStats":
        """All-zero bundle with n == 0; an identity element for merge."""
        scalars = cls._empty_scalars(d)
        return cls([CountMinSketch(config) for _ in range(d + 1)], *scalars)

    # Kept on this class, not the base: perfbench/spans.py traces it by
    # looking it up in this class's own namespace.
    def absorb_views(self, views: list[ComponentView], now: int) -> None:
        self._admit(views, now)
        for comp, view in enumerate(views):
            if view.keys:
                sketch = self.sketches[comp]
                sketch.update_many(view.buckets(sketch.config), view.values)
                self.second_moments[comp] += view.sq_sum

    @classmethod
    def merge(cls, a: "ClusterStats", b: "ClusterStats") -> "ClusterStats":
        scalars = a._merged_scalars(b)
        return cls([sa.merge(sb) for sa, sb in zip(a.sketches, b.sketches)], *scalars)

    # -- accessor surface shared with the exact backend ---------------------

    def first_moments(self, comp: int, view: ComponentView) -> np.ndarray:
        """Point estimates of the aggregated masses of the view's keys
        (overestimates)."""
        sketch = self.sketches[comp]
        return sketch.estimate_many(view.buckets(sketch.config))

    def self_product(self, comp: int) -> float:
        """Estimate of the sum of squared aggregated masses in component."""
        return self.sketches[comp].self_inner_product()

    def cross_product(self, comp: int, other) -> float:
        """Estimate of the inner product of aggregated masses with another
        bundle's same component."""
        return self.sketches[comp].inner_product(other.sketches[comp])

    # -- serialization -------------------------------------------------------

    def to_bytes(self) -> bytes:
        parts = [self._header_bytes()]
        for sk in self.sketches:
            blob = sk.to_bytes()
            parts.append(struct.pack("<I", len(blob)))
            parts.append(blob)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ClusterStats":
        moments, n, t_last, off = cls._read_header(data)
        sketches = []
        for _ in range(len(moments)):
            (blob_len,) = unpack_at("<I", data, off)
            off += 4
            sketches.append(CountMinSketch.from_bytes(data[off : off + blob_len]))
            off += blob_len
        return cls(sketches, moments, n, t_last)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClusterStats):
            return NotImplemented
        return self._scalars_equal(other) and all(
            sa == sb for sa, sb in zip(self.sketches, other.sketches)
        )
