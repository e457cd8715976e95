"""Constant-size cluster statistics: per-cluster summaries and the bank.

A cluster is summarized by d+1 count-min sketches of first moments (one
for the edge structure, one per side type), the exact running sums of
squared masses per component, the member count and the last-update
timestamp. Absorbing a graph touches each sketch once; merging two bundles
is cell-wise sketch addition plus scalar sums with the later timestamp
winning, and equals absorbing both member sets sequentially.

``ClusterStats`` is one such summary. The accessor surface
(``second_moment`` / ``first_moments`` / ``self_product`` /
``cross_product``) is shared with the exact backend in ``exact.py`` so the
per-cluster distance code runs unchanged against either; ``first_moments``
takes a graph's ``ComponentView``, whose sketch buckets the sketch backend
reuses and whose keys the exact backend reads. Both backends derive from
``SummaryBase``, which holds the scalar half of a summary (second moments,
member count, last-update time) and its serialization header; each backend
keeps its own first-moment storage and estimators.

``ClusterBank`` is the engine's state: the same statistics for all ``k``
clusters as struct-of-arrays (cells ``(d+1, k, rows, cols)``, per-row
squared sums ``(d+1, k, rows)``, second moments ``(k, d+1)``, ``n`` and
``t_last`` ``(k,)``). It scores a graph against every cluster with one
gather per component and builds the weight optimizer's geometry from one
batched product per component. The per-cluster code stays as its
reference: on integer masses the bank's results are bitwise equal to it.
Checkpoints store each bank slot in the ``ClusterStats`` format.

``unpack_at`` is the bounds-checked read that every layer of a checkpoint
uses, so a truncated blob raises ValueError; a summary blob with bytes
after its last component is rejected too, and ``check_loaded`` rejects
loaded scalars that no run produces.
"""

from __future__ import annotations

import struct

import numpy as np

from .model import ComponentView
from .sketch import CountMinSketch, SketchConfig, read_sketch
from .weight_opt import ClusterGeometry

_VERSION = 1
_HEADER = struct.Struct("<4sBIQq")


def unpack_at(fmt: str, data: bytes, off: int) -> tuple:
    """``struct.unpack_from`` that raises ValueError, not ``struct.error``,
    when ``data`` ends before the record, as in a truncated checkpoint."""
    if off + struct.calcsize(fmt) > len(data):
        raise ValueError(f"truncated blob: no {fmt!r} at offset {off} of {len(data)}")
    return struct.unpack_from(fmt, data, off)


def _summary_header(magic: bytes, second_moments: np.ndarray, n: int, t_last: int) -> bytes:
    head = _HEADER.pack(magic, _VERSION, len(second_moments) - 1, n, t_last)
    return head + second_moments.astype("<f8", copy=False).tobytes()


def _with_sketches(header: bytes, sketches) -> bytes:
    """A sketch summary blob: its header, then each component's sketch
    behind a ``<I`` length."""
    parts = [header]
    for sk in sketches:
        blob = sk.to_bytes()
        parts.append(struct.pack("<I", len(blob)))
        parts.append(blob)
    return b"".join(parts)


def finite_nonneg(a: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(a)) and np.all(a >= 0.0))


def check_loaded(n, t_last, second_moments, graph_count: int) -> None:
    """Reject loaded cluster scalars that no run produces: a cluster without
    members, an update after the checkpoint's graph count, or second
    moments that are negative or not finite. Arrays are per slot."""
    if not bool(np.all(np.asarray(n) >= 1)):
        raise ValueError("checkpoint holds a cluster with no members")
    t_last = np.asarray(t_last)
    if not bool(np.all((t_last >= 0) & (t_last <= graph_count))):
        raise ValueError(
            f"checkpoint holds a cluster updated outside graphs 0..{graph_count}"
        )
    if not finite_nonneg(second_moments):
        raise ValueError("checkpoint holds negative or non-finite second moments")


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

    def second_moment(self, comp: int) -> float:
        return float(self.second_moments[comp])

    # -- updates -----------------------------------------------------------

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
        return _summary_header(self._MAGIC, self.second_moments, self.n, self.t_last)

    @classmethod
    def _read_header(cls, data: bytes | memoryview) -> tuple[np.ndarray, int, int, int]:
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

    @classmethod
    def _check_end(cls, data: bytes | memoryview, off: int) -> None:
        """A summary blob ends at its last component: no trailing bytes."""
        if off != len(data):
            raise ValueError(f"{cls.__name__} blob is {len(data)} bytes but ends at {off}")

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
        return _with_sketches(self._header_bytes(), self.sketches)

    @classmethod
    def from_bytes(cls, data: bytes | memoryview) -> "ClusterStats":
        moments, n, t_last, grids = cls._parse(data)
        sketches = [CountMinSketch(SketchConfig(*shape), cells.copy()) for shape, cells in grids]
        return cls(sketches, moments, n, t_last)

    @classmethod
    def _parse(cls, data: bytes | memoryview):
        """(second_moments, n, t_last, grids) of a ``to_bytes`` blob, where
        ``grids`` holds each component's sketch ``(rows, cols, seed)`` and a
        read-only view of its cells in ``data``."""
        data = memoryview(data)
        moments, n, t_last, off = cls._read_header(data)
        grids = []
        for _ in range(len(moments)):
            (blob_len,) = unpack_at("<I", data, off)
            off += 4
            grids.append(read_sketch(data[off : off + blob_len]))
            off += blob_len
        cls._check_end(data, off)
        return moments, n, t_last, grids

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClusterStats):
            return NotImplemented
        return self._scalars_equal(other) and all(
            sa == sb for sa, sb in zip(self.sketches, other.sketches)
        )


class ClusterBank:
    """Struct-of-arrays state of up to ``k`` sketched clusters.

    Slot ``i`` holds what one ``ClusterStats`` holds, as slices of arrays
    shared by all slots:

    * ``cells[c, i]``: the ``(rows, cols)`` count-min grid of component ``c``;
    * ``row_sq[c, i]``: that grid's per-row sums of squared cells (its self
      product is their minimum), recomputed on every absorb into the slot;
    * ``second_moments[i]``: the exact sums of squared masses, ``(d+1,)``;
    * ``n[i]`` and ``t_last[i]``: member count and last-update time.

    Slots ``0..size-1`` are live and every live slot has a member. Scoring a
    graph gathers each component's cells for all slots at once; the weight
    refresh takes every pair's cross products from one batched product per
    component. The arithmetic after each gather and product is the
    per-cluster code's (``distance``, ``weight_opt.cluster_geometry``) in the
    same order, so on integer masses the results are bitwise equal to it.
    Each slot serializes to the ``ClusterStats`` format.
    """

    def __init__(self, config: SketchConfig, d: int, k: int):
        self.config = config
        self.d = d
        self.cells = np.zeros((d + 1, k, config.rows, config.cols), dtype=np.float64)
        self.row_sq = np.zeros((d + 1, k, config.rows), dtype=np.float64)
        self.second_moments = np.zeros((k, d + 1), dtype=np.float64)
        self.n = np.zeros(k, dtype=np.int64)
        self.t_last = np.zeros(k, dtype=np.int64)
        self.size = 0

    def __len__(self) -> int:
        return self.size

    # -- updates -----------------------------------------------------------

    def add(self, views: list[ComponentView], now: int) -> int:
        """Found a cluster on one graph in the next free slot; returns it."""
        slot = self.size
        self.size += 1
        self.absorb(slot, views, now)
        return slot

    def reset(self, slot: int, views: list[ComponentView], now: int) -> None:
        """Replace the slot's cluster, in place, by one founded on one graph."""
        self.cells[:, slot] = 0.0
        self.row_sq[:, slot] = 0.0
        self.second_moments[slot] = 0.0
        self.n[slot] = 0
        self.t_last[slot] = 0
        self.absorb(slot, views, now)

    def absorb(self, slot: int, views: list[ComponentView], now: int) -> None:
        if len(views) != self.d + 1:
            raise ValueError("component count mismatch with schema")
        if now < 0:
            raise ValueError("timestamp must be nonnegative")
        span = self.config._row_span
        for comp, view in enumerate(views):
            if view.keys:
                if not bool(np.all(view.values >= 0.0)):
                    raise ValueError("negative or NaN update value")
                grid = self.cells[comp, slot]
                np.add.at(grid, (span, view.buckets(self.config)), view.values[None, :])
                self.row_sq[comp, slot] = np.einsum("rc,rc->r", grid, grid)
                self.second_moments[slot, comp] += view.sq_sum
        self.n[slot] += 1
        self.t_last[slot] = max(self.t_last[slot], now)

    # -- reads ---------------------------------------------------------------

    def distances_sq(self, views: list[ComponentView]) -> np.ndarray:
        """Squared component distances from one graph to every live cluster,
        ``(size, d+1)``: ``component_distances_sq`` for all slots at once."""
        m = self.size
        n = self.n[:m].astype(np.float64)
        self_products = self.row_sq[:, :m].min(-1)
        out = np.empty((m, self.d + 1), dtype=np.float64)
        span = self.config._row_span
        for comp, view in enumerate(views):
            cross = 0.0
            if view.keys:
                estimates = self.cells[comp, :m][:, span, view.buckets(self.config)]
                cross = estimates.min(1) @ view.values
            out[:, comp] = view.sq_sum - 2.0 * cross / n + self_products[comp] / (n * n)
        return np.maximum(out, 0.0, out=out)

    def intra_sq(self, slot: int) -> np.ndarray:
        """``intra_vector_sq`` of the slot's cluster."""
        self_products = self.row_sq[:, slot].min(-1)
        return np.maximum(self.second_moments[slot] - self_products / int(self.n[slot]), 0.0)

    def count(self, slot: int) -> int:
        return int(self.n[slot])

    def stalest(self) -> int:
        """The slot updated longest ago, ties to the lowest index."""
        return int(np.argmin(self.t_last[: self.size]))

    def geometry(self) -> ClusterGeometry:
        """``weight_opt.cluster_geometry`` of the live clusters: intra sums
        from ``(size, d+1)`` arrays, and every pair's cross products from one
        batched matrix product, a ``(size, size)`` block per component and
        row, minimised over rows. Pairs are listed ``(i, j)``, ``i < j``, in
        row-major order, as the per-cluster code lists them."""
        m = self.size
        if m < 2:
            raise ValueError("geometry needs at least two nonempty clusters")
        n = self.n[:m].astype(np.float64)
        self_products = self.row_sq[:, :m].min(-1).T
        intra = np.zeros(self.d + 1, dtype=np.float64)
        # Row by row, in slot order: the per-cluster sum's rounding.
        for row in np.maximum(self.second_moments[:m] - self_products / n[:, None], 0.0):
            intra += row
        # (d+1, rows, m, cols) @ (d+1, rows, cols, m), min over rows,
        # as (m, m, d+1).
        by_row = self.cells[:, :m].transpose(0, 2, 1, 3)
        cross = np.matmul(by_row, by_row.transpose(0, 1, 3, 2)).min(1).transpose(1, 2, 0)
        slots = np.arange(m)
        first, second = np.nonzero(slots[:, None] < slots)  # row-major: (0, 1), (0, 2), ...
        own = self_products / (n * n)[:, None]
        inter = (
            own[first]
            - 2.0 * cross[first, second] / (n[first] * n[second])[:, None]
            + own[second]
        )
        inter = np.maximum(inter, 0.0)
        kept = (inter != 0.0).any(axis=1)
        pairs = list(zip(first.tolist(), second.tolist(), kept.tolist()))
        return ClusterGeometry(
            intra=intra,
            pairs=[(i, j) for i, j, keep in pairs if keep],
            inter_sq=inter[kept],
            dropped=[(i, j) for i, j, keep in pairs if not keep],
        )

    def summaries(self) -> list[ClusterStats]:
        """One ``ClusterStats`` per live slot, for reading: its sketches and
        second moments are views of the bank's arrays, ``n`` and ``t_last``
        copies."""
        return [
            ClusterStats(
                [CountMinSketch(self.config, grid) for grid in self.cells[:, slot]],
                self.second_moments[slot],
                int(self.n[slot]),
                int(self.t_last[slot]),
            )
            for slot in range(self.size)
        ]

    # -- checkpointing -------------------------------------------------------

    def slot_bytes(self, slot: int) -> bytes:
        """The slot as ``ClusterStats.to_bytes`` writes it."""
        header = _summary_header(
            ClusterStats._MAGIC,
            self.second_moments[slot],
            int(self.n[slot]),
            int(self.t_last[slot]),
        )
        grids = (CountMinSketch(self.config, grid) for grid in self.cells[:, slot])
        return _with_sketches(header, grids)

    def load_slot(self, data: bytes | memoryview) -> None:
        """Append one ``ClusterStats`` blob as the next slot, copying its
        cells once, straight into the bank."""
        moments, n, t_last, grids = ClusterStats._parse(data)
        if len(moments) != self.d + 1:
            raise ValueError(
                f"cluster has {len(moments)} components; the schema has {self.d + 1}"
            )
        config = self.config
        if any(shape != (config.rows, config.cols, config.seed) for shape, _ in grids):
            raise ValueError("cluster sketch config differs from the checkpoint's")
        if n >= 1 << 63:
            raise ValueError(f"cluster member count {n} out of range")
        slot = self.size
        for comp, (_, cells) in enumerate(grids):
            grid = self.cells[comp, slot]
            grid[...] = cells
            self.row_sq[comp, slot] = np.einsum("rc,rc->r", grid, grid)
        self.second_moments[slot] = moments
        self.n[slot] = n
        self.t_last[slot] = t_last
        self.size += 1

    def validate(self, graph_count: int) -> None:
        """Reject loaded state no run produces, in one pass over the arrays:
        ``check_loaded`` on the scalars, and cells negative or not finite."""
        m = self.size
        check_loaded(self.n[:m], self.t_last[:m], self.second_moments[:m], graph_count)
        if not finite_nonneg(self.cells[:, :m]):
            raise ValueError("checkpoint holds negative or non-finite sketch cells")
