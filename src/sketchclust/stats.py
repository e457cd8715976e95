"""Constant-size cluster statistics: the engine's bank of sketched clusters.

A cluster is summarized by d+1 count-min sketches of first moments (one
for the edge structure, one per side type), the exact running sums of
squared masses per component, the member count and the last-update
timestamp. Absorbing a graph touches each sketch once; summing two
clusters' cells and scalars (the later timestamp winning) equals absorbing
both member sets into one.

``ClusterBank`` is the engine's state: these statistics for all ``k``
clusters as struct-of-arrays (cells ``(d+1, k, rows, cols)``, per-row
squared sums ``(d+1, k, rows)``, second moments ``(k, d+1)``, ``n`` and
``t_last`` ``(k,)``). It scores a graph against every cluster with one
gather per component and builds the weight optimizer's geometry from one
batched product per component.

A bank checkpoints as its live slots' arrays, whole: the scalars both
backends share (``write_scalars``), then the cells as one ``f8[d+1, m,
rows, cols]`` block, every shape but ``m`` taken from the engine header.
``unpack_at`` and ``read_array`` are the bounds-checked reads a checkpoint
goes through, so a truncated one raises ValueError; ``check_loaded``
rejects loaded state that no run produces.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .model import ComponentView
from .sketch import SketchConfig
from .weight_opt import ClusterGeometry


def unpack_at(fmt: str, data: bytes, off: int) -> tuple:
    """``struct.unpack_from`` that raises ValueError, not ``struct.error``,
    when ``data`` ends before the record, as in a truncated checkpoint."""
    if off + struct.calcsize(fmt) > len(data):
        raise ValueError(f"truncated blob: no {fmt!r} at offset {off} of {len(data)}")
    return struct.unpack_from(fmt, data, off)


def read_array(data: bytes, off: int, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
    """A read-only view of the ``shape`` array of ``dtype`` at ``off``;
    ValueError when ``data`` ends before it."""
    count = math.prod(shape)
    if off + count * np.dtype(dtype).itemsize > len(data):
        raise ValueError(f"truncated blob: no {dtype}{list(shape)} at offset {off} of {len(data)}")
    array = np.frombuffer(data, dtype=dtype, count=count, offset=off).reshape(shape)
    array.flags.writeable = False
    return array


def write_scalars(n, t_last, second_moments) -> bytes:
    """The live slots' scalars: ``<I`` slot count, ``n`` and ``t_last`` as
    ``i8[m]``, second moments as ``f8[m, d+1]``."""
    arrays = (np.asarray(n, "<i8"), np.asarray(t_last, "<i8"), np.asarray(second_moments, "<f8"))
    return struct.pack("<I", len(n)) + b"".join(a.tobytes() for a in arrays)


def read_scalars(data: bytes, off: int, d: int, k: int) -> tuple:
    """Inverse of ``write_scalars`` at ``off``: read-only ``(n, t_last,
    second_moments)`` and the offset after them. More than ``k`` slots is
    rejected before any array is read."""
    (m,) = unpack_at("<I", data, off)
    if m > k:
        raise ValueError(f"checkpoint holds {m} clusters, more than k")
    off += 4
    n = read_array(data, off, "<i8", (m,))
    t_last = read_array(data, off + 8 * m, "<i8", (m,))
    second_moments = read_array(data, off + 16 * m, "<f8", (m, d + 1))
    return n, t_last, second_moments, off + 16 * m + second_moments.nbytes


def finite_nonneg(a) -> bool:
    a = np.asarray(a, dtype=np.float64)
    return bool(np.all(np.isfinite(a)) and np.all(a >= 0.0))


def check_loaded(n, t_last, second_moments, graph_count: int, k: int) -> None:
    """Reject loaded cluster scalars that no run produces: a cluster count
    other than ``min(graph_count, k)``, a cluster without members, more
    members than graphs, an update after the checkpoint's graph count, or
    second moments that are negative or not finite. Arrays are per slot."""
    live = min(graph_count, k)
    if len(n) != live:
        raise ValueError(
            f"checkpoint holds {len(n)} clusters after {graph_count} graphs; "
            f"a run with k={k} holds {live}"
        )
    if not bool(np.all(np.asarray(n) >= 1)):
        raise ValueError("checkpoint holds a cluster with no members")
    members = sum(int(count) for count in n)
    if members > graph_count:
        raise ValueError(
            f"checkpoint clusters hold {members} members, more than its {graph_count} graphs"
        )
    t_last = np.asarray(t_last)
    if not bool(np.all((t_last >= 0) & (t_last <= graph_count))):
        raise ValueError(
            f"checkpoint holds a cluster updated outside graphs 0..{graph_count}"
        )
    if not finite_nonneg(second_moments):
        raise ValueError("checkpoint holds negative or non-finite second moments")


class ClusterBank:
    """Struct-of-arrays state of up to ``k`` sketched clusters.

    Slot ``i`` holds one cluster's statistics, as slices of arrays shared by
    all slots:

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
    same order.
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

    # -- checkpointing -------------------------------------------------------

    def to_bytes(self) -> bytes:
        """The live slots: ``write_scalars``, then the cells as one
        ``f8[d+1, m, rows, cols]`` block."""
        m = self.size
        scalars = write_scalars(self.n[:m], self.t_last[:m], self.second_moments[:m])
        # joined from the array's buffer: no intermediate copy of the cells
        return b"".join((scalars, np.ascontiguousarray(self.cells[:, :m], "<f8")))

    def load(self, data: bytes, off: int, k: int) -> int:
        """Fill the empty bank from a ``to_bytes`` section at ``off``,
        copying each array once, straight into the bank; returns the offset
        after it."""
        n, t_last, moments, off = read_scalars(data, off, self.d, k)
        m = len(n)
        shape = (self.d + 1, m, self.config.rows, self.config.cols)
        cells = read_array(data, off, "<f8", shape)
        self.cells[:, :m] = cells
        # absorb's per-grid product, so a resumed run stays bitwise equal
        for comp, slot in np.ndindex(self.d + 1, m):
            grid = self.cells[comp, slot]
            self.row_sq[comp, slot] = np.einsum("rc,rc->r", grid, grid)
        self.second_moments[:m] = moments
        self.n[:m] = n
        self.t_last[:m] = t_last
        self.size = m
        return off + cells.nbytes

    def validate(self, graph_count: int, k: int) -> None:
        """Reject loaded state no run produces, in one pass over the arrays:
        ``check_loaded`` on the scalars, and cells negative or not finite."""
        m = self.size
        check_loaded(self.n[:m], self.t_last[:m], self.second_moments[:m], graph_count, k)
        if not finite_nonneg(self.cells[:, :m]):
            raise ValueError("checkpoint holds negative or non-finite sketch cells")
