"""Constant-size cluster statistics: the engine's bank of clusters.

A cluster is summarized by first moments per component (one for the edge
structure, one per side type), the exact running sums of squared masses
per component, the member count and the last-update timestamp. ``Bank``
holds these for all ``k`` clusters as arrays and computes every distance
from them; a backend supplies only the store of first moments.
``ClusterBank`` keeps them as count-min sketches (``exact.ExactBank``
keeps exact maps by digest). Every read and update takes a graph's one
flat, read-only ``model.GraphView`` and reads its key digests, a key's one
identity, component by component by its ``bounds``: scoring it against all
clusters is one gather of cross products and one closed form, absorbing
it one scatter into the slot's sketches. Summing two clusters'
cells and scalars (the later timestamp winning) equals absorbing both
member sets into one.

A bank checkpoints as its live slots' arrays, whole: the scalars, then
the backend's first moments, every shape but the slot count taken from
the engine header. ``unpack_at`` and ``read_array`` are the bounds-checked
reads a checkpoint goes through, so a truncated one raises ValueError;
``Bank.load``, given the graph count, rejects each count and array no run
holds where it reads it, so the first fault in file order is reported.
"""

from __future__ import annotations

import math
import struct
import sys

import numpy as np

from .model import GraphView
from .native import kernel
from .sketch import SketchConfig
from .weight_opt import ClusterGeometry, finite_nonneg


# Each key adds its mass once to every row of a grid, so the rows sum to one
# total up to rounding: rows add the same masses in different orders, each
# addition moving a row's total by at most 2**-53 of the largest row sum, so
# 1e-6 allows about 10**9 additions per row. Whole cells do not show whole
# masses (2**52 + 0.5 + 0.5 rounds to a whole cell of 2**52 in a row where
# the three collide, while a row that keeps the halves apart sums 2**52 + 1);
# only whole-celled rows totalling under 1 / ROW_SUM_RTOL, whose gap is whole
# and below one, must agree exactly.
ROW_SUM_RTOL = 1e-6

# An update is admitted only while a bound on the slot's self product stays
# below this. Rounding keeps every stored sum within far less than this
# margin of its exact value: the 500 squares of a row's self product, and a
# second moment, which the self product bounds for nonnegative masses.
_SELF_SQ_LIMIT = (1.0 - 2.0**-20) * sys.float_info.max
_SELF_SQ_FAULT = "checkpoint holds a cluster whose self product is not finite"


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


class Bank:
    """Up to ``k`` clusters, one per slot, and the distances between them.

    Slot ``i`` holds ``second_moments[i]`` (the exact sums of squared
    masses, ``(d+1,)``), ``n[i]`` and ``t_last[i]`` (member count and
    last-update time) and ``self_sq[:, i]`` (its first moments' self
    products, recomputed by the backend on every absorb into the slot and
    on load); the backend holds the first moments. Slots ``0..size-1`` are
    live and every live slot has a member.

    Distances compare mass vectors over the (implicit) key space of one
    component: edges (component 0) or one side type (components 1..d). The
    cluster side of a comparison is the centroid, i.e. aggregated mass
    divided by member count n. Squared distances expand into three terms:

        sum_k g_k^2  -  (2/n) * sum_k g_k * C_k  +  (1/n^2) * sum_k C_k^2

    where only keys present in the incoming graph contribute to the first
    two terms and the third is the cluster's aggregate self product. Both
    backends form a graph's middle term, its cross product with a slot,
    in one stated order: per component, from 0.0, each key's estimate
    times its mass added in view order, so no BLAS kernel decides its
    bits. On the sketch backend the middle and last terms use
    overestimating estimators, so sketch distances can only exceed their
    exact counterparts (before clamping). Negative values from estimator
    noise are clamped to zero; a value that is not finite before the clamp
    raises ValueError. The compiled kernel (``native``) holds this closed
    form, ``max(a - 2 cross / denom + b, 0)``, once for every distance (a
    graph to a centroid, a centroid to a centroid), with the counts and
    ``self_sq / n**2`` formed in it: single IEEE operations in numpy's
    order, so its bits are numpy's; the graph's ``sq_sum`` comes with its
    view, summed in view order. The same kernel call weights a graph's d+1
    squared component distances to each slot by the engine's weights, and
    the nearest slot's spread (per component ``max(second moment - self_sq
    / n, 0)``, held by the kernel alone, which sums it over the slots for
    ``geometry`` too) likewise, each sum left to right from 0.0: an event's
    ``es_distance_sq`` and, over n, its spread. The ``self_sq`` row squares
    and the refresh's pair cross products stay in numpy.

    A backend supplies its first-moment store, keyed by the view's
    ``digests``, through the hooks: ``_add(slot, view, fresh)`` (which
    empties the slot first if ``fresh``, and refreshes its ``self_sq``; it
    writes nothing if it raises), ``_cross(view)`` (the view's cross
    products with every live slot in that order, ``(size, d+1)``, in a fresh
    C-ordered array that ``distances_sq`` overwrites), ``_pair_cross()``
    (the cross products of the live slot pairs ``i < j`` at
    ``[:, i, j - 1]`` of one C-ordered ``(d+1, m-1, m-1)`` block, its lower
    triangle unread), and ``_write_first`` and ``_load_first`` (which rejects first
    moments no run holds) for the checkpoint. The engine routes a graph as
    decide, then apply: reads, then one of two updates. ``reset`` founds a
    cluster in a live slot or the next free one; ``absorb`` adds a graph to
    a live slot. Each has ``_check_update`` check its slot and graph first,
    so a rejected update leaves the bank as it was.

    A bank holds only what its checkpoint restores (``self_sq`` is
    recomputed on load, and ``geometry`` caches nothing), so a resumed bank
    equals the saved one attribute for attribute.
    """

    def __init__(self, d: int, k: int):
        self.d = d
        self.second_moments = np.zeros((k, d + 1), dtype=np.float64)
        self.n = np.zeros(k, dtype=np.int64)
        self.t_last = np.zeros(k, dtype=np.int64)
        self.self_sq = np.zeros((d + 1, k), dtype=np.float64)
        self.size = 0

    def __len__(self) -> int:
        return self.size

    # -- updates -----------------------------------------------------------

    def reset(self, slot: int, view: GraphView, now: int) -> None:
        """Found a cluster on one graph in ``slot``: in place of a live
        slot's cluster, or in the next free slot, ``len(bank)``."""
        self._check_update(view, now, slot, min(self.size + 1, len(self.n)), joins=False)
        self._absorb(slot, view, now, fresh=True)
        self.size = max(self.size, slot + 1)

    def absorb(self, slot: int, view: GraphView, now: int) -> None:
        """Add one graph to a live slot's cluster."""
        self._check_update(view, now, slot, self.size, joins=True)
        self._absorb(slot, view, now, fresh=False)

    def _absorb(self, slot: int, view: GraphView, now: int, fresh: bool) -> None:
        # the first moments first: a view the backend rejects leaves all as it was
        self._add(slot, view, fresh)
        if fresh:
            self.second_moments[slot] = 0.0
            self.n[slot] = self.t_last[slot] = 0
        self.second_moments[slot] += view.sq_sum
        self.n[slot] += 1
        self.t_last[slot] = max(self.t_last[slot], now)

    def _check(self, view: GraphView) -> None:
        if view.d != self.d:
            raise ValueError("component count mismatch with schema")

    def _check_update(self, view: GraphView, now: int, slot: int, end: int, joins: bool) -> None:
        """Reject a slot outside ``0..end-1``, or a graph no update may
        write, before anything is written: one of another component count,
        or one after which the slot's self product (of the graph alone, or
        of the cluster it ``joins``) could leave float range, which no
        checkpoint may hold. Every view's masses are finite and nonnegative.

        Per component, a graph of ``n`` keys and sum of squares ``q`` adds
        to each sketch row a vector of norm at most ``sqrt(n * q)`` (Cauchy-
        Schwarz, for keys that share a cell), so by the triangle inequality
        ``(sqrt(self_sq) + sqrt(n * q))**2`` bounds the self product after
        the update, on either backend; it is exact for one key. For
        nonnegative masses the self product bounds the second moments too."""
        if not 0 <= slot < end:
            raise ValueError(f"slot {slot} is outside 0..{end - 1}: {self.size} slots live")
        self._check(view)
        if now < 0:
            raise ValueError("timestamp must be nonnegative")
        # Python floats: numpy calls would cost a graph several us more
        own = self.self_sq[:, slot].tolist() if joins else [0.0] * (self.d + 1)
        sq_sum = view.sq_sum.tolist()
        # (a + b)**2 <= 2 * (a**2 + b**2), and each component's terms are at
        # most the sums over all: one test passes every graph far from the
        # limit, which halved the check's cost in the stream loop
        if 2.0 * (sum(own) + view.bounds[-1] * sum(sq_sum)) < _SELF_SQ_LIMIT:
            return
        ends = view.bounds
        for held, sq, start, stop in zip(own, sq_sum, ends, ends[1:]):
            root = math.sqrt(held) + math.sqrt((stop - start) * sq)
            if not root * root < _SELF_SQ_LIMIT:
                raise ValueError(f"slot {slot}'s self product would not be finite")

    # -- reads ---------------------------------------------------------------

    def distances_sq(self, view: GraphView, weights: np.ndarray) -> tuple:
        """Squared component distances from one graph to every live cluster,
        ``(size, d+1)``; then the nearest slot by the distances weighted by
        ``weights`` (the first of least weighted distance), that distance,
        and the slot's spread weighted, each weighted sum added left to
        right from 0.0: ``(-1, inf, 0.0)`` with no live slot."""
        self._check(view)
        out = self._cross(view)  # overwritten
        route = kernel.graph_distances_sq(
            self.self_sq, self.n, view.sq_sum, out, self.second_moments, weights
        )
        return (out, *route)

    def stalest(self) -> int:
        """The slot updated longest ago, ties to the lowest index."""
        return int(self.t_last[: self.size].argmin())

    def geometry(self) -> ClusterGeometry:
        """The weight optimizer's snapshot of the live clusters, one kernel
        call over ``_pair_cross``: the spreads summed in slot order, and
        every pair's squared centroid separation, the pairs ``(i, j)``, ``i
        < j``, walked row-major; a pair whose centroids coincide in every
        component is dropped and only counted."""
        m = self.size
        if m < 2:
            raise ValueError("geometry needs at least two nonempty clusters")
        intra, inter = np.empty(self.d + 1), np.empty((m * (m - 1) // 2, self.d + 1))
        kept = kernel.geometry(
            self.self_sq, self.n, self.second_moments, self._pair_cross(), intra, inter
        )
        return ClusterGeometry(intra, inter[:kept], len(inter) - kept)

    # -- checkpointing -------------------------------------------------------

    def to_parts(self) -> list:
        """The live slots' checkpoint section, as buffers for the caller to
        join: ``<I`` slot count, ``n`` and ``t_last`` as ``i8[m]``, second
        moments as ``f8[m, d+1]``, then the backend's first moments."""
        m = self.size
        return [
            struct.pack("<I", m),
            np.asarray(self.n[:m], "<i8"),
            np.asarray(self.t_last[:m], "<i8"),
            np.ascontiguousarray(self.second_moments[:m], "<f8"),
            *self._write_first(m),
        ]

    def load(self, data: bytes, off: int, graph_count: int) -> int:
        """Fill the empty bank from a ``to_parts`` section at ``off`` of a
        checkpoint after ``graph_count`` graphs; returns the offset after
        it. Each value is checked where it is read, so the first fault in
        file order is the one reported: the slot count (more than ``k``,
        then other than ``min(graph_count, k)``), a cluster without members
        or more members than graphs, an update outside ``0..graph_count``,
        then each negative or non-finite moment, and last a self product,
        recomputed from the first moments, that is not finite. A rejected
        section leaves the bank unfit for use."""
        (m,) = unpack_at("<I", data, off)
        k = len(self.n)
        if m > k:
            raise ValueError(f"checkpoint holds {m} clusters, more than k")
        if m != min(graph_count, k):
            raise ValueError(
                f"checkpoint holds {m} clusters after {graph_count} graphs; "
                f"a run with k={k} holds {min(graph_count, k)}"
            )
        off += 4
        n = read_array(data, off, "<i8", (m,))
        if m and n.min() < 1:
            raise ValueError("checkpoint holds a cluster with no members")
        members = sum(n.tolist())
        if members > graph_count:
            raise ValueError(
                f"checkpoint clusters hold {members} members, more than its {graph_count} graphs"
            )
        t_last = read_array(data, off + 8 * m, "<i8", (m,))
        if m and (t_last.min() < 0 or t_last.max() > graph_count):
            raise ValueError(
                f"checkpoint holds a cluster updated outside graphs 0..{graph_count}"
            )
        moments = read_array(data, off + 16 * m, "<f8", (m, self.d + 1))
        # checked on the bank's copy: a view into the blob may sit off 8-byte
        # alignment, where numpy's reductions run about half as fast
        self.second_moments[:m] = moments
        if not finite_nonneg(self.second_moments[:m]):
            raise ValueError("checkpoint holds negative or non-finite second moments")
        off = self._load_first(data, off + 16 * m + moments.nbytes, m)
        if not np.isfinite(self.self_sq[:, :m]).all():  # recomputed from the first moments
            raise ValueError(_SELF_SQ_FAULT)
        self.n[:m] = n
        self.t_last[:m] = t_last
        self.size = m
        return off


class ClusterBank(Bank):
    """The sketch backend: each slot's first moments as d+1 count-min grids.

    ``cells[c, i]`` is the ``(rows, cols)`` grid of component ``c`` in
    slot ``i``; its self product is the minimum over rows of the row's sum
    of squared cells. A view brings its keys' digests; the config's
    multiply-shift buckets them. The per-key loops run in the compiled
    kernel (``native``), which reads each key's component from the view's
    ``bounds`` and, in each call, first buckets every digest in every row:
    scoring a graph is one call that takes each key's minimum over its row
    cells in every live slot and sums the terms of each cross product;
    absorbing it is one in-order scatter into the slot's d+1 grids (row by
    row, keys in view order: the order of ``np.add.at``) and one batched
    row-square product in numpy. The weight refresh takes every pair's
    cross products from one batched product: a gemm of slots ``0..m-2``
    against slots ``1..m-1``, which holds the pairs ``i < j``, then its
    minimum over rows. The cells checkpoint as one ``f8[d+1, m, rows,
    cols]`` block.
    """

    def __init__(self, config: SketchConfig, d: int, k: int):
        super().__init__(d, k)
        self.config = config
        self.cells = np.zeros((d + 1, k, config.rows, config.cols), dtype=np.float64)

    def _add(self, slot: int, view: GraphView, fresh: bool) -> None:
        config = self.config
        kernel.scatter_add(
            self.cells, slot, view.bounds, config._mult, config._add, view.digests, view.values,
            fresh,
        )
        self._square_rows(slot)

    def _square_rows(self, slots) -> None:
        """Recompute the slots' self products from their cells: each row's
        sum of squares, then the minimum over rows."""
        grids = self.cells[:, slots]
        self.self_sq[:, slots] = np.einsum("...c,...c->...", grids, grids).min(-1)

    def _cross(self, view: GraphView) -> np.ndarray:
        out = np.empty((self.size, self.d + 1))
        config = self.config
        kernel.graph_cross(
            self.cells, view.bounds, config._mult, config._add, view.digests, view.values,
            self.size, out,
        )
        return out

    def _pair_cross(self) -> np.ndarray:
        # Slots 0..m-2 against slots 1..m-1, (d+1, rows, m-1, cols) @
        # (d+1, rows, cols, m-1): one gemm on views, holding every pair
        # i < j at [i, j - 1]. (The square product of all slots goes to BLAS
        # syrk, which is slower at these sizes.)
        by_row = self.cells[:, : self.size].transpose(0, 2, 1, 3)
        products = by_row[:, :, :-1] @ by_row[:, :, 1:].transpose(0, 1, 3, 2)
        return products.min(1)

    def _write_first(self, m: int) -> list:
        # the array's own buffer: joined by the caller without another copy
        return [np.ascontiguousarray(self.cells[:, :m], "<f8")]

    def _load_first(self, data: bytes, off: int, m: int) -> int:
        shape = (self.d + 1, m, self.config.rows, self.config.cols)
        cells = read_array(data, off, "<f8", shape)
        self.cells[:, :m] = cells
        held = self.cells[:, :m]  # the bank's copy, checked as in ``Bank.load``
        # Four passes over the cells: the copy, the minimum, the row totals
        # and the squares. NaN fails ``min() >= 0``, and an inf cell makes its
        # row's total inf; only then are the cells tested for inf. Finite
        # cells whose total overflows would square to an inf self product.
        bad = "checkpoint holds negative or non-finite first moments"
        if held.size and not held.min() >= 0.0:
            raise ValueError(bad)
        with np.errstate(over="ignore"):  # a total past float range is inf, tested next
            sums = held.sum(-1)  # one total per grid, to ROW_SUM_RTOL of the largest
        if not np.isfinite(sums).all():
            raise ValueError(bad if not np.isfinite(held).all() else _SELF_SQ_FAULT)
        top = sums.max(-1)
        if (top - sums.min(-1) > ROW_SUM_RTOL * top).any():
            raise ValueError("checkpoint holds a sketch whose rows sum to different totals")
        # absorb's product, so a resumed run stays bitwise equal
        self._square_rows(slice(0, m))
        return off + cells.nbytes
