"""Per-cluster reference code: the independent oracle for the cluster bank.

The library keeps every sketched cluster in ``stats.ClusterBank``. The
code here computes the same statistics one cluster at a time, the
straightforward way:

* ``CountMinSketch``: one ``(rows, cols)`` grid over key digests, with
  point, self-product and inner-product estimates and merge;
* ``ClusterStats``: one cluster's d+1 sketches and scalars, with the
  accessor surface the distance functions read, and merge;
* the per-cluster distances: probe to cluster (``component_distance_sq``,
  ``component_distances_sq``), intra (``intra_distance_sq``,
  ``intra_vector_sq``), between two clusters (``inter_distance_sq``,
  ``inter_vector_sq``), and ``cluster_geometry``, the weight optimizer's
  snapshot of a cluster list, each the formula in ``stats.Bank``'s
  docstring one cluster and component at a time;
* ``separating_rows``: the rows in which given keys do not collide;
* ``members_intra_sq``: the definitional intra-cluster dispersion of a
  member list;
* ``filled(bank, *clusters)``: a library bank with one slot per member
  list, for tests that read the code that runs;
* ``process_all(engine, graphs)``: the library's ingest loop, each raw
  graph through ``preprocess`` into ``Engine.process``;
* ``generate_graphs(cfg)``: a synth config's raw graphs in stream order,
  as one list (``generate_stream`` writes the same graphs one by one);
* ``SCHEMA`` and ``graph(i, edges, topics)``: the one-side-type schema
  the unit tests build their small graphs in, and such a graph,
  preprocessed;
* ``kernel_log``, ``dot``, ``rescale_feasible``, ``refine`` and
  ``refine_weights``: the weight refresh in Python floats, operation for
  operation as ``kernel.refine`` takes it (its ``log`` transcribed on the
  bits, every sum left to right from 0.0), the bitwise oracle of the
  kernel's weights, record and messages and of ``weight_opt.refine_weights``'s
  trace; ``barrier_objective`` and ``barrier_gradient`` read its objective
  and gradient at a point; ``route`` is ``kernel.graph_distances_sq``'s
  nearest slot, weighted distance and weighted spread, by ``dot``;
* ``spreads`` and ``spread_sum``: each slot's spread, ``max(second moment
  - self_sq / n, 0)``, in numpy's operation order, and the spreads summed
  per component in slot order by a Python-float loop from 0.0: formed
  here, apart from the kernel, which holds the library's one form;
  ``routed_spread``: one slot's spread as the routing reads it;
* ``square_sum(values)``: a component's squares added in view order, as
  ``GraphView.sq_sum`` holds them;
* ``component(view, c)``: a view's component ``c``, its keys (as their
  digests, each key's one identity) and values sliced by ``view.bounds``;
* ``graph_of(*components)`` and ``cut(ids, values, bounds)``: a graph
  that was not preprocessed, and its schema, given each component's ids
  and masses, and the components of flat ids and masses cut at bounds;
  ``view_of`` and ``cut_view``: the view ``graph_views`` builds of such a
  graph, the one way tests build a view;
* ``view_fields`` and ``graph_view``: ``GraphView``'s construction and
  ``graph_views`` as they were in Python before the compiled kernel built
  them, kept as their bitwise oracles; a view no longer holds ``comp``
  or ``block``, ``graph_view`` reads a side map of None as empty, as
  ``graph_views`` does, and ``view_fields`` sums each component's squares
  in view order, digests each key by ``key_digests`` and rejects the
  masses and sums ``graph_views`` rejects;
* ``key_digests``, ``multiply_shift`` and ``digest_buckets``: each key's
  digest by ``hashlib.blake2b``, digests' cells by the uint64
  multiply-shift in numpy, and each digest's cell in every row of a config's
  grid, as ``SketchConfig.buckets`` made them before the kernel's gather
  and scatter bucketed a view's digests themselves: their bitwise oracles;
* ``distances(bank, view)``: the squared component distances
  ``bank.distances_sq`` returns first, read under uniform weights;
* ``distance_sq``, ``bank_distances_sq`` and ``pair_distances_sq``: the
  closed form of every squared distance, ``Bank.distances_sq`` (its route
  by ``route``, in Python floats, over ``spreads``), and the pair listing,
  gather, closed form and kept mask of ``kernel.geometry``'s pair rows, as
  numpy computed them before the compiled kernel, kept as their bitwise
  oracles (``pairs`` lists the pairs);
* ``grid_cross`` and ``grid_add``: ``kernel.graph_cross`` and
  ``kernel.scatter_add`` in numpy, given each key's cells (a fancy-index
  gather whose terms ``np.add.accumulate`` sums in view order, and
  ``np.add.at``), kept as their bitwise oracles; ``gathered_cross`` and
  ``add_at``: ``ClusterBank._cross`` and ``ClusterBank._add`` by them, at
  ``digest_buckets``;
* ``pair_cross``: ``ClusterBank._pair_cross`` as it was before it became
  one gemm of slots ``0..m-2`` against slots ``1..m-1``: the square
  product of all slots (BLAS syrk), kept verbatim as its oracle;
* ``bank_geometry``: ``Bank.geometry`` as it was before the kernel walked
  its pairs and summed its spreads: ``intra`` by ``spread_sum``, the
  ``np.nonzero`` pair listing, the ``[:, first, second - 1].T`` gather
  and the ``inter[kept]`` selection, kept as its bitwise oracle;
* ``preprocess_record`` and ``parse_record``: ``model.preprocess`` and
  ``stream_io._parse_record`` as they were before they checked each
  record once, kept verbatim as their oracles but for two moves.
  Records no longer carry a timestamp: ``preprocess_record`` has none to
  check, and ``parse_record`` checks a ``ts`` key, then drops it. And
  the side shorthands moved from the reader to ``preprocess``:
  ``parse_record`` still type-checks the masses of each side map but
  passes every side entry on, and ``preprocess_record`` reads a list or
  string entry through ``_normalize_side``, with the reader's messages.
  They call the library's ``_check_label`` and ``_check_value``, the one
  source of those error messages, and ``_check_squares``, the library's
  square-sum check as it was before the kernel summed the squares itself
  (numpy's ``dot``), kept verbatim.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import struct
import sys
from typing import Iterable, Sequence

import numpy as np

from sketchclust import (
    BarrierConfig,
    ClusterGeometry,
    GraphObject,
    GraphView,
    SideType,
    SketchConfig,
    StreamSchema,
    SynthConfig,
    graph_views,
    preprocess,
)
from sketchclust.model import (
    _SQUARES_SAFE,
    KIND_CATEGORICAL,
    _check_label,
    _check_value,
)
from sketchclust.stream_io import StreamFormatError
from sketchclust.synth import _graphs
from sketchclust.weight_opt import TraceHook


def separating_rows(config: SketchConfig, keys: Iterable[int]) -> list[int]:
    """Rows in which all given keys (digests, as ``component`` gives them)
    land in pairwise distinct cells.

    If at least one separating row exists for the full key universe, every
    estimator on that universe is exact.
    """
    keys = tuple(dict.fromkeys(keys))
    if len(keys) <= 1:
        return list(range(config.rows))
    idx = digest_buckets(config, keys)
    return [r for r in range(config.rows) if len(set(idx[r].tolist())) == len(keys)]


class CountMinSketch:
    __slots__ = ("config", "cells", "_row_sq")

    def __init__(self, config: SketchConfig, cells: np.ndarray | None = None):
        """An empty sketch, or one over ``cells`` (a ``(rows, cols)`` float64
        array, used as given, not copied)."""
        self.config = config
        if cells is None:
            cells = np.zeros((config.rows, config.cols), dtype=np.float64)
        self.cells = cells
        self._row_sq: np.ndarray | None = None

    def update(self, key: int, value: float) -> None:
        self.update_many((key,), np.array([value], dtype=np.float64))

    def update_many(self, keys: Sequence[int], values: np.ndarray) -> None:
        """Add values[i] to keys[i]'s cell in every row. Values must be >= 0."""
        idx = digest_buckets(self.config, keys)
        if idx.shape[1] != len(values):
            raise ValueError("keys and values length mismatch")
        if len(values) == 0:
            return
        values = np.asarray(values, dtype=np.float64)
        if not bool(np.all(values >= 0.0)):
            raise ValueError("negative or NaN update value")
        np.add.at(self.cells, (np.arange(self.config.rows)[:, None], idx), values[None, :])
        self._row_sq = None

    def estimate(self, key: int) -> float:
        return float(self.estimate_many((key,))[0])

    def estimate_many(self, keys: Sequence[int]) -> np.ndarray:
        """Row-minimum point estimates for each key, never below the truth."""
        idx = digest_buckets(self.config, keys)
        return self.cells[np.arange(self.config.rows)[:, None], idx].min(axis=0)

    def self_inner_product(self) -> float:
        """min over rows of sum(cell^2); overestimates sum of squared totals."""
        if self._row_sq is None:
            self._row_sq = np.einsum("rc,rc->r", self.cells, self.cells)
        return float(self._row_sq.min())

    def inner_product(self, other: "CountMinSketch") -> float:
        """min over rows of the row dot product; overestimates the exact
        inner product between the two underlying key/value maps."""
        self._check_compatible(other)
        return float(np.einsum("rc,rc->r", self.cells, other.cells).min())

    def total(self) -> float:
        """Total inserted mass (row sums are identical across rows)."""
        return float(self.cells[0].sum())

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        """Cell-wise sum; equals the sketch of the concatenated streams."""
        self._check_compatible(other)
        return CountMinSketch(self.config, self.cells + other.cells)

    def copy(self) -> "CountMinSketch":
        return CountMinSketch(self.config, self.cells.copy())

    def _check_compatible(self, other: "CountMinSketch") -> None:
        if self.config != other.config:
            raise ValueError("sketch configs differ (shape or seed)")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountMinSketch):
            return NotImplemented
        return self.config == other.config and bool(np.array_equal(self.cells, other.cells))


class ClusterStats:
    """One sketched cluster: d+1 sketches of first moments, the exact sums
    of squared masses, the member count and the last-update time."""

    __slots__ = ("sketches", "second_moments", "n", "t_last")

    def __init__(self, sketches, second_moments, n, t_last):
        self.sketches: list[CountMinSketch] = sketches
        self.second_moments: np.ndarray = second_moments
        self.n: int = n
        self.t_last: int = t_last

    @classmethod
    def empty(cls, config: SketchConfig, d: int) -> "ClusterStats":
        """All-zero bundle with n == 0; an identity element for merge."""
        if d < 0:
            raise ValueError("d must be >= 0")
        sketches = [CountMinSketch(config) for _ in range(d + 1)]
        return cls(sketches, np.zeros(d + 1, dtype=np.float64), 0, 0)

    @property
    def d(self) -> int:
        return len(self.second_moments) - 1

    def absorb_views(self, view: GraphView, now: int) -> None:
        """Absorb one graph, hashing each component's keys into its sketch."""
        if view.d != self.d:
            raise ValueError("component count mismatch with schema")
        if now < 0:
            raise ValueError("timestamp must be nonnegative")
        self.n += 1
        self.t_last = max(self.t_last, now)
        for comp, sketch in enumerate(self.sketches):
            keys, values = component(view, comp)
            if keys:
                sketch.update_many(keys, values)
                self.second_moments[comp] += square_sum(values)

    @classmethod
    def merge(cls, a: "ClusterStats", b: "ClusterStats") -> "ClusterStats":
        if a.d != b.d:
            raise ValueError("component count mismatch")
        return cls(
            [sa.merge(sb) for sa, sb in zip(a.sketches, b.sketches)],
            a.second_moments + b.second_moments,
            a.n + b.n,
            max(a.t_last, b.t_last),
        )

    def second_moment(self, comp: int) -> float:
        return float(self.second_moments[comp])

    def first_moments(self, comp: int, view: GraphView) -> np.ndarray:
        """Point estimates of the aggregated masses of the view's keys in
        one component (overestimates)."""
        return self.sketches[comp].estimate_many(component(view, comp)[0])

    def self_product(self, comp: int) -> float:
        return self.sketches[comp].self_inner_product()

    def cross_product(self, comp: int, other: "ClusterStats") -> float:
        return self.sketches[comp].inner_product(other.sketches[comp])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClusterStats):
            return NotImplemented
        return (
            self.n == other.n
            and self.t_last == other.t_last
            and np.array_equal(self.second_moments, other.second_moments)
            and all(sa == sb for sa, sb in zip(self.sketches, other.sketches))
        )


def square_sum(values: np.ndarray) -> float:
    """The squares of ``values`` added in order from 0.0, as
    ``GraphView.sq_sum`` adds a component's: ``np.add.accumulate``
    (``values @ values`` adds in BLAS's order), and ``+ 0.0``; 0.0 for no
    values."""
    return float(np.add.accumulate(values * values)[-1] + 0.0) if len(values) else 0.0


def component(view: GraphView, c: int) -> tuple[list[int], np.ndarray]:
    """Component ``c``'s keys, as their digests, and values."""
    a, b = view.bounds[c], view.bounds[c + 1]
    return view.digests[a:b].tolist(), view.values[a:b]


def graph_of(*components) -> tuple[GraphObject, StreamSchema]:
    """A graph that was not preprocessed, and its schema, whose component
    ``c`` holds ``components[c]``'s ids with their masses: a dict, or a
    list of ``(id, mass)`` pairs for the edges, which may repeat an id.
    Each key is the UTF-8 of its id, an edge's id being ``src + "\x1f" +
    dst``; masses are taken as they are, so they may be ints, negative or
    NaN."""
    edges = components[0].items() if isinstance(components[0], dict) else components[0]
    schema = StreamSchema(tuple(SideType(f"s{c}") for c in range(1, len(components))))
    side = dict(zip(schema._names, components[1:]))
    return GraphObject("g", [(*k.split("\x1f"), m) for k, m in edges], side), schema


def view_of(*components) -> GraphView:
    """``graph_views``' view of ``graph_of(*components)``."""
    return graph_views(*graph_of(*components))


def cut(ids, values, bounds) -> list:
    """The components of the ids with their masses, cut at ``bounds``: the
    edges ``ids[:bounds[1]]``, each ``id + "\x1f"`` (an id may repeat),
    then one side map per later component (a repeated id is kept once,
    with its last mass)."""
    pairs = list(zip(ids, values))
    edges = [(i + "\x1f", v) for i, v in pairs[: bounds[1]]]
    return [edges, *(dict(pairs[a:b]) for a, b in zip(bounds[1:], bounds[2:]))]


def cut_view(ids, values, bounds) -> GraphView:
    """``view_of`` the ``cut`` of the ids with their masses."""
    return view_of(*cut(ids, values, bounds))


def members_intra_sq(members: Sequence[GraphView], comp: int) -> float:
    """Sum over members of the squared distance to the centroid of one
    component, from the members' own views."""
    if not members:
        raise ValueError("empty cluster")
    n = len(members)
    totals: dict[int, float] = {}
    for view in members:
        for key, value in zip(*component(view, comp)):
            totals[key] = totals.get(key, 0.0) + float(value)
    centroid = {k: v / n for k, v in totals.items()}
    centroid_sq = sum(c * c for c in centroid.values())
    total = 0.0
    for view in members:
        part = centroid_sq
        for key, value in zip(*component(view, comp)):
            c = centroid.get(key, 0.0)
            part += (value - c) ** 2 - c * c
        total += part
    return total


def _check_cluster(c) -> None:
    if c.n < 1:
        raise ValueError("distance against an empty cluster is undefined")


def _check_comp(c, comp: int) -> None:
    if not 0 <= comp <= c.d:
        raise ValueError(f"component index {comp} out of range 0..{c.d}")


def component_distance_sq(view: GraphView, c, comp: int) -> float:
    """Squared distance from one graph component to the cluster centroid."""
    _check_cluster(c)
    _check_comp(c, comp)
    n = c.n
    keys, values = component(view, comp)
    cross = float(values @ c.first_moments(comp, view)) if keys else 0.0
    raw = float(values @ values) - 2.0 * cross / n + c.self_product(comp) / (n * n)
    return max(raw, 0.0)


def component_distances_sq(view: GraphView, c) -> np.ndarray:
    """All d+1 squared component distances for one graph."""
    return np.array(
        [component_distance_sq(view, c, comp) for comp in range(view.d + 1)],
        dtype=np.float64,
    )


def intra_distance_sq(c, comp: int) -> float:
    """Aggregate squared member-to-centroid distance for one component,
    from the closed form: second moment minus self product over n."""
    _check_cluster(c)
    _check_comp(c, comp)
    return max(c.second_moment(comp) - c.self_product(comp) / c.n, 0.0)


def intra_vector_sq(c) -> np.ndarray:
    return np.array(
        [intra_distance_sq(c, comp) for comp in range(c.d + 1)], dtype=np.float64
    )


def inter_distance_sq(ci, cj, comp: int) -> float:
    """Squared centroid-to-centroid distance for one component."""
    _check_cluster(ci)
    _check_cluster(cj)
    _check_comp(ci, comp)
    if ci.d != cj.d:
        raise ValueError("component count mismatch between clusters")
    ni, nj = ci.n, cj.n
    raw = (
        ci.self_product(comp) / (ni * ni)
        - 2.0 * ci.cross_product(comp, cj) / (ni * nj)
        + cj.self_product(comp) / (nj * nj)
    )
    return max(raw, 0.0)


def inter_vector_sq(ci, cj) -> np.ndarray:
    return np.array(
        [inter_distance_sq(ci, cj, comp) for comp in range(ci.d + 1)], dtype=np.float64
    )


def cluster_geometry(clusters: Sequence) -> ClusterGeometry:
    """Summed intra vectors, and the inter vector of every pair ``(i, j)``,
    ``i < j``, in row-major order; pairs whose centroids coincide in every
    component are counted as dropped."""
    live = [c for c in clusters if c.n >= 1]
    if len(live) < 2:
        raise ValueError("geometry needs at least two nonempty clusters")
    intra = np.zeros(live[0].d + 1, dtype=np.float64)
    for c in live:
        intra += intra_vector_sq(c)
    rows: list[np.ndarray] = []
    dropped = 0
    for i in range(len(live)):
        for j in range(i + 1, len(live)):
            vec = inter_vector_sq(live[i], live[j])
            if np.all(vec == 0.0):
                dropped += 1
            else:
                rows.append(vec)
    inter_sq = (
        np.vstack(rows) if rows else np.zeros((0, len(intra)), dtype=np.float64)
    )
    return ClusterGeometry(intra=intra, inter_sq=inter_sq, dropped=dropped)


def filled(bank, *clusters):
    """``bank`` with one slot per cluster, each given as its members'
    views: the first founds the next free slot, the rest are absorbed into
    it, at times 1, 2, ..."""
    for members in clusters:
        slot = len(bank)
        for now, view in enumerate(members, start=1):
            update = bank.reset if now == 1 else bank.absorb
            update(slot, view, now)
    return bank


def process_all(engine, graphs) -> list:
    """The event of each raw graph, preprocessed and processed in order."""
    return [engine.process(preprocess(g, engine.schema)) for g in graphs]


def generate_graphs(cfg: SynthConfig) -> list[GraphObject]:
    """The config's raw graphs in stream order, as one list."""
    return list(_graphs(cfg))


SCHEMA = StreamSchema(side_types=(SideType("topics"),))


def graph(i: int, edges, topics=None) -> GraphObject:
    """Graph ``g{i}`` in ``SCHEMA``, preprocessed."""
    raw = GraphObject(id=f"g{i}", edges=edges, side={"topics": topics or {}})
    return preprocess(raw, SCHEMA)


# ``kernel_log``'s split of ln 2 and its polynomial's coefficients
_LN2_HI, _LN2_LO = float.fromhex("0x1.62e42feep-1"), float.fromhex("0x1.a39ef35793c76p-33")
_LG = [
    float.fromhex(h)
    for h in (
        "0x1.5555555555593p-1", "0x1.999999997fa04p-2", "0x1.2492494229359p-2",
        "0x1.c71c51d8e78afp-3", "0x1.7466496cb03dep-3", "0x1.39a09d078c69fp-3",
        "0x1.2f112df3e5244p-3",
    )
]


def kernel_log(x: float) -> float:
    """``kernel_log`` in ``_kernel.c``, operation for operation in Python
    floats (IEEE doubles, each operation rounded once, as the kernel's
    under ``-ffp-contract=off``); the exponent and mantissa split is done
    on the bits."""
    if not x > 0.0:
        return -math.inf if x == 0.0 else math.nan
    if x == math.inf:
        return x
    k = 0
    if x < sys.float_info.min:
        x *= 2.0**54
        k = -54
    (bits,) = struct.unpack("<Q", struct.pack("<d", x))
    high = (bits >> 32) + (0x3FF00000 - 0x3FE6A09E)
    k += (high >> 20) - 0x3FF
    bits = ((high & 0x000FFFFF) + 0x3FE6A09E) << 32 | (bits & 0xFFFFFFFF)
    (x,) = struct.unpack("<d", struct.pack("<Q", bits))
    lg1, lg2, lg3, lg4, lg5, lg6, lg7 = _LG
    f = x - 1.0
    hfsq = 0.5 * f * f
    s = f / (2.0 + f)
    z = s * s
    w = z * z
    even = w * (lg2 + w * (lg4 + w * lg6))
    odd = z * (lg1 + w * (lg3 + w * (lg5 + w * lg7)))
    dk = float(k)
    return s * (hfsq + (odd + even)) + dk * _LN2_LO - hfsq + f + dk * _LN2_HI


_MIN_STEP = 1e-18
_TARGET = 1.0 + 0.05
_FEASIBLE_ABOVE = 1.0 + 2.0**-52


def dot(a, b) -> float:
    """``sum(a[i] * b[i])`` added left to right from 0.0: the kernel's
    order for every dot of the routing and the refresh."""
    acc = 0.0
    for x, y in zip(a, b):
        acc += x * y
    return acc


def _evaluate(intra: list, inter: list, w: list):
    """The objective at ``w`` and each pair's root, or ``(inf, None)`` as
    soon as a pair's product is not above ``_FEASIBLE_ABOVE``."""
    logs = 0.0
    roots = []
    for row in inter:
        q = dot(row, w)
        if not q > _FEASIBLE_ABOVE:
            return math.inf, None
        roots.append(math.sqrt(q))
        logs += kernel_log(roots[-1] - 1.0)
    return dot(intra, w) - 2.0 * logs, roots


def _gradient(intra: list, inter: list, roots: list) -> list:
    acc = [0.0] * len(intra)
    for row, root in zip(inter, roots):
        coef = 1.0 / (root * (root - 1.0))
        for c, x in enumerate(row):
            acc[c] += x * coef
    return [a - s for a, s in zip(intra, acc)]


def _geometry_lists(geom: ClusterGeometry) -> tuple[list, list]:
    return np.asarray(geom.intra, np.float64).tolist(), np.asarray(geom.inter_sq, np.float64).tolist()


def barrier_objective(weights, geom: ClusterGeometry) -> float:
    """Objective value at ``weights``; +inf when any pair separation <= 1."""
    intra, inter = _geometry_lists(geom)
    return _evaluate(intra, inter, np.asarray(weights, np.float64).tolist())[0]


def barrier_gradient(weights, geom: ClusterGeometry) -> np.ndarray:
    """Gradient at a feasible point; raises ValueError when infeasible."""
    intra, inter = _geometry_lists(geom)
    roots = _evaluate(intra, inter, np.asarray(weights, np.float64).tolist())[1]
    if roots is None:
        raise ValueError("gradient needs a strictly feasible point")
    return np.array(_gradient(intra, inter, roots))


def rescale_feasible(intra: list, inter: list, w: list) -> list:
    """The homogeneous rescale landing the tightest pair at a root of
    ``_TARGET``, restarting from uniform weights when no float scale helps
    ``w``; ValueError when none helps those either. A tightest product
    that is NaN (numpy's minimum keeps one), negative or already past the
    target leaves the weights as they are."""
    q_min = math.nan
    for start in (w, [1.0] * len(w)):
        q = [dot(row, start) for row in inter]
        q_min = q[0]
        for x in q[1:]:
            if q_min == q_min and not x >= q_min:
                q_min = x
        root_min = math.sqrt(q_min) if q_min >= 0.0 else math.nan
        if not root_min <= _TARGET:
            return start
        if root_min == 0.0:
            continue
        t = _TARGET / root_min
        scale = t * t
        if scale == math.inf:
            continue
        largest = -math.inf
        for x in [*start, max(q), dot(intra, start)]:
            largest = x if x > largest else largest
        if math.isfinite(largest * scale):
            return [x * scale for x in start]
    raise ValueError(
        "no float weights separate the tightest pair: uniform weights give it "
        f"a squared separation of {q_min!r}"
    )


def refine(weights, intra, inter_sq, max_steps: int, step: float):
    """``kernel.refine`` in Python floats, as the bitwise oracle of the
    weight refresh, but without its early stop: each step is halved until
    its candidate improves or the step falls below ``_MIN_STEP``. Returns
    ``(weights, stop, steps)``, the accepted steps' ``(objective, step
    size)``, or the kernel's ValueError; the arguments are read as float64
    lists. ``stop`` is "no_pairs", "max_steps", "min_step", or
    "rounds_to_w" when the last halving met a rejected candidate equal to
    ``w`` and every later, smaller candidate was equal to ``w`` and
    rejected too: the case the kernel ends at the first of them."""
    w = np.asarray(weights, np.float64).tolist()
    intra = np.asarray(intra, np.float64).tolist()
    inter = np.asarray(inter_sq, np.float64).tolist()
    if not inter:
        return w, "no_pairs", []
    w = rescale_feasible(intra, inter, w)
    value, roots = _evaluate(intra, inter, w)
    if roots is None and max_steps:
        raise ValueError("gradient needs a strictly feasible point")
    stop, steps = "max_steps", []
    while len(steps) < max_steps:
        grad = _gradient(intra, inter, roots)
        at_w = None  # since the first rejected candidate equal to w: were all?
        while step >= _MIN_STEP:
            cand = []
            for x, g in zip(w, grad):
                v = x - g * step
                cand.append(v if v > 0.0 or v != v else 0.0)  # numpy's maximum(v, 0.0)
            cand_value, cand_roots = _evaluate(intra, inter, cand)
            if cand_value < value:
                break
            equal = cand_value == value and all(a == b for a, b in zip(cand, w))
            if equal or at_w is not None:
                at_w = equal and at_w is not False
            step *= 0.5
        else:
            stop = "rounds_to_w" if at_w else "min_step"
            break
        w, value, roots = cand, cand_value, cand_roots
        steps.append((value, step))
    return w, stop, steps


def refine_weights(
    weights,
    geom: ClusterGeometry,
    cfg: BarrierConfig,
    trace: TraceHook | None = None,
    step_size: float = 0.1,
) -> np.ndarray:
    """``weight_opt.refine_weights`` by ``refine``: the start checked as
    ``ensure_weights`` checks it, then the refresh, each accepted step
    traced, then the final weights and the pair counts, also when no pair
    is kept. Each refresh's first step is ``step_size``, the library's
    constant."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != geom.intra.shape:
        raise ValueError(f"weights must have shape {geom.intra.shape}, got {w.shape}")
    if not (np.isfinite(w).all() and (w >= 0.0).all()):
        raise ValueError("weights must be nonnegative and finite")
    out, _, steps = refine(w, geom.intra, geom.inter_sq, cfg.max_steps, step_size)
    if trace is not None:
        for step_no, (objective, step) in enumerate(steps):
            trace({"step": step_no, "objective": objective, "step_size": step})
        trace({"final_weights": out, "pairs": len(geom.inter_sq), "dropped_pairs": geom.dropped})
    return np.array(out, dtype=np.float64)


def view_fields(keys, values, bounds) -> dict:
    """The fields of the view of these keys, masses and bounds, as the
    Python constructor built them but for ``sq_sum``: each component's
    ``square_sum`` (``part.dot(part)`` added in BLAS's order), and the
    ``digests``, each key's ``key_digests``.
    ValueError, with ``graph_views``' message, for a mass that is
    negative, NaN or infinite, then for the first component whose squares
    sum past float range."""
    n = len(keys)
    values = np.array(values, dtype=np.float64)
    bounds = tuple(bounds)
    if values.shape != (n,) or len(bounds) < 2 or bounds[0] != 0 or bounds[-1] != n:
        raise ValueError("need one value per key and bounds from 0 to the key count")
    if not ((values >= 0.0) & np.isfinite(values)).all():
        raise ValueError("view masses must be finite and nonnegative")
    with np.errstate(over="ignore"):
        sq_sum = np.array([square_sum(values[a:b]) for a, b in zip(bounds, bounds[1:])])
    for c in np.flatnonzero(~np.isfinite(sq_sum))[:1]:
        raise ValueError(f"component {c}'s masses must have a finite sum of squares")
    return {
        "keys": keys, "values": values, "bounds": bounds, "sq_sum": sq_sum,
        "digests": key_digests(keys),
    }


def graph_view(g: GraphObject, schema: StreamSchema) -> dict:
    """``graph_views(g, schema)``'s fields, as the Python walk built them:
    each edge's key the UTF-8 of ``src + 0x1f + dst``, then each side
    type's ids in schema order."""
    keys = [(s + "\x1f" + t).encode() for s, t, _ in g.edges]
    values = [f for _, _, f in g.edges]
    bounds = [0, len(keys)]
    for side_type in schema.side_types:
        attrs = g.side.get(side_type.name) or {}
        keys += map(str.encode, attrs)
        values += attrs.values()
        bounds.append(len(keys))
    return view_fields(tuple(keys), values, bounds)


def key_digests(keys: Sequence[bytes]) -> np.ndarray:
    """Each key's ``hashlib.blake2b(key, digest_size=8)`` read as a
    little-endian integer, native uint64 ``(N,)``."""
    digests = b"".join(hashlib.blake2b(k, digest_size=8).digest() for k in keys)
    return np.frombuffer(digests, dtype="<u8").astype(np.uint64)


def multiply_shift(mult, add, digests, cols: int) -> np.ndarray:
    """Each digest's cell in every row, ``(rows, N)`` intp: ``((mult[r] *
    x + add[r]) mod 2^64 >> 32) mod cols`` in numpy's uint64 arithmetic."""
    mult, add = (np.asarray(a, dtype=np.uint64)[:, None] for a in (mult, add))
    mixed = mult * np.asarray(digests, dtype=np.uint64) + add  # arrays wrap mod 2^64
    return ((mixed >> np.uint64(32)) % np.uint64(cols)).astype(np.intp)


def digest_buckets(config: SketchConfig, digests) -> np.ndarray:
    """Each digest's cell in every row of ``config``'s grid, ``(rows,
    N)``: ``multiply_shift``, each row's ``(a, b)`` drawn from the seed as
    ``SketchConfig`` draws it."""
    rnd = random.Random(config.seed)
    a = [rnd.getrandbits(64) | 1 for _ in range(config.rows)]
    b = [rnd.getrandbits(64) for _ in range(config.rows)]
    return multiply_shift(a, b, digests, config.cols)


def distance_sq(a_sq, cross, denom, b_sq) -> np.ndarray:
    """``max(a_sq - 2 cross / denom + b_sq, 0)``, in that operation order.
    ValueError when a value is not finite before the clamp: an overflow in
    any term reaches it as an infinity or NaN, which the clamp would read as
    a distance of 0 or pass on."""
    out = a_sq - 2.0 * cross / denom + b_sq
    if not np.isfinite(out).all():
        raise ValueError("a squared distance is not finite")
    return np.maximum(out, 0.0, out=out)


def distances(bank, view: GraphView) -> np.ndarray:
    """The squared component distances ``bank.distances_sq`` returns
    first, ``(size, d+1)``, read under uniform weights."""
    return bank.distances_sq(view, np.ones(bank.d + 1))[0]


def bank_distances_sq(bank, view: GraphView, weights) -> tuple:
    """``bank.distances_sq(view, weights)`` with the closed form in numpy,
    from the bank's own ``_cross``, then the route in Python floats: the
    slot ``np.argmin`` picks by the weighted distances, that distance and
    the slot's ``spreads`` row weighted, each weighted sum by ``dot``."""
    m = bank.size
    n = bank.n[:m, None].astype(np.float64)
    cross = bank._cross(view)
    comp_sq = distance_sq(view.sq_sum, cross, n, bank.self_sq[:, :m].T / (n * n))
    spread = spreads(bank.second_moments[:m], bank.self_sq[:, :m], bank.n[:m])
    return comp_sq, *route(comp_sq, spread, weights)


def route(comp_sq, spread, weights) -> tuple:
    """The route ``kernel.graph_distances_sq`` returns for the live slots'
    squared distances ``comp_sq`` and spreads ``spread``, both ``(m,
    d+1)``: the slot ``np.argmin`` picks by the weighted distances (the
    first least), that distance and the slot's weighted spread, each
    weighted sum by ``dot``; ``(-1, inf, 0.0)`` when ``m`` is 0."""
    weighted = [dot(row, weights) for row in comp_sq.tolist()]
    if not weighted:
        return -1, math.inf, 0.0
    nearest = int(np.argmin(weighted))
    return nearest, weighted[nearest], dot(spread[nearest].tolist(), weights)


def spreads(moments, self_sq, n) -> np.ndarray:
    """Each slot's spread per component, ``(m, d+1)``, from its second
    ``moments`` ``(m, d+1)``, self products ``self_sq`` ``(d+1, m)`` and
    counts ``n`` ``(m,)``: the sum of its members' squared distances to
    the centroid, ``max(moment - self_sq / n, 0)`` in numpy's operation
    order (``self_sq / n``, then the difference), a NaN kept."""
    return np.maximum(moments - (self_sq / n).T, 0.0)


def routed_spread(bank, view: GraphView, comp: int) -> float:
    """The spread in ``comp`` of the slot nearest to ``view``, the term the
    routing reads: ``bank.distances_sq``'s weighted spread under the unit
    weight vector of ``comp``."""
    return bank.distances_sq(view, np.eye(bank.d + 1)[comp])[3]


def spread_sum(rows) -> np.ndarray:
    """The spread ``rows`` ``(m, d+1)`` summed per component in slot order,
    each sum a Python-float loop from 0.0."""
    total = [0.0] * rows.shape[1]
    for row in rows.tolist():
        for c, value in enumerate(row):
            total[c] += value
    return np.array(total, dtype=np.float64)


def pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The slot pairs ``(i, j)``, ``i < j``, of ``m`` live slots, row-major:
    (0, 1), (0, 2), ..., as ``Bank.geometry`` listed them."""
    slots = np.arange(m)
    return np.nonzero(slots[:, None] < slots)


def pair_distances_sq(self_sq, n, cross) -> np.ndarray:
    """``kernel.geometry``'s kept pair rows, as ``Bank.geometry``
    formed them in numpy: the pairs listed by ``pairs``, their cross
    products gathered from the ``(d+1, m-1, m-1)`` block as ``[:, first,
    second - 1].T``, the closed form, then the pairs whose separation is
    nonzero in some component."""
    first, second = pairs(cross.shape[1] + 1)
    n = n.astype(np.float64)
    own = self_sq.T / (n * n)[:, None]
    gathered = cross[:, first, second - 1].T
    inter = distance_sq(own[first], gathered, (n[first] * n[second])[:, None], own[second])
    return inter[(inter != 0.0).any(axis=1)]


def grid_cross(cells, m: int, bounds, buckets, values) -> np.ndarray:
    """``kernel.graph_cross`` in numpy, given each key's cells ``buckets``
    ``(rows, N)``: every key's cells in the live slots ``0..m-1`` by a
    fancy-index gather, ``(rows, N, m)``, and the minimum over rows, as
    before the compiled kernel; then per component the keys' terms,
    estimate times mass, summed in view order by ``np.add.accumulate``
    (``np.add.reduce`` adds in another order), and ``+ 0.0``, which turns
    a -0.0 sum into the +0.0 that adding onto 0.0 gives. An empty
    component's sum is 0.0."""
    rows = np.arange(len(buckets), dtype=np.intp)[:, None]
    comp = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    terms = cells[comp, :m, rows, buckets].min(0).T * values
    cross = np.zeros((m, len(bounds) - 1))
    for c, (a, b) in enumerate(zip(bounds, bounds[1:])):
        if a < b:
            cross[:, c] = np.add.accumulate(terms[:, a:b], axis=1)[:, -1] + 0.0
    return cross


def grid_add(cells, slot: int, bounds, buckets, values, fresh: bool) -> None:
    """``kernel.scatter_add`` in numpy, given each key's cells ``buckets``
    ``(rows, N)``: the slot's grids zeroed if ``fresh``, then by
    ``np.add.at`` each key's mass added to its cell in every row of its
    component's grid in ``slot``, row by row and keys in view order."""
    if fresh:
        cells[:, slot] = 0.0
    rows = np.arange(len(buckets), dtype=np.intp)[:, None]
    comp = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    np.add.at(cells[:, slot], (comp, rows, buckets), values)


def gathered_cross(bank, view: GraphView) -> np.ndarray:
    """``ClusterBank._cross`` in numpy: ``grid_cross`` at the view's
    ``digest_buckets``."""
    buckets = digest_buckets(bank.config, view.digests)
    return grid_cross(bank.cells, bank.size, view.bounds, buckets, view.values)


def add_at(bank, slot: int, view: GraphView, fresh: bool) -> None:
    """``ClusterBank._add`` as numpy built it, as before: ``grid_add`` at
    the view's ``digest_buckets``, then the slot's row squares."""
    buckets = digest_buckets(bank.config, view.digests)
    grid_add(bank.cells, slot, view.bounds, buckets, view.values, fresh)
    bank._square_rows(slot)


def pair_cross(bank) -> np.ndarray:
    """The cross products of every pair of a ``ClusterBank``'s live slots,
    as the square product of their rows, ``(m, m, d+1)`` with every pair
    filled; ``bank._pair_cross()[c, i, j - 1]`` is its ``[i, j, c]`` for
    ``i < j``."""
    # (d+1, rows, m, cols) @ (d+1, rows, cols, m), min over rows,
    # as (m, m, d+1).
    by_row = bank.cells[:, : bank.size].transpose(0, 2, 1, 3)
    return np.matmul(by_row, by_row.transpose(0, 1, 3, 2)).min(1).transpose(1, 2, 0)


def bank_geometry(bank) -> ClusterGeometry:
    """``bank.geometry()`` built as before, from the bank's arrays and its
    ``_pair_cross`` hook; ``intra`` by ``spread_sum`` over ``spreads``."""
    m = bank.size
    if m < 2:
        raise ValueError("geometry needs at least two nonempty clusters")
    intra = spread_sum(spreads(bank.second_moments[:m], bank.self_sq[:, :m], bank.n[:m]))
    first, second = pairs(m)
    n = bank.n[:m].astype(np.float64)
    own = bank.self_sq[:, :m].T / (n * n)[:, None]
    cross = bank._pair_cross()[:, first, second - 1].T
    inter = own[first] - 2.0 * cross / (n[first] * n[second])[:, None] + own[second]
    inter = np.maximum(inter, 0.0)
    kept = (inter != 0.0).any(axis=1)
    return ClusterGeometry(intra=intra, inter_sq=inter[kept], dropped=int((~kept).sum()))


def _check_squares(values: list[float], what: str) -> None:
    """Reject masses, in canonical order, whose squares sum (as in
    ``GraphView.sq_sum``) to inf."""
    part = np.array(values, dtype=np.float64)
    with np.errstate(over="ignore"):
        if not math.isfinite(part.dot(part)):
            raise ValueError(f"{what} must have a finite sum of squares")


def preprocess_record(g: GraphObject, schema: StreamSchema) -> GraphObject:
    """``preprocess`` as it was, checking each label and mass on its own."""
    if not isinstance(g.id, str) or not g.id:
        raise ValueError("graph id must be a nonempty string")
    if g.label is not None and not isinstance(g.label, str):
        raise ValueError(f"graph label must be a string, not {g.label!r}")

    if not isinstance(g.edges, (list, tuple)):
        raise ValueError("edges must be a list or tuple")
    if not isinstance(g.side, dict):
        raise ValueError("side must be an object keyed by type name")
    merged: dict[tuple[str, str], float] = {}
    for edge in g.edges:
        match edge:  # sequence patterns: no str, dict or number matches them
            case (src, dst, freq):
                freq = 1.0 if freq is None else _check_value(freq, "edge frequency")
            case (src, dst):
                freq = 1.0
            case _:
                raise ValueError(f"edges must be (src, dst) or (src, dst, freq), not {edge!r}")
        _check_label(src)
        _check_label(dst)
        if not schema.directed and dst < src:
            src, dst = dst, src
        if freq == 0.0:
            continue
        merged[(src, dst)] = merged.get((src, dst), 0.0) + freq
    edges = [(s, t, f) for (s, t), f in sorted(merged.items())]
    if sum(merged.values()) > _SQUARES_SAFE:
        _check_squares([f for _, _, f in edges], "edge frequencies")

    known = {t.name for t in schema.side_types}
    categorical = {t.name for t in schema.side_types if t.kind == KIND_CATEGORICAL}
    side: dict[str, dict[str, float]] = {}
    for name, attrs in g.side.items():
        if name not in known:
            raise ValueError(f"side type {name!r} not declared in schema")
        if not isinstance(attrs, dict):
            attrs = _normalize_side(name, attrs)
        cleaned = {}
        # each id checked before any two are compared
        for attr_id in sorted(attrs, key=_check_label):
            if name in categorical:
                if _check_value(attrs[attr_id], "categorical presence") > 0.0:
                    cleaned[f"{name}={attr_id}"] = 1.0
                continue
            value = _check_value(attrs[attr_id], f"attribute {attr_id!r} value")
            if value > 0.0:
                cleaned[attr_id] = value
        if cleaned:
            if sum(cleaned.values()) > _SQUARES_SAFE:
                _check_squares(list(cleaned.values()), f"side type {name!r} values")
            side[name] = cleaned

    return GraphObject(id=g.id, edges=edges, side=side, label=g.label)


def _normalize_side(name: str, entry: object) -> dict[str, float]:
    """The list and string forms of a side entry, as the reader read them."""
    if isinstance(entry, list):
        attrs = {}
        for item in entry:
            if not isinstance(item, str):
                raise ValueError(f"list items of {name!r} must be strings")
            attrs[item] = attrs.get(item, 0.0) + 1.0
        return attrs
    if isinstance(entry, str):
        return {entry: 1.0}
    raise ValueError(f"side entry {name!r} must be an object, list or string")


def parse_record(line: str, line_no: int) -> GraphObject:
    """``stream_io._parse_record`` as it was, re-tupling every edge."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise StreamFormatError(f"invalid JSON: {exc.msg}", line_no) from None
    if not isinstance(obj, dict):
        raise StreamFormatError("record must be a JSON object", line_no)
    graph_id = obj.get("id")
    if not isinstance(graph_id, str) or not graph_id:
        raise StreamFormatError("record needs a nonempty string id", line_no)
    ts = obj.get("ts", 0)
    if not isinstance(ts, int) or isinstance(ts, bool) or ts < 0:
        raise StreamFormatError("ts must be a nonnegative integer", line_no)

    raw_edges = obj.get("edges", [])
    if not isinstance(raw_edges, list):
        raise StreamFormatError("edges must be a list", line_no)
    edges: list[tuple] = []
    for e in raw_edges:
        if not isinstance(e, list) or len(e) not in (2, 3):
            raise StreamFormatError(
                "each edge must be [src, dst] or [src, dst, freq]", line_no
            )
        src, dst = e[0], e[1]
        if not isinstance(src, str) or not isinstance(dst, str):
            raise StreamFormatError("edge endpoints must be strings", line_no)
        if len(e) == 3:
            if not isinstance(e[2], (int, float)) or isinstance(e[2], bool):
                raise StreamFormatError("edge frequency must be numeric", line_no)
            edges.append((src, dst, e[2]))
        else:
            edges.append((src, dst, 1.0))

    label = obj.get("label")
    if label is not None and not isinstance(label, str):
        raise StreamFormatError("label must be a string when present", line_no)

    side = obj.get("side")
    for name, entry in side.items() if isinstance(side, dict) else ():
        for attr_id, value in entry.items() if isinstance(entry, dict) else ():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise StreamFormatError(
                    f"attribute {attr_id!r} of {name!r} must be numeric", line_no
                )

    return GraphObject(
        id=graph_id,
        edges=edges,
        side={} if side is None else side,
        label=label,
    )
