"""Per-cluster reference code: the independent oracle for the cluster bank.

The library keeps every sketched cluster in ``stats.ClusterBank``. The
code here computes the same statistics one cluster at a time, the
straightforward way:

* ``CountMinSketch``: one ``(rows, cols)`` grid with point, self-product
  and inner-product estimates and merge;
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
* ``barrier_objective``, ``barrier_gradient`` and ``refine_weights``: the
  weight optimizer as it was before it evaluated each candidate once, kept
  verbatim as the bitwise oracle for ``weight_opt.refine_weights``.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from sketchclust import BarrierConfig, ClusterGeometry, GraphView, SketchConfig
from sketchclust.weight_opt import TraceHook


def separating_rows(config: SketchConfig, keys: Iterable[bytes]) -> list[int]:
    """Rows in which all given keys land in pairwise distinct cells.

    If at least one separating row exists for the full key universe, every
    estimator on that universe is exact.
    """
    keys = tuple(dict.fromkeys(keys))
    if len(keys) <= 1:
        return list(range(config.rows))
    idx = config.buckets(keys)
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

    def update(self, key: bytes, value: float) -> None:
        self.update_many((key,), np.array([value], dtype=np.float64))

    def update_many(self, keys: Sequence[bytes], values: np.ndarray) -> None:
        """Add values[i] to keys[i]'s cell in every row. Values must be >= 0."""
        idx = self.config.buckets(keys)
        if idx.shape[1] != len(values):
            raise ValueError("keys and values length mismatch")
        if len(values) == 0:
            return
        values = np.asarray(values, dtype=np.float64)
        if not bool(np.all(values >= 0.0)):
            raise ValueError("negative or NaN update value")
        np.add.at(self.cells, (np.arange(self.config.rows)[:, None], idx), values[None, :])
        self._row_sq = None

    def estimate(self, key: bytes) -> float:
        return float(self.estimate_many((key,))[0])

    def estimate_many(self, keys: Sequence[bytes]) -> np.ndarray:
        """Row-minimum point estimates for each key, never below the truth."""
        return self.cells[np.arange(self.config.rows)[:, None], self.config.buckets(keys)].min(axis=0)

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
            keys, values = view.component(comp)
            if keys:
                sketch.update_many(keys, values)
                self.second_moments[comp] += values @ values

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
        return self.sketches[comp].estimate_many(view.component(comp)[0])

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


def members_intra_sq(members: Sequence[GraphView], comp: int) -> float:
    """Sum over members of the squared distance to the centroid of one
    component, from the members' own views."""
    if not members:
        raise ValueError("empty cluster")
    n = len(members)
    totals: dict[bytes, float] = {}
    for view in members:
        for key, value in zip(*view.component(comp)):
            totals[key] = totals.get(key, 0.0) + float(value)
    centroid = {k: v / n for k, v in totals.items()}
    centroid_sq = sum(c * c for c in centroid.values())
    total = 0.0
    for view in members:
        part = centroid_sq
        for key, value in zip(*view.component(comp)):
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
    keys, values = view.component(comp)
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
    component are listed as dropped."""
    live = [c for c in clusters if c.n >= 1]
    if len(live) < 2:
        raise ValueError("geometry needs at least two nonempty clusters")
    intra = np.zeros(live[0].d + 1, dtype=np.float64)
    for c in live:
        intra += intra_vector_sq(c)
    pairs: list[tuple[int, int]] = []
    rows: list[np.ndarray] = []
    dropped: list[tuple[int, int]] = []
    for i in range(len(live)):
        for j in range(i + 1, len(live)):
            vec = inter_vector_sq(live[i], live[j])
            if np.all(vec == 0.0):
                dropped.append((i, j))
            else:
                pairs.append((i, j))
                rows.append(vec)
    inter_sq = (
        np.vstack(rows) if rows else np.zeros((0, len(intra)), dtype=np.float64)
    )
    return ClusterGeometry(intra=intra, pairs=pairs, inter_sq=inter_sq, dropped=dropped)


def filled(bank, *clusters):
    """``bank`` with one slot per cluster, each given as its members'
    views, absorbed in order at times 1, 2, ..."""
    for members in clusters:
        slot = None
        for now, view in enumerate(members, start=1):
            if slot is None:
                slot = bank.add(view, now)
            else:
                bank.absorb(slot, view, now)
    return bank


_MIN_STEP = 1e-18


def barrier_objective(weights, geom: ClusterGeometry, cfg: BarrierConfig) -> float:
    """Objective value at ``weights``; +inf when any pair separation <= 1."""
    w = np.asarray(weights, dtype=np.float64)
    linear = cfg.t * float(geom.intra @ w)
    if len(geom.pairs) == 0:
        return linear
    sep = np.sqrt(geom.inter_sq @ w) - 1.0
    if not bool(np.all(sep > 0.0)):
        return math.inf
    return linear - 2.0 * float(np.log(sep).sum())


def barrier_gradient(weights, geom: ClusterGeometry, cfg: BarrierConfig) -> np.ndarray:
    """Gradient at a feasible point; raises ValueError when infeasible."""
    w = np.asarray(weights, dtype=np.float64)
    grad = cfg.t * geom.intra.copy()
    if len(geom.pairs) == 0:
        return grad
    root = np.sqrt(geom.inter_sq @ w)
    if not bool(np.all(root > 1.0)):
        raise ValueError("gradient needs a strictly feasible point")
    coef = 1.0 / (root * (root - 1.0))
    return grad - geom.inter_sq.T @ coef


def _rescale_feasible(w: np.ndarray, geom: ClusterGeometry, cfg: BarrierConfig):
    """Homogeneous rescale landing the tightest pair at 1 + margin."""
    target = 1.0 + cfg.feasibility_margin
    root_min = math.sqrt(float(np.min(geom.inter_sq @ w)))
    if root_min == 0.0:
        # Weights vanish on every component where the tightest pair
        # separates; no scale can help. Restart from uniform weights,
        # which see positive separation on every retained pair.
        w = np.ones_like(w)
        root_min = math.sqrt(float(np.min(geom.inter_sq @ w)))
    if root_min <= target:
        w = w * (target / root_min) ** 2
    return w


def refine_weights(
    weights,
    geom: ClusterGeometry,
    cfg: BarrierConfig,
    trace: TraceHook | None = None,
) -> np.ndarray:
    """Descend the barrier objective from ``weights`` over a fixed geometry.

    Returns a feasible weight vector with objective no worse than the
    (repaired) starting point; when every cluster pair has coincident
    centroids, the weights are returned unchanged. The input array is not
    modified. ``trace`` receives one record per accepted step, then one
    with the final weights and the pair counts.
    """
    w = np.asarray(weights, dtype=np.float64).copy()
    if len(geom.pairs) == 0:
        return w
    w = _rescale_feasible(w, geom, cfg)
    value = barrier_objective(w, geom, cfg)
    step = cfg.step_size
    for step_no in range(cfg.max_steps):
        grad = barrier_gradient(w, geom, cfg)
        accepted = False
        while step >= _MIN_STEP:
            candidate = np.maximum(w - step * grad, cfg.weight_floor)
            cand_value = barrier_objective(candidate, geom, cfg)
            if cand_value < value:
                w, value = candidate, cand_value
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        if trace is not None:
            trace({"step": step_no, "objective": value, "step_size": step})
    if trace is not None:
        trace(
            {
                "final_weights": w.tolist(),
                "pairs": len(geom.pairs),
                "dropped_pairs": len(geom.dropped),
            }
        )
    return w
