"""Online tuning of the per-component distance weights.

Periodically the engine freezes the current clustering into a small
geometry summary of arrays, ``ClusterGeometry`` (aggregate intra-cluster
distance per component, one row of squared inter-centroid distances per
retained cluster pair, and the count of dropped pairs, built by
``stats.Bank.geometry``), and runs a few steps of projected gradient
descent on a log-barrier objective:

    f(w) = <w, intra>  -  sum_{i != j} log(sqrt(Q_ij(w)) - 1)

with Q_ij(w) = <w, inter_sq_ij> and the i != j sum counting ordered pairs,
i.e. twice each unordered pair. Minimizing the linear term tightens
clusters; the barrier keeps every pair of weighted centroids separated by
more than 1. The barrier's weight is fixed at 1: a weight t would only
scale the linear term, so f at t over a geometry is f at 1 over that
geometry with t times its intra. f is convex on the feasible region
{w >= 0 : all Q_ij > 1} (each barrier term is a negated log of a concave
positive function of w).

Each candidate is evaluated once, for its objective and its pair roots
sqrt(Q_ij(w)); the gradient at an accepted candidate comes from those roots.
A step is halved until its candidate ``max(w - s*grad, 0)`` improves the
objective, and the descent stops at the first rejected candidate that
equals ``w``. That stop is exact: rounding and the projection are monotone
in the step, so each smaller step's candidate lies between ``w``
(nonnegative, as it equals a candidate) and this one: it equals ``w`` as
well and is rejected.
Infeasibility is a value, not a fault: the objective is +inf outside the
region, and ``refine_weights`` first restores feasibility by
homogeneously rescaling the weights, which changes no cluster decisions
(assignment comparisons are scale-invariant); a pair that no float
weights separate raises ValueError. Pairs of coincident centroids
(inter_sq == 0 in every component) cannot be separated by any weighting
and are excluded from the barrier, only counted. Plain gradient descent
with backtracking halving is intentional; no curvature information is
used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

_STEP_SIZE = 0.1  # each refresh's first step, halved until a candidate improves
_MIN_STEP = 1e-18
_MARGIN = 0.05  # the rescale lands an infeasible start's tightest pair at 1 + _MARGIN
_FLOOR = 0.0  # each candidate is projected onto the weights at or above _FLOOR

# sqrt(Q) - 1 > 0 exactly when Q exceeds this: the square root rounds
# correctly and is monotone, and sqrt(1 + 2**-52) rounds to 1. So an
# infeasible candidate is known before any root is taken.
_FEASIBLE_ABOVE = 1.0 + 2.0**-52

TraceHook = Callable[[dict], None]


@dataclass(frozen=True)
class BarrierConfig:
    max_steps: int = 25

    def __post_init__(self) -> None:
        if self.max_steps < 0:
            raise ValueError("max_steps must be >= 0")


@dataclass
class ClusterGeometry:
    """Frozen snapshot of the quantities the objective needs.

    ``intra[comp]`` sums the per-cluster aggregate intra distances;
    ``inter_sq[p]`` is the squared centroid separation vector of the
    ``p``-th retained cluster pair, one row per pair. ``dropped`` counts
    the coincident-centroid pairs excluded from the barrier. Both arrays
    are stored as C-contiguous float64, whatever layout they are given in:
    every product below was checked against that layout (a Fortran-ordered
    or strided matrix takes another BLAS kernel, which rounds differently).
    """

    intra: np.ndarray
    inter_sq: np.ndarray
    dropped: int

    def __post_init__(self) -> None:
        self.intra = np.ascontiguousarray(self.intra, dtype=np.float64)
        self.inter_sq = np.ascontiguousarray(self.inter_sq, dtype=np.float64)


def finite_nonneg(a) -> bool:
    """Whether every value is finite and nonnegative (``-0.0`` is): two
    reductions and no temporary, as NaN fails both comparisons."""
    a = np.asarray(a, dtype=np.float64)
    return a.size == 0 or bool(a.min() >= 0.0 and a.max() < math.inf)


def ensure_weights(weights, d: int) -> np.ndarray:
    """Validate a (d+1)-component nonnegative weight vector."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (d + 1,):
        raise ValueError(f"weights must have shape ({d + 1},), got {w.shape}")
    if not finite_nonneg(w):
        raise ValueError("weights must be nonnegative and finite")
    return w


def _evaluate(w: np.ndarray, geom: ClusterGeometry):
    """The objective at ``w`` and the pair roots and separations
    ``(sqrt(Q_ij(w)), sqrt(Q_ij(w)) - 1)``, or ``(inf, None)`` when some
    pair separation is <= 1. The geometry holds at least one pair."""
    # ndarray.dot and the ufuncs' reduce are the BLAS and loops that ``@``,
    # .min() and .sum() reach, with less dispatch: the same bits.
    q = geom.inter_sq.dot(w)
    if not np.minimum.reduce(q) > _FEASIBLE_ABOVE:  # NaN fails too
        return math.inf, None
    root = np.sqrt(q, out=q)
    sep = root - 1.0
    linear = float(geom.intra.dot(w))
    return linear - 2.0 * float(np.add.reduce(np.log(sep))), (root, sep)


def _gradient(geom: ClusterGeometry, roots) -> np.ndarray:
    """The gradient at the feasible point whose pair roots and separations
    ``_evaluate`` returned as ``roots``."""
    root, sep = roots
    return geom.intra - geom.inter_sq.T.dot(1.0 / (root * sep))


def _rescale_feasible(w: np.ndarray, geom: ClusterGeometry):
    """Homogeneous rescale landing the tightest pair at 1 + ``_MARGIN``.
    When the weights vanish, or all but vanish, on every component where
    the tightest pair separates, no float scale can help (or the scaled
    weights, or the products the objective takes of them, overflow), and
    the rescale restarts from uniform weights; ValueError when even those
    cannot be rescaled. A NaN tightest separation returns ``w`` as it is."""
    target = 1.0 + _MARGIN
    for start in (w, np.ones_like(w)):
        q = geom.inter_sq.dot(start)
        q_min = float(np.minimum.reduce(q))
        root_min = math.sqrt(q_min)
        if not root_min <= target:  # already separated, or NaN
            return start
        try:
            scale = (target / root_min) ** 2
        except (ZeroDivisionError, OverflowError):
            continue
        # weights and products are nonnegative: the largest of each overflows first
        largest = max(np.maximum.reduce(start), np.maximum.reduce(q), geom.intra.dot(start))
        if math.isfinite(float(largest) * scale):
            return start * scale
    raise ValueError(
        "no float weights separate the tightest pair: uniform weights give it "
        f"a squared separation of {q_min!r}"
    )


def refine_weights(
    weights,
    geom: ClusterGeometry,
    cfg: BarrierConfig,
    trace: TraceHook | None = None,
) -> np.ndarray:
    """Descend the barrier objective from ``weights`` over a fixed geometry.

    Returns a feasible weight vector with objective no worse than the
    (repaired) starting point; when every cluster pair has coincident
    centroids, the weights are returned unchanged. The start is checked as
    ``ensure_weights`` checks it; the input array is not modified.
    ``trace`` receives one record per accepted step, then one with the
    final weights and the pair counts, also when no pair is kept.
    """
    w = ensure_weights(weights, len(geom.intra) - 1).copy()
    if len(geom.inter_sq):
        w = _descend(_rescale_feasible(w, geom), geom, cfg, trace)
    if trace is not None:
        pairs = len(geom.inter_sq)
        trace({"final_weights": w.tolist(), "pairs": pairs, "dropped_pairs": geom.dropped})
    return w


def _descend(w: np.ndarray, geom: ClusterGeometry, cfg: BarrierConfig, trace) -> np.ndarray:
    """Backtracking descent from the feasible ``w``, tracing each accepted step."""
    value, roots = _evaluate(w, geom)
    step = _STEP_SIZE
    for step_no in range(cfg.max_steps):
        if roots is None:  # a NaN in the start or the geometry: the rescale passes it
            raise ValueError("gradient needs a strictly feasible point")
        grad = _gradient(geom, roots)
        while step >= _MIN_STEP:
            # max(w - step * grad, _FLOOR), built in one array
            candidate = np.multiply(grad, step)
            np.subtract(w, candidate, out=candidate)
            np.maximum(candidate, _FLOOR, out=candidate)
            cand_value, cand_roots = _evaluate(candidate, geom)
            if cand_value < value:
                break
            if cand_value == value and np.array_equal(candidate, w):
                return w  # every smaller step rounds to w too
            step *= 0.5
        else:
            return w  # no step of at least _MIN_STEP improves on w
        w, value, roots = candidate, cand_value, cand_roots
        if trace is not None:
            trace({"step": step_no, "objective": value, "step_size": step})
    return w
