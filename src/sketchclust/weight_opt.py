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

The refresh runs in one call of the compiled kernel, ``kernel.refine``
(``native``). It first restores feasibility by homogeneously rescaling
the weights, which changes no cluster decisions (assignment comparisons
are scale-invariant): the tightest pair lands at a root of 1.05, or,
when no float scale can do that, uniform weights are rescaled instead,
and a pair that no float weights separate raises ValueError.
Infeasibility is a value, not a fault: the objective is +inf outside the
region. Then each step is halved, from the last accepted size
(``_STEP_SIZE`` at first), until its candidate ``max(w - s*grad, 0)``
improves the objective. The descent stops after ``max_steps`` steps,
when the step falls below 1e-18, or at the first rejected candidate that
equals ``w``. That stop is exact: rounding and the projection are
monotone in the step, so each smaller step's candidate lies between
``w`` (nonnegative, as it equals a candidate) and this one: it equals
``w`` as well and is rejected. Pairs of coincident centroids (inter_sq
== 0 in every component) cannot be separated by any weighting and are
excluded from the barrier, only counted. Plain gradient descent with
backtracking halving is intentional; no curvature information is used.

Every sum the refresh takes (the dots, each gradient component's sum over
the pairs, the barrier's sum of logs) is added left to right from 0.0,
``sqrt`` rounds correctly and ``log`` is the kernel's own fixed
polynomial, so the new weights are the same bits on every host, whatever
its BLAS, vector units or libm. ``tests/reference.py`` repeats the
refresh in Python floats, bit for bit, halving each last step to the end
where the kernel stops early.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .native import kernel

_STEP_SIZE = 0.1  # each refresh's first step, halved until a candidate improves

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
    are stored as C-contiguous float64, the layout the kernel reads,
    whatever layout they are given in.
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
    steps = None if trace is None else np.empty((cfg.max_steps, 2))
    taken = kernel.refine(w, geom.intra, geom.inter_sq, cfg.max_steps, _STEP_SIZE, steps)
    if trace is not None:
        for step_no, (objective, step) in enumerate(steps[:taken].tolist()):
            trace({"step": step_no, "objective": objective, "step_size": step})
        pairs = len(geom.inter_sq)
        trace({"final_weights": w.tolist(), "pairs": pairs, "dropped_pairs": geom.dropped})
    return w
