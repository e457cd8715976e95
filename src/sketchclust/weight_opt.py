"""Online tuning of the per-component distance weights.

Periodically the engine freezes the current clustering into a small
geometry summary, ``ClusterGeometry`` (aggregate intra-cluster distance
per component, plus the squared inter-centroid distance vector for every
cluster pair, built by ``stats.Bank.geometry``), and runs a few steps of
projected gradient descent on a log-barrier objective:

    f(w) = t * <w, intra>  -  sum_{i != j} log(sqrt(Q_ij(w)) - 1)

with Q_ij(w) = <w, inter_sq_ij> and the i != j sum counting ordered pairs,
i.e. twice each unordered pair. Minimizing the linear term tightens
clusters; the barrier keeps every pair of weighted centroids separated by
more than 1. f is convex on the feasible region {w >= 0 : all Q_ij > 1}
(each barrier term is a negated log of a concave positive function of w).

Each candidate is evaluated once, for its objective and its pair roots
sqrt(Q_ij(w)); the gradient at an accepted candidate comes from those roots.
Infeasibility is a value, not a fault: the objective is +inf outside the
region, and ``refine_weights`` first restores feasibility by
homogeneously rescaling the weights, which changes no cluster decisions
(assignment comparisons are scale-invariant). Pairs of coincident centroids
(inter_sq == 0 in every component) cannot be separated by any weighting
and are excluded from the barrier. Plain gradient descent with backtracking
halving is intentional; no curvature information is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

_MIN_STEP = 1e-18

TraceHook = Callable[[dict], None]


@dataclass(frozen=True)
class BarrierConfig:
    t: float = 1.0
    step_size: float = 0.1
    max_steps: int = 25
    feasibility_margin: float = 0.05
    weight_floor: float = 0.0

    def __post_init__(self) -> None:
        if not self.t > 0:
            raise ValueError("t must be positive")
        if not self.step_size > 0:
            raise ValueError("step_size must be positive")
        if self.max_steps < 0:
            raise ValueError("max_steps must be >= 0")
        if not 0 < self.feasibility_margin < 1:
            raise ValueError("feasibility_margin must lie in (0, 1)")
        if not self.weight_floor >= 0:
            raise ValueError("weight_floor must be >= 0")


@dataclass
class ClusterGeometry:
    """Frozen snapshot of the quantities the objective needs.

    ``intra[comp]`` sums the per-cluster aggregate intra distances;
    ``inter_sq[p]`` is the squared centroid separation vector of unordered
    pair ``pairs[p]``. ``dropped`` lists coincident-centroid pairs excluded
    from the barrier.
    """

    intra: np.ndarray
    pairs: list[tuple[int, int]]
    inter_sq: np.ndarray
    dropped: list[tuple[int, int]]

    @property
    def d(self) -> int:
        return len(self.intra) - 1


def _evaluate(w: np.ndarray, geom: ClusterGeometry, cfg: BarrierConfig):
    """The objective at ``w`` and the pair roots ``sqrt(Q_ij(w))``, or
    ``(inf, None)`` when some pair separation is <= 1."""
    root = np.sqrt(geom.inter_sq @ w)
    sep = root - 1.0
    if sep.size and not sep.min() > 0.0:  # NaN fails too
        return math.inf, None
    return cfg.t * float(geom.intra @ w) - 2.0 * float(np.log(sep).sum()), root


def _gradient(t_intra: np.ndarray, geom: ClusterGeometry, root: np.ndarray) -> np.ndarray:
    """The gradient at the feasible point whose pair roots are ``root``;
    ``t_intra`` is ``t * intra``."""
    return t_intra - geom.inter_sq.T @ (1.0 / (root * (root - 1.0)))


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
    value, root = _evaluate(w, geom, cfg)
    t_intra = cfg.t * geom.intra
    step = cfg.step_size
    for step_no in range(cfg.max_steps):
        if root is None:
            raise ValueError("gradient needs a strictly feasible point")
        grad = _gradient(t_intra, geom, root)
        accepted = False
        while step >= _MIN_STEP:
            candidate = np.maximum(w - step * grad, cfg.weight_floor)
            cand_value, cand_root = _evaluate(candidate, geom, cfg)
            if cand_value < value:
                w, value, root = candidate, cand_value, cand_root
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
