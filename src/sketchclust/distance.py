"""Distances between graphs and cluster summaries.

All distances compare mass vectors over the (implicit) key space of one
component: edges (component 0) or one side type (components 1..d). The
cluster side of a comparison is the centroid, i.e. aggregated mass divided
by member count n. Squared distances expand into three terms:

    sum_k g_k^2  -  (2/n) * sum_k g_k * C_k  +  (1/n^2) * sum_k C_k^2

where only keys present in the incoming graph contribute to the first two
terms and the third is the cluster's aggregate self product. On the sketch
backend the middle and last terms use overestimating estimators, so sketch
distances can only exceed their exact counterparts (before clamping).
Negative values from estimator noise are clamped to zero.

The combined graph-to-cluster distance (an event's ``es_distance_sq``,
formed in ``Engine.process``) is a weighted sum of squared per-component
distances; the weight vector is the diagonal of a positive semidefinite
scaling matrix, so weights are elementwise nonnegative.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .model import ComponentView


def ensure_weights(weights, d: int) -> np.ndarray:
    """Validate a (d+1)-component nonnegative weight vector."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (d + 1,):
        raise ValueError(f"weights must have shape ({d + 1},), got {w.shape}")
    if not bool(np.all(np.isfinite(w) & (w >= 0.0))):
        raise ValueError("weights must be nonnegative and finite")
    return w


def _check_cluster(c) -> None:
    if c.n < 1:
        raise ValueError("distance against an empty cluster is undefined")


def _check_comp(c, comp: int) -> None:
    if not 0 <= comp <= c.d:
        raise ValueError(f"component index {comp} out of range 0..{c.d}")


def component_distance_sq(view: ComponentView, c, comp: int) -> float:
    """Squared distance from one graph component to the cluster centroid."""
    _check_cluster(c)
    _check_comp(c, comp)
    n = c.n
    cross = float(view.values @ c.first_moments(comp, view)) if view.keys else 0.0
    raw = view.sq_sum - 2.0 * cross / n + c.self_product(comp) / (n * n)
    return max(raw, 0.0)


def component_distances_sq(views: Sequence[ComponentView], c) -> np.ndarray:
    """All d+1 squared component distances for one graph."""
    return np.array(
        [component_distance_sq(view, c, comp) for comp, view in enumerate(views)],
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
