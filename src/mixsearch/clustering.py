"""K-means clustering over embedding vectors.

Lloyd's algorithm with k-means++ seeding, restarted a configurable number of
times with the best run (lowest inertia) kept; ties between restarts go to
the lowest restart index.  Empty clusters are repaired by promoting the
worst-fit point to be the empty cluster's centroid, so the model always
exposes exactly k populated clusters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ClusteringError(ValueError):
    pass


@dataclass
class ClusterModel:
    k: int
    centroids: np.ndarray         # (k, dims)
    assignments: np.ndarray       # (n,) int64 cluster ids
    sizes: np.ndarray             # (k,) int64 member counts
    inertia: float
    n_iter: int
    inertia_history: list[float]  # per-iteration inertia of the winning run

    def __post_init__(self) -> None:
        if self.sizes.sum() != self.assignments.shape[0]:
            raise ClusteringError("cluster sizes do not sum to the point count")
        if np.any(self.assignments < 0) or np.any(self.assignments >= self.k):
            raise ClusteringError("assignment outside [0, k)")
        if not np.all(np.isfinite(self.centroids)):
            raise ClusteringError("non-finite centroid")
        if self.inertia < 0:
            raise ClusteringError("negative inertia")


def squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances, one ``cdist`` call.

    Each entry sums the squares of its own point-centroid difference, so
    points exactly equidistant from two centroids produce exactly equal entries.
    """
    # Imported here, not at module level: scipy.spatial costs every other
    # stage's start-up time and only the cluster stage computes distances.
    from scipy.spatial.distance import cdist

    points = np.asarray(points, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    if points.ndim != 2 or centroids.ndim != 2:
        raise ClusteringError("points and centroids must be 2-D")
    if points.shape[1] != centroids.shape[1]:
        raise ClusteringError(
            f"dimension mismatch: points have {points.shape[1]}, "
            f"centroids have {centroids.shape[1]}")
    return cdist(points, centroids, "sqeuclidean")


def assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid assignment; ties go to the lowest cluster id."""
    return np.argmin(squared_distances(points, centroids), axis=1).astype(np.int64)


def inertia(points: np.ndarray, assignments: np.ndarray, centroids: np.ndarray) -> float:
    points = np.asarray(points, dtype=np.float64)
    assignments = np.asarray(assignments)
    if assignments.shape[0] != points.shape[0]:
        raise ClusteringError("one assignment per point required")
    diff = points - centroids[assignments]
    return float(np.einsum("nd,nd->", diff, diff))


def kmeans_init_plusplus(points: np.ndarray, k: int,
                         seed: int | np.random.Generator) -> np.ndarray:
    """k-means++ seeding: first centroid uniform, each next one drawn with
    probability proportional to its squared distance to the nearest chosen
    centroid.  Deterministic for a fixed seed.  Raises when fewer than k
    distinct points exist."""
    points = np.asarray(points, dtype=np.float64)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n = points.shape[0]
    if k < 1:
        raise ClusteringError(f"k must be >= 1, got {k}")

    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    d2 = np.full(n, np.inf)
    for j in range(k):
        if j == 0:
            idx = int(rng.integers(n))
        else:
            total = d2.sum()
            if total == 0.0:  # every point is one of the j centroids so far
                raise ClusteringError(
                    f"degenerate input: all {n} points identical, cannot fit k={k}"
                    if j == 1 else f"k={k} exceeds the number of distinct points ({j})")
            idx = int(rng.choice(n, p=d2 / total))
        centroids[j] = points[idx]
        d2 = np.minimum(d2, squared_distances(points, centroids[j:j + 1])[:, 0])
    return centroids


def kmeans_fit(points: np.ndarray, k: int, max_iter: int = 300,
               tol: float = 1e-6, seed: int = 0, n_init: int = 10) -> ClusterModel:
    """Fit k-means with ``n_init`` seeded restarts, keeping the best inertia.

    Convergence: maximum centroid displacement below ``tol`` or ``max_iter``
    iterations.  Raises on degenerate input (all points identical with k > 1)
    and when k exceeds the number of distinct points.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ClusteringError("points must be a non-empty 2-D array")
    if max_iter < 1 or n_init < 1:
        raise ClusteringError("max_iter and n_init must be >= 1")
    if not (tol >= 0 and math.isfinite(tol)):
        raise ClusteringError("tol must be finite and >= 0")
    streams = np.random.SeedSequence(seed).spawn(n_init)
    return min((_lloyd_once(points, k, max_iter, tol, np.random.default_rng(stream))
                for stream in streams), key=lambda model: model.inertia)


def _lloyd_once(points: np.ndarray, k: int, max_iter: int, tol: float,
                rng: np.random.Generator) -> ClusterModel:
    """One seeded Lloyd run; the pass after the last update is the final assignment."""
    centroids = kmeans_init_plusplus(points, k, rng)
    history: list[float] = []
    shift = math.inf
    for n_iter in range(max_iter + 1):
        assignments = assign(points, centroids)
        assignments, centroids = _repair_empty(points, assignments, centroids, k)
        cur = inertia(points, assignments, centroids)
        if history and cur > history[-1] + 1e-9 * max(1.0, history[-1]):
            raise RuntimeError(
                f"inertia increased between Lloyd iterations ({history[-1]} -> {cur})")
        history.append(cur)
        if shift < tol or n_iter == max_iter:
            break
        new_centroids = _cluster_means(points, assignments, k)
        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
    sizes = np.bincount(assignments, minlength=k).astype(np.int64)
    return ClusterModel(k=k, centroids=centroids, assignments=assignments, sizes=sizes,
                        inertia=cur, n_iter=n_iter, inertia_history=history)


def _cluster_means(points: np.ndarray, assignments: np.ndarray, k: int) -> np.ndarray:
    # A stable sort lists every cluster's members in ascending position, one
    # contiguous run per cluster; keeping that order keeps each mean's
    # summation order, so the centroids are those of a per-cluster mask.
    order = np.argsort(assignments, kind="stable")
    sizes = np.bincount(assignments, minlength=k)
    ends = np.cumsum(sizes)
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    for j in range(k):
        members = points[order[ends[j] - sizes[j]:ends[j]]]
        centroids[j] = members.mean(axis=0)
    return centroids


def _repair_empty(points: np.ndarray, assignments: np.ndarray,
                  centroids: np.ndarray, k: int):
    """Give each empty cluster the point currently farthest from its centroid.

    Donor clusters of size 1 are skipped so the repair cannot cascade.
    """
    sizes = np.bincount(assignments, minlength=k)
    empties = np.flatnonzero(sizes == 0)
    if empties.size == 0:
        return assignments, centroids
    assignments = assignments.copy()
    centroids = centroids.copy()
    diff = points - centroids[assignments]
    dist = np.einsum("nd,nd->n", diff, diff)
    for e in empties:
        eligible = sizes[assignments] > 1
        if not eligible.any():
            raise ClusteringError("cannot repair empty cluster: no donor available")
        masked = np.where(eligible, dist, -np.inf)
        idx = int(np.argmax(masked))
        sizes[assignments[idx]] -= 1
        assignments[idx] = e
        sizes[e] = 1
        centroids[e] = points[idx]
        dist[idx] = 0.0
    return assignments, centroids
