"""K-means clustering over embedding vectors.

Lloyd's algorithm with k-means++ seeding, restarted a configurable number of
times with the best run (lowest inertia) kept; ties between restarts go to
the lowest restart index.  Empty clusters are repaired by promoting the
worst-fit point to be the empty cluster's centroid, so the model always
exposes exactly k populated clusters.

Nearest-centroid search is screened.  One matrix product gives every
point-centroid pair its expanded-form distance ||x||^2 - 2 x.c + ||c||^2
(less the ||x||^2 that one point's centroids share, where only they are
compared), which differs from the exact sum of squared differences only by
rounding, bounded per point by a slack that scales with
(||x|| + max ||c||)^2.  A point
whose best screened centroid beats the runner-up by more than that slack is
settled by the screen; every other point gets exact distances from
:func:`squared_distances` and its ``argmin``.  k-means++ seeding screens the
same way: a point whose screened distance to the new centroid, less the
slack, is not below its current minimum keeps that minimum untouched.  So
assignments, seeds and centroids are those of exact distances throughout,
bit for bit.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

# Values per temporary in the exact distance kernel: row blocks hold at most
# this many point-centroid-dimension differences (8 MB of float64).
_BLOCK_VALUES = 1 << 20


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
    """(n, k) squared Euclidean distances, each summed in dimension order.

    Every entry is a running sum of its own squared point-centroid
    differences, dimension 0 first, which is the value and the bits of
    ``cdist(points, centroids, "sqeuclidean")``.  Points exactly equidistant
    from two centroids produce exactly equal entries.
    """
    points, centroids = _as_pair(points, centroids)
    n, d = points.shape
    k = centroids.shape[0]
    if d == 0:
        return np.zeros((n, k))
    out = np.empty((n, k))
    step = max(1, _BLOCK_VALUES // (k * d))
    for start in range(0, n, step):
        sq = points[start:start + step, None, :] - centroids[None, :, :]
        sq *= sq
        out[start:start + step] = np.cumsum(sq, axis=-1)[..., -1]
    return out


def assign(points: np.ndarray, centroids: np.ndarray,
           point_sq_norms: np.ndarray | None = None) -> np.ndarray:
    """Nearest-centroid assignment; ties go to the lowest cluster id.

    Equal to ``argmin(squared_distances(points, centroids), axis=1)``: the
    screen settles the points it can and the rest get exact rows.
    ``point_sq_norms`` (the rows' squared norms) may be passed in to spare
    recomputing them for the same points.
    """
    points, centroids = _as_pair(points, centroids)
    if point_sq_norms is None:
        point_sq_norms = np.einsum("nd,nd->n", points, points)
    screened, slack = _screen(points, centroids, point_sq_norms)
    rows = np.arange(points.shape[0])
    best = np.argmin(screened, axis=1)
    best_dist = screened[rows, best]
    screened[rows, best] = np.inf
    # Negated so that a NaN gap, from overflow, also takes the exact path.
    unsettled = np.flatnonzero(~(screened.min(axis=1) - best_dist > slack))
    if unsettled.size:
        best[unsettled] = np.argmin(
            squared_distances(points[unsettled], centroids), axis=1)
    return best.astype(np.int64)


def _as_pair(points: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    points = np.asarray(points, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    if points.ndim != 2 or centroids.ndim != 2:
        raise ClusteringError("points and centroids must be 2-D")
    if points.shape[1] != centroids.shape[1]:
        raise ClusteringError(
            f"dimension mismatch: points have {points.shape[1]}, "
            f"centroids have {centroids.shape[1]}")
    return points, centroids


def _screen(points: np.ndarray, centroids: np.ndarray,
            point_sq_norms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, k) screened distances less each point's ||x||^2, and its rounding slack.

    Entry (i, j) is ||c_j||^2 - 2 x_i.c_j from one matrix product: the
    expanded form of ||x_i - c_j||^2 without the ||x_i||^2 that all of row
    i shares.  In any summation order, FMA included, ||x_i||^2 plus the
    entry lies within half of point i's slack of the pair's exact distance,
    so two entries of a row more than the slack apart compare the same way
    exactly.
    """
    centroid_sq_norms = np.einsum("kd,kd->k", centroids, centroids)
    screened = points @ (-2.0 * centroids).T
    screened += centroid_sq_norms
    reach = np.sqrt(point_sq_norms) + np.sqrt(centroid_sq_norms.max())
    rel = max(1e-9, 4 * (points.shape[1] + 3) * np.finfo(np.float64).eps)
    return screened, rel * reach * reach


def inertia(points: np.ndarray, assignments: np.ndarray, centroids: np.ndarray) -> float:
    points = np.asarray(points, dtype=np.float64)
    assignments = np.asarray(assignments)
    if assignments.shape[0] != points.shape[0]:
        raise ClusteringError("one assignment per point required")
    diff = np.asarray(centroids, dtype=np.float64)[assignments]
    np.subtract(points, diff, out=diff)  # points - centroids[assignments], one array
    return float(np.einsum("nd,nd->", diff, diff))


def kmeans_init_plusplus(points: np.ndarray, k: int,
                         seed: int | np.random.Generator,
                         point_sq_norms: np.ndarray | None = None) -> np.ndarray:
    """k-means++ seeding: first centroid uniform, each next one drawn with
    probability proportional to its squared distance to the nearest chosen
    centroid.  Deterministic for a fixed seed.  Raises when fewer than k
    distinct points exist.  ``point_sq_norms`` is as in :func:`assign`."""
    points = np.asarray(points, dtype=np.float64)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n = points.shape[0]
    if k < 1:
        raise ClusteringError(f"k must be >= 1, got {k}")
    if point_sq_norms is None:
        point_sq_norms = np.einsum("nd,nd->n", points, points)

    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    centroids[0] = points[int(rng.integers(n))]
    d2 = np.full(n, np.inf)
    for j in range(1, k):
        new = centroids[j - 1:j]
        # Rows the new centroid cannot bring below d2 keep d2's bits as they are.
        screened, slack = _screen(points, new, point_sq_norms)
        rows = np.flatnonzero(~(point_sq_norms + screened[:, 0] - slack >= d2))
        near = points if rows.size == n else points[rows]
        d2[rows] = np.minimum(d2[rows], squared_distances(near, new)[:, 0])
        total = d2.sum()
        if total == 0.0:  # every point is one of the j centroids so far
            raise ClusteringError(
                f"degenerate input: all {n} points identical, cannot fit k={k}"
                if j == 1 else f"k={k} exceeds the number of distinct points ({j})")
        centroids[j] = points[int(rng.choice(n, p=d2 / total))]
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
    sq_norms = np.einsum("nd,nd->n", points, points)
    best = None
    for restart, stream in enumerate(np.random.SeedSequence(seed).spawn(n_init), 1):
        start = time.perf_counter()
        model = _lloyd_once(points, sq_norms, k, max_iter, tol,
                            np.random.default_rng(stream))
        is_best = best is None or model.inertia < best.inertia
        if is_best:
            best = model
        logger.info("k-means restart %d/%d: %d iterations, inertia %.6g%s, %.2f s",
                    restart, n_init, model.n_iter, model.inertia,
                    " (best so far)" if is_best else "", time.perf_counter() - start)
    return best


def _lloyd_once(points: np.ndarray, sq_norms: np.ndarray, k: int, max_iter: int,
                tol: float, rng: np.random.Generator) -> ClusterModel:
    """One seeded Lloyd run; the pass after the last update is the final assignment."""
    centroids = kmeans_init_plusplus(points, k, rng, sq_norms)
    history: list[float] = []
    shift = math.inf
    for n_iter in range(max_iter + 1):
        assignments = assign(points, centroids, sq_norms)
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


def cluster_members(assignments: np.ndarray, k: int) -> list[np.ndarray]:
    """Each cluster's member positions in ascending order: one stable sort, split per cluster."""
    order = np.argsort(assignments, kind="stable")
    return np.split(order, np.cumsum(np.bincount(assignments, minlength=k))[:-1])


def _cluster_means(points: np.ndarray, assignments: np.ndarray, k: int) -> np.ndarray:
    # Members in ascending position keep each mean's summation order, so the
    # centroids are those of a per-cluster mask.
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    for j, members in enumerate(cluster_members(assignments, k)):
        centroids[j] = np.add.reduce(points[members], axis=0) / members.size
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
    diff = centroids[assignments]
    np.subtract(points, diff, out=diff)
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
