"""The serial k-means that ``compute_patterns`` ran before its Lloyd
rounds moved to a transposed copy of the distances and its restarts to a
thread pool: ``argmin`` over the n x k distances, ``bincount`` means over
strided columns, and one restart after another. It is kept unchanged as
the oracle for the differential tests; only the ``rounds``,
``converged`` and ``nearest_rows`` evidence is recorded as well, the last
as the n rows of every full pass it makes."""

from __future__ import annotations

import numpy as np

from mrtrace.compute_patterns import ClusterModel, JobFeatureMatrix
from mrtrace.errors import KTooLarge


def _nearest(points, centroids, x_norms):
    """Assignment to the closest centroid (ties to the lowest index) and
    the squared distance to it. x_norms is the reusable per-point norm."""
    d2 = points @ centroids.T
    d2 *= -2.0
    d2 += x_norms[:, None]
    d2 += (centroids * centroids).sum(axis=1)[None, :]
    assign = np.argmin(d2, axis=1)
    best = d2[np.arange(points.shape[0]), assign]
    np.maximum(best, 0.0, out=best)
    return assign, best


def _mean_centroids(points: np.ndarray, assign: np.ndarray, k: int) -> np.ndarray:
    counts = np.bincount(assign, minlength=k).astype(np.float64)
    sums = np.empty((k, points.shape[1]))
    for d in range(points.shape[1]):
        sums[:, d] = np.bincount(assign, weights=points[:, d], minlength=k)
    return sums / counts[:, None]


def _fill_empty(points, assign, d2, centroids):
    """Reseed each empty cluster at the point currently farthest from its
    centroid, among the clusters that keep another member: a reseed never
    empties a cluster, nor moves a point an earlier reseed placed, so every
    cluster keeps a member and every mean is finite."""
    counts = np.bincount(assign, minlength=centroids.shape[0])
    for j in np.nonzero(counts == 0)[0]:
        far = int(np.argmax(np.where(counts[assign] > 1, d2, -1.0)))
        counts[assign[far]] -= 1
        centroids[j] = points[far]
        assign[far] = j
        d2[far] = 0.0
        counts[j] = 1
    return assign, centroids


def kmeans(matrix: JobFeatureMatrix, k: int, seed: int) -> ClusterModel:
    """Lloyd's algorithm with careful seeding, deterministic for a given seed.

    Initial centroids are drawn with probability proportional to squared
    distance from those already chosen; iterations stop at an assignment
    fixpoint or after 100 rounds; empty clusters are reseeded from the
    farthest point.
    """
    points = matrix.rows
    n = points.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise KTooLarge(f"k={k} exceeds {n} rows")

    rng = np.random.default_rng(seed)
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    x_norms = (points * points).sum(axis=1)
    d2 = _nearest(points, centroids[:1], x_norms)[1]
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centroids[j] = points[idx]
        d2 = np.minimum(d2, _nearest(points, centroids[j : j + 1], x_norms)[1])

    prev = None
    converged = False
    rounds = 0
    for _ in range(100):
        rounds += 1
        assign, d2 = _nearest(points, centroids, x_norms)
        assign, centroids = _fill_empty(points, assign, d2, centroids)
        if prev is not None and np.array_equal(assign, prev):
            converged = True
            break
        prev = assign
        centroids = _mean_centroids(points, assign, k)

    if not converged:
        # Hit the iteration cap: recompute so the returned assignment is
        # self-consistent with the returned centroids.
        assign, d2 = _nearest(points, centroids, x_norms)
        assign, centroids = _fill_empty(points, assign, d2, centroids)

    return ClusterModel(
        k=k,
        centroids=centroids,
        assignments=assign,
        residual_variance=float(d2.mean()),
        seed=seed,
        matrix=matrix,
        rounds=rounds,
        converged=converged,
        nearest_rows=n * (rounds + (not converged)),
    )


def _restart_seed(seed: int, k: int, restart: int) -> int:
    return int(np.random.SeedSequence((seed, k, restart)).generate_state(1)[0])


def fit_best(matrix: JobFeatureMatrix, k: int, seed: int, restarts: int = 5) -> ClusterModel:
    """Best of several seeded k-means runs by residual variance."""
    best = None
    for r in range(restarts):
        model = kmeans(matrix, k, _restart_seed(seed, k, r))
        if best is None or model.residual_variance < best.residual_variance:
            best = model
    return best


def elbow_fit(
    matrix: JobFeatureMatrix,
    k_max: int,
    improvement_threshold: float = 0.10,
    seed: int = 42,
    restarts: int = 5,
) -> ClusterModel:
    """Best model at the elbow: the smallest k whose k+1 refit improves
    residual variance by less than the threshold (relative); k_max if
    the improvement never levels off.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    best = fit_best(matrix, 1, seed, restarts)
    for k in range(1, k_max):
        if best.residual_variance <= 0.0:
            return best  # already a perfect fit
        nxt = fit_best(matrix, k + 1, seed, restarts)
        gain = (best.residual_variance - nxt.residual_variance) / best.residual_variance
        if gain < improvement_threshold:
            return best
        best = nxt
    return best
