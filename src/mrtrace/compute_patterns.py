"""Computation pattern analyses: job-name first-word breakdowns and
six-dimensional k-means job typing with elbow-based k selection.
"""

from __future__ import annotations

import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import KTooLarge, NoData
from .trace import Trace, usable_cores

FEATURE_NAMES = (
    "input_bytes",
    "shuffle_bytes",
    "output_bytes",
    "duration",
    "map_task_seconds",
    "reduce_task_seconds",
)

UNNAMED = "<unnamed>"
# Seeded k-means runs per k, the least relative gain in residual variance
# for which the elbow goes on to k+1, and the most feature rows the elbow
# fits: past it, a seeded sample of that many.
KMEANS_RESTARTS = 5
ELBOW_IMPROVEMENT_THRESHOLD = 0.10
CLUSTER_SAMPLE_CAP = 50_000
_LETTERS = re.compile(r"[a-z]+")


@dataclass
class NameBreakdown:
    weighting: str  # jobs | io_bytes | task_time
    entries: list[tuple[str, float]]  # (first word, weight fraction), non-increasing
    other_fraction: float


@dataclass
class FeatureTransform:
    """The parameters of the log10(1+x) then z-score feature transform."""

    means: np.ndarray
    stds: np.ndarray  # 1.0 substituted for zero-variance dimensions
    zero_variance_dims: tuple[str, ...] = ()


@dataclass
class JobFeatureMatrix:
    rows: np.ndarray  # n x 6, transformed
    raw: np.ndarray  # n x 6, original units
    transform: FeatureTransform
    excluded_count: int

    def __len__(self) -> int:
        return int(self.rows.shape[0])


@dataclass
class ClusterModel:
    k: int
    centroids: np.ndarray  # k x 6, transformed space
    assignments: np.ndarray  # row index -> cluster id
    residual_variance: float  # mean squared distance to assigned centroid
    seed: int
    matrix: JobFeatureMatrix
    rounds: int  # Lloyd rounds run, at most 100
    converged: bool  # False when the 100-round cap ended the fit


@dataclass
class ClusterRow:
    job_count: int
    medians: dict[str, float]  # per dimension, original units
    suggested_label: str
    label: str = ""  # left for the analyst


@dataclass
class ClusterSummary:
    clusters: list[ClusterRow] = field(default_factory=list)


def first_word(name: Optional[str]) -> str:
    """First word of a job name: lowercase, leading non-letters stripped,
    maximal run of letters. Empty or letterless names map to "<unnamed>".
    """
    if not name:
        return UNNAMED
    if name == UNNAMED:
        return UNNAMED  # sentinel is a fixed point, keeping the map idempotent
    m = _LETTERS.search(name.lower())
    return m.group(0) if m else UNNAMED


def name_breakdown(trace: Trace, weighting: str, min_fraction: float = 0.0) -> NameBreakdown:
    """Weight job-name first words by job count, I/O bytes, or task-time.

    Tokens whose fraction falls below min_fraction fold into
    other_fraction. A trace with no names at all raises NoData.
    """
    if weighting not in ("jobs", "io_bytes", "task_time"):
        raise ValueError(f"unknown weighting {weighting!r}")
    cols = trace.columns
    if (cols.name_codes < 0).all():
        raise NoData("trace contains no job names")

    if weighting == "jobs":
        w = np.ones(len(cols))
    elif weighting == "io_bytes":
        w = cols.input_bytes + cols.shuffle_bytes + cols.output_bytes
    else:
        w = cols.map_task_seconds + cols.reduce_task_seconds
    keep = ~np.isnan(w)
    # One token per distinct name; the extra last slot is code -1, no name.
    tokens, token_of_name = np.unique([first_word(n) for n in cols.names + (None,)],
                                      return_inverse=True)
    job_token = token_of_name[cols.name_codes[keep]]
    weights = np.bincount(job_token, weights=w[keep], minlength=tokens.size)
    # Tokens in order of first use, so the total adds up in the same order
    # as a running per-job sum would.
    used, first = np.unique(job_token, return_index=True)
    used = used[np.argsort(first)]
    total = sum(weights[used].tolist())
    if total <= 0:
        raise NoData(f"no job carries the fields needed for weighting={weighting}")

    ranked = sorted(zip(tokens[used].tolist(), weights[used].tolist()),
                    key=lambda kv: (-kv[1], kv[0]))
    entries = []
    other = 0.0
    for token, w in ranked:
        frac = w / total
        if frac < min_fraction:
            other += frac
        else:
            entries.append((token, frac))
    return NameBreakdown(weighting=weighting, entries=entries, other_fraction=other)


def job_feature_vectors(trace: Trace) -> JobFeatureMatrix:
    """Six-dimensional feature rows for every job carrying all six fields.

    Each dimension is log10(1+x) then standardized to zero mean and unit
    (population) variance; the sizes span many orders of magnitude, so raw
    Euclidean distance would be meaningless.
    """
    cols = trace.columns
    raw = np.stack(
        [getattr(cols, name) for name in FEATURE_NAMES],
        axis=1,
    )
    complete = ~np.isnan(raw).any(axis=1)
    if not complete.all():
        raw = raw[complete]
    if raw.shape[0] == 0:
        raise NoData("no job carries all six clustering dimensions")

    # In place where the arithmetic allows: on 1M jobs each n x 6 copy is
    # 48 MB, and these copies set analyze's peak memory.
    rows = np.add(1.0, raw)
    np.log10(rows, out=rows)
    means = rows.mean(axis=0)
    stds = rows.std(axis=0)
    zero_var = stds == 0.0
    stds_adj = np.where(zero_var, 1.0, stds)
    rows -= means
    rows /= stds_adj

    transform = FeatureTransform(
        means=means,
        stds=stds_adj,
        zero_variance_dims=tuple(np.array(FEATURE_NAMES)[zero_var]),
    )
    return JobFeatureMatrix(
        rows=rows,
        raw=raw,
        transform=transform,
        excluded_count=int((~complete).sum()),
    )


def cluster_sample(trace: Trace, seed: int, k_max: int) -> tuple[JobFeatureMatrix, int, Optional[int]]:
    """Every complete job's feature rows or, past CLUSTER_SAMPLE_CAP, a
    seeded sample of that many in row order; with k_max clamped to the rows
    returned and the count sampled from (None when not sampled)."""
    matrix = job_feature_vectors(trace)
    sampled_from = None
    if len(matrix) > CLUSTER_SAMPLE_CAP:
        sampled_from = len(matrix)
        keep = np.sort(np.random.default_rng(seed).choice(sampled_from, CLUSTER_SAMPLE_CAP, replace=False))
        matrix = replace(matrix, rows=matrix.rows[keep], raw=matrix.raw[keep])
    return matrix, min(k_max, len(matrix)), sampled_from


# Points per block of the product in _nearest. A block's product with up
# to 10 centroids, 4096 x 6 x 10 multiply-adds, stays under the size at
# which OpenBLAS splits a product over threads of its own (65,536 x 4),
# which would contend with fit_best's restart threads for the cores; its
# 320 KB also stay in cache while they are transposed.
_BLOCK = 4096


def _nearest(points, centroids, x_norms):
    """Assignment to the closest centroid (ties to the lowest index) and
    the squared distance to it, |x|^2 - 2 x.c + |c|^2. x_norms is the
    reusable per-point norm.

    The dot products are always points @ centroids.T, n x k, a _BLOCK of
    points at a time. OpenBLAS rounds the last bit of some of them
    differently in the k x n orientation (seen from k = 12 on, in the rows
    past the last multiple of 8; and at k = 1, where the products are
    matrix-vector), and every later bit of the fit hangs on them. A block
    of one point takes numpy's matrix-vector path, which rounds
    differently too, so a last point left alone joins the block before
    it. Each block's product is copied transposed, with the -2 scaling
    applied on the way, so that each centroid's distances are one
    contiguous row; a running minimum over the rows then finds the
    nearest centroid without a strided argmin.
    """
    n, k = points.shape[0], centroids.shape[0]
    ends = list(range(_BLOCK, n, _BLOCK))
    if ends and n - ends[-1] == 1:
        ends.pop()
    g = np.empty((k, n))
    for a, b in zip([0] + ends, ends + [n]):
        np.multiply((points[a:b] @ centroids.T).T, -2.0, out=g[:, a:b])
    g += x_norms
    g += (centroids * centroids).sum(axis=1)[:, None]
    best = g[0].copy()
    assign = np.zeros(n, dtype=np.intp)
    for j in range(1, k):
        # Strictly closer only, so a tie stays with the lower index.
        closer = np.less(g[j], best)
        np.minimum(best, g[j], out=best)
        assign += closer * (j - assign)
    np.maximum(best, 0.0, out=best)
    return assign, best


def _mean_centroids(points_t: np.ndarray, assign: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-cluster means, one bincount per dimension over the contiguous
    rows of points_t; counts are the cluster sizes, none of them 0."""
    k = len(counts)
    sums = np.empty((k, points_t.shape[0]))
    for d in range(points_t.shape[0]):
        sums[:, d] = np.bincount(assign, weights=points_t[d], minlength=k)
    return sums / counts[:, None]


def _fill_empty(points, assign, d2, centroids):
    """Reseed each empty cluster at the point currently farthest from its
    centroid, among the clusters that keep another member: a reseed never
    empties a cluster, nor moves a point an earlier reseed placed, so every
    cluster keeps a member and every mean is finite. Returns the cluster
    sizes after the reseeds as well."""
    counts = np.bincount(assign, minlength=centroids.shape[0])
    for j in np.nonzero(counts == 0)[0]:
        far = int(np.argmax(np.where(counts[assign] > 1, d2, -1.0)))
        counts[assign[far]] -= 1
        centroids[j] = points[far]
        assign[far] = j
        d2[far] = 0.0
        counts[j] = 1
    return assign, centroids, counts


def kmeans(matrix: JobFeatureMatrix, k: int, seed: int) -> ClusterModel:
    """Lloyd's algorithm with careful seeding, deterministic for a given seed.

    Initial centroids are drawn with probability proportional to squared
    distance from those already chosen; iterations stop at an assignment
    fixpoint or after 100 rounds; empty clusters are reseeded from the
    farthest point. The model records how many rounds ran and whether the
    fixpoint was reached.
    """
    points = matrix.rows
    n = points.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise KTooLarge(f"k={k} exceeds {n} rows")

    points_t = np.ascontiguousarray(points.T)
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
    for rounds in range(1, 101):
        assign, d2 = _nearest(points, centroids, x_norms)
        assign, centroids, counts = _fill_empty(points, assign, d2, centroids)
        if prev is not None and np.array_equal(assign, prev):
            converged = True
            break
        prev = assign
        centroids = _mean_centroids(points_t, assign, counts)

    if not converged:
        # Hit the iteration cap: recompute so the returned assignment is
        # self-consistent with the returned centroids.
        assign, d2 = _nearest(points, centroids, x_norms)
        assign, centroids, _ = _fill_empty(points, assign, d2, centroids)

    return ClusterModel(
        k=k,
        centroids=centroids,
        assignments=assign,
        residual_variance=float(d2.mean()),
        seed=seed,
        matrix=matrix,
        rounds=rounds,
        converged=converged,
    )


def _restart_seed(seed: int, k: int, restart: int) -> int:
    return int(np.random.SeedSequence((seed, k, restart)).generate_state(1)[0])


def fit_best(matrix: JobFeatureMatrix, k: int, seed: int) -> ClusterModel:
    """Best of several seeded k-means runs by residual variance; a tie
    goes to the lowest of the KMEANS_RESTARTS restarts.

    The restarts run on a thread pool with a worker per usable core, up to
    one per restart: numpy releases the GIL in the array loops that take
    most of a round. Each restart's model depends only on its own seed, so
    the result is the one a serial loop gives.
    """
    workers = min(KMEANS_RESTARTS, usable_cores())
    with ThreadPoolExecutor(max_workers=workers) as pool:
        models = list(pool.map(lambda r: kmeans(matrix, k, _restart_seed(seed, k, r)),
                               range(KMEANS_RESTARTS)))
    return min(models, key=lambda model: model.residual_variance)  # the first of equals


def elbow_fit(matrix: JobFeatureMatrix, k_max: int, seed: int = 42) -> ClusterModel:
    """Best model at the elbow: the smallest k whose k+1 refit improves
    residual variance by less than ELBOW_IMPROVEMENT_THRESHOLD (relative);
    k_max if the improvement never levels off.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    best = fit_best(matrix, 1, seed)
    for k in range(1, k_max):
        if best.residual_variance <= 0.0:
            return best  # already a perfect fit
        nxt = fit_best(matrix, k + 1, seed)
        gain = (best.residual_variance - nxt.residual_variance) / best.residual_variance
        if gain < ELBOW_IMPROVEMENT_THRESHOLD:
            return best
        best = nxt
    return best


def summarize_clusters(model: ClusterModel) -> ClusterSummary:
    """Table of per-cluster sizes and per-dimension medians in original units.

    The suggested label names the one or two dimensions with the largest
    standardized centroid magnitude; final labels are the analyst's call.
    """
    matrix = model.matrix
    rows = []
    for j in range(model.k):
        members = model.assignments == j
        medians = np.median(matrix.raw[members], axis=0)
        rows.append(
            ClusterRow(
                job_count=int(members.sum()),
                medians={name: float(m) for name, m in zip(FEATURE_NAMES, medians)},
                suggested_label=_suggest_label(model.centroids[j]),
            )
        )
    rows.sort(key=lambda r: -r.job_count)
    return ClusterSummary(clusters=rows)


def _suggest_label(centroid: np.ndarray) -> str:
    order = np.argsort(-np.abs(centroid), kind="stable")
    picks = [int(order[0])]
    if abs(centroid[order[1]]) >= 0.5 * abs(centroid[order[0]]):
        picks.append(int(order[1]))
    parts = [
        f"{'high' if centroid[i] >= 0 else 'low'} {FEATURE_NAMES[i]}"
        for i in picks
    ]
    return ", ".join(parts) + " (suggested)"
