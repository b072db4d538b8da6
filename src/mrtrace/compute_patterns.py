"""Computation pattern analyses: job-name first-word breakdowns and
six-dimensional k-means job typing with elbow-based k selection.
"""

from __future__ import annotations

import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import KTooLarge, NoData, SumOverflow
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
    words: list[str]  # first words at or over the cutoff, by non-increasing fraction
    fractions: list[float]  # one per word
    other_fraction: float


@dataclass
class JobFeatureMatrix:
    rows: np.ndarray  # n x 6, transformed
    raw: np.ndarray  # n x 6, original units
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
    nearest_rows: int  # point rows the Lloyd rounds and the final recompute sent through _nearest


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

    codes = cols.name_codes
    if weighting == "jobs":
        w = None  # a count per token: the sums of ones, exact
    else:
        if weighting == "io_bytes":
            w = cols.input_bytes + cols.shuffle_bytes + cols.output_bytes
        else:
            with np.errstate(over="ignore"):  # inf, refused below
                w = cols.map_task_seconds + cols.reduce_task_seconds
        keep = ~np.isnan(w)
        if not keep.all():
            codes, w = codes[keep], w[keep]
        del keep
    # One token per distinct name; the extra last slot is code -1, no name.
    tokens, token_of_name = np.unique([first_word(n) for n in cols.names + (None,)],
                                      return_inverse=True)
    job_token = token_of_name[codes]
    weights = np.bincount(job_token, weights=w, minlength=tokens.size).astype(np.float64)
    del w
    # Tokens in order of first use, so the total adds up in the same order
    # as a running per-job sum would. The first use of each token is the
    # least job position that carries it: one pass, no sort of the jobs.
    first = np.full(tokens.size, job_token.size)
    np.minimum.at(first, job_token, np.arange(job_token.size))
    used = np.flatnonzero(first < job_token.size)
    used = used[np.argsort(first[used])]
    total = sum(weights[used].tolist())
    if np.isinf(total):
        raise SumOverflow(f"the jobs' {weighting} weights sum past the largest 64-bit float")
    if total <= 0:
        raise NoData(f"no job carries the fields needed for weighting={weighting}")

    ranked = sorted(zip(tokens[used].tolist(), weights[used].tolist()),
                    key=lambda kv: (-kv[1], kv[0]))
    words, fractions = [], []
    other = 0.0
    for token, w in ranked:
        frac = w / total
        if frac < min_fraction:
            other += frac
        else:
            words.append(token)
            fractions.append(frac)
    return NameBreakdown(words=words, fractions=fractions, other_fraction=other)


def _standardization(cols) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of the jobs carrying all six fields, and the mean and
    (population) standard deviation of each dimension's log10(1+x) over
    them, computed a column at a time: an n x 6 copy of 1M jobs takes
    48 MB. Each is summed in row order, as numpy sums the columns of an
    n x 6 array, so the figures are those of rows.mean(axis=0) and
    rows.std(axis=0); a per-column mean() would sum pairwise."""
    complete = np.ones(len(cols), dtype=bool)
    for name in FEATURE_NAMES:
        complete &= ~np.isnan(getattr(cols, name))
    index = np.flatnonzero(complete)
    if not index.size:
        raise NoData("no job carries all six clustering dimensions")
    means = np.empty(len(FEATURE_NAMES))
    stds = np.empty(len(FEATURE_NAMES))
    for d, name in enumerate(FEATURE_NAMES):
        col = np.add(1.0, getattr(cols, name)[index])
        np.log10(col, out=col)
        means[d] = np.cumsum(col)[-1] / index.size
        col -= means[d]
        col *= col
        stds[d] = np.sqrt(np.cumsum(col)[-1] / index.size)
    return index, means, stds


def _feature_matrix(cols, index, means, stds, excluded_count: int) -> JobFeatureMatrix:
    """The feature rows of the jobs at index, standardized by means and stds."""
    raw = np.stack([getattr(cols, name)[index] for name in FEATURE_NAMES], axis=1)
    rows = np.add(1.0, raw)
    np.log10(rows, out=rows)
    rows -= means
    # A dimension of zero variance is divided by 1: its centered rows stay
    # 0, and add nothing to any distance, where 0 / 0 would make them NaN.
    rows /= np.where(stds == 0.0, 1.0, stds)
    return JobFeatureMatrix(rows=rows, raw=raw, excluded_count=excluded_count)


def job_feature_vectors(trace: Trace) -> JobFeatureMatrix:
    """Six-dimensional feature rows for every job carrying all six fields.

    Each dimension is log10(1+x) then standardized to zero mean and unit
    (population) variance; the sizes span many orders of magnitude, so raw
    Euclidean distance would be meaningless.
    """
    cols = trace.columns
    index, means, stds = _standardization(cols)
    return _feature_matrix(cols, index, means, stds, len(cols) - index.size)


def cluster_sample(trace: Trace, seed: int, k_max: int) -> tuple[JobFeatureMatrix, int, Optional[int]]:
    """Every complete job's feature rows or, past CLUSTER_SAMPLE_CAP, a
    seeded sample of that many in row order; with k_max clamped to the rows
    returned and the count sampled from (None when not sampled). The rows
    are standardized over every complete job, but built only for the ones
    returned."""
    cols = trace.columns
    index, means, stds = _standardization(cols)
    excluded = len(cols) - index.size
    sampled_from = None
    if index.size > CLUSTER_SAMPLE_CAP:
        sampled_from = index.size
        index = index[np.sort(np.random.default_rng(seed).choice(sampled_from, CLUSTER_SAMPLE_CAP,
                                                                 replace=False))]
    matrix = _feature_matrix(cols, index, means, stds, excluded)
    return matrix, min(k_max, len(matrix)), sampled_from


# Points per block of the product in _nearest. A block's product with up
# to 10 centroids, 4096 x 6 x 10 multiply-adds, stays under the size at
# which OpenBLAS splits a product over threads of its own (65,536 x 4),
# which would contend with fit_best's restart threads for the cores; its
# 320 KB also stay in cache while they are transposed.
_BLOCK = 4096


def _nearest(points, centroids, x_norms):
    """Assignment to the closest centroid (ties to the lowest index), the
    squared distance to it, |x|^2 - 2 x.c + |c|^2, and the squared
    distance to the second closest. x_norms is the reusable per-point
    norm.

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
    nearest centroid without a strided argmin. The running second
    smallest of the same values, infinite for one centroid, is returned
    third.
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
    second = np.full(n, np.inf)
    assign = np.zeros(n, dtype=np.intp)
    for j in range(1, k):
        # Strictly closer only, so a tie stays with the lower index.
        closer = np.less(g[j], best)
        np.minimum(second, np.maximum(best, g[j]), out=second)
        np.minimum(best, g[j], out=best)
        assign += closer * (j - assign)
    np.maximum(best, 0.0, out=best)
    return assign, best, second


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


# Relative slack, on the scale (|x| + max |c|)^2, that bounds must clear
# before they prove a point's assignment. It covers the rounding of the
# expanded |x|^2 - 2 x.c + |c|^2 form, a few units in the last place, and
# of the bound updates over 100 rounds, about a thousand.
_SLACK = 2.0 ** -40


def _bounds(best, second, slack):
    """Bounds on the true distances from a _nearest pass, with the squared
    ones widened by slack: above, to the assigned centroid, plus a margin
    that keeps the squared distances at least 2 * slack apart while the
    upper bound stays under the lower; below, to every other centroid."""
    return (np.sqrt(best + slack) + np.sqrt(2.0 * slack),
            np.sqrt(np.maximum(second - slack, 0.0)))


def kmeans(matrix: JobFeatureMatrix, k: int, seed: int) -> ClusterModel:
    """Lloyd's algorithm with careful seeding, deterministic for a given seed.

    Initial centroids are drawn with probability proportional to squared
    distance from those already chosen; iterations stop at an assignment
    fixpoint or after 100 rounds; empty clusters are reseeded from the
    farthest point. The model records how many rounds ran, whether the
    fixpoint was reached, and how many point rows went through _nearest.

    Each round gives the assignment a full _nearest pass over every point
    would, bit for bit, without computing every distance (Hamerly, "Making
    k-means even faster", SDM 2010). Every point keeps an upper bound on
    the distance to its centroid and a lower bound on the distance to
    every other; a point whose bounds prove its assignment, by more than
    the rounding of the distances, keeps it, and only the rest go through
    _nearest. The full pass still runs where every exact distance is
    needed: in the first round, in the round that finds no change (the
    residual is the mean of them all), in a round that must reseed an
    empty cluster at the farthest point, in the round after a reseed,
    and in the recompute after the round cap. The means are always taken
    over every point.
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

    # Every centroid is a mean of points or a point, so no centroid is
    # farther from the origin than the farthest point.
    x_len = np.sqrt(x_norms)
    slack = _SLACK * (x_len + x_len.max()) ** 2
    prev = upper = lower = None
    converged = False
    nearest_rows = 0
    for rounds in range(1, 101):
        assign = None  # until the bounds give it; else the full pass does
        if upper is not None:
            # No centroid moved farther than the largest move.
            moved = float(np.sqrt(((centroids - old) ** 2).sum(axis=1)).max())
            upper += moved
            lower -= moved
            need = np.flatnonzero(upper >= lower)
            if need.size:
                # A single row would take numpy's matrix-vector path, which
                # rounds differently from the blocked product; send it twice.
                rows = need if need.size > 1 else np.repeat(need, 2)
                got, best, second = _nearest(points[rows], centroids, x_norms[rows])
                nearest_rows += rows.size
                got = got[: need.size]
                upper[need], lower[need] = _bounds(best[: need.size], second[: need.size], slack[need])
                # No change ends the fit, and its residual needs every
                # distance; so does an empty cluster's reseed.
                if (got != prev[need]).any():
                    assign = prev.copy()
                    assign[need] = got
                    counts = np.bincount(assign, minlength=k)
                    if not counts.all():
                        assign = None
        if assign is None:
            assign, d2, second = _nearest(points, centroids, x_norms)
            nearest_rows += n
            upper, lower = _bounds(d2, second, slack)
            if not np.bincount(assign, minlength=k).all():
                upper = None  # a reseed moves centroids past the bounds
            assign, centroids, counts = _fill_empty(points, assign, d2, centroids)
        if prev is not None and np.array_equal(assign, prev):
            converged = True
            break
        prev = assign
        old = centroids
        centroids = _mean_centroids(points_t, assign, counts)

    if not converged:
        # Hit the iteration cap: recompute so the returned assignment is
        # self-consistent with the returned centroids.
        assign, d2, _ = _nearest(points, centroids, x_norms)
        nearest_rows += n
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
        nearest_rows=nearest_rows,
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


def summarize_clusters(model: ClusterModel) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """The job-type table as three parallel columns, one entry per cluster:
    job counts (int64); a k x 6 matrix of per-dimension medians in original
    units, columns in FEATURE_NAMES order; and suggested labels. Clusters
    come by non-increasing size, equal sizes in cluster order.

    A suggested label names the one or two dimensions with the largest
    standardized centroid magnitude; final labels are the analyst's call.
    """
    counts = np.bincount(model.assignments, minlength=model.k).astype(np.int64)
    order = np.argsort(-counts, kind="stable")
    raw = model.matrix.raw
    medians = np.array([np.median(raw[model.assignments == j], axis=0) for j in order.tolist()])
    labels = [_suggest_label(model.centroids[j]) for j in order.tolist()]
    return counts[order], medians, labels


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
