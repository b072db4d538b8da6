"""Computation pattern analyses: job-name first-word breakdowns and
six-dimensional k-means job typing with elbow-based k selection.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import KTooLarge, NoData
from .trace import Trace

FEATURE_NAMES = (
    "input_bytes",
    "shuffle_bytes",
    "output_bytes",
    "duration",
    "map_task_seconds",
    "reduce_task_seconds",
)

UNNAMED = "<unnamed>"
_LETTERS = re.compile(r"[a-z]+")


@dataclass
class NameBreakdown:
    weighting: str  # jobs | io_bytes | task_time
    entries: list[tuple[str, float]]  # (first word, weight fraction), non-increasing
    other_fraction: float


@dataclass
class FeatureTransform:
    """log10(1+x) then z-score; parameters kept so rows can be inverted."""

    means: np.ndarray
    stds: np.ndarray  # 1.0 substituted for zero-variance dimensions
    zero_variance_dims: tuple[str, ...] = ()

    def apply(self, raw: np.ndarray) -> np.ndarray:
        return (np.log10(1.0 + raw) - self.means) / self.stds

    def invert(self, rows: np.ndarray) -> np.ndarray:
        return 10.0 ** (rows * self.stds + self.means) - 1.0


@dataclass
class JobFeatureMatrix:
    rows: np.ndarray  # n x 6, transformed
    raw: np.ndarray  # n x 6, original units
    transform: FeatureTransform
    excluded_count: int
    job_ids: np.ndarray

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
    stacked = np.stack(
        [getattr(cols, name) for name in FEATURE_NAMES],
        axis=1,
    )
    complete = ~np.isnan(stacked).any(axis=1)
    raw = stacked[complete]
    if raw.shape[0] == 0:
        raise NoData("no job carries all six clustering dimensions")

    logged = np.log10(1.0 + raw)
    means = logged.mean(axis=0)
    stds = logged.std(axis=0)
    zero_var = stds == 0.0
    stds_adj = np.where(zero_var, 1.0, stds)
    rows = (logged - means) / stds_adj

    transform = FeatureTransform(
        means=means,
        stds=stds_adj,
        zero_variance_dims=tuple(np.array(FEATURE_NAMES)[zero_var]),
    )
    job_ids = cols.job_id[complete]
    return JobFeatureMatrix(
        rows=rows,
        raw=raw,
        transform=transform,
        excluded_count=int((~complete).sum()),
        job_ids=job_ids,
    )


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
    """Reseed each empty cluster at the point currently farthest from its centroid."""
    counts = np.bincount(assign, minlength=centroids.shape[0])
    for j in np.nonzero(counts == 0)[0]:
        far = int(np.argmax(d2))
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
    for _ in range(100):
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


def summarize_clusters(trace: Trace, model: ClusterModel) -> ClusterSummary:
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
