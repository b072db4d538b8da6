"""Data access pattern analyses: per-job size distributions, file access
frequency ranking with power-law fit, access-vs-size curves, the 80-x
storage rule, and re-access temporal locality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InsufficientData, NoData
from .trace import Trace


@dataclass
class EmpiricalCDF:
    """Step CDF over distinct sample values.

    values/fractions are parallel arrays; fractions are cumulative and end
    at exactly 1.0 for a non-empty sample.
    """

    values: np.ndarray
    fractions: np.ndarray
    sample_count: int

    @property
    def points(self) -> list[tuple[float, float]]:
        return list(zip(self.values.tolist(), self.fractions.tolist()))

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "EmpiricalCDF":
        samples = np.asarray(samples, dtype=np.float64)
        vals, counts = np.unique(samples, return_counts=True)
        cum = np.cumsum(counts)
        fractions = cum / cum[-1]
        return cls(values=vals, fractions=fractions, sample_count=int(samples.size))

    @classmethod
    def from_weighted(cls, values: np.ndarray, weights: np.ndarray) -> "EmpiricalCDF":
        values = np.asarray(values, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        order = np.argsort(values, kind="stable")
        values, weights = values[order], weights[order]
        vals, start = np.unique(values, return_index=True)
        sums = np.add.reduceat(weights, start)
        cum = np.cumsum(sums)
        fractions = cum / cum[-1]
        return cls(values=vals, fractions=fractions, sample_count=int(values.size))

    def fraction_at(self, value: float) -> float:
        """Cumulative fraction of samples with value <= the given value."""
        idx = np.searchsorted(self.values, value, side="right")
        return 0.0 if idx == 0 else float(self.fractions[idx - 1])


@dataclass
class RankedAccessTable:
    """Files on one side (input or output) ranked by access count.

    digests/counts/sizes are parallel arrays ordered by non-increasing
    count with digest tie-break; sizes are last observed bytes (NaN when
    never observed).
    """

    digests: np.ndarray  # uint64
    counts: np.ndarray  # int64
    sizes: np.ndarray  # float64, NaN = size never observed
    side: str

    @property
    def entries(self) -> list[tuple[int, int, Optional[int]]]:
        out = []
        for d, c, s in zip(self.digests.tolist(), self.counts.tolist(), self.sizes.tolist()):
            out.append((d, c, None if np.isnan(s) else int(s)))
        return out

    def __len__(self) -> int:
        return int(self.counts.size)


@dataclass
class ZipfFit:
    slope: float  # magnitude of the log-log slope
    intercept: float
    r_squared: float
    n_points: int


@dataclass
class ReaccessStats:
    interval_cdf: EmpiricalCDF
    reaccess_job_fraction: float


def data_size_cdf(trace: Trace, dimension: str) -> EmpiricalCDF:
    """CDF of per-job byte counts for input, shuffle, or output.

    Jobs missing the dimension are excluded; they can be counted by the
    caller as record_count - sample_count.
    """
    col = trace.columns.bytes_column(dimension)
    vals = col[~np.isnan(col)]
    if vals.size == 0:
        raise NoData(f"no record carries {dimension}_bytes")
    return EmpiricalCDF.from_samples(vals)


def access_frequency_rank(trace: Trace, side: str) -> RankedAccessTable:
    """Rank files by how many jobs touch them on the given side.

    Each job counts as one access of its path. Ties in count are broken
    by digest value so the ranking is deterministic.
    """
    cols = trace.columns
    hashes, present = cols.hash_column(side)
    if not present.any():
        raise NoData(f"no record carries {side}_path_hash")
    sizes = cols.bytes_column(side)[present]
    hashes = hashes[present]

    digests, inverse, counts = np.unique(hashes, return_inverse=True, return_counts=True)

    # Last observed size per digest: records are in submit order, so scan
    # reversed and keep the first (= most recent) sized occurrence.
    last_size = np.full(digests.size, np.nan)
    has_size = ~np.isnan(sizes)
    if has_size.any():
        groups_rev = inverse[has_size][::-1]
        sizes_rev = sizes[has_size][::-1]
        uniq, first_pos = np.unique(groups_rev, return_index=True)
        last_size[uniq] = sizes_rev[first_pos]

    order = np.lexsort((digests, -counts))
    return RankedAccessTable(
        digests=digests[order],
        counts=counts[order].astype(np.int64),
        sizes=last_size[order],
        side=side,
    )


def fit_zipf(table: RankedAccessTable) -> ZipfFit:
    """Least-squares line through (log10 rank, log10 count) over all entries."""
    n = len(table)
    if n < 2:
        raise InsufficientData("need at least 2 ranked entries to fit")
    x = np.log10(np.arange(1, n + 1, dtype=np.float64))
    y = np.log10(table.counts.astype(np.float64))
    if np.all(y == y[0]):  # constant counts: the flat line is an exact fit
        return ZipfFit(slope=0.0, intercept=float(y[0]), r_squared=1.0, n_points=n)
    xm, ym = x.mean(), y.mean()
    dx, dy = x - xm, y - ym
    sxx = float(dx @ dx)
    slope = float(dx @ dy) / sxx
    intercept = ym - slope * xm
    resid = y - (slope * x + intercept)
    ss_res = float(resid @ resid)
    r2 = 1.0 - ss_res / float(dy @ dy)
    return ZipfFit(slope=abs(slope), intercept=intercept,
                   r_squared=min(max(r2, 0.0), 1.0), n_points=n)


def tail_trimmed(table: RankedAccessTable, min_count: int = 2) -> RankedAccessTable:
    """Copy of the table without the low-count tail (default: drop count < 2)."""
    keep = table.counts >= min_count
    return RankedAccessTable(
        digests=table.digests[keep],
        counts=table.counts[keep],
        sizes=table.sizes[keep],
        side=table.side,
    )


def _file_sizes(trace: Trace, side: str):
    """Distinct digests with file size = max bytes observed for the digest.

    Only jobs carrying both the path hash and the byte count participate;
    returns (digests, max_sizes, per_job_group_index, n_jobs). Raises
    NoData when the files hold 0 bytes in total, since no fraction of
    stored bytes is defined then.
    """
    cols = trace.columns
    hashes, present = cols.hash_column(side)
    sizes = cols.bytes_column(side)
    mask = present & ~np.isnan(sizes)
    if not mask.any():
        raise NoData(f"no record carries both {side}_path_hash and {side}_bytes")
    hashes, sizes = hashes[mask], sizes[mask]
    digests, inverse = np.unique(hashes, return_inverse=True)
    max_size = np.zeros(digests.size)
    np.maximum.at(max_size, inverse, sizes)
    if not max_size.any():
        raise NoData(f"every {side} file is 0 bytes")
    return digests, max_size, inverse, int(hashes.size)


def access_vs_size_curves(trace: Trace, side: str) -> tuple[EmpiricalCDF, EmpiricalCDF]:
    """Fraction of jobs (and of stored bytes) in files up to each size.

    A file's size is the largest byte count ever observed for its digest.
    jobs_cdf weights each job by 1; bytes_cdf weights each distinct file
    by its size.
    """
    digests, max_size, inverse, _ = _file_sizes(trace, side)
    jobs_cdf = EmpiricalCDF.from_samples(max_size[inverse])
    bytes_cdf = EmpiricalCDF.from_weighted(max_size, max_size)
    return jobs_cdf, bytes_cdf


def eighty_x_rule(trace: Trace, side: str, access_quantile: float = 0.80) -> float:
    """Percent of stored bytes needed to absorb the given access quantile.

    Files are taken in order of non-increasing access count (digest
    tie-break) until they cover access_quantile of all accesses; returns
    100 * (bytes of that prefix) / (total stored bytes).
    """
    if not 0.0 <= access_quantile <= 1.0:
        raise ValueError("access_quantile must be in [0, 1]")
    digests, max_size, inverse, n_jobs = _file_sizes(trace, side)
    counts = np.bincount(inverse, minlength=digests.size)

    order = np.lexsort((digests, -counts))
    counts, sizes = counts[order], max_size[order]
    needed = access_quantile * counts.sum()
    cum = np.cumsum(counts)
    k = int(np.searchsorted(cum, needed, side="left")) + 1 if needed > 0 else 0
    prefix_bytes = float(sizes[:k].sum())
    total_bytes = float(sizes.sum())
    return 100.0 * prefix_bytes / total_bytes


def reaccess_intervals(trace: Trace) -> ReaccessStats:
    """Temporal locality of file accesses.

    For each path, records the submit-time gap from any touch (input read
    or output write) to the next input read of the same path. The job
    fraction counts jobs whose input path appeared earlier in the trace
    as any input or output.
    """
    cols = trace.columns
    if not cols.input_hash_present.any():
        raise NoData("no record carries input_path_hash")

    # Every touch as (digest, job, write after read): sorted, the entry
    # before a read of the same digest is the latest earlier touch of it.
    readers = np.flatnonzero(cols.input_hash_present)
    writers = np.flatnonzero(cols.output_hash_present)
    job = np.concatenate([readers, writers])
    is_write = np.arange(job.size) >= readers.size
    digest = np.concatenate([cols.input_path_hash[readers], cols.output_path_hash[writers]])
    order = np.lexsort((is_write, job, digest))
    job, digest, is_write = job[order], digest[order], is_write[order]
    reread = ~is_write[1:] & (digest[1:] == digest[:-1])
    # Jobs are in submit order, so each gap is >= 0 and the uint64
    # difference is exact for any int64 submit times.
    t = cols.submit_time.view(np.uint64)
    gaps = t[job[1:][reread]] - t[job[:-1][reread]]

    if gaps.size:
        cdf = EmpiricalCDF.from_samples(gaps)
    else:
        cdf = EmpiricalCDF(values=np.empty(0), fractions=np.empty(0), sample_count=0)
    return ReaccessStats(
        interval_cdf=cdf,
        reaccess_job_fraction=int(reread.sum()) / readers.size,
    )
