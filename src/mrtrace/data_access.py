"""Data access pattern analyses: per-job size distributions, file access
frequency ranking with power-law fit, access-vs-size curves, the 80-x
storage rule, and re-access temporal locality.

The per-file analyses read one `FileTable`, which `file_table` builds from
a single sort of every input and output path digest of a trace: per file
of each side, in digest order, the access counts and the last and largest
sizes; and the gap of every re-read from the touch of its file before it.
Build it once for all of them; it holds up to 40 bytes per file of a side
and 8 per re-read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData, NoData
from .trace import Trace

# Share of accesses the 80-x rule asks the stored bytes to absorb.
EIGHTY_X_QUANTILE = 0.80


@dataclass
class EmpiricalCDF:
    """Step CDF over distinct sample values.

    values/fractions are parallel arrays; fractions are cumulative and end
    at exactly 1.0 for a non-empty sample.
    """

    values: np.ndarray
    fractions: np.ndarray
    sample_count: int

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

    @classmethod
    def _from_sorted(cls, values: np.ndarray, weights: np.ndarray, sample_count: int) -> "EmpiricalCDF":
        """The step CDF of ascending values, none of them NaN, with their
        weights, summed in that order."""
        new = np.ones(values.size, dtype=bool)
        np.not_equal(values[1:], values[:-1], out=new[1:])
        start = np.flatnonzero(new)
        cum = np.cumsum(np.add.reduceat(weights, start))
        return cls(values=values[start], fractions=cum / cum[-1], sample_count=sample_count)

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


@dataclass
class FileSide:
    """The files one side (input or output) touches, in digest order, as
    parallel arrays."""

    digests: np.ndarray  # uint64, ascending
    counts: np.ndarray  # int64 jobs touching the file
    last_sizes: np.ndarray  # float64 bytes of the latest touch carrying them, NaN = never
    sized_counts: np.ndarray  # int64 touches carrying a byte count
    max_sizes: np.ndarray  # float64 largest bytes observed, NaN = never


@dataclass
class FileTable:
    """Every path touch of a trace, input reads and output writes, grouped
    once for all the data-access analyses: each side's files, and the
    re-reads.

    A re-read is a read of a file touched before. Sorted by digest, then
    job, a job's read before its write, every touch follows the latest
    earlier touch of its file, so one pass finds every re-read's gap.
    """

    input: FileSide
    output: FileSide
    reads: int  # input touches: jobs carrying an input path
    reread_gaps: np.ndarray  # uint64 submit-time gap of each re-read from the touch before

    def side(self, side: str) -> FileSide:
        if side not in ("input", "output"):
            raise ValueError(f"side must be 'input' or 'output', got {side!r}")
        return getattr(self, side)


def _file_side(file_id: np.ndarray, job: np.ndarray, digests: np.ndarray,
               sizes: np.ndarray) -> FileSide:
    """One side's files from its touches in table order, in which file_id
    does not decrease: file_id and job per touch, the digest of each file
    id, and the side's bytes by job row."""
    first = np.ones(file_id.size, dtype=bool)
    np.not_equal(file_id[1:], file_id[:-1], out=first[1:])
    digests = digests[file_id[first]]
    del file_id
    side_id = np.cumsum(first, dtype=job.dtype)  # the side's files, numbered from 1
    side_id -= 1
    n = digests.size
    counts = np.bincount(side_id, minlength=n)
    sizes = sizes[job]
    del job
    has = ~np.isnan(sizes)
    if has.all():
        sized_counts = counts  # every touch carries bytes
    else:
        side_id, sizes = side_id[has], sizes[has]
        sized_counts = np.bincount(side_id, minlength=n)
    max_sizes = np.zeros(n)
    np.maximum.at(max_sizes, side_id, sizes)  # byte counts are never negative
    max_sizes[sized_counts == 0] = np.nan
    # The last of each file's sized touches, which are in job order.
    last = first[:side_id.size]
    last[-1:] = True
    np.not_equal(side_id[1:], side_id[:-1], out=last[:-1])
    last_sizes = np.full(n, np.nan)
    last_sizes[side_id[last]] = sizes[last]
    return FileSide(digests=digests, counts=counts, last_sizes=last_sizes,
                    sized_counts=sized_counts, max_sizes=max_sizes)


# Job rows and file ids fit 32 bits below this many touches (2**30 jobs),
# and take half the memory there.
_INT32_TOUCHES = 2**31


def file_table(trace: Trace) -> FileTable:
    """The file table of a trace: one sort of every path digest."""
    cols = trace.columns
    n = len(cols)
    # Touch 2j is job j's read and 2j + 1 its write; the slot of a path a
    # job lacks is dropped after the sort.
    present = np.empty(2 * n, dtype=bool)
    present[0::2] = cols.input_hash_present
    present[1::2] = cols.output_hash_present
    digest = np.empty(2 * n, dtype=np.uint64)
    digest[0::2] = cols.input_path_hash
    digest[1::2] = cols.output_path_hash
    # A stable sort by digest, made of an unstable sort by digest and one
    # of (file id, touch) keys, which are distinct. On the 2M touches of a
    # 1M-job trace the two take half the time of one stable argsort.
    touch = np.argsort(digest)
    touch = touch[present[touch]]
    del present
    digest = digest[touch]
    new_file = np.ones(digest.size, dtype=bool)
    np.not_equal(digest[1:], digest[:-1], out=new_file[1:])
    digests = digest[new_file]
    del digest
    key = np.cumsum(new_file, dtype=np.int64)
    key -= 1
    key *= 2 * n
    key += touch
    del touch
    key.sort()
    index = np.int32 if 2 * n < _INT32_TOUCHES else np.int64
    file_id = np.cumsum(new_file, dtype=index)
    file_id -= 1
    np.remainder(key, 2 * n, out=key)
    is_write = np.bitwise_and(key, 1, out=np.empty(key.size, dtype=bool), casting="unsafe")
    job = np.right_shift(key, 1, out=key).astype(index)
    del key
    reads = ~is_write
    input_side = _file_side(file_id[reads], job[reads], digests, cols.input_bytes)
    output_side = _file_side(file_id[is_write], job[is_write], digests, cols.output_bytes)
    reread = reads[1:] & ~new_file[1:]
    # Jobs are in submit order, so each gap is >= 0 and the uint64
    # difference is exact for any int64 submit times.
    t = cols.submit_time.view(np.uint64)
    return FileTable(input=input_side, output=output_side, reads=int(np.count_nonzero(reads)),
                     reread_gaps=t[job[1:][reread]] - t[job[:-1][reread]])


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


def access_frequency_rank(files: FileTable, side: str) -> RankedAccessTable:
    """Rank files by how many jobs touch them on the given side.

    Each job counts as one access of its path. Ties in count are broken
    by digest value so the ranking is deterministic.
    """
    s = files.side(side)
    if not s.digests.size:
        raise NoData(f"no record carries {side}_path_hash")
    order = np.argsort(-s.counts, kind="stable")  # the files are in digest order
    return RankedAccessTable(
        digests=s.digests[order],
        counts=s.counts[order],
        sizes=s.last_sizes[order],
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


def _sized_files(files: FileTable, side: str) -> tuple[np.ndarray, np.ndarray]:
    """The accesses that carry a byte count, per file that has any, and each
    such file's size = max bytes observed for its digest, in digest order.
    Raises NoData when the files hold 0 bytes in total, since no fraction
    of stored bytes is defined then."""
    s = files.side(side)
    sized = s.sized_counts > 0
    if not sized.any():
        raise NoData(f"no record carries both {side}_path_hash and {side}_bytes")
    max_sizes = s.max_sizes[sized]
    if not max_sizes.any():
        raise NoData(f"every {side} file is 0 bytes")
    return s.sized_counts[sized], max_sizes


def access_vs_size_curves(files: FileTable, side: str) -> tuple[EmpiricalCDF, EmpiricalCDF]:
    """Fraction of jobs (and of stored bytes) in files up to each size.

    A file's size is the largest byte count ever observed for its digest.
    jobs_cdf weights each job by 1, so each file by its sized accesses,
    and counts jobs as its samples; bytes_cdf weights each distinct file
    by its size. Both come from one sort of the file sizes. It need not be
    stable: the order of equal sizes changes no sum, since the job counts
    are integers and the byte weights of equal sizes are equal.
    """
    jobs, sizes = _sized_files(files, side)
    order = np.argsort(sizes)
    sizes = sizes[order]
    jobs_cdf = EmpiricalCDF._from_sorted(sizes, jobs[order], int(jobs.sum()))
    bytes_cdf = EmpiricalCDF._from_sorted(sizes, sizes, int(sizes.size))
    return jobs_cdf, bytes_cdf


def eighty_x_rule(files: FileTable, side: str, access_quantile: float = EIGHTY_X_QUANTILE) -> float:
    """Percent of stored bytes needed to absorb the given access quantile.

    Files are taken in order of non-increasing access count (digest
    tie-break) until they cover access_quantile of all accesses; returns
    100 * (bytes of that prefix) / (total stored bytes).
    """
    if not 0.0 <= access_quantile <= 1.0:
        raise ValueError("access_quantile must be in [0, 1]")
    counts, sizes = _sized_files(files, side)
    order = np.argsort(-counts, kind="stable")
    counts, sizes = counts[order], sizes[order]
    needed = access_quantile * counts.sum()
    cum = np.cumsum(counts)
    k = int(np.searchsorted(cum, needed, side="left")) + 1 if needed > 0 else 0
    prefix_bytes = float(sizes[:k].sum())
    total_bytes = float(sizes.sum())
    return 100.0 * prefix_bytes / total_bytes


def reaccess_intervals(files: FileTable) -> ReaccessStats:
    """Temporal locality of file accesses.

    For each path, records the submit-time gap from any touch (input read
    or output write) to the next input read of the same path. The job
    fraction counts jobs whose input path appeared earlier in the trace
    as any input or output.
    """
    if not files.reads:
        raise NoData("no record carries input_path_hash")
    gaps = files.reread_gaps
    if gaps.size:
        cdf = EmpiricalCDF.from_samples(gaps)
    else:
        cdf = EmpiricalCDF(values=np.empty(0), fractions=np.empty(0), sample_count=0)
    return ReaccessStats(
        interval_cdf=cdf,
        reaccess_job_fraction=gaps.size / files.reads,
    )
