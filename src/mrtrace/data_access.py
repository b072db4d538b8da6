"""Data access pattern analyses: per-job size distributions, file access
frequency ranking with power-law fit, access-vs-size curves, the 80-x
storage rule, and re-access temporal locality.

The per-file analyses read one `FileTable`, which `file_table` builds from
a single sort of every input and output path digest of a trace: per file
of each side, in rank order, the access counts and the largest sizes; and
the gap of every re-read from the touch of its file before it. Build it
once for all of them. It holds 24 bytes per file of a side, 32 where some
touch of the side lacks its byte count, but 16 where each file is touched
once and every touch carries bytes; and 8 per re-read. On the
1M-job benchmark input, where every job writes a file of its own, the
output side takes 16 MB and the re-read gaps 8 MB. The analyses read the
ranked arrays in place: none copies a column as long as the files.
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

    def fraction_at(self, value: float) -> float:
        """Cumulative fraction of samples with value <= the given value."""
        idx = np.searchsorted(self.values, value, side="right")
        return 0.0 if idx == 0 else float(self.fractions[idx - 1])


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
    """The files one side (input or output) touches, as read-only parallel
    arrays in rank order: by non-increasing count, ties by ascending
    digest. Each file has its digest, its access count, the count of its
    touches that carry bytes, and the largest bytes observed. Where each
    file is touched once, counts is one 1 broadcast to the files' length."""

    digests: np.ndarray  # uint64
    counts: np.ndarray  # int64 jobs touching the file, non-increasing
    sized_counts: np.ndarray  # int64 touches carrying a byte count; counts itself when all do
    max_sizes: np.ndarray  # float64 largest bytes observed, NaN = never

    def __post_init__(self):
        for value in vars(self).values():
            value.flags.writeable = False


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
    does not decrease and each file's touches are in job order: file_id and
    job per touch, the digest of each file id, and the side's bytes by job
    row. The caller passes the only reference to file_id and job, which go
    as soon as they are read. Where each file is touched once, as every
    job's own output file is, the sizes of the touches are the largest
    sizes."""
    m = file_id.size
    first = np.ones(m, dtype=bool)
    np.not_equal(file_id[1:], file_id[:-1], out=first[1:])
    start = None if first.all() else np.flatnonzero(first)  # each file's first touch
    del first
    side = {"digests": digests[file_id if start is None else file_id[start]]}
    del file_id
    sizes = sizes[job]
    del job
    has = ~np.isnan(sizes)
    if start is None:  # every count is 1: one value, broadcast, stands for the column
        side.update(counts=np.broadcast_to(np.int64(1), (m,)), max_sizes=sizes)
    else:
        side["counts"] = np.diff(start, append=m)
        side["max_sizes"] = np.fmax.reduceat(sizes, start)  # NaN where no touch has bytes
    if not has.all():  # else sized_counts is counts
        side["sized_counts"] = (has.astype(np.int64) if start is None
                                else np.add.reduceat(has, start, dtype=np.int64))
    del start, sizes, has
    # Files are in digest order; unless that is already the rank order,
    # rank them, a column at a time.
    counts = side["counts"]
    if np.any(counts[1:] > counts[:-1]):
        order = np.argsort(-counts, kind="stable")
        del counts
        for key, column in side.items():
            side[key] = column[order]
    side.setdefault("sized_counts", side["counts"])
    return FileSide(**side)


# Job rows and file ids fit 32 bits below this many touches (2**30 jobs),
# and take half the memory there.
_INT32_TOUCHES = 2**31


def _file_ordinals(new_file: np.ndarray, dtype) -> np.ndarray:
    """The file id of each touch: the count of new files up to it, less
    one. Counted in place: np.cumsum with a dtype casts all of its input
    first."""
    ids = new_file.astype(dtype)
    np.cumsum(ids, out=ids)
    ids -= 1
    return ids


def file_table(trace: Trace) -> FileTable:
    """The file table of a trace: one sort of every path digest. Each
    temporary as long as the touches is dropped once read: on inputs shaped
    like the benchmark's the build peaks at about 1.8 times what the table
    keeps (tests/test_memory_bounds.py)."""
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
    if present.all():
        digest.sort()  # the values of digest[touch], in place
    else:
        touch = touch[present[touch]]
        digest = digest[touch]
    del present
    new_file = np.ones(digest.size, dtype=bool)
    np.not_equal(digest[1:], digest[:-1], out=new_file[1:])
    digests = digest[new_file]
    del digest
    key = _file_ordinals(new_file, np.int64)
    key *= 2 * n
    key += touch
    del touch
    key.sort()
    index = np.int32 if 2 * n < _INT32_TOUCHES else np.int64
    np.remainder(key, 2 * n, out=key)
    is_write = np.bitwise_and(key, 1, out=np.empty(key.size, dtype=bool), casting="unsafe")
    job = np.right_shift(key, 1, out=key).astype(index)
    del key
    reads = ~is_write
    read_count = int(np.count_nonzero(reads))
    # A re-read is a read whose touch before is of the same file.
    reread = np.logical_not(new_file[1:])
    reread &= reads[1:]
    later, earlier = job[1:][reread], job[:-1][reread]
    del reread
    # Jobs are in submit order, so each gap is >= 0 and the uint64
    # difference is exact for any int64 submit times.
    t = cols.submit_time.view(np.uint64)
    gaps = t[later]
    del later
    gaps -= t[earlier]
    del earlier
    # The file ids are counted again for each side, so that no column of
    # them outlives its side. The output side, often a file per job, comes
    # last, once the input side and the gaps have dropped their temporaries.
    input_side = _file_side(_file_ordinals(new_file, index)[reads], job[reads],
                            digests, cols.input_bytes)
    del reads
    job = job[is_write]
    output_side = _file_side(_file_ordinals(new_file, index)[is_write], job,
                             digests, cols.output_bytes)
    return FileTable(input=input_side, output=output_side, reads=read_count, reread_gaps=gaps)


def data_size_cdf(trace: Trace, dimension: str) -> EmpiricalCDF:
    """CDF of per-job byte counts for input, shuffle, or output.

    Jobs missing the dimension are excluded; they can be counted by the
    caller as record_count - sample_count.
    """
    col = trace.columns.bytes_column(dimension)
    present = ~np.isnan(col)
    if not present.any():
        raise NoData(f"no record carries {dimension}_bytes")
    return EmpiricalCDF.from_samples(col if present.all() else col[present])


def access_frequency_rank(files: FileTable, side: str) -> np.ndarray:
    """The access counts of the files on the given side, in rank order:
    the table's own read-only int64 array, non-increasing.

    Each job counts as one access of its path. Ties in count are broken
    by digest value (FileSide.digests) so the ranking is deterministic.
    """
    s = files.side(side)
    if not s.digests.size:
        raise NoData(f"no record carries {side}_path_hash")
    return s.counts


def _log10_counts(counts: np.ndarray) -> np.ndarray:
    y = counts.astype(np.float64)
    return np.log10(y, out=y)


def _log10_ranks(n: int) -> np.ndarray:
    x = np.arange(1, n + 1, dtype=np.float64)
    return np.log10(x, out=x)


def fit_zipf(counts: np.ndarray) -> ZipfFit:
    """Least-squares line through (log10 rank, log10 count) over all ranked
    counts.

    It holds two arrays as long as the counts: the centered logs are made
    in place, and the residuals from the logs made again."""
    n = counts.size
    if n < 2:
        raise InsufficientData("need at least 2 ranked entries to fit")
    y = _log10_counts(counts)
    if np.all(y == y[0]):  # constant counts: the flat line is an exact fit
        return ZipfFit(slope=0.0, intercept=float(y[0]), r_squared=1.0, n_points=n)
    x = _log10_ranks(n)
    xm, ym = x.mean(), y.mean()
    x -= xm
    y -= ym
    sxx = float(x @ x)
    slope = float(x @ y) / sxx
    syy = float(y @ y)
    intercept = ym - slope * xm
    del x, y
    fitted = _log10_ranks(n)
    fitted *= slope
    fitted += intercept
    resid = np.subtract(_log10_counts(counts), fitted, out=fitted)
    ss_res = float(resid @ resid)
    r2 = 1.0 - ss_res / syy
    return ZipfFit(slope=abs(slope), intercept=intercept,
                   r_squared=min(max(r2, 0.0), 1.0), n_points=n)


def tail_trimmed(counts: np.ndarray, min_count: int = 2) -> np.ndarray:
    """The ranked counts without their low-count tail (default: drop count
    < 2). They do not increase, so that is the head they keep, as a view."""
    return counts[:np.count_nonzero(counts >= min_count)]


def _sized_files(files: FileTable, side: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The accesses that carry a byte count, per file that has any, each
    such file's size = max bytes observed for its digest, and its digest,
    in rank order. The table's own arrays when every touch carries bytes.
    Raises NoData when the files hold 0 bytes in total, since no fraction
    of stored bytes is defined then."""
    s = files.side(side)
    sized = s.sized_counts > 0
    if not sized.any():
        raise NoData(f"no record carries both {side}_path_hash and {side}_bytes")
    if sized.all():
        columns = s.sized_counts, s.max_sizes, s.digests
    else:
        columns = s.sized_counts[sized], s.max_sizes[sized], s.digests[sized]
    if not columns[1].any():
        raise NoData(f"every {side} file is 0 bytes")
    return columns


def access_vs_size_curves(files: FileTable, side: str) -> tuple[EmpiricalCDF, EmpiricalCDF]:
    """Fraction of jobs (and of stored bytes) in files up to each size.

    A file's size is the largest byte count ever observed for its digest.
    jobs_cdf weights each job by 1, so each file by its sized accesses,
    and counts jobs as its samples; bytes_cdf weights each distinct file
    by its size. Both come from one sort of the file sizes, and share one
    values array. The sort need not be stable: the order of equal sizes
    changes no sum, since the job counts are integers and the byte weights
    of equal sizes are equal. Each file-long temporary is dropped once
    read, and each sum accumulates in place.
    """
    jobs, sizes, _ = _sized_files(files, side)
    if jobs.min() < jobs.max():
        order = np.argsort(sizes)
        sizes, jobs = sizes[order], jobs[order]
        del order
    else:  # equal counts, as of files written once, sum alike in any order
        sizes = np.sort(sizes)
    new = np.ones(sizes.size, dtype=bool)
    np.not_equal(sizes[1:], sizes[:-1], out=new[1:])
    start = np.flatnonzero(new)  # the first file of each distinct size
    del new
    values = sizes[start]
    byte_cum = np.add.reduceat(sizes, start)
    file_count = sizes.size
    del sizes
    np.cumsum(byte_cum, out=byte_cum)
    byte_cum /= byte_cum[-1]
    job_cum = np.add.reduceat(jobs, start)
    del jobs, start
    np.cumsum(job_cum, out=job_cum)
    jobs_cdf = EmpiricalCDF(values=values, fractions=job_cum / job_cum[-1],
                            sample_count=int(job_cum[-1]))
    bytes_cdf = EmpiricalCDF(values=values, fractions=byte_cum, sample_count=file_count)
    return jobs_cdf, bytes_cdf


def eighty_x_rule(files: FileTable, side: str, access_quantile: float = EIGHTY_X_QUANTILE) -> float:
    """Percent of stored bytes needed to absorb the given access quantile.

    Files are taken in order of non-increasing access count (digest
    tie-break) until they cover access_quantile of all accesses; returns
    100 * (bytes of that prefix) / (total stored bytes).
    """
    if not 0.0 <= access_quantile <= 1.0:
        raise ValueError("access_quantile must be in [0, 1]")
    counts, sizes, digests = _sized_files(files, side)
    if counts is not files.side(side).counts:
        # Some touch lacks bytes: rank the files by their sized touches.
        order = np.lexsort((digests, -counts))
        counts, sizes = counts[order], sizes[order]
    needed = access_quantile * counts.sum()
    cum = np.cumsum(counts)
    # The counts are integers, so the first running count >= needed is the
    # first >= ceil(needed), an int that searchsorted compares with no
    # float copy of cum.
    k = int(np.searchsorted(cum, int(np.ceil(needed)), side="left")) + 1 if needed > 0 else 0
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
