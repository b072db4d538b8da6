"""The data-access analyses as ``mrtrace.data_access`` ran them before they
read one file table: each call groups its side's digests on its own, with
``np.unique``, ``np.maximum.at`` and a three-key ``lexsort`` of every
touch. Kept unchanged, over a trace, as the oracle for the differential
tests of ``access_frequency_rank``, ``access_vs_size_curves``,
``eighty_x_rule`` and ``reaccess_intervals``."""

from __future__ import annotations

import numpy as np

from mrtrace.data_access import (
    EIGHTY_X_QUANTILE,
    EmpiricalCDF,
    RankedAccessTable,
    ReaccessStats,
)
from mrtrace.errors import NoData
from mrtrace.trace import Trace


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


def eighty_x_rule(trace: Trace, side: str, access_quantile: float = EIGHTY_X_QUANTILE) -> float:
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
