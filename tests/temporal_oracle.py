"""Per-bucket loops that ``mrtrace.temporal`` replaced with array code,
kept as oracles for the differential tests in ``test_temporal.py``.

zero_runs_per_bucket is ``temporal.zero_runs`` as it was before it worked
over the zero mask: one Python iteration per bucket.

occupancy_series_per_bucket is ``temporal.occupancy_series`` as it was
before it spread the jobs in chunks of array terms: one ``np.add.at`` of the
jobs inside one bucket, then one Python iteration per covered bucket of
every other job, in job order. Its arithmetic is NumPy's scalar arithmetic:
a bucket edge is an exact Python int, compared with and subtracted from a
float64 time after rounding to float64, except that a fully covered bucket's
overlap is the exact width.
"""

from __future__ import annotations

import sys

import numpy as np

from mrtrace.errors import InvalidBucketWidth, NoData
from mrtrace.temporal import HOUR_SECONDS, TimeSeries, _bucket_count
from mrtrace.trace import Trace


def zero_runs_per_bucket(series: TimeSeries, min_len: int = 24) -> list[tuple[int, int]]:
    runs = []
    run_start = None
    for i, v in enumerate(series.values):
        if v == 0:
            if run_start is None:
                run_start = i
        else:
            if run_start is not None and i - run_start >= min_len:
                runs.append((run_start, i - run_start))
            run_start = None
    if run_start is not None and len(series) - run_start >= min_len:
        runs.append((run_start, len(series) - run_start))
    return runs


def occupancy_series_per_bucket(trace: Trace, bucket_width: int = HOUR_SECONDS) -> TimeSeries:
    if bucket_width <= 0:
        raise InvalidBucketWidth(f"bucket_width must be positive, got {bucket_width}")
    if bucket_width > sys.float_info.max:
        raise InvalidBucketWidth("bucket_width does not fit a 64-bit float")
    cols = trace.columns
    total_ts = cols.map_task_seconds + cols.reduce_task_seconds
    mask = ~np.isnan(total_ts) & ~np.isnan(cols.duration)
    if not mask.any():
        raise NoData("occupancy needs duration and both task-second fields")

    submit = cols.submit_time[mask].astype(np.float64)
    duration = cols.duration[mask]
    ts = total_ts[mask]
    ends = submit + duration

    start = trace.span[0]
    cover_end = int(max(trace.span[1], ends.max()))
    n = _bucket_count(start, cover_end, bucket_width)
    acc = np.zeros(n)

    first = last = np.zeros(submit.size, np.int64)
    if n > 1:
        offsets = cols.submit_time[mask].view(np.uint64) - np.uint64(start % 2**64)
        first = np.minimum(offsets // np.uint64(bucket_width), n - 1).astype(np.int64)
        last = np.clip(((ends - start) // bucket_width).astype(np.int64), first, n - 1)

    single = (first == last) | (ends == submit)
    np.add.at(acc, first[single], ts[single])

    for i in np.nonzero(~single)[0]:
        a, b, w = submit[i], ends[i], ts[i]
        rate = w / (b - a)
        for bucket in range(first[i], last[i] + 1):
            lo = start + bucket * bucket_width
            hi = lo + bucket_width
            overlap = min(b, hi) - max(a, lo)
            if overlap > 0:
                acc[bucket] += rate * overlap

    return TimeSeries(bucket_width=bucket_width, start=start, values=acc / bucket_width,
                      dimension="occupancy_slots")
