"""Workload variation over time: hourly series, burstiness, correlations,
and Fourier-based diurnal detection.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    InvalidBucketWidth,
    MedianZero,
    NoData,
    SumOverflow,
    TooManyBuckets,
    TooShort,
    ZeroVariance,
)
from .trace import Trace

# The dimensions bucket_time_series sums, and all that dimension_series builds.
SUM_DIMENSIONS = ("jobs_submitted", "data_size_bytes", "compute_time_task_seconds")
DIMENSIONS = SUM_DIMENSIONS + ("occupancy_slots",)
PERIODOGRAM_TOP_K = 5

DAY_SECONDS = 86400
HOUR_SECONDS = 3600
# Most buckets one series may have. At this cap analyze peaked at 230 MB on
# a 3000-job trace, most of it periodogram's FFT of a 996,421-bucket series,
# a length with a large prime factor (17 x 58,613).
MAX_BUCKETS = 1_000_000


@dataclass
class TimeSeries:
    bucket_width: int
    start: int
    values: np.ndarray
    dimension: str

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass
class BurstinessCurve:
    """Percentile-to-median ratios, read as a normalized rate CDF."""

    ratios: np.ndarray  # float64, one per percentile
    percentiles: np.ndarray  # the percentile grid
    median: float


@dataclass
class CorrelationMatrix:
    r_jobs_data: float
    r_jobs_compute: float
    r_data_compute: float
    n_buckets: int


@dataclass
class SpectralPeaks:
    periods: np.ndarray  # float64 seconds, the strongest component first
    fractions: np.ndarray  # of the non-DC power, one per period
    diurnal: bool


def _bucket_count(start: int, end: int, width: int) -> int:
    # Half-open buckets [start+i*w, start+(i+1)*w); one extra bucket when the
    # span is an exact multiple so a job at t=end still has a home. Python
    # ints, so a span up to the int64 limits cannot overflow here.
    n = (end - start) // width + 1
    if n > MAX_BUCKETS:
        raise TooManyBuckets(
            f"a span of {end - start} s at bucket width {width} s needs {n} buckets, "
            f"more than {MAX_BUCKETS}"
        )
    return n


def _bucket_sums(idx: np.ndarray, total: np.ndarray, n: int, missing: str) -> np.ndarray:
    """The sums of total by bucket, leaving out its NaNs; NoData(missing)
    when every value is NaN. The columns are gathered only when some is."""
    mask = ~np.isnan(total)
    if not mask.any():
        raise NoData(missing)
    if not mask.all():
        idx, total = idx[mask], total[mask]
    return np.bincount(idx, weights=total, minlength=n)


def _require_finite_sum(values: np.ndarray, dimension: str) -> None:
    """SumOverflow unless the sum of a series' values, and so each value,
    is finite. A series mean, as of a correlation, is then finite too."""
    with np.errstate(over="ignore"):
        total = values.sum()
    if not np.isfinite(total):
        raise SumOverflow(f"{dimension}: the jobs' task-seconds sum past the largest 64-bit float")


def bucket_time_series(trace: Trace, dimension: str, bucket_width: int = HOUR_SECONDS) -> TimeSeries:
    """Per-bucket sums of one workload dimension, keyed by submit time.

    data_size_bytes is input+shuffle+output and compute_time_task_seconds
    is map+reduce task-seconds; jobs missing any component are excluded
    from that dimension rather than zero-filled.
    """
    if bucket_width <= 0:
        raise InvalidBucketWidth(f"bucket_width must be positive, got {bucket_width}")
    cols = trace.columns
    start, end = trace.span
    n = _bucket_count(start, end, bucket_width)
    # Offsets in uint64 hold a span past int64. A width past the span, which
    # may not fit either, gives one bucket. The bucket numbers, below n,
    # are divided in place and read as int64.
    idx = cols.submit_time.view(np.uint64) - np.uint64(start % 2**64)
    if n > 1:
        idx //= np.uint64(bucket_width)
    else:
        idx[:] = 0
    idx = idx.view(np.int64)

    if dimension == "jobs_submitted":
        values = np.bincount(idx, minlength=n).astype(np.float64)
    elif dimension == "data_size_bytes":
        total = cols.input_bytes + cols.shuffle_bytes + cols.output_bytes
        values = _bucket_sums(idx, total, n, "no record carries all of input/shuffle/output bytes")
    elif dimension == "compute_time_task_seconds":
        with np.errstate(over="ignore"):  # inf, refused by _require_finite_sum
            total = cols.map_task_seconds + cols.reduce_task_seconds
        values = _bucket_sums(idx, total, n, "no record carries both map and reduce task-seconds")
        _require_finite_sum(values, dimension)
    else:
        raise ValueError(f"unknown dimension {dimension!r}")
    return TimeSeries(bucket_width=bucket_width, start=start, values=values, dimension=dimension)


# Jobs per chunk of occupancy_series, and spread terms per block of its
# second pass: each temporary stays near half a megabyte.
_OCCUPANCY_CHUNK = 65536


def _occupancy_jobs(trace: Trace, bucket_width: int, n: int):
    """The jobs occupancy_series spreads, in job order, _OCCUPANCY_CHUNK
    rows at a time: each chunk's float submit and end times, task-seconds,
    and first and last buckets. With n = 0 the buckets are left out."""
    cols = trace.columns
    start = trace.span[0]
    for lo in range(0, len(cols), _OCCUPANCY_CHUNK):
        rows = slice(lo, lo + _OCCUPANCY_CHUNK)
        with np.errstate(over="ignore"):  # inf, refused by occupancy_series
            ts = cols.map_task_seconds[rows] + cols.reduce_task_seconds[rows]
        duration = cols.duration[rows]
        keep = ~np.isnan(ts) & ~np.isnan(duration)
        submit = cols.submit_time[rows][keep]
        a = submit.astype(np.float64)
        b = a + duration[keep]
        # A job's first bucket comes from its exact submit offset, as in
        # bucket_time_series; past 2**53 its float submit time may round
        # into the next bucket. Both ends are clamped to the buckets there
        # are.
        first = last = np.zeros(a.size, np.int64)
        if n > 1:
            offsets = submit.view(np.uint64) - np.uint64(start % 2**64)
            first = np.minimum(offsets // np.uint64(bucket_width), n - 1).astype(np.int64)
            last = np.clip(((b - start) // bucket_width).astype(np.int64), first, n - 1)
        yield a, b, ts[keep], first, last


def _edges(bucket: np.ndarray, start: int, bucket_width: int, wide: bool) -> np.ndarray:
    """start + bucket * bucket_width, exact, then rounded once to float64:
    in int64, or past its range (wide) in Python ints."""
    if wide:
        return (bucket.astype(object) * bucket_width + start).astype(np.float64)
    edge = bucket * bucket_width
    edge += start
    return edge.astype(np.float64)


def occupancy_series(trace: Trace, bucket_width: int = HOUR_SECONDS) -> TimeSeries:
    """Approximate average active slots per bucket.

    Each job's map+reduce task-seconds are spread uniformly over
    [submit, submit+duration]; per-task start/stop times are not in the
    per-job schema, so this is an approximation. Raises InvalidBucketWidth
    for a width that does not fit a float64.

    The jobs are read in chunks, twice. The first pass adds the jobs that
    fall in one bucket, the second the share of each bucket a longer job
    covers, as terms in job order and then bucket order, each overlap with
    NumPy's float64 arithmetic on exact integer bucket edges, the width for
    a covered bucket. So the sums are those of one loop over the buckets of
    each job, which tests/temporal_oracle.py keeps.
    """
    if bucket_width <= 0:
        raise InvalidBucketWidth(f"bucket_width must be positive, got {bucket_width}")
    if bucket_width > sys.float_info.max:  # the averages divide by it
        raise InvalidBucketWidth("bucket_width does not fit a 64-bit float")
    ends = [b.max() for _, b, *_ in _occupancy_jobs(trace, bucket_width, 0) if b.size]
    if not ends:
        raise NoData("occupancy needs duration and both task-second fields")

    start = trace.span[0]
    cover_end = int(max(trace.span[1], max(ends)))
    n = _bucket_count(start, cover_end, bucket_width)
    acc = np.zeros(n)

    # Sums past the float range give inf, which _require_finite_sum refuses.
    with np.errstate(over="ignore"):
        # Zero-duration jobs land here as a point mass, as do jobs whose float
        # end rounds back to their submit time.
        for a, b, w, first, last in _occupancy_jobs(trace, bucket_width, n):
            single = (first == last) | (b == a)
            np.add.at(acc, first[single], w[single])

        wide = not (n * bucket_width < 2**63 and start + n * bucket_width < 2**63)
        width = float(bucket_width)
        for a, b, w, first, last in _occupancy_jobs(trace, bucket_width, n):
            spread = (first != last) & (b != a)
            a, b, first = a[spread], b[spread], first[spread]
            rate = w[spread] / (b - a)
            count = last[spread] - first + 1
            done = np.cumsum(count)  # the terms through each job
            for t0 in range(0, int(done[-1]) if done.size else 0, _OCCUPANCY_CHUNK):
                term = np.arange(t0, min(t0 + _OCCUPANCY_CHUNK, int(done[-1])))
                job = np.searchsorted(done, term, side="right")
                bucket = first[job] + term - (done[job] - count[job])
                del term
                lo = _edges(bucket, start, bucket_width, wide)
                hi = _edges(bucket + 1, start, bucket_width, wide)
                aj, bj = a[job], b[job]
                # min(b, hi) is hi where b > hi, and max(a, lo) is lo where
                # a < lo: then both are ints, and their difference the width.
                full = (bj > hi) & (aj < lo)
                overlap = np.minimum(bj, hi, out=hi)
                overlap -= np.maximum(aj, lo, out=lo)
                overlap[full] = width
                keep = overlap > 0
                np.add.at(acc, bucket[keep], rate[job][keep] * overlap[keep])

    _require_finite_sum(acc, "occupancy_slots")
    return TimeSeries(
        bucket_width=bucket_width,
        start=start,
        values=acc / bucket_width,
        dimension="occupancy_slots",
    )


def dimension_series(trace: Trace, dimension: str, bucket_width: int = HOUR_SECONDS) -> TimeSeries:
    """The series of one of DIMENSIONS: occupancy_series for
    occupancy_slots, bucket_time_series for the others."""
    if dimension == "occupancy_slots":
        return occupancy_series(trace, bucket_width)
    return bucket_time_series(trace, dimension, bucket_width)


def burstiness_curve(series: TimeSeries, percentile_grid: Optional[Sequence[int]] = None) -> BurstinessCurve:
    """Percentile-to-median ratio for each percentile in the grid, by linear
    interpolation between order statistics (the inclusive scheme)."""
    grid = list(percentile_grid) if percentile_grid is not None else list(range(1, 101))
    values = series.values
    median = float(np.percentile(values, 50, method="linear"))
    if median == 0.0:
        raise MedianZero("series median is zero; use a coarser bucket width")
    with np.errstate(over="ignore"):
        ratios = np.percentile(values, grid, method="linear") / median
    if np.isinf(ratios).any():
        raise MedianZero(f"series median {median!r} is so small that a ratio to it does not fit "
                         f"a 64-bit float; use a coarser bucket width")
    return BurstinessCurve(ratios=ratios, percentiles=np.asarray(grid), median=median)


def peak_to_median(series: TimeSeries, percentile: int = 100) -> float:
    """Single percentile-to-median ratio (the peak at the default 100)."""
    curve = burstiness_curve(series, [percentile])
    return float(curve.ratios[0])


def sine_reference(kind: str, buckets: int) -> TimeSeries:
    """Hourly sinusoid used as a burstiness yardstick.

    range_equals_mean is sin(2*pi*t/24)+2 (min-max range == mean);
    range_equals_tenth_of_mean is sin(2*pi*t/24)+20.
    """
    offsets = {"range_equals_mean": 2.0, "range_equals_tenth_of_mean": 20.0}
    if kind not in offsets:
        raise ValueError(f"unknown sine reference kind {kind!r}")
    if buckets < 24:
        raise ValueError("need at least one full 24-bucket period")
    t = np.arange(buckets)
    values = np.sin(2.0 * np.pi * t / 24.0) + offsets[kind]
    return TimeSeries(bucket_width=HOUR_SECONDS, start=0, values=values, dimension=f"sine_reference_{kind}")


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    dx = x - x.mean()
    dy = y - y.mean()
    with np.errstate(over="ignore"):
        sxx, syy = float(dx @ dx), float(dy @ dy)
    tiny = sys.float_info.min
    if not (sxx >= tiny and syy >= tiny and tiny <= sxx * syy < math.inf):
        # Deviations so small or large that these products leave the normal
        # floats, to round to 0, lose digits or overflow: r is that of the
        # deviations over their largest magnitudes, whose squares sum to
        # between 1 and the length.
        dx /= np.abs(dx).max()
        dy /= np.abs(dy).max()
        sxx, syy = float(dx @ dx), float(dy @ dy)
    den = math.sqrt(sxx * syy)
    r = float(dx @ dy) / den
    return min(1.0, max(-1.0, r))


def series_correlations(jobs: TimeSeries, data: TimeSeries, compute: TimeSeries) -> CorrelationMatrix:
    """Pearson correlation between built jobs, bytes, and task-time series
    of one bucketing."""
    for s in (jobs, data, compute):
        if np.ptp(s.values) == 0:
            raise ZeroVariance(f"{s.dimension} series is constant")
    return CorrelationMatrix(
        r_jobs_data=_pearson(jobs.values, data.values),
        r_jobs_compute=_pearson(jobs.values, compute.values),
        r_data_compute=_pearson(data.values, compute.values),
        n_buckets=len(jobs),
    )


def _one_sided_power(x: np.ndarray) -> tuple[np.ndarray, float]:
    """The power of each rfft bin of x but the DC bin, which is 0, and its
    sum; inf where it overflows."""
    with np.errstate(over="ignore"):
        power = np.abs(np.fft.rfft(x)) ** 2
        # One-sided correction: interior bins stand for conjugate pairs.
        power[1 : (x.size + 1) // 2] *= 2.0
        power[0] = 0.0
        return power, power.sum()


def periodogram(series: TimeSeries, top_k: int = PERIODOGRAM_TOP_K) -> SpectralPeaks:
    """Strongest periodic components of the mean-removed series.

    diurnal is set when a component within one bucket of 24 hours carries
    at least 5% of the non-DC power.
    """
    n = len(series)
    if n < 48:
        raise TooShort(f"need >= 48 buckets for spectral analysis, got {n}")
    x = series.values - series.values.mean()
    power, total = _one_sided_power(x)
    if not sys.float_info.min <= total < math.inf and x.any():
        # Deviations so small or large that their power leaves the normal
        # floats: the fractions are those of the deviations over their
        # largest magnitude.
        power, total = _one_sided_power(x / np.abs(x).max())
    if total <= 0.0:
        return SpectralPeaks(periods=np.empty(0), fractions=np.empty(0), diurnal=False)

    k = np.arange(1, power.size)
    periods = n * series.bucket_width / k
    fractions = power[1:] / total
    order = np.argsort(-fractions, kind="stable")[:top_k]

    diurnal = any(
        abs(period - DAY_SECONDS) <= series.bucket_width and frac >= 0.05
        for period, frac in zip(periods, fractions)
    )
    return SpectralPeaks(periods=periods[order], fractions=fractions[order], diurnal=diurnal)


def zero_runs(series: TimeSeries, min_len: int = 24) -> tuple[np.ndarray, np.ndarray]:
    """The int64 start buckets and lengths of the runs of >= min_len zero
    buckets, in order.

    Long all-zero stretches usually mean logging gaps, not true idleness.
    """
    zero = np.concatenate(([False], series.values == 0, [False]))
    edges = np.flatnonzero(zero[1:] != zero[:-1])  # alternate run starts and ends
    starts, lengths = edges[::2], edges[1::2] - edges[::2]
    keep = lengths >= min_len
    return starts[keep], lengths[keep]
