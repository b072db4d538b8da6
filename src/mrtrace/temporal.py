"""Workload variation over time: hourly series, burstiness, correlations,
and Fourier-based diurnal detection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    InvalidBucketWidth,
    MedianZero,
    NoData,
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

    points: list[tuple[float, int]]  # (ratio, percentile)
    median: float


@dataclass
class CorrelationMatrix:
    r_jobs_data: float
    r_jobs_compute: float
    r_data_compute: float
    n_buckets: int


@dataclass
class SpectralPeaks:
    components: list[tuple[float, float]]  # (period seconds, power fraction)
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
    # may not fit either, gives one bucket.
    offsets = cols.submit_time.view(np.uint64) - np.uint64(start % 2**64)
    if n > 1:
        idx = (offsets // np.uint64(bucket_width)).astype(np.int64)
    else:
        idx = np.zeros(offsets.size, np.int64)

    if dimension == "jobs_submitted":
        values = np.bincount(idx, minlength=n).astype(np.float64)
    elif dimension == "data_size_bytes":
        total = cols.input_bytes + cols.shuffle_bytes + cols.output_bytes
        mask = ~np.isnan(total)
        if not mask.any():
            raise NoData("no record carries all of input/shuffle/output bytes")
        values = np.bincount(idx[mask], weights=total[mask], minlength=n)
    elif dimension == "compute_time_task_seconds":
        total = cols.map_task_seconds + cols.reduce_task_seconds
        mask = ~np.isnan(total)
        if not mask.any():
            raise NoData("no record carries both map and reduce task-seconds")
        values = np.bincount(idx[mask], weights=total[mask], minlength=n)
    else:
        raise ValueError(f"unknown dimension {dimension!r}")
    return TimeSeries(bucket_width=bucket_width, start=start, values=values, dimension=dimension)


def occupancy_series(trace: Trace, bucket_width: int = HOUR_SECONDS) -> TimeSeries:
    """Approximate average active slots per bucket.

    Each job's map+reduce task-seconds are spread uniformly over
    [submit, submit+duration]; per-task start/stop times are not in the
    per-job schema, so this is an approximation.
    """
    if bucket_width <= 0:
        raise InvalidBucketWidth(f"bucket_width must be positive, got {bucket_width}")
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

    # A job's first bucket comes from its exact submit offset, as in
    # bucket_time_series; past 2**53 its float submit time may round into
    # the next bucket. Both ends are clamped to the buckets there are.
    first = last = np.zeros(submit.size, np.int64)
    if n > 1:
        offsets = cols.submit_time[mask].view(np.uint64) - np.uint64(start % 2**64)
        first = np.minimum(offsets // np.uint64(bucket_width), n - 1).astype(np.int64)
        last = np.clip(((ends - start) // bucket_width).astype(np.int64), first, n - 1)

    # Zero-duration jobs land here as a point mass, as do jobs whose float
    # end rounds back to their submit time.
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


def _percentiles(values: np.ndarray, grid) -> np.ndarray:
    # Linear interpolation between order statistics (inclusive scheme).
    return np.percentile(values, grid, method="linear")


def burstiness_curve(series: TimeSeries, percentile_grid: Optional[Sequence[int]] = None) -> BurstinessCurve:
    """Percentile-to-median ratio for each percentile in the grid."""
    grid = list(percentile_grid) if percentile_grid is not None else list(range(1, 101))
    values = series.values
    median = float(np.percentile(values, 50, method="linear"))
    if median == 0.0:
        raise MedianZero("series median is zero; use a coarser bucket width")
    ratios = _percentiles(values, grid) / median
    return BurstinessCurve(points=list(zip(ratios.tolist(), grid)), median=median)


def peak_to_median(series: TimeSeries, percentile: int = 100) -> float:
    """Single percentile-to-median ratio (the peak at the default 100)."""
    curve = burstiness_curve(series, [percentile])
    return curve.points[0][0]


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
    den = math.sqrt(float(dx @ dx) * float(dy @ dy))
    r = float(dx @ dy) / den
    return min(1.0, max(-1.0, r))


def dimension_correlations(trace: Trace, bucket_width: int = HOUR_SECONDS) -> CorrelationMatrix:
    """Pearson correlation between the jobs, bytes, and task-time series."""
    return series_correlations(*(bucket_time_series(trace, d, bucket_width) for d in SUM_DIMENSIONS))


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


def periodogram(series: TimeSeries, top_k: int = PERIODOGRAM_TOP_K) -> SpectralPeaks:
    """Strongest periodic components of the mean-removed series.

    diurnal is set when a component within one bucket of 24 hours carries
    at least 5% of the non-DC power.
    """
    n = len(series)
    if n < 48:
        raise TooShort(f"need >= 48 buckets for spectral analysis, got {n}")
    x = series.values - series.values.mean()
    spectrum = np.fft.rfft(x)
    power = np.abs(spectrum) ** 2
    # One-sided correction: interior bins stand for conjugate pairs.
    power[1 : (n + 1) // 2] *= 2.0
    power[0] = 0.0
    total = power.sum()
    if total <= 0.0:
        return SpectralPeaks(components=[], diurnal=False)

    k = np.arange(1, power.size)
    periods = n * series.bucket_width / k
    fractions = power[1:] / total
    order = np.argsort(-fractions, kind="stable")[:top_k]
    components = [(float(periods[i]), float(fractions[i])) for i in order]

    diurnal = any(
        abs(period - DAY_SECONDS) <= series.bucket_width and frac >= 0.05
        for period, frac in zip(periods, fractions)
    )
    return SpectralPeaks(components=components, diurnal=diurnal)


def zero_runs(series: TimeSeries, min_len: int = 24) -> list[tuple[int, int]]:
    """(start_bucket, length) for runs of >= min_len zero buckets.

    Long all-zero stretches usually mean logging gaps, not true idleness.
    """
    zero = np.concatenate(([False], series.values == 0, [False]))
    edges = np.flatnonzero(zero[1:] != zero[:-1])  # alternate run starts and ends
    starts, lengths = edges[::2], edges[1::2] - edges[::2]
    keep = lengths >= min_len
    return list(zip(starts[keep].tolist(), lengths[keep].tolist()))
