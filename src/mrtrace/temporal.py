"""Workload variation over time: hourly series, burstiness, correlations,
and Fourier-based diurnal detection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidBucketWidth, MedianZero, NoData, TooShort, ZeroVariance
from .trace import Trace

DIMENSIONS = ("jobs_submitted", "data_size_bytes", "compute_time_task_seconds", "occupancy_slots")

DAY_SECONDS = 86400
HOUR_SECONDS = 3600


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
    # span is an exact multiple so a job at t=end still has a home.
    return (end - start) // width + 1


def _bucket_index(times: np.ndarray, start: int, width: int) -> np.ndarray:
    return (times - start) // width


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
    idx = _bucket_index(cols.submit_time, start, bucket_width)

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

    first = ((submit - start) // bucket_width).astype(np.int64)
    last = np.minimum(((ends - start) // bucket_width).astype(np.int64), n - 1)

    single = first == last  # zero-duration jobs land here as a point mass
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
    jobs = bucket_time_series(trace, "jobs_submitted", bucket_width)
    data = bucket_time_series(trace, "data_size_bytes", bucket_width)
    compute = bucket_time_series(trace, "compute_time_task_seconds", bucket_width)
    for s in (jobs, data, compute):
        if np.ptp(s.values) == 0:
            raise ZeroVariance(f"{s.dimension} series is constant")
    return CorrelationMatrix(
        r_jobs_data=_pearson(jobs.values, data.values),
        r_jobs_compute=_pearson(jobs.values, compute.values),
        r_data_compute=_pearson(data.values, compute.values),
        n_buckets=len(jobs),
    )


def periodogram(series: TimeSeries, top_k: int = 5) -> SpectralPeaks:
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
