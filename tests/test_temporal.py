import cmath
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrtrace import (
    InvalidBucketWidth,
    MedianZero,
    NoData,
    TooManyBuckets,
    TooShort,
    ZeroVariance,
    bucket_time_series,
    burstiness_curve,
    dimension_correlations,
    occupancy_series,
    peak_to_median,
    periodogram,
    sine_reference,
    zero_runs,
)
from mrtrace.temporal import (
    DIMENSIONS,
    MAX_BUCKETS,
    SUM_DIMENSIONS,
    TimeSeries,
    dimension_series,
    series_correlations,
)
from conftest import full_rec, make_trace, mixed_workload_trace, rec
from temporal_oracle import zero_runs_per_bucket


def series(values, width=3600):
    return TimeSeries(bucket_width=width, start=0, values=np.asarray(values, dtype=float),
                      dimension="jobs_submitted")


class TestBucketing:
    def test_job_counts(self):
        t = make_trace([rec(0, 0), rec(1, 10), rec(2, 3700)])
        s = bucket_time_series(t, "jobs_submitted", 3600)
        assert s.values.tolist() == [2.0, 1.0]

    def test_width_past_the_span_gives_one_bucket(self):
        t = make_trace([rec(0, 0), rec(1, 7200)])
        s = bucket_time_series(t, "jobs_submitted", 10**23)
        assert s.values.tolist() == [2.0] and s.bucket_width == 10**23
        occupancy = occupancy_series(make_trace([full_rec(0, 0), full_rec(1, 7200)]), 10**23)
        assert len(occupancy) == 1 and occupancy.bucket_width == 10**23

    @pytest.mark.parametrize("width, counts", [(2**62, [1.0, 0.0, 1.0]), (2**63, [1.0, 1.0])])
    def test_span_past_int64(self, width, counts):
        t = make_trace([rec(0, -(2**62)), rec(1, 2**63 - 1)])
        assert bucket_time_series(t, "jobs_submitted", width).values.tolist() == counts

    def test_data_size_sums_three_components(self):
        t = make_trace([rec(0, 0, input_bytes=1, shuffle_bytes=2, output_bytes=3)])
        s = bucket_time_series(t, "data_size_bytes", 3600)
        assert s.values.tolist() == [6.0]

    def test_incomplete_byte_fields_excluded(self):
        t = make_trace([
            rec(0, 0, input_bytes=1, shuffle_bytes=2, output_bytes=3),
            rec(1, 10, input_bytes=100),  # no shuffle/output: not zero-filled
        ])
        s = bucket_time_series(t, "data_size_bytes", 3600)
        assert s.values.tolist() == [6.0]

    def test_diurnal_fixture_recounted_independently(self):
        rng = random.Random(9)
        planted = {h: 3 + round(2 * (1 + math.sin(2 * math.pi * h / 24))) for h in range(168)}
        records = []
        jid = 0
        for h, n in planted.items():
            for _ in range(n):
                records.append(rec(jid, h * 3600 + rng.randrange(3600)))
                jid += 1
        t = make_trace(records, span=(0, 168 * 3600 - 1))
        s = bucket_time_series(t, "jobs_submitted", 3600)
        assert s.values.tolist() == [float(planted[h]) for h in range(168)]

    def test_jobs_sum_equals_record_count(self):
        rng = random.Random(10)
        t = make_trace([rec(i, rng.randrange(100000)) for i in range(777)])
        s = bucket_time_series(t, "jobs_submitted", 3600)
        assert s.values.sum() == 777

    def test_bytes_sum_matches_table_total(self):
        rng = random.Random(11)
        records = [
            rec(i, rng.randrange(50000), input_bytes=rng.randrange(10**6),
                shuffle_bytes=rng.randrange(10**6), output_bytes=rng.randrange(10**6))
            for i in range(300)
        ]
        t = make_trace(records)
        total = sum(r.input_bytes + r.shuffle_bytes + r.output_bytes for r in records)
        s = bucket_time_series(t, "data_size_bytes", 3600)
        assert s.values.sum() == pytest.approx(total, rel=1e-12)

    def test_bad_bucket_width(self):
        t = make_trace([rec(0, 0)])
        with pytest.raises(InvalidBucketWidth):
            bucket_time_series(t, "jobs_submitted", 0)

    def test_no_data_dimension(self):
        t = make_trace([rec(0, 0)])
        with pytest.raises(NoData):
            bucket_time_series(t, "compute_time_task_seconds")

    def test_bucket_count_limit_is_inclusive(self):
        # A span of n-1 seconds at width 1 needs n buckets.
        at_limit = make_trace([rec(0, 0), rec(1, MAX_BUCKETS - 1)])
        assert len(bucket_time_series(at_limit, "jobs_submitted", 1)) == MAX_BUCKETS
        over = make_trace([rec(0, 0), rec(1, MAX_BUCKETS)])
        with pytest.raises(TooManyBuckets, match=f"needs {MAX_BUCKETS + 1} buckets"):
            bucket_time_series(over, "jobs_submitted", 1)
        assert len(bucket_time_series(over, "jobs_submitted", 2)) == MAX_BUCKETS // 2 + 1
        full = make_trace([full_rec(0, 0), full_rec(1, MAX_BUCKETS)])
        with pytest.raises(TooManyBuckets):
            occupancy_series(full, 1)


class TestOccupancy:
    def test_full_bucket(self):
        t = make_trace([rec(0, 0, duration=3600, map_task_seconds=7000.0,
                            reduce_task_seconds=200.0)], span=(0, 3600))
        s = occupancy_series(t, 3600)
        assert s.values[0] == pytest.approx(2.0)

    def test_split_across_half_buckets(self):
        t = make_trace([rec(0, 1800, duration=3600, map_task_seconds=3600.0,
                            reduce_task_seconds=0.0)], span=(0, 5400))
        s = occupancy_series(t, 3600)
        assert s.values.tolist() == pytest.approx([0.5, 0.5])

    def test_zero_duration_is_point_mass(self):
        t = make_trace([rec(0, 100, duration=0, map_task_seconds=1800.0,
                            reduce_task_seconds=0.0)], span=(0, 3599))
        s = occupancy_series(t, 3600)
        assert s.values.tolist() == [0.5]

    @pytest.mark.parametrize("submits, width, task_seconds", [
        # The float submit time of the last job rounds into a fourth bucket,
        # and the float end of the first rounds back to its submit time.
        ((-(2**62), 2**63 - 1), 2**62, [25.0, 0.0, 25.0]),
        # 2**62 - 1 rounds up to the next bucket's edge, and so does its end.
        ((0, 2**62 - 1, 3 * 2**61), 2**61, [25.0, 25.0, 0.0, 25.0]),
    ])
    def test_jobs_past_2_53_are_kept(self, submits, width, task_seconds):
        t = make_trace([full_rec(i, submit) for i, submit in enumerate(submits)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no division by a zero duration
            s = occupancy_series(t, width)
        assert (s.values * width).tolist() == task_seconds
        assert s.values.sum() * width == 25.0 * len(submits)

    def test_conserves_task_seconds(self):
        rng = random.Random(12)
        records = [
            full_rec(i, rng.randrange(100000), duration=rng.randrange(0, 30000),
                     map_task_seconds=float(rng.randrange(1, 10**5)),
                     reduce_task_seconds=float(rng.randrange(0, 10**4)))
            for i in range(200)
        ]
        t = make_trace(records)
        s = occupancy_series(t, 3600)
        total = sum(r.map_task_seconds + r.reduce_task_seconds for r in records)
        assert s.values.sum() * 3600 == pytest.approx(total, rel=1e-6)


class TestBurstiness:
    def test_constant_series(self):
        curve = burstiness_curve(series([5, 5, 5, 5]))
        assert all(r == pytest.approx(1.0, abs=1e-9) for r, _ in curve.points)

    def test_sine_extremes(self):
        t = np.arange(48)
        s = series(np.sin(2 * np.pi * t / 24) + 2)
        assert peak_to_median(s, 100) == pytest.approx(1.5, abs=1e-9)
        assert peak_to_median(s, 0) == pytest.approx(0.5, abs=1e-9)

    def test_outlier_series(self):
        s = series([1, 1, 1, 1, 10])
        assert peak_to_median(s, 100) == pytest.approx(10.0)
        assert peak_to_median(s, 50) == pytest.approx(1.0)

    def test_ratio_at_median_is_one_and_monotone(self):
        rng = random.Random(13)
        s = series([rng.randrange(1, 100) for _ in range(50)])
        curve = burstiness_curve(s, list(range(0, 101)))
        ratios = [r for r, _ in curve.points]
        assert ratios == sorted(ratios)
        assert dict((p, r) for r, p in curve.points)[50] == pytest.approx(1.0, abs=1e-9)

    def test_median_zero(self):
        with pytest.raises(MedianZero):
            burstiness_curve(series([0, 0, 0, 5]))


class TestSineReference:
    def test_range_equals_mean(self):
        s = sine_reference("range_equals_mean", 24)
        assert s.values.mean() == pytest.approx(2.0, abs=1e-9)
        assert s.values.max() - s.values.min() == pytest.approx(2.0, abs=1e-9)

    def test_range_equals_tenth_of_mean(self):
        s = sine_reference("range_equals_tenth_of_mean", 24)
        assert s.values.mean() == pytest.approx(20.0, abs=1e-9)
        assert s.values.max() - s.values.min() == pytest.approx(2.0, abs=1e-9)

    def test_requires_full_period(self):
        with pytest.raises(ValueError):
            sine_reference("range_equals_mean", 12)


def pearson_oracle(xs, ys):
    """Textbook Pearson r, plain python."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    return sxy / math.sqrt(sxx * syy)


def triple_trace(jobs_per_hour, bytes_per_hour, ts_per_hour):
    """Trace whose three hourly series equal the given vectors exactly."""
    records = []
    jid = 0
    for h, (j, b, c) in enumerate(zip(jobs_per_hour, bytes_per_hour, ts_per_hour)):
        for k in range(j):
            records.append(rec(
                jid, h * 3600 + k,
                input_bytes=b if k == 0 else 0,
                shuffle_bytes=0,
                output_bytes=0,
                map_task_seconds=float(c) if k == 0 else 0.0,
                reduce_task_seconds=0.0,
            ))
            jid += 1
    return make_trace(records, span=(0, len(jobs_per_hour) * 3600 - 1))


class TestCorrelations:
    def test_perfect_linear_pair(self):
        jobs = [1 + (h % 5) for h in range(50)]
        data = [2 * j for j in jobs]
        ts_ = [((h * 7) % 11) + 1 for h in range(50)]
        t = triple_trace(jobs, data, ts_)
        corr = dimension_correlations(t, 3600)
        assert corr.r_jobs_data == 1.0

    def test_matches_independent_pearson(self):
        rng = random.Random(14)
        jobs = [rng.randrange(1, 20) for _ in range(300)]
        data = [rng.randrange(0, 10**6) for _ in range(300)]
        ts_ = [rng.randrange(0, 5000) for _ in range(300)]
        t = triple_trace(jobs, data, ts_)
        corr = dimension_correlations(t, 3600)
        assert corr.r_jobs_data == pytest.approx(pearson_oracle(jobs, data), abs=1e-9)
        assert corr.r_jobs_compute == pytest.approx(pearson_oracle(jobs, ts_), abs=1e-9)
        assert corr.r_data_compute == pytest.approx(pearson_oracle(data, ts_), abs=1e-9)
        assert corr.n_buckets == 300

    def test_independent_series_near_zero(self):
        rng = random.Random(15)
        n = 1000
        jobs = [rng.randrange(1, 50) for _ in range(n)]
        data = [rng.randrange(0, 10**6) for _ in range(n)]
        ts_ = [rng.randrange(0, 5000) for _ in range(n)]
        corr = dimension_correlations(triple_trace(jobs, data, ts_), 3600)
        assert abs(corr.r_jobs_data) < 0.1
        assert abs(corr.r_jobs_compute) < 0.1
        assert abs(corr.r_data_compute) < 0.1

    def test_affine_invariance(self):
        rng = random.Random(16)
        jobs = [rng.randrange(1, 20) for _ in range(100)]
        data = [rng.randrange(1, 10**6) for _ in range(100)]
        ts_ = [rng.randrange(1, 5000) for _ in range(100)]
        base = dimension_correlations(triple_trace(jobs, data, ts_), 3600)
        scaled = dimension_correlations(
            triple_trace(jobs, [7 * d + 13 for d in data], ts_), 3600
        )
        assert scaled.r_jobs_data == pytest.approx(base.r_jobs_data, abs=1e-9)

    def test_constant_series_rejected(self):
        t = triple_trace([2] * 60, [100] * 60, [5] * 60)
        with pytest.raises(ZeroVariance):
            dimension_correlations(t, 3600)

    def test_built_series_give_the_trace_correlations(self):
        rng = random.Random(17)
        t = triple_trace(*([rng.randrange(1, 100) for _ in range(80)] for _ in range(3)))
        built = [dimension_series(t, d, 1800) for d in SUM_DIMENSIONS]
        assert series_correlations(*built) == dimension_correlations(t, 1800)


def test_dimension_series_builds_each_dimension():
    t = mixed_workload_trace(n_jobs=200, seed=5, hours=30)
    for dim in DIMENSIONS:
        exact = occupancy_series(t, 3600) if dim == "occupancy_slots" else bucket_time_series(t, dim, 3600)
        built = dimension_series(t, dim, 3600)
        assert built.dimension == exact.dimension == dim
        np.testing.assert_array_equal(built.values, exact.values)


def dft_power_oracle(values):
    """Naive O(n^2) DFT power spectrum of the mean-removed signal."""
    n = len(values)
    x = [v - sum(values) / n for v in values]
    power = []
    for k in range(n // 2 + 1):
        s = sum(x[t] * cmath.exp(-2j * cmath.pi * k * t / n) for t in range(n))
        p = abs(s) ** 2
        if 0 < k < (n + 1) // 2:
            p *= 2
        power.append(p)
    return power


class TestPeriodogram:
    def test_pure_diurnal_tone(self):
        t = np.arange(168)
        s = series(np.sin(2 * np.pi * t / 24))
        peaks = periodogram(s)
        assert peaks.diurnal
        period, frac = peaks.components[0]
        assert period == pytest.approx(86400.0)
        assert frac == pytest.approx(1.0, abs=1e-9)

    def test_constant_series(self):
        peaks = periodogram(series([3.0] * 100))
        assert peaks.components == []
        assert not peaks.diurnal

    def test_two_equal_tones_match_oracle(self):
        t = np.arange(168)
        vals = np.sin(2 * np.pi * t / 24) + np.sin(2 * np.pi * t / 7)
        s = series(vals)
        peaks = periodogram(s, top_k=2)
        periods = sorted(p for p, _ in peaks.components)
        assert periods[0] == pytest.approx(7 * 3600.0)
        assert periods[1] == pytest.approx(86400.0)
        assert peaks.diurnal

        oracle = dft_power_oracle(vals.tolist())
        total = sum(oracle[1:])
        for period, frac in peaks.components:
            k = round(168 * 3600 / period)
            assert frac == pytest.approx(oracle[k] / total, abs=1e-9)

    def test_too_short(self):
        with pytest.raises(TooShort):
            periodogram(series([1.0] * 47))


class TestZeroRuns:
    def test_gap_flagged(self):
        vals = [5.0] * 10 + [0.0] * 30 + [4.0] * 10
        assert zero_runs(series(vals)) == [(10, 30)]

    def test_short_gaps_ignored(self):
        vals = [5.0, 0.0] * 30
        assert zero_runs(series(vals)) == []

    def test_trailing_gap(self):
        vals = [5.0] * 5 + [0.0] * 24
        assert zero_runs(series(vals)) == [(5, 24)]

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.sampled_from([0.0, -0.0, 5e-324, -2.5, math.nan, math.inf]),
                           max_size=80),
           min_len=st.integers(1, 30))
    @example(values=[0.0] * 40, min_len=24)  # all zero
    @example(values=[1.0] * 40, min_len=1)  # no zero
    @example(values=[0.0] * 3 + [1.0] + [-0.0] * 2, min_len=1)  # runs at both ends
    @example(values=[-0.0, 0.0, math.nan, 0.0], min_len=1)  # -0.0 is zero, NaN is not
    @example(values=[], min_len=1)
    def test_matches_per_bucket_loop(self, values, min_len):
        s = series(values)
        got = zero_runs(s, min_len)
        assert got == zero_runs_per_bucket(s, min_len)
        assert all(type(x) is int for run in got for x in run)
