import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrtrace import (
    InsufficientData,
    NoData,
    access_frequency_rank,
    access_vs_size_curves,
    data_size_cdf,
    eighty_x_rule,
    fit_zipf,
    reaccess_intervals,
    tail_trimmed,
)
from mrtrace.cli import main
from mrtrace.data_access import EmpiricalCDF, RankedAccessTable
from conftest import full_rec, make_trace, rec, trace_to_jsonl

GB = 10**9


def reading_jobs(path_sizes):
    """One job per (path_digest, size) pair, submitted in sequence."""
    return [
        rec(i, i * 10, input_path_hash=digest, input_bytes=size)
        for i, (digest, size) in enumerate(path_sizes)
    ]


class TestDataSizeCdf:
    def test_three_values(self):
        t = make_trace([rec(i, i, input_bytes=b) for i, b in enumerate((10, 20, 30))])
        cdf = data_size_cdf(t, "input")
        assert cdf.points == [(10.0, 1 / 3), (20.0, 2 / 3), (30.0, 1.0)]

    def test_single_job_steps_to_one(self):
        t = make_trace([rec(0, 0, output_bytes=42)])
        cdf = data_size_cdf(t, "output")
        assert cdf.points == [(42.0, 1.0)]

    def test_duplicates_merge(self):
        t = make_trace([rec(i, i, input_bytes=b) for i, b in enumerate((10, 10, 20))])
        assert data_size_cdf(t, "input").points == [(10.0, 2 / 3), (20.0, 1.0)]

    def test_missing_dimension_raises(self):
        t = make_trace([rec(0, 0, input_bytes=1)])
        with pytest.raises(NoData):
            data_size_cdf(t, "shuffle")

    def test_missing_records_excluded_not_zeroed(self):
        t = make_trace([rec(0, 0, input_bytes=5), rec(1, 1)])
        cdf = data_size_cdf(t, "input")
        assert cdf.sample_count == 1
        assert 0.0 not in cdf.values

    def test_cdf_monotone_ends_at_one(self):
        rng = random.Random(0)
        t = make_trace([rec(i, i, input_bytes=rng.randrange(1, 10**9)) for i in range(500)])
        cdf = data_size_cdf(t, "input")
        assert np.all(np.diff(cdf.fractions) > 0)
        assert cdf.fractions[-1] == 1.0


class TestAccessFrequencyRank:
    def test_counting(self):
        a, b, c = 111, 222, 333
        t = make_trace(reading_jobs([(a, 1)] * 4 + [(b, 1)] * 2 + [(c, 1)]))
        table = access_frequency_rank(t, "input")
        assert [(d, n) for d, n, _ in table.entries] == [(a, 4), (b, 2), (c, 1)]

    def test_all_distinct_ordered_by_digest(self):
        t = make_trace(reading_jobs([(30, 1), (10, 1), (20, 1)]))
        table = access_frequency_rank(t, "input")
        assert [d for d, _, _ in table.entries] == [10, 20, 30]
        assert list(table.counts) == [1, 1, 1]

    def test_count_sum_equals_contributing_jobs(self):
        rng = random.Random(2)
        jobs = reading_jobs([(rng.randrange(50), 1) for _ in range(400)])
        jobs.append(rec(9999, 0))  # no path: contributes nothing
        table = access_frequency_rank(make_trace(jobs), "input")
        assert table.counts.sum() == 400

    def test_last_known_size_tracks_most_recent(self):
        t = make_trace(reading_jobs([(7, 100), (7, 50)]))
        (_, _, size), = access_frequency_rank(t, "input").entries
        assert size == 50

    def test_planted_zipf_counts_recovered(self):
        # Plant exact access counts per file, then verify the table against
        # an independent dict-based recount and check log-log linearity.
        alpha, n_files = 0.83, 500
        counts = {f: max(1, round(2000 * (f + 1) ** -alpha)) for f in range(n_files)}
        jobs = []
        for f, c in counts.items():
            jobs += [(1000 + f, 10)] * c
        rng = random.Random(4)
        rng.shuffle(jobs)
        table = access_frequency_rank(make_trace(reading_jobs(jobs)), "input")

        recount = {}
        for digest, _ in jobs:
            recount[digest] = recount.get(digest, 0) + 1
        assert {d: c for d, c, _ in table.entries} == recount

        fit = fit_zipf(table)
        assert fit.r_squared > 0.98
        assert abs(fit.slope - alpha) < 0.08


class TestFitZipf:
    def test_exact_power_law(self):
        r = np.arange(1, 101, dtype=float)
        table = RankedAccessTable(
            digests=np.arange(100, dtype=np.uint64),
            counts=1000.0 * r**-0.5,
            sizes=np.full(100, np.nan),
            side="input",
        )
        fit = fit_zipf(table)
        assert abs(fit.slope - 0.5) < 1e-9
        assert fit.r_squared == 1.0
        assert fit.n_points == 100

    def test_constant_counts_slope_zero(self):
        table = RankedAccessTable(
            digests=np.arange(10, dtype=np.uint64),
            counts=np.full(10, 7, dtype=np.int64),
            sizes=np.full(10, np.nan),
            side="input",
        )
        fit = fit_zipf(table)
        assert fit.slope == 0.0
        assert fit.r_squared == 1.0

    def test_too_few_entries(self):
        table = RankedAccessTable(
            digests=np.array([1], dtype=np.uint64),
            counts=np.array([3], dtype=np.int64),
            sizes=np.array([np.nan]),
            side="input",
        )
        with pytest.raises(InsufficientData):
            fit_zipf(table)

    def test_tail_trim_drops_singletons(self):
        table = RankedAccessTable(
            digests=np.arange(4, dtype=np.uint64),
            counts=np.array([5, 3, 1, 1], dtype=np.int64),
            sizes=np.full(4, np.nan),
            side="input",
        )
        assert list(tail_trimmed(table).counts) == [5, 3]


class TestAccessVsSize:
    def test_two_file_example(self):
        # A: 1 GB, read by 9 jobs. B: 9 GB, read by 1 job. At s=1GB nine of
        # ten jobs but only 1/10 of stored bytes are covered.
        jobs = [(1, GB)] * 9 + [(2, 9 * GB)]
        t = make_trace(reading_jobs(jobs))
        jobs_cdf, bytes_cdf = access_vs_size_curves(t, "input")
        assert jobs_cdf.fraction_at(GB) == pytest.approx(0.9)
        assert bytes_cdf.fraction_at(GB) == pytest.approx(0.1)

    def test_single_file(self):
        t = make_trace(reading_jobs([(1, 500)]))
        jobs_cdf, bytes_cdf = access_vs_size_curves(t, "input")
        assert jobs_cdf.points == [(500.0, 1.0)]
        assert bytes_cdf.points == [(500.0, 1.0)]

    def test_file_size_is_max_observed(self):
        t = make_trace(reading_jobs([(1, 100), (1, 300), (1, 200)]))
        jobs_cdf, _ = access_vs_size_curves(t, "input")
        assert jobs_cdf.points == [(300.0, 1.0)]

    def test_both_cdfs_end_at_one(self):
        rng = random.Random(5)
        jobs = [(rng.randrange(30), rng.randrange(1, 10**8)) for _ in range(300)]
        jobs_cdf, bytes_cdf = access_vs_size_curves(make_trace(reading_jobs(jobs)), "input")
        for cdf in (jobs_cdf, bytes_cdf):
            assert cdf.fractions[-1] == 1.0
            assert np.all(np.diff(cdf.fractions) >= 0)


def brute_force_eighty_x(files, quantile):
    """Independent prefix computation: repeatedly extract the hottest
    remaining file (lowest digest on count ties) until coverage is met.

    files: list of (digest, access_count, size_bytes).
    """
    remaining = list(files)
    total_accesses = sum(c for _, c, _ in files)
    total_bytes = sum(s for _, _, s in files)
    covered = 0
    taken_bytes = 0
    needed = quantile * total_accesses
    while covered < needed and remaining:
        best = min(remaining, key=lambda f: (-f[1], f[0]))
        remaining.remove(best)
        covered += best[1]
        taken_bytes += best[2]
    return 100.0 * taken_bytes / total_bytes


class TestEightyX:
    def test_two_file_hand_case(self):
        # A: 1 byte, 8 of 10 accesses -> A alone covers 80%; x = 1/10 bytes.
        jobs = [(1, 1)] * 8 + [(2, 9)] * 2
        t = make_trace(reading_jobs(jobs))
        assert eighty_x_rule(t, "input") == pytest.approx(10.0)

    def test_uniform_files(self):
        jobs = [(d, 100) for d in range(10)]
        t = make_trace(reading_jobs(jobs))
        assert eighty_x_rule(t, "input") == pytest.approx(80.0)

    def test_matches_brute_force_on_random_tables(self):
        rng = random.Random(6)
        for _ in range(50):
            n_files = rng.randrange(1, 6)
            sizes = [rng.randrange(1, 50) for _ in range(n_files)]
            counts = [rng.randrange(1, 5) for _ in range(n_files)]
            jobs = []
            for f in range(n_files):
                jobs += [(f + 1, sizes[f])] * counts[f]
            t = make_trace(reading_jobs(jobs))
            expected = brute_force_eighty_x(
                [(f + 1, counts[f], sizes[f]) for f in range(n_files)], 0.80
            )
            assert eighty_x_rule(t, "input") == pytest.approx(expected)

    def test_monotone_in_quantile(self):
        rng = random.Random(7)
        jobs = []
        for f in range(20):
            jobs += [(f, rng.randrange(1, 10**6))] * rng.randrange(1, 8)
        t = make_trace(reading_jobs(jobs))
        xs = [eighty_x_rule(t, "input", q) for q in (0.1, 0.3, 0.5, 0.8, 0.95, 1.0)]
        assert xs == sorted(xs)


def test_zero_byte_side_is_no_data(tmp_path):
    # Six jobs read three 0-byte input files; their outputs have bytes.
    t = make_trace([full_rec(i, i * 60, input_bytes=0, input_path_hash=i % 3,
                             output_path_hash=100 + i) for i in range(6)])
    with pytest.raises(NoData):
        eighty_x_rule(t, "input")
    with pytest.raises(NoData):
        access_vs_size_curves(t, "input")
    assert eighty_x_rule(t, "output") == pytest.approx(5 / 6 * 100)

    out = tmp_path / "r.json"
    assert main(["analyze", "--trace", str(trace_to_jsonl(t, tmp_path / "t.jsonl")),
                 "--out", str(out)]) == 0
    skipped = {s["section"] for s in json.loads(out.read_text())["skipped"]}
    assert {"access_vs_size.input", "eighty_x.input"} <= skipped
    assert not skipped & {"access_vs_size.output", "eighty_x.output"}


def reaccess_oracle(records):
    """Per-job loop over records in trace order: the gap from the latest
    touch of a path to each later read of it, and the re-reading share."""
    last_touch = {}
    gaps = []
    jobs_with_input = reaccess_jobs = 0
    for r in records:
        if r.input_path_hash is not None:
            jobs_with_input += 1
            prev = last_touch.get(r.input_path_hash)
            if prev is not None:
                reaccess_jobs += 1
                gaps.append(r.submit_time - prev)
            last_touch[r.input_path_hash] = r.submit_time
        if r.output_path_hash is not None:
            last_touch[r.output_path_hash] = r.submit_time
    return sorted(gaps), reaccess_jobs / jobs_with_input


class TestReaccess:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(-5, 5) | st.sampled_from([-(2**63), 2**63 - 1]),
        st.none() | st.integers(0, 3) | st.just(2**64 - 1),
        st.none() | st.integers(0, 3) | st.just(2**64 - 1),
    ), min_size=1, max_size=12))
    def test_matches_per_job_loop(self, jobs):
        t = make_trace([rec(i, ts, input_path_hash=a, output_path_hash=b)
                        for i, (ts, a, b) in enumerate(jobs)])
        if not any(a is not None for _, a, _ in jobs):
            with pytest.raises(NoData):
                reaccess_intervals(t)
            return
        gaps, fraction = reaccess_oracle(t.records)
        stats = reaccess_intervals(t)
        assert stats.reaccess_job_fraction == fraction
        assert stats.interval_cdf.sample_count == len(gaps)
        if gaps:
            expected = EmpiricalCDF.from_samples(np.asarray(gaps, dtype=np.float64))
            assert stats.interval_cdf.points == expected.points

    def test_rereads_of_one_file(self):
        t = make_trace([rec(i, ts, input_path_hash=1) for i, ts in enumerate((0, 3600, 7200))])
        stats = reaccess_intervals(t)
        assert stats.interval_cdf.points == [(3600.0, 1.0)]
        assert stats.interval_cdf.sample_count == 2
        assert stats.reaccess_job_fraction == pytest.approx(2 / 3)

    def test_all_distinct_files(self):
        t = make_trace([rec(i, i, input_path_hash=i) for i in range(5)])
        stats = reaccess_intervals(t)
        assert stats.interval_cdf.sample_count == 0
        assert stats.reaccess_job_fraction == 0.0

    def test_output_then_input_counts_as_reuse(self):
        t = make_trace([
            rec(0, 0, output_path_hash=9, duration=10),
            rec(1, 500, input_path_hash=9),
        ])
        stats = reaccess_intervals(t)
        assert stats.interval_cdf.points == [(500.0, 1.0)]
        assert stats.reaccess_job_fraction == 1.0

    def test_no_input_hashes_raises(self):
        t = make_trace([rec(0, 0, output_path_hash=1)])
        with pytest.raises(NoData):
            reaccess_intervals(t)

    def test_self_concatenation_increases_fraction(self):
        rng = random.Random(8)
        records = [rec(i, i * 60, input_path_hash=rng.randrange(40)) for i in range(100)]
        t1 = make_trace(records)
        shift = t1.span[1] + 3600
        doubled = records + [
            rec(1000 + r.job_id, r.submit_time + shift, input_path_hash=r.input_path_hash)
            for r in records
        ]
        t2 = make_trace(doubled)
        assert reaccess_intervals(t2).reaccess_job_fraction >= reaccess_intervals(t1).reaccess_job_fraction
