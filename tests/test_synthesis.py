import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mrtrace import (
    JobRecord,
    NoCompleteJobs,
    NoData,
    SpanTooLong,
    TooManyBuckets,
    build_workload_model,
    data_prepopulation_plan,
    hash_path,
    synthesize,
    validate,
)
from mrtrace.columns import RecordView, TraceColumns
from mrtrace.synthesis import REQUIRED_FIELDS
from mrtrace.temporal import MAX_BUCKETS
from conftest import full_rec, make_trace, mixed_workload_trace, rec


def ks_distance(xs, ys):
    """Two-sample Kolmogorov-Smirnov statistic, plain python.

    Evaluates |Fx(v) - Fy(v)| at every distinct value, consuming all tied
    samples on both sides first.
    """
    xs, ys = sorted(xs), sorted(ys)
    nx, ny = len(xs), len(ys)
    i = j = 0
    d = 0.0
    while i < nx and j < ny:
        v = min(xs[i], ys[j])
        while i < nx and xs[i] == v:
            i += 1
        while j < ny and ys[j] == v:
            j += 1
        d = max(d, abs(i / nx - j / ny))
    return d


def job_tuples(workload):
    """(offset, bytes, tasks, task seconds, duration, source job id) of
    every synthetic job, as Python values."""
    return [
        (j.submit_time, j.input_bytes, j.shuffle_bytes, j.output_bytes,
         j.map_tasks, j.reduce_tasks, j.map_task_seconds, j.reduce_task_seconds,
         j.duration, source)
        for j, source in zip(workload.jobs.records, workload.source_job_id.tolist())
    ]


def included_records(model):
    """The model's replayable source jobs as JobRecords."""
    return list(RecordView(model.trace.columns.take(model.included)))


# Naive oracles: the per-record synthesis and planning loops that the
# vectorized code replaced.

def _scale_count_oracle(count, factor):
    if count == 0:
        return 0
    return max(1, round(count * factor))


def _scale_job_oracle(record, job_id, offset, factor):
    return JobRecord(
        job_id=job_id,
        submit_time=offset,
        name=record.name,
        duration=record.duration,
        input_bytes=round(record.input_bytes * factor),
        shuffle_bytes=round(record.shuffle_bytes * factor),
        output_bytes=round(record.output_bytes * factor),
        map_task_seconds=record.map_task_seconds * factor,
        reduce_task_seconds=record.reduce_task_seconds * factor,
        map_tasks=_scale_count_oracle(record.map_tasks, factor),
        reduce_tasks=_scale_count_oracle(record.reduce_tasks, factor),
        input_path_hash=hash_path(f"synthetic/input/{record.job_id}"),
        output_path_hash=hash_path(f"synthetic/output/{job_id}"),
    )


def synthesize_oracle(trace, window_width, target_machine_count, target_span, mode, seed):
    """(synthetic JobRecords, source job ids), job by job; raises the same
    errors as build_workload_model plus synthesize, except that an empty
    draw returns no jobs."""
    included = [
        r for r in trace.records
        if all(getattr(r, name) is not None for name in REQUIRED_FIELDS)
    ]
    if not included:
        raise NoCompleteJobs("no complete jobs")
    start = trace.span[0]
    span = trace.span[1] - start
    windows = [[] for _ in range(span // window_width + 1)]
    for i, r in enumerate(included):
        windows[(r.submit_time - start) // window_width].append(i)
    factor = target_machine_count / trace.machine_count

    picked = []  # (source record, offset)
    full = target_span == max(span, 1)
    if mode == "replay_scaled":
        if target_span > max(span, 1):
            raise SpanTooLong("target span too long")
        for r in included:
            offset = r.submit_time - start
            if offset < target_span or (full and offset == span):
                picked.append((r, offset))
    else:
        width = window_width
        for w in range((target_span - 1) // width + 1):
            rng = np.random.default_rng(np.random.SeedSequence((seed, w)))
            members = windows[w % len(windows)]
            lo = w * width
            if full:
                count = len(members)
                coverage = min(width, span + 1 - lo)
            else:
                coverage = min(width, target_span - lo)
                expected = len(members) * (coverage / width)
                count = int(expected) + (1 if rng.random() < expected - int(expected) else 0)
            if count == 0:
                continue
            picks = rng.integers(0, len(members), size=count)
            offsets = np.sort(rng.integers(lo, lo + coverage, size=count))
            for off, p in zip(offsets, picks):
                picked.append((included[members[p]], int(off)))
    jobs = [_scale_job_oracle(r, i, off, factor) for i, (r, off) in enumerate(picked)]
    return jobs, [r.job_id for r, _ in picked]


def plan_oracle(jobs, sources):
    files = []
    seen = set()
    for job, source in zip(jobs, sources):
        if source in seen:
            continue
        seen.add(source)
        files.append((f"input_{source}", job.input_bytes))
    return files, sum(size for _, size in files)


def window_sizes(model):
    return [model.window(w).size for w in range(model.n_windows)]


class TestModel:
    def test_two_hour_trace_two_windows(self):
        t = make_trace([full_rec(0, 10), full_rec(1, 3599), full_rec(2, 3600), full_rec(3, 7000)])
        model = build_workload_model(t, 3600)
        # span starts at the first submit (t=10), so windows are [10, 3610) etc.
        assert window_sizes(model) == [3, 1]
        assert model.window(0).tolist() == [0, 1, 2]
        assert model.window(1).tolist() == [3]

    def test_boundary_job_goes_to_later_window(self):
        t = make_trace([full_rec(0, 0), full_rec(1, 3600), full_rec(2, 7100)])
        model = build_workload_model(t, 3600)
        assert window_sizes(model) == [1, 2]

    def test_window_counts_resum_to_total(self):
        t = mixed_workload_trace(n_jobs=10_000, seed=22)
        model = build_workload_model(t)
        assert sum(window_sizes(model)) == 10_000
        assert model.excluded_count == 0

    @pytest.mark.parametrize("width, sizes", [(2**62, [1, 1]), (2**63 - 1, [1, 1]), (2**63, [2]),
                                              (10**23, [2])])
    def test_windows_up_to_the_int64_limit(self, width, sizes):
        t = make_trace([full_rec(0, 0), full_rec(1, 2**63 - 1)])
        assert window_sizes(build_workload_model(t, width)) == sizes

    def test_span_past_int64_rejected(self):
        t = make_trace([full_rec(0, -(2**62)), full_rec(1, 2**63 - 1)])
        with pytest.raises(SpanTooLong):
            build_workload_model(t)

    def test_incomplete_jobs_excluded(self):
        t = make_trace([full_rec(0, 0), rec(1, 5, input_bytes=3)])
        model = build_workload_model(t)
        assert model.included.tolist() == [0]
        assert model.excluded_count == 1

    def test_no_complete_jobs(self):
        t = make_trace([rec(0, 0, input_bytes=1)])
        with pytest.raises(NoCompleteJobs):
            build_workload_model(t)


class TestReplayScaled:
    def test_scale_one_is_identity(self):
        t = mixed_workload_trace(n_jobs=500, seed=23, machines=100)
        model = build_workload_model(t)
        span = t.span[1] - t.span[0]
        wl = synthesize(model, 100, span, "replay_scaled", seed=0)
        assert wl.scale_factor == 1.0
        assert job_tuples(wl) == [
            (src.submit_time - t.span[0], src.input_bytes, src.shuffle_bytes,
             src.output_bytes, src.map_tasks, src.reduce_tasks,
             src.map_task_seconds, src.reduce_task_seconds, src.duration, src.job_id)
            for src in included_records(model)
        ]

    def test_tenth_scale_bytes(self):
        t = make_trace([full_rec(0, 0, input_bytes=1000, shuffle_bytes=500, output_bytes=100)],
                       machines=600)
        model = build_workload_model(t)
        wl = synthesize(model, 60, 1, "replay_scaled")
        job = wl.jobs.records[0]
        assert wl.scale_factor == pytest.approx(0.1)
        assert (job.input_bytes, job.shuffle_bytes, job.output_bytes) == (100, 50, 10)

    def test_task_counts_floor_at_one_but_zero_stays(self):
        t = make_trace([full_rec(0, 0, map_tasks=3, reduce_tasks=0, shuffle_bytes=0,
                                 reduce_task_seconds=0.0)], machines=100)
        wl = synthesize(build_workload_model(t), 1, 1, "replay_scaled")
        assert wl.jobs.records[0].map_tasks == 1
        assert wl.jobs.records[0].reduce_tasks == 0

    def test_scaling_composes_within_a_byte(self):
        t = mixed_workload_trace(n_jobs=200, seed=24, machines=1000)
        span = t.span[1] - t.span[0]
        one = synthesize(build_workload_model(t), 200, span, "replay_scaled")  # x0.2
        assert one.jobs.machine_count == 200
        two = synthesize(build_workload_model(one.jobs), 100, span, "replay_scaled")  # x0.5
        direct = synthesize(build_workload_model(t), 100, span, "replay_scaled")  # x0.1
        for a, b in zip(two.jobs.records, direct.jobs.records):
            assert abs(a.input_bytes - b.input_bytes) <= 1
            assert abs(a.shuffle_bytes - b.shuffle_bytes) <= 1
            assert abs(a.output_bytes - b.output_bytes) <= 1

    def test_span_too_long(self):
        t = mixed_workload_trace(n_jobs=50, seed=25)
        model = build_workload_model(t)
        with pytest.raises(SpanTooLong):
            synthesize(model, 10, model.span_seconds + 1, "replay_scaled")


class TestSampled:
    def test_window_width_past_int64(self):
        t = make_trace([full_rec(0, 10), full_rec(1, 7000)])
        model = build_workload_model(t, 10**23)
        assert window_sizes(model) == [2]
        # Full-span sampling reproduces the one window's count.
        assert len(synthesize(model, 1, model.span_seconds, "sampled", seed=1).jobs) == 2

    def test_too_many_target_windows(self):
        model = build_workload_model(make_trace([full_rec(0, 0), full_rec(1, 7200)]), 1)
        with pytest.raises(TooManyBuckets):
            synthesize(model, 1, MAX_BUCKETS + 1, "sampled")
        assert len(synthesize(model, 1, 7200, "replay_scaled").jobs) == 2

    def test_deterministic_given_seed(self):
        t = mixed_workload_trace(n_jobs=1000, seed=26)
        model = build_workload_model(t)
        span = model.span_seconds
        a = synthesize(model, 10, span, "sampled", seed=99)
        b = synthesize(model, 10, span, "sampled", seed=99)
        assert job_tuples(a) == job_tuples(b)

    def test_full_span_window_counts_match_source(self):
        t = mixed_workload_trace(n_jobs=2000, seed=27)
        model = build_workload_model(t)
        wl = synthesize(model, t.machine_count, model.span_seconds, "sampled", seed=1)
        width = model.window_width
        got = {}
        for off in wl.jobs.columns.submit_time.tolist():
            got[off // width] = got.get(off // width, 0) + 1
        want = {i: size for i, size in enumerate(window_sizes(model)) if size}
        assert got == want

    def test_offsets_sorted(self):
        t = mixed_workload_trace(n_jobs=500, seed=28)
        model = build_workload_model(t)
        wl = synthesize(model, 5, model.span_seconds, "sampled", seed=2)
        offs = wl.jobs.columns.submit_time.tolist()
        assert offs == sorted(offs)

    def test_marginals_close_to_source(self):
        t = mixed_workload_trace(n_jobs=4000, seed=29)
        model = build_workload_model(t)
        wl = synthesize(model, t.machine_count, model.span_seconds, "sampled", seed=3)
        source, synthetic = included_records(model), list(wl.jobs.records)
        for field in ("input_bytes", "shuffle_bytes", "output_bytes",
                      "duration", "map_task_seconds", "reduce_task_seconds"):
            src = [getattr(r, field) for r in source]
            syn = [getattr(j, field) for j in synthetic]
            assert ks_distance(src, syn) <= 0.05, field

    def test_longer_target_cycles_windows(self):
        t = mixed_workload_trace(n_jobs=300, seed=30, hours=24)
        model = build_workload_model(t)
        wl = synthesize(model, 10, model.span_seconds * 2, "sampled", seed=4)
        assert wl.jobs.columns.submit_time.max() > model.span_seconds


class TestDataPlan:
    def test_three_distinct_sources(self):
        t = make_trace([
            full_rec(0, 0, input_bytes=10**6),
            full_rec(1, 1, input_bytes=2 * 10**6),
            full_rec(2, 2, input_bytes=2 * 10**6),
        ])
        wl = synthesize(build_workload_model(t), 1, 2, "replay_scaled")
        plan = data_prepopulation_plan(wl)
        assert len(plan.files) == 3
        assert plan.total_bytes == 5 * 10**6

    def test_empty_workload_rejected(self):
        # One job in an hour-wide window: a 1-second draw expects 1/3600 of
        # it and rounds down, so no workload exists to plan for.
        t = make_trace([full_rec(0, 0), full_rec(1, 100_000)])
        with pytest.raises(NoData, match="workload has no jobs"):
            synthesize(build_workload_model(t), 1, 1, "sampled", seed=42)

    def test_total_matches_independent_sum(self):
        t = mixed_workload_trace(n_jobs=10_000, seed=32)
        model = build_workload_model(t)
        wl = synthesize(model, 10, model.span_seconds, "sampled", seed=5)
        plan = data_prepopulation_plan(wl)
        by_source = {}
        for j, source in zip(wl.jobs.records, wl.source_job_id.tolist()):
            by_source[source] = j.input_bytes
        assert plan.total_bytes == sum(by_source.values())
        assert len(plan.files) == len(by_source)

    def test_duplicated_sources_yield_one_file(self):
        t = mixed_workload_trace(n_jobs=50, seed=33)
        model = build_workload_model(t)
        wl = synthesize(model, 10, model.span_seconds, "sampled", seed=6)
        ids = [f for f, _ in data_prepopulation_plan(wl).files]
        assert len(ids) == len(set(ids))
        assert all(type(size) is int for _, size in data_prepopulation_plan(wl).files)


class TestClosure:
    def test_synthetic_trace_validates_cleanly(self):
        t = mixed_workload_trace(n_jobs=1500, seed=34)
        model = build_workload_model(t)
        wl = synthesize(model, 10, model.span_seconds, "sampled", seed=7)
        report = validate(wl.jobs)
        assert report.anomalies == []
        assert report.record_count == len(wl.jobs)
        assert all(v == 0 for v in report.missing_field_counts.values())


# Differential tests against the per-record oracles.

_SIZES = st.one_of(st.integers(0, 10), st.integers(0, 10**12))
_COUNTS = st.one_of(st.integers(0, 5), st.integers(0, 400))
_SECONDS = st.floats(0, 1e6, allow_nan=False)
_DIMENSIONS = {
    "duration": st.integers(0, 10**5),
    "input_bytes": _SIZES,
    "shuffle_bytes": _SIZES,
    "output_bytes": _SIZES,
    "map_task_seconds": _SECONDS,
    "reduce_task_seconds": _SECONDS,
    "map_tasks": _COUNTS,
    "reduce_tasks": _COUNTS,
}
_PAD = st.one_of(st.just(0), st.integers(0, 5000))


@st.composite
def source_traces(draw):
    """Small sorted traces: jobs missing a dimension or two, zero and
    small task counts (which scale below one task), byte sizes that land
    on rounding ties, and a span that may pad the jobs on either side."""
    n = draw(st.integers(1, 25))
    times = sorted(draw(st.lists(st.integers(0, 20_000), min_size=n, max_size=n)))
    records = []
    for t in times:
        missing = draw(st.sets(st.sampled_from(REQUIRED_FIELDS), max_size=2))
        records.append(JobRecord(
            job_id=draw(st.integers(0, 40)),
            submit_time=t,
            name=draw(st.sampled_from([None, "etl a", "select b"])),
            **{f: draw(values) for f, values in _DIMENSIONS.items() if f not in missing},
        ))
    span = (times[0] - draw(_PAD), times[-1] + draw(_PAD))
    return make_trace(records, machines=draw(st.integers(1, 12)), span=span)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    trace=source_traces(),
    target_machines=st.integers(1, 24),
    width=st.sampled_from([300, 1000, 3600, 10_000]),
    mode=st.sampled_from(["sampled", "replay_scaled"]),
    span_scale=st.sampled_from([None, 0.001, 0.3, 1.0, 1.7, 3.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_synthesis_matches_per_record_oracle(trace, target_machines, width, mode, span_scale, seed):
    span = trace.span[1] - trace.span[0]
    # None is the CLI's default full span; other scales give target spans
    # shorter or longer than the source.
    target_span = max(span, 1) if span_scale is None else max(1, math.ceil(span * span_scale))
    try:
        want_jobs, want_sources = synthesize_oracle(
            trace, width, target_machines, target_span, mode, seed)
    except (NoCompleteJobs, SpanTooLong) as exc:
        with pytest.raises(type(exc)):
            synthesize(build_workload_model(trace, width), target_machines, target_span, mode, seed)
        return

    model = build_workload_model(trace, width)
    if not want_jobs:
        with pytest.raises(NoData, match="workload has no jobs"):
            synthesize(model, target_machines, target_span, mode, seed)
        return
    wl = synthesize(model, target_machines, target_span, mode, seed)

    assert wl.scale_factor == target_machines / trace.machine_count
    assert wl.source_job_id.tolist() == want_sources
    assert (wl.jobs.label, wl.jobs.machine_count, wl.jobs.span) == (
        "synthetic:test", target_machines, (0, want_jobs[-1].submit_time))
    assert list(wl.jobs.records) == want_jobs
    want_cols = TraceColumns.from_records(want_jobs)
    for name, col in vars(wl.jobs.columns).items():
        if isinstance(col, np.ndarray) and name != "name_codes":
            np.testing.assert_array_equal(col, getattr(want_cols, name), err_msg=name)
            assert col.dtype == getattr(want_cols, name).dtype, name

    plan = data_prepopulation_plan(wl)
    assert (plan.files, plan.total_bytes) == plan_oracle(want_jobs, want_sources)
