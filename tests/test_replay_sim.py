import dataclasses
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import replay_oracle as oracle
from mrtrace import (InvalidBucketWidth, JobRecord, MRTraceError, SimConfig, SimResult,
                     SimTimeOverflow, TooManyBuckets, Trace, sim_occupancy_series, simulate)
from mrtrace.replay_sim import INT64_MAX, US
from mrtrace.temporal import MAX_BUCKETS
from mrtrace.columns import TraceColumns


def wl(jobs, span=None):
    """A workload trace of jobs already sorted by submit time, spanning
    from offset 0 to the last submit unless span is given."""
    return Trace(label="test", machine_count=1, columns=TraceColumns.from_records(jobs),
                 span=span or (0, max(j.submit_time for j in jobs)))


def job(offset, maps, map_ts, reduces=0, reduce_ts=0.0, source=0):
    return JobRecord(
        job_id=source, submit_time=offset, duration=0,
        input_bytes=0, shuffle_bytes=0, output_bytes=0,
        map_task_seconds=map_ts, reduce_task_seconds=reduce_ts,
        map_tasks=maps, reduce_tasks=reduces,
    )


def cfg(nodes=1, map_slots=1, reduce_slots=1, scheduler="fifo"):
    return SimConfig(nodes=nodes, map_slots_per_node=map_slots,
                     reduce_slots_per_node=reduce_slots, scheduler=scheduler)


class TestHandSchedules:
    def test_single_task(self):
        res = simulate(wl([job(0, maps=1, map_ts=10.0)]), cfg())
        assert res.makespan == 10.0
        assert res.job_timings[0].completion == 10.0
        assert res.job_timings[0].first_task_start == 0.0

    def test_fifo_serializes_on_one_slot(self):
        jobs = [job(0, maps=1, map_ts=10.0, source=0), job(0, maps=1, map_ts=10.0, source=1)]
        res = simulate(wl(jobs), cfg())
        assert [t.completion for t in res.job_timings] == [10.0, 20.0]

    def test_map_barrier_then_reduce(self):
        jobs = [job(0, maps=2, map_ts=20.0, reduces=1, reduce_ts=5.0)]
        res = simulate(wl(jobs), cfg(map_slots=2))
        # two 10s maps in parallel, barrier at 10, then the 5s reduce
        assert res.job_timings[0].completion == 15.0
        assert res.makespan == 15.0

    def test_fair_round_robins_between_jobs(self):
        jobs = [job(0, maps=2, map_ts=20.0, source=0), job(0, maps=2, map_ts=20.0, source=1)]
        fifo = simulate(wl(jobs), cfg(scheduler="fifo"))
        fair = simulate(wl(jobs), cfg(scheduler="fair"))
        assert [t.completion for t in fifo.job_timings] == [20.0, 40.0]
        # fair alternates grants: J0 runs at 0-10 and 20-30, J1 at 10-20 and 30-40
        assert [t.completion for t in fair.job_timings] == [30.0, 40.0]

    def test_zero_task_job_completes_at_submit(self):
        res = simulate(wl([job(5, maps=0, map_ts=0.0)]), cfg())
        t = res.job_timings[0]
        assert t.submit == t.first_task_start == t.completion == 5.0

    def test_reduce_only_job_skips_barrier(self):
        res = simulate(wl([job(0, maps=0, map_ts=0.0, reduces=2, reduce_ts=8.0)]), cfg(reduce_slots=2))
        assert res.job_timings[0].completion == 4.0

    def test_submit_times_are_offsets_from_span_start(self):
        jobs = [job(150, maps=1, map_ts=2.0), job(160, maps=1, map_ts=3.0, source=1)]
        res = simulate(wl(jobs, span=(100, 200)), cfg())
        assert [(t.submit, t.completion) for t in res.job_timings] == [(50.0, 52.0), (60.0, 63.0)]

    def test_tasks_granted_together_form_one_wave(self):
        jobs = [job(0, maps=5, map_ts=50.0, reduces=2, reduce_ts=4.0)]
        res = simulate(wl(jobs), cfg(map_slots=3, reduce_slots=2))
        assert res.task_intervals.tolist() == [
            [0, 10 * US, 0, 3], [10 * US, 20 * US, 0, 2], [20 * US, 22 * US, 1, 2],
        ]

    def test_fair_partial_round_resumes_after_last_job_granted(self):
        # Two slots, three jobs wanting 2, 1 and 2 tasks of 10 s: at 0 jobs
        # 0 and 1 get one each; at 10 the round resumes after job 1, so job
        # 2 and then job 0 get one; job 2's last task runs at 20.
        jobs = [job(0, maps=2, map_ts=20.0, source=0), job(0, maps=1, map_ts=10.0, source=1),
                job(0, maps=2, map_ts=20.0, source=2)]
        res = simulate(wl(jobs), cfg(map_slots=2, scheduler="fair"))
        assert [t.completion for t in res.job_timings] == [20.0, 10.0, 30.0]
        assert sorted(res.task_intervals[:, 3].tolist()) == [1, 1, 1, 1, 1]

    def test_later_arrival_waits_for_submit(self):
        jobs = [job(0, maps=1, map_ts=2.0), job(100, maps=1, map_ts=3.0, source=1)]
        res = simulate(wl(jobs), cfg())
        assert res.job_timings[1].first_task_start == 100.0
        assert res.job_timings[1].completion == 103.0


def random_workload(rng, n_jobs=30):
    jobs = []
    t = 0
    for i in range(n_jobs):
        t += rng.randrange(0, 30)
        maps = rng.randrange(0, 8)
        reduces = rng.randrange(0, 5) if maps else 0
        map_ts = float(maps * rng.randrange(1, 50))
        reduce_ts = float(reduces * rng.randrange(1, 20))
        jobs.append(job(t, maps=maps, map_ts=map_ts, reduces=reduces,
                        reduce_ts=reduce_ts, source=i))
    return wl(jobs)


class TestConservation:
    @pytest.mark.parametrize("scheduler", ["fifo", "fair"])
    def test_busy_slot_seconds_equal_task_seconds(self, scheduler):
        rng = random.Random(40)
        for _ in range(25):
            w = random_workload(rng)
            config = cfg(nodes=rng.randrange(1, 4), map_slots=rng.randrange(1, 4),
                         reduce_slots=rng.randrange(1, 3), scheduler=scheduler)
            res = simulate(w, config)
            want_map = sum(j.map_task_seconds for j in w.records)
            want_reduce = sum(j.reduce_task_seconds for j in w.records)
            assert res.busy_map_slot_seconds == pytest.approx(want_map, rel=1e-6)
            assert res.busy_reduce_slot_seconds == pytest.approx(want_reduce, rel=1e-6)

    def test_all_jobs_complete_in_order_constraints(self):
        rng = random.Random(41)
        w = random_workload(rng, 50)
        res = simulate(w, cfg(nodes=2, map_slots=2))
        for t in res.job_timings:
            assert t.submit <= t.first_task_start <= t.completion

    def test_fifo_single_slot_completes_in_submit_order(self):
        rng = random.Random(42)
        jobs = []
        t = 0
        for i in range(20):
            t += rng.randrange(1, 10)
            jobs.append(job(t, maps=1, map_ts=float(rng.randrange(1, 20)), source=i))
        res = simulate(wl(jobs), cfg())
        completions = [x.completion for x in res.job_timings]
        assert completions == sorted(completions)

    def test_deterministic(self):
        rng = random.Random(43)
        w = random_workload(rng, 40)
        a = simulate(w, cfg(nodes=2, map_slots=3, reduce_slots=2, scheduler="fair"))
        b = simulate(w, cfg(nodes=2, map_slots=3, reduce_slots=2, scheduler="fair"))
        assert [vars(x) for x in a.job_timings] == [vars(x) for x in b.job_timings]
        assert np.array_equal(a.task_intervals, b.task_intervals)

    def test_submit_offset_past_int64_names_the_job(self):
        last_fit = INT64_MAX // US  # seconds
        res = simulate(wl([job(0, 0, 0.0), job(last_fit, 0, 0.0, source=7)]), cfg())
        assert res.job_timings[1].completion == last_fit
        with pytest.raises(SimTimeOverflow, match=f"^job 7: submit offset .* {(last_fit + 1) * US} us "):
            simulate(wl([job(0, 0, 0.0), job(last_fit + 1, 0, 0.0, source=7)]), cfg())

    def test_wave_end_past_int64_names_the_job(self):
        last_fit = INT64_MAX // US
        room = (INT64_MAX - last_fit * US) / US  # 0.775807 s
        res = simulate(wl([job(0, 0, 0.0), job(last_fit, 1, room, source=3)]), cfg())
        assert res.task_intervals[-1, 1] == INT64_MAX
        with pytest.raises(SimTimeOverflow, match=f"^job 3: map tasks .* end at {INT64_MAX + 1} us"):
            simulate(wl([job(0, 0, 0.0), job(last_fit, 1, room + 1e-6, source=3)]), cfg())

    def test_job_missing_task_count_rejected(self):
        jobs = [job(0, 1, 1.0), dataclasses.replace(job(1, 1, 1.0, source=1), map_tasks=None)]
        with pytest.raises(MRTraceError, match=r"workload job 1 is missing \['map_tasks'\]"):
            simulate(wl(jobs), cfg())


class TestOccupancy:
    def test_total_busy_time_past_int64_rejected(self):
        # 3 * 2**61 + 2**61 - 1 slot-microseconds is INT64_MAX; one more is not.
        def result(last_len):
            rows = np.array([[0, 2**61, 0, 3], [0, last_len, 1, 1]], dtype=np.int64)
            return SimResult(job_timings=[], makespan=0.0, busy_map_slot_seconds=0.0,
                             busy_reduce_slot_seconds=0.0, task_intervals=rows, total_slots=4)

        width = 10**8
        at_limit = sim_occupancy_series(result(2**61 - 1), width)
        per_task = SimResult([], 0.0, 0.0, 0.0, [(0, 2**61, 0)] * 3 + [(0, 2**61 - 1, 1)], 4)
        assert at_limit.values.tolist() == oracle.sim_occupancy_series(per_task, width).values.tolist()
        with pytest.raises(SimTimeOverflow, match=f"^total busy slot time {2**63} us does not fit"):
            sim_occupancy_series(result(2**61), width)

    def test_single_aligned_task(self):
        res = simulate(wl([job(0, maps=1, map_ts=10.0)]), cfg())
        series = sim_occupancy_series(res, bucket_width=10)
        assert series.values.tolist() == [1.0]

    def test_task_straddles_two_buckets(self):
        res = simulate(wl([job(5, maps=1, map_ts=10.0)]), cfg())
        series = sim_occupancy_series(res, bucket_width=10)
        assert series.values.tolist() == [0.5, 0.5]

    def test_conserves_busy_seconds(self):
        rng = random.Random(44)
        w = random_workload(rng, 60)
        res = simulate(w, cfg(nodes=3, map_slots=2, reduce_slots=2))
        series = sim_occupancy_series(res, bucket_width=7)
        total = res.busy_map_slot_seconds + res.busy_reduce_slot_seconds
        assert series.values.sum() * 7 == pytest.approx(total, rel=1e-9)

    def test_never_exceeds_total_slots(self):
        rng = random.Random(45)
        w = random_workload(rng, 80)
        config = cfg(nodes=2, map_slots=2, reduce_slots=1)
        res = simulate(w, config)
        series = sim_occupancy_series(res, bucket_width=13)
        assert series.values.max() <= config.nodes * (config.map_slots_per_node + config.reduce_slots_per_node) + 1e-12

    def test_bucket_width_must_be_positive(self):
        res = simulate(wl([job(0, maps=1, map_ts=10.0)]), cfg())
        with pytest.raises(InvalidBucketWidth, match="got 0"):
            sim_occupancy_series(res, bucket_width=0)

    def test_bucket_count_limit_is_inclusive(self):
        at_limit = simulate(wl([job(0, maps=1, map_ts=float(MAX_BUCKETS))]), cfg())
        assert len(sim_occupancy_series(at_limit, bucket_width=1)) == MAX_BUCKETS
        over = simulate(wl([job(0, maps=1, map_ts=MAX_BUCKETS + 0.5)]), cfg())
        with pytest.raises(TooManyBuckets, match=f"needs {MAX_BUCKETS + 1} buckets"):
            sim_occupancy_series(over, bucket_width=1)
        assert len(sim_occupancy_series(over, bucket_width=2)) == MAX_BUCKETS // 2 + 1


# Workloads shaped to reach the wave simulator's edge cases: equal submit
# times, zero-task and reduce-only jobs, zero-duration tasks, and
# whole-second durations whose intervals end on bucket edges.
@st.composite
def workloads(draw):
    jobs = []
    t = 0
    for i in range(draw(st.integers(1, 24))):
        t += draw(st.sampled_from([0, 0, 1, 3, 17]))
        maps = draw(st.sampled_from([0, 1, 2, 3, 7, 20]))
        reduces = draw(st.sampled_from([0, 1, 2, 5]))
        map_s = draw(st.sampled_from([0.0, 1.0, 2.0, 5.0, 13.0, 0.3]))
        reduce_s = draw(st.sampled_from([0.0, 1.0, 3.0, 0.7]))
        jobs.append(job(t, maps=maps, map_ts=maps * map_s, reduces=reduces,
                        reduce_ts=reduces * reduce_s, source=i))
    return wl(jobs)


clusters = st.builds(cfg, nodes=st.integers(1, 3), map_slots=st.integers(1, 4),
                     reduce_slots=st.integers(1, 3), scheduler=st.sampled_from(["fifo", "fair"]))
widths = st.one_of(st.integers(1, 12), st.integers(1, 10**6))


class TestPerTaskOracle:
    @settings(max_examples=400, deadline=None)
    @given(w=workloads(), config=clusters)
    def test_waves_replay_the_per_task_simulator(self, w, config):
        got, want = simulate(w, config), oracle.simulate(w, config)
        assert [vars(t) for t in got.job_timings] == [vars(t) for t in want.job_timings]
        assert got.makespan == want.makespan
        assert got.busy_map_slot_seconds == want.busy_map_slot_seconds
        assert got.busy_reduce_slot_seconds == want.busy_reduce_slot_seconds
        expanded = Counter()
        for start, end, kind, count in got.task_intervals.tolist():
            expanded[start, end, kind] += count
        assert expanded == Counter(want.task_intervals)

    @settings(max_examples=300, deadline=None)
    @given(w=workloads(), config=clusters, width=widths)
    def test_closed_form_occupancy_equals_the_bucket_loop(self, w, config, width):
        got = sim_occupancy_series(simulate(w, config), width)
        want = oracle.sim_occupancy_series(oracle.simulate(w, config), width)
        assert got.values.tolist() == want.values.tolist()

    def test_one_slot_cluster_edges_on_bucket_boundaries(self):
        # Every task ends on a multiple of 5 s; width 5 puts each interval
        # end exactly on a bucket edge. A width of 10**13 s is more
        # microseconds than int64 holds.
        jobs = [job(0, maps=2, map_ts=10.0, reduces=1, reduce_ts=5.0),
                job(0, maps=0, map_ts=0.0, reduces=3, reduce_ts=15.0, source=1),
                job(5, maps=3, map_ts=0.0, source=2), job(10, maps=0, map_ts=0.0, source=3)]
        for scheduler in ("fifo", "fair"):
            config = cfg(scheduler=scheduler)
            got, want = simulate(wl(jobs), config), oracle.simulate(wl(jobs), config)
            assert [vars(t) for t in got.job_timings] == [vars(t) for t in want.job_timings]
            for width in (1, 5, 10, 10**6, 10**13):
                assert (sim_occupancy_series(got, width).values.tolist()
                        == oracle.sim_occupancy_series(want, width).values.tolist())
