import dataclasses
import random

import pytest

from mrtrace import (InvalidBucketWidth, JobRecord, MRTraceError, SimConfig, TooManyBuckets, Trace,
                     sim_occupancy_series, simulate)
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
        assert a.task_intervals == b.task_intervals

    def test_job_missing_task_count_rejected(self):
        jobs = [job(0, 1, 1.0), dataclasses.replace(job(1, 1, 1.0, source=1), map_tasks=None)]
        with pytest.raises(MRTraceError, match=r"workload job 1 is missing \['map_tasks'\]"):
            simulate(wl(jobs), cfg())


class TestOccupancy:
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
