"""Per-task replay and per-bucket occupancy, kept as oracles for the wave
simulator and closed-form occupancy in ``mrtrace.replay_sim``.

This is the simulator as it stood before waves: one heap entry and one
``(start_us, end_us, kind)`` interval per task, and an occupancy loop that
visits every bucket each interval touches. It is slow and obviously
correct, so the differential tests in ``test_replay_sim.py`` compare the
shipped code against it.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right, insort

import numpy as np

from mrtrace.errors import InvalidBucketWidth, MRTraceError, TooManyBuckets
from mrtrace.replay_sim import _MAP, _REDUCE, _REPLAY_FIELDS, US, SimConfig, SimResult
from mrtrace.temporal import MAX_BUCKETS, TimeSeries
from mrtrace.trace import Trace


class _Job:
    __slots__ = (
        "idx", "submit_us", "map_dur_us", "reduce_dur_us",
        "maps_to_dispatch", "maps_unfinished", "maps_dispatched",
        "reduces_to_dispatch", "reduces_unfinished", "reduces_dispatched",
        "first_start_us", "completion_us",
    )

    def __init__(self, idx, submit_us, map_tasks, reduce_tasks, map_ts, reduce_ts):
        self.idx = idx
        self.submit_us = submit_us
        self.map_dur_us = round(map_ts / map_tasks * US) if map_tasks else 0
        self.reduce_dur_us = round(reduce_ts / reduce_tasks * US) if reduce_tasks else 0
        self.maps_to_dispatch = map_tasks
        self.maps_unfinished = map_tasks
        self.maps_dispatched = 0
        self.reduces_to_dispatch = reduce_tasks
        self.reduces_unfinished = reduce_tasks
        self.reduces_dispatched = 0
        self.first_start_us = None
        self.completion_us = None


class _RunQueue:
    """Job indices with dispatchable tasks, granted fifo or round-robin."""

    def __init__(self, scheduler: str):
        self.fair = scheduler == "fair"
        self.jobs: list[int] = []  # sorted
        self.cursor = -1  # last job granted (fair only)

    def add(self, idx: int):
        insort(self.jobs, idx)

    def remove(self, idx: int):
        pos = bisect_right(self.jobs, idx) - 1
        self.jobs.pop(pos)

    def pick(self) -> int:
        if not self.fair:
            return self.jobs[0]
        pos = bisect_right(self.jobs, self.cursor)
        if pos == len(self.jobs):
            pos = 0
        self.cursor = self.jobs[pos]
        return self.cursor


def simulate(trace: Trace, config: SimConfig) -> SimResult:
    """Run the trace's jobs to completion, each submitted at its offset
    from the start of the trace's span, and report per-job times and slot
    usage. Raises MRTraceError when a job lacks a dimension replay needs."""
    cols = trace.columns
    missing = np.isnan([getattr(cols, f) for f in _REPLAY_FIELDS])
    bad = np.flatnonzero(missing.any(axis=0))
    if bad.size:
        i = bad[0]
        fields = [f for f, m in zip(_REPLAY_FIELDS, missing[:, i]) if m]
        raise MRTraceError(
            f"workload job {cols.job_id[i]} is missing {fields}; not a replayable workload"
        )

    # Python ints: microsecond times of int64 submit times overflow int64.
    start = trace.span[0]
    jobs = [
        _Job(i, (t - start) * US, maps, reduces, map_ts, reduce_ts)
        for i, (t, maps, reduces, map_ts, reduce_ts) in enumerate(zip(
            cols.submit_time.tolist(),
            cols.map_tasks.astype(np.int64).tolist(),
            cols.reduce_tasks.astype(np.int64).tolist(),
            cols.map_task_seconds.tolist(),
            cols.reduce_task_seconds.tolist(),
        ))
    ]

    free = {
        _MAP: config.nodes * config.map_slots_per_node,
        _REDUCE: config.nodes * config.reduce_slots_per_node,
    }
    runnable = {_MAP: _RunQueue(config.scheduler), _REDUCE: _RunQueue(config.scheduler)}
    completions: list[tuple[int, int, int, int]] = []  # (end_us, job, kind, task#)
    intervals: list[tuple[int, int, int]] = []
    busy_us = {_MAP: 0, _REDUCE: 0}

    def job_done(job: _Job, t: int):
        job.completion_us = t
        if job.first_start_us is None:
            job.first_start_us = job.submit_us

    def dispatch(t: int):
        for kind in (_MAP, _REDUCE):
            queue = runnable[kind]
            while free[kind] > 0 and queue.jobs:
                job = jobs[queue.pick()]
                if kind == _MAP:
                    job.maps_to_dispatch -= 1
                    task_no = job.maps_dispatched
                    job.maps_dispatched += 1
                    left, dur = job.maps_to_dispatch, job.map_dur_us
                else:
                    job.reduces_to_dispatch -= 1
                    task_no = job.reduces_dispatched
                    job.reduces_dispatched += 1
                    left, dur = job.reduces_to_dispatch, job.reduce_dur_us
                if left == 0:
                    queue.remove(job.idx)
                if job.first_start_us is None:
                    job.first_start_us = t
                free[kind] -= 1
                end = t + dur
                heapq.heappush(completions, (end, job.idx, kind, task_no))
                intervals.append((t, end, kind))
                busy_us[kind] += dur

    arrival_i = 0
    n = len(jobs)
    while arrival_i < n or completions:
        t_arrival = jobs[arrival_i].submit_us if arrival_i < n else None
        t_completion = completions[0][0] if completions else None
        t = min(x for x in (t_arrival, t_completion) if x is not None)

        while completions and completions[0][0] == t:
            _, idx, kind, _ = heapq.heappop(completions)
            job = jobs[idx]
            free[kind] += 1
            if kind == _MAP:
                job.maps_unfinished -= 1
                if job.maps_unfinished == 0:
                    if job.reduces_to_dispatch > 0:
                        runnable[_REDUCE].add(idx)  # barrier lifts
                    elif job.reduces_unfinished == 0:
                        job_done(job, t)
            else:
                job.reduces_unfinished -= 1
                if job.reduces_unfinished == 0:
                    job_done(job, t)

        while arrival_i < n and jobs[arrival_i].submit_us == t:
            job = jobs[arrival_i]
            if job.maps_to_dispatch > 0:
                runnable[_MAP].add(job.idx)
            elif job.reduces_to_dispatch > 0:
                runnable[_REDUCE].add(job.idx)
            else:
                job_done(job, t)
            arrival_i += 1

        dispatch(t)

    makespan = 0.0
    if jobs:
        makespan = (max(j.completion_us for j in jobs) - min(j.submit_us for j in jobs)) / US
    return SimResult(
        submit=np.array([j.submit_us / US for j in jobs], dtype=np.float64),
        first_task_start=np.array([j.first_start_us / US for j in jobs], dtype=np.float64),
        completion=np.array([j.completion_us / US for j in jobs], dtype=np.float64),
        makespan=makespan,
        busy_map_slot_seconds=busy_us[_MAP] / US,
        busy_reduce_slot_seconds=busy_us[_REDUCE] / US,
        task_intervals=intervals,
        total_slots=config.nodes * (config.map_slots_per_node + config.reduce_slots_per_node),
    )


def sim_occupancy_series(result: SimResult, bucket_width: int = 3600) -> TimeSeries:
    """Average active slots per bucket from exact task intervals."""
    if bucket_width <= 0:
        raise InvalidBucketWidth(f"bucket_width must be positive, got {bucket_width}")
    width_us = bucket_width * US
    end_us = max((e for _, e, _ in result.task_intervals), default=0)
    n = max(1, -(-end_us // width_us))
    if n > MAX_BUCKETS:
        raise TooManyBuckets(
            f"a makespan of {end_us / US:.6g} s at bucket width {bucket_width} s needs {n} buckets, "
            f"more than {MAX_BUCKETS}"
        )
    acc_us = [0] * n
    for start, end, _ in result.task_intervals:
        if end == start:
            continue
        first = start // width_us
        last = (end - 1) // width_us
        for b in range(first, last + 1):
            lo = b * width_us
            acc_us[b] += min(end, lo + width_us) - max(start, lo)
    return TimeSeries(
        bucket_width=bucket_width,
        start=0,
        values=np.asarray(acc_us, dtype=np.float64) / width_us,
        dimension="occupancy_slots",
    )
