"""Discrete-event replay of a workload trace on a slot-based cluster.

A workload is a Trace, synthetic or parsed from a file; each job is
submitted at its offset from the start of the trace's span. Time is
simulated in integer microseconds so event ordering is exact. Task
durations are uniform within a job (total task-seconds divided by task
count), the simulator's central approximation, and reduces start only
after all of a job's maps finish.

Because durations are uniform within a job, the tasks of one job and phase
that are dispatched at the same instant also finish together. The
simulator works in such waves: each dispatch instant grants every job its
share of the free slots in one step, and each (job, phase, instant) is one
heap entry and one output row, however many tasks it holds. ``fifo`` gives
free slots to the earliest-submitted jobs first; ``fair`` gives them one at
a time round-robin, starting after the job granted last. Occupancy is then
summed per bucket in closed form from the waves.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from operator import mul

import numpy as np

from .errors import InvalidBucketWidth, MRTraceError, SimTimeOverflow, TooManyBuckets
from .synthesis import REQUIRED_FIELDS
from .temporal import MAX_BUCKETS, TimeSeries
from .trace import Trace

US = 1_000_000
INT64_MAX = 2**63 - 1

# Every dimension a replayable job carries except duration, which the
# simulator does not read.
_REPLAY_FIELDS = tuple(f for f in REQUIRED_FIELDS if f != "duration")

_MAP = 0
_REDUCE = 1
_PHASE = ("map", "reduce")


@dataclass(frozen=True)
class SimConfig:
    nodes: int
    map_slots_per_node: int = 2
    reduce_slots_per_node: int = 2
    scheduler: str = "fifo"  # fifo | fair

    def __post_init__(self):
        if min(self.nodes, self.map_slots_per_node, self.reduce_slots_per_node) < 1:
            raise ValueError("nodes and per-node slot counts must be positive")
        if self.scheduler not in ("fifo", "fair"):
            raise ValueError(f"unknown scheduler {self.scheduler!r}")


@dataclass
class JobTiming:
    submit: float
    first_task_start: float
    completion: float


@dataclass
class SimResult:
    job_timings: list[JobTiming]
    makespan: float
    busy_map_slot_seconds: float
    busy_reduce_slot_seconds: float
    # int64, one row per wave (the tasks of one job and phase dispatched at
    # one instant): (start_us, end_us, kind, count), kind 0 map, 1 reduce.
    task_intervals: np.ndarray
    total_slots: int


def _water_level(want: list[int], free: int) -> tuple[int, int]:
    """Hand ``free`` slots round-robin, one per job per round, to jobs that
    want ``want`` tasks. Returns the full rounds r, after which each job
    holds min(w, r), and the grants of the last, partial round, one each
    to the first jobs that want more than r."""
    rounds, active = 0, len(want)
    for w in sorted(want):
        step = (w - rounds) * active
        if step > free:
            q = free // active
            return rounds + q, free - q * active
        free -= step
        rounds = w
        active -= 1
    return rounds, 0


class _RunQueue:
    """Job indices with tasks of one phase to dispatch, granted fifo or
    round-robin."""

    def __init__(self, scheduler: str, left: list[int]):
        self.fair = scheduler == "fair"
        self.left = left  # tasks left to dispatch, by job index
        self.jobs: list[int] = []  # sorted
        self.cursor = -1  # last job granted (fair only)

    def add(self, idx: int):
        insort(self.jobs, idx)

    def grant(self, free: int) -> list[tuple[int, int]]:
        """Give out up to ``free`` slots as one-at-a-time grants would, as
        (job, tasks) pairs, and drop the jobs left with nothing to dispatch."""
        grants = self._fair(free) if self.fair else self._fifo(free)
        left, jobs = self.left, self.jobs
        done = []
        for idx, count in grants:
            left[idx] -= count
            if not left[idx]:
                done.append(idx)
        # Highest first, so each deletion moves only the jobs still queued.
        for idx in sorted(done, reverse=True):
            del jobs[bisect_left(jobs, idx)]
        return grants

    def _fifo(self, free: int) -> list[tuple[int, int]]:
        grants = []
        for idx in self.jobs:
            count = min(free, self.left[idx])
            grants.append((idx, count))
            free -= count
            if not free:
                break
        return grants

    def _fair(self, free: int) -> list[tuple[int, int]]:
        """Round-robin in closed form, in cyclic order from the job after
        the cursor; the cursor moves to the last job granted."""
        jobs = self.jobs
        pos = bisect_right(jobs, self.cursor)
        if free < len(jobs):
            # Fewer slots than jobs, so no full round: a task each to the
            # next ``free`` jobs. Past here every job gets at least one.
            order = jobs[pos:pos + free]
            order += jobs[:free - len(order)]
            self.cursor = order[-1]
            return [(idx, 1) for idx in order]
        order = jobs[pos:] + jobs[:pos]
        want = [self.left[idx] for idx in order]
        rounds, extra = _water_level(want, free)
        partial = extra > 0
        grants = []
        for idx, w in zip(order, want):
            if w > rounds and extra:
                grants.append((idx, rounds + 1))
                extra -= 1
                if not extra:
                    self.cursor = idx
            else:
                grants.append((idx, min(w, rounds)))
                if not partial and w >= rounds:
                    self.cursor = idx
        return grants


def simulate(trace: Trace, config: SimConfig) -> SimResult:
    """Run the trace's jobs to completion, each submitted at its offset
    from the start of the trace's span, and report per-job times and slot
    usage. Raises MRTraceError when a job lacks a dimension replay needs,
    and SimTimeOverflow when one of a job's microsecond times does not fit
    a 64-bit integer."""
    cols = trace.columns
    missing = np.isnan([getattr(cols, f) for f in _REPLAY_FIELDS])
    bad = np.flatnonzero(missing.any(axis=0))
    if bad.size:
        i = bad[0]
        fields = [f for f, m in zip(_REPLAY_FIELDS, missing[:, i]) if m]
        raise MRTraceError(
            f"workload job {cols.job_id[i]} is missing {fields}; not a replayable workload"
        )

    # Python ints, checked against int64 before any array holds them:
    # microsecond times of int64 submit times may overflow it.
    start = trace.span[0]
    submit_us = [(t - start) * US for t in cols.submit_time.tolist()]
    n = len(submit_us)
    if n and submit_us[-1] > INT64_MAX:  # sorted by submit time
        i = bisect_right(submit_us, INT64_MAX)
        raise SimTimeOverflow(
            f"job {cols.job_id[i]}: submit offset from the span start "
            f"{submit_us[i]} us does not fit a 64-bit integer"
        )
    tasks = (cols.map_tasks.astype(np.int64).tolist(), cols.reduce_tasks.astype(np.int64).tolist())
    task_seconds = (cols.map_task_seconds.tolist(), cols.reduce_task_seconds.tolist())
    dur_us = tuple(
        [round(ts / k * US) if k else 0 for k, ts in zip(tasks[kind], task_seconds[kind])]
        for kind in (_MAP, _REDUCE)
    )
    left = (list(tasks[_MAP]), list(tasks[_REDUCE]))  # to dispatch
    unfinished = (list(tasks[_MAP]), list(tasks[_REDUCE]))
    first_start_us: list = [None] * n
    completion_us: list = [None] * n

    free = [config.nodes * config.map_slots_per_node, config.nodes * config.reduce_slots_per_node]
    runnable = (_RunQueue(config.scheduler, left[_MAP]), _RunQueue(config.scheduler, left[_REDUCE]))
    waves: list[tuple[int, int, int, int]] = []  # heap of (end_us, job, kind, count)
    rows: list[int] = []  # flat (start_us, end_us, kind, count) per wave
    busy_us = [0, 0]

    def job_done(idx: int, t: int):
        completion_us[idx] = t
        if first_start_us[idx] is None:
            first_start_us[idx] = submit_us[idx]

    def dispatch(kind: int, t: int):
        dur = dur_us[kind]
        for idx, count in runnable[kind].grant(free[kind]):
            if first_start_us[idx] is None:
                first_start_us[idx] = t
            free[kind] -= count
            end = t + dur[idx]
            if end > INT64_MAX:
                raise SimTimeOverflow(
                    f"job {cols.job_id[idx]}: {_PHASE[kind]} tasks started at {t} us "
                    f"end at {end} us, which does not fit a 64-bit integer"
                )
            heapq.heappush(waves, (end, idx, kind, count))
            rows.extend((t, end, kind, count))
            busy_us[kind] += dur[idx] * count

    arrival_i = 0
    while arrival_i < n or waves:
        t = waves[0][0] if waves else submit_us[arrival_i]
        if arrival_i < n and submit_us[arrival_i] < t:
            t = submit_us[arrival_i]

        while waves and waves[0][0] == t:
            _, idx, kind, count = heapq.heappop(waves)
            free[kind] += count
            unfinished[kind][idx] -= count
            if unfinished[kind][idx] == 0:
                if kind == _REDUCE:
                    job_done(idx, t)
                elif left[_REDUCE][idx] > 0:
                    runnable[_REDUCE].add(idx)  # barrier lifts
                elif unfinished[_REDUCE][idx] == 0:
                    job_done(idx, t)

        while arrival_i < n and submit_us[arrival_i] == t:
            if left[_MAP][arrival_i] > 0:
                runnable[_MAP].add(arrival_i)
            elif left[_REDUCE][arrival_i] > 0:
                runnable[_REDUCE].add(arrival_i)
            else:
                job_done(arrival_i, t)
            arrival_i += 1

        for kind in (_MAP, _REDUCE):
            if free[kind] and runnable[kind].jobs:
                dispatch(kind, t)

    timings = [
        JobTiming(submit=s / US, first_task_start=f / US, completion=c / US)
        for s, f, c in zip(submit_us, first_start_us, completion_us)
    ]
    makespan = (max(completion_us) - min(submit_us)) / US if n else 0.0
    return SimResult(
        job_timings=timings,
        makespan=makespan,
        busy_map_slot_seconds=busy_us[_MAP] / US,
        busy_reduce_slot_seconds=busy_us[_REDUCE] / US,
        task_intervals=np.array(rows, dtype=np.int64).reshape(-1, 4),
        total_slots=config.nodes * (config.map_slots_per_node + config.reduce_slots_per_node),
    )


def sim_occupancy_series(result: SimResult, bucket_width: int = 3600) -> TimeSeries:
    """Average active slots per bucket, exact in integer microseconds: each
    wave adds count times its overlap with every bucket it touches. Raises
    SimTimeOverflow when the total busy slot time does not fit int64; that
    total bounds every bucket and every partial sum below."""
    if bucket_width <= 0:
        raise InvalidBucketWidth(f"bucket_width must be positive, got {bucket_width}")
    width_us = bucket_width * US
    start, end, _, count = result.task_intervals.T
    end_us = int(end.max(initial=0))
    n = max(1, -(-end_us // width_us))
    if n > MAX_BUCKETS:
        raise TooManyBuckets(
            f"a makespan of {end_us / US:.6g} s at bucket width {bucket_width} s needs {n} buckets, "
            f"more than {MAX_BUCKETS}"
        )
    busy_us = sum(map(mul, count.tolist(), (end - start).tolist()))
    if busy_us > INT64_MAX:
        raise SimTimeOverflow(f"total busy slot time {busy_us} us does not fit a 64-bit integer")
    if n == 1:
        # All busy time falls in one bucket; a width past int64 only gets here.
        acc_us = np.array([busy_us], dtype=np.int64)
    else:
        ran = end > start
        start, end, count = start[ran], end[ran], count[ran]
        first = start // width_us
        last = (end - 1) // width_us
        # Buckets strictly inside a wave take count * width each, from a
        # difference array; its first and last buckets take their parts.
        inside = last > first + 1
        diff = np.zeros(n, dtype=np.int64)
        np.add.at(diff, first[inside] + 1, count[inside] * width_us)
        np.add.at(diff, last[inside], -count[inside] * width_us)
        acc_us = np.cumsum(diff)
        np.add.at(acc_us, first, count * np.minimum(end - start, width_us - start % width_us))
        tail = last > first
        np.add.at(acc_us, last[tail], count[tail] * ((end[tail] - 1) % width_us + 1))
    return TimeSeries(
        bucket_width=bucket_width,
        start=0,
        values=acc_us.astype(np.float64) / width_us,
        dimension="occupancy_slots",
    )
