"""Shared fixture builders for the test suite."""

import json
import math
import random
import threading
from concurrent.futures import Future
from operator import attrgetter

import numpy as np
import pytest

from mrtrace import JobFeatureMatrix, JobRecord, Trace
from mrtrace.columns import ROW_FIELDS, TraceColumns


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    """Fail a test that leaves a thread running: a pool that parse_trace,
    ReportBuilder.build or fit_best started must be joined before they
    return or raise."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    assert not left, f"threads still running after the test: {left}"


class _Deferred(Future):
    """A future whose call runs on the thread that first reads it."""

    def __init__(self, fn, args, kwargs):
        super().__init__()
        self._call = (fn, args, kwargs)

    def result(self, timeout=None):
        if not self.done():
            fn, args, kwargs = self._call
            try:
                self.set_result(fn(*args, **kwargs))
            except Exception as exc:
                self.set_exception(exc)
        return super().result(timeout)


class InlineExecutor:
    """Stands in for a ThreadPoolExecutor: each call runs on the calling
    thread when its result is first read, as a one-thread run would run
    it. Monkeypatch it over a module's ThreadPoolExecutor."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args, **kwargs):
        return _Deferred(fn, args, kwargs)

    def shutdown(self, wait=True, *, cancel_futures=False):
        pass


def rec(job_id, submit_time, **kw):
    return JobRecord(job_id=job_id, submit_time=submit_time, **kw)


_ROW = attrgetter(*ROW_FIELDS)


def columns_of_records(records) -> TraceColumns:
    """TraceColumns holding the given JobRecords, in order."""
    return TraceColumns.from_fields(list(zip(*map(_ROW, records))) or [()] * len(ROW_FIELDS))


def make_trace(records, label="test", machines=1, span=None):
    records = sorted(records, key=lambda r: r.submit_time)
    if span is None:
        span = (records[0].submit_time, records[-1].submit_time)
    return Trace(label=label, machine_count=machines, columns=columns_of_records(records),
                 span=span)


def matrix_of(rows):
    """A feature matrix over ``rows`` as given, for the k-means tests."""
    rows = np.asarray(rows, dtype=np.float64)
    return JobFeatureMatrix(rows=rows, raw=rows, excluded_count=0)


def full_rec(job_id, submit_time, *, name="job", duration=60, input_bytes=1000,
             shuffle_bytes=100, output_bytes=10, map_task_seconds=20.0,
             reduce_task_seconds=5.0, map_tasks=2, reduce_tasks=1,
             input_path_hash=None, output_path_hash=None):
    return JobRecord(
        job_id=job_id,
        submit_time=submit_time,
        name=name,
        duration=duration,
        input_bytes=input_bytes,
        shuffle_bytes=shuffle_bytes,
        output_bytes=output_bytes,
        map_task_seconds=map_task_seconds,
        reduce_task_seconds=reduce_task_seconds,
        map_tasks=map_tasks,
        reduce_tasks=reduce_tasks,
        input_path_hash=input_path_hash,
        output_path_hash=output_path_hash,
    )


def mixed_workload_trace(n_jobs=2000, seed=11, machines=100, hours=None, with_paths=True):
    """Trace with three job-type populations and a diurnal arrival pattern.

    The small/medium/large split loosely mirrors production job mixes:
    mostly tiny jobs, some mid-size transforms, a few heavy aggregates.
    """
    rng = random.Random(seed)
    hours = hours if hours is not None else max(24, n_jobs // 12)
    records = []
    jid = 0
    while jid < n_jobs:
        hour = rng.randrange(hours)
        weight = 1.0 + 0.8 * math.sin(2 * math.pi * hour / 24)
        if rng.random() > weight / 1.8:
            continue
        t = hour * 3600 + rng.randrange(3600)
        u = rng.random()
        if u < 0.80:
            ib = rng.randrange(10, 10**5)
            sb = 0
            ob = rng.randrange(10, 10**6)
            dur = rng.randrange(10, 90)
            mts, rts = float(rng.randrange(5, 60)), 0.0
            m, r = rng.randrange(1, 4), 0
        elif u < 0.95:
            ib = rng.randrange(10**7, 10**9)
            sb = rng.randrange(10**6, 10**8)
            ob = rng.randrange(10**5, 10**7)
            dur = rng.randrange(60, 1800)
            mts, rts = float(rng.randrange(500, 5000)), float(rng.randrange(100, 2000))
            m, r = rng.randrange(4, 40), rng.randrange(1, 10)
        else:
            ib = rng.randrange(10**10, 10**12)
            sb = rng.randrange(10**9, 10**11)
            ob = rng.randrange(10**8, 10**10)
            dur = rng.randrange(1800, 20000)
            mts, rts = float(rng.randrange(10**5, 10**7)), float(rng.randrange(10**4, 10**6))
            m, r = rng.randrange(40, 400), rng.randrange(10, 100)
        kw = {}
        if with_paths:
            kw["input_path_hash"] = rng.randrange(1, 200)
            kw["output_path_hash"] = 1000 + jid
        records.append(
            JobRecord(
                job_id=jid,
                submit_time=t,
                name=rng.choice(["insert into x", "SELECT a,b", "ad-hoc 12", "etl_run", "FROM logs"]),
                duration=dur,
                input_bytes=ib,
                shuffle_bytes=sb,
                output_bytes=ob,
                map_task_seconds=mts,
                reduce_task_seconds=rts,
                map_tasks=m,
                reduce_tasks=r,
                **kw,
            )
        )
        jid += 1
    return make_trace(records, label="mixed", machines=machines)


def trace_to_jsonl(trace, path):
    from mrtrace import serialize_trace

    serialize_trace(trace, path)
    return path


@pytest.fixture
def small_trace():
    return mixed_workload_trace(n_jobs=300, seed=5, hours=48)
