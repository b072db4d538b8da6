"""End-to-end acceptance suite.

Each test covers one release criterion at its stated tolerance and prints
one PASS line on success; a failure shows up as the usual pytest report.
Run with: pytest tests/test_acceptance.py -v -s
"""

import itertools
import json
import math
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import mrtrace as mt
from mrtrace.data_access import RankedAccessTable
from mrtrace.replay_sim import SimConfig
from mrtrace.report import ReportBuilder
from mrtrace.temporal import SUM_DIMENSIONS, TimeSeries, series_correlations

from cache_oracle import READ, WRITE, AccessEvent, simulate_events
from conftest import full_rec, make_trace, mixed_workload_trace, rec
from test_cache_sim import NaiveCache, run_both
from test_compute_patterns import best_permutation_agreement, planted_clusters
from test_data_access import brute_force_eighty_x, reading_jobs
from test_synthesis import included_records, job_tuples, ks_distance
from test_temporal import pearson_oracle, triple_trace


def ok(n, text):
    print(f"\n[criterion {n:2d}] PASS  {text}")


def test_criterion_01_zipf_recovery():
    for alpha in (0.5, 5 / 6, 1.2):
        ranks = np.arange(1, 10_001, dtype=np.float64)
        counts = np.maximum(1, np.round(1e6 * ranks**-alpha)).astype(np.int64)
        table = RankedAccessTable(
            digests=np.arange(10_000, dtype=np.uint64),
            counts=counts,
            sizes=np.full(10_000, np.nan),
            side="input",
        )
        t0 = time.perf_counter()
        fit = mt.fit_zipf(table)
        elapsed = time.perf_counter() - t0
        assert abs(fit.slope - alpha) <= 0.01, alpha
        assert fit.r_squared >= 0.999, alpha
        assert elapsed < 1.0
    ok(1, "10k-file power-law tables recover alpha within 0.01, r^2 >= 0.999, < 1 s")


def test_criterion_02_burstiness_exactness():
    constant = TimeSeries(bucket_width=3600, start=0,
                          values=np.full(200, 7.0), dimension="jobs_submitted")
    curve = mt.burstiness_curve(constant, list(range(0, 101)))
    assert all(abs(r - 1.0) <= 1e-9 for r in curve.ratios)

    sine = mt.sine_reference("range_equals_mean", 7 * 24)
    assert abs(mt.peak_to_median(sine, 100) - 1.5) <= 0.01
    assert abs(mt.peak_to_median(sine, 0) - 0.5) <= 0.01
    ok(2, "constant series ratios 1.0 +/- 1e-9; week of sine+2 gives p100=1.5, p0=0.5")


def test_criterion_03_correlation_oracle():
    rng = random.Random(300)
    n = 1000
    jobs = [rng.randrange(1, 40) for _ in range(n)]
    data = [rng.randrange(0, 10**7) for _ in range(n)]
    compute = [rng.randrange(0, 10**4) for _ in range(n)]
    t = triple_trace(jobs, data, compute)
    corr = series_correlations(*(mt.bucket_time_series(t, d, 3600) for d in SUM_DIMENSIONS))
    assert abs(corr.r_jobs_data - pearson_oracle(jobs, data)) <= 1e-9
    assert abs(corr.r_jobs_compute - pearson_oracle(jobs, compute)) <= 1e-9
    assert abs(corr.r_data_compute - pearson_oracle(data, compute)) <= 1e-9

    t = triple_trace(jobs, [2 * j for j in jobs], compute)
    linear = series_correlations(*(mt.bucket_time_series(t, d, 3600) for d in SUM_DIMENSIONS))
    assert linear.r_jobs_data == 1.0
    ok(3, "1000-bucket triples match independent Pearson within 1e-9; linear pair r = 1.0")


def test_criterion_04_clustering_recovery():
    trace, labels = planted_clusters(n_per=1000, seed=400, centers=(2.0, 5.0, 8.0), spread=0.05)
    matrix = mt.job_feature_vectors(trace)
    truth = np.asarray(labels)

    # Verify the fixture honours the stated geometry: planted centers at
    # least 8 within-cluster standard deviations apart in transformed space.
    centers = np.array([matrix.rows[truth == c].mean(axis=0) for c in range(3)])
    within = float(np.mean([matrix.rows[truth == c].std() for c in range(3)]))
    gaps = [np.linalg.norm(centers[a] - centers[b]) for a, b in ((0, 1), (0, 2), (1, 2))]
    assert min(gaps) >= 8 * within

    assert mt.elbow_fit(matrix, k_max=10, seed=42).k == 3

    models = [mt.fit_best(matrix, 3, seed=42) for _ in range(3)]
    for m in models[1:]:
        assert np.array_equal(m.assignments, models[0].assignments)
        assert np.array_equal(m.centroids, models[0].centroids)

    agreement = best_permutation_agreement(models[0].assignments.tolist(), labels, 3)
    assert agreement >= 0.99
    ok(4, f"3 planted job types: elbow k = 3, {agreement:.1%} label agreement, 3 reruns identical")


def test_criterion_05_eighty_x_exhaustive():
    size_patterns = ((5, 3, 8, 1, 9), (4, 4, 4, 4, 4))
    checked = 0
    for n_files in range(1, 6):
        for total in range(n_files, 11):
            for cut in itertools.combinations(range(1, total), n_files - 1):
                counts = [b - a for a, b in zip((0,) + cut, cut + (total,))]
                for sizes in size_patterns:
                    jobs = []
                    for f in range(n_files):
                        jobs += [(f + 1, sizes[f])] * counts[f]
                    trace = make_trace(reading_jobs(jobs))
                    expected = brute_force_eighty_x(
                        [(f + 1, counts[f], sizes[f]) for f in range(n_files)], 0.80
                    )
                    assert mt.eighty_x_rule(mt.file_table(trace), "input") == expected, (counts, sizes)
                    checked += 1
    ok(5, f"80-x rule equals brute force on all {checked} small access tables")


def test_criterion_06_synthesis_fidelity():
    trace = mixed_workload_trace(n_jobs=10_000, seed=600, machines=100)
    model = mt.build_workload_model(trace)
    span = model.span_seconds

    sampled = mt.synthesize(model, 100, span, "sampled", seed=42)
    assert sampled.scale_factor == 1.0
    dims = ("input_bytes", "shuffle_bytes", "output_bytes",
            "duration", "map_task_seconds", "reduce_task_seconds")
    source, synthetic = included_records(model), list(sampled.jobs.records)
    for dim in dims:
        src = [getattr(r, dim) for r in source]
        syn = [getattr(j, dim) for j in synthetic]
        assert ks_distance(src, syn) <= 0.05, dim

    def hourly_data_compute_corr(t):
        c = series_correlations(*(mt.bucket_time_series(t, d, 3600) for d in SUM_DIMENSIONS))
        return c.r_data_compute

    src_corr = hourly_data_compute_corr(trace)
    syn_corr = hourly_data_compute_corr(sampled.jobs)
    assert abs(syn_corr - src_corr) <= 0.1

    replayed = mt.synthesize(model, 100, span, "replay_scaled", seed=42)
    assert job_tuples(replayed) == [
        (r.submit_time - trace.span[0], r.input_bytes, r.shuffle_bytes, r.output_bytes,
         r.map_tasks, r.reduce_tasks, r.map_task_seconds, r.reduce_task_seconds,
         r.duration, r.job_id)
        for r in source
    ]
    ok(6, f"sampled KS <= 0.05 on all 6 dims, data/compute corr {src_corr:.2f} -> {syn_corr:.2f}, "
          "scale-1 replay byte-identical")


def test_criterion_07_simulator_conservation():
    from test_replay_sim import cfg, random_workload, wl, job

    rng = random.Random(700)
    for i in range(100):
        w = random_workload(rng, n_jobs=rng.randrange(5, 40))
        config = cfg(nodes=rng.randrange(1, 5), map_slots=rng.randrange(1, 4),
                     reduce_slots=rng.randrange(1, 4),
                     scheduler="fair" if i % 2 else "fifo")
        res = mt.simulate(w, config)
        want_map = sum(j.map_task_seconds for j in w.records)
        want_reduce = sum(j.reduce_task_seconds for j in w.records)
        if want_map:
            assert abs(res.busy_map_slot_seconds - want_map) / want_map <= 1e-6
        if want_reduce:
            assert abs(res.busy_reduce_slot_seconds - want_reduce) / want_reduce <= 1e-6

    single = mt.simulate(wl([job(0, maps=1, map_ts=10.0)]), cfg())
    assert single.makespan == 10.0
    serial = mt.simulate(
        wl([job(0, 1, 10.0, source=0), job(0, 1, 10.0, source=1)]), cfg()
    )
    assert serial.completion.tolist() == [10.0, 20.0]
    barrier = mt.simulate(wl([job(0, 2, 20.0, reduces=1, reduce_ts=5.0)]), cfg(map_slots=2))
    assert barrier.completion.tolist() == [15.0]
    ok(7, "busy slot-seconds conserved on 100 random workloads; 3 hand schedules exact")


def test_criterion_08_cache_oracle():
    sizes = {0: 3, 1: 5, 2: 2, 3: 7}
    configs = [
        mt.CacheConfig(capacity_bytes=5),
        mt.CacheConfig(capacity_bytes=11),
        mt.CacheConfig(capacity_bytes=9, admission="size_at_most", size_threshold=4),
        mt.CacheConfig(capacity_bytes=9, eviction="idle_ttl", idle_ttl=2),
        mt.CacheConfig(capacity_bytes=17, eviction="idle_ttl", idle_ttl=5),
    ]

    alphabet = [(k, f) for k in (READ, WRITE) for f in range(3)]
    streams = 0
    for length in range(1, 5):
        for combo in itertools.product(alphabet, repeat=length):
            stream = [AccessEvent(t, f, sizes[f], k) for t, (k, f) in enumerate(combo)]
            for config in configs:
                run_both(stream, config)
            streams += 1

    rng = random.Random(800)
    for _ in range(400):
        stream = []
        t = 0
        for _ in range(20):
            t += rng.randrange(0, 4)
            f = rng.randrange(4)
            kind = READ if rng.random() < 0.7 else WRITE
            stream.append(AccessEvent(t, f, sizes[f], kind))
        for config in configs:
            run_both(stream, config)
        streams += 1

        capacity = sum(sizes.values())
        report = simulate_events(stream, mt.CacheConfig(capacity_bytes=capacity))
        seen = set()
        compulsory = 0
        for e in stream:
            if e.file_digest not in seen:
                seen.add(e.file_digest)
                if e.kind == READ:
                    compulsory += 1
        assert report.hits == report.accesses - compulsory
    ok(8, f"cache equals the naive reference on {streams} streams x {len(configs)} configs; "
          "compulsory-miss law exact")


def test_criterion_09_closure(tmp_path):
    trace = mixed_workload_trace(n_jobs=5_000, seed=900, machines=100)
    model = mt.build_workload_model(trace)
    workload = mt.synthesize(model, 10, model.span_seconds, "sampled", seed=42)
    path = tmp_path / "synthetic.jsonl"
    mt.serialize_trace(workload.jobs, path)

    reparsed = mt.parse_trace(path, "jsonl", label="synthetic", machine_count=10)
    report = mt.validate(reparsed)
    assert report.anomalies == []

    analysis = ReportBuilder(reparsed, seed=42).build()
    assert analysis["skipped"] == []
    ok(9, "synthetic workload re-parses cleanly and every analysis section runs")


def _write_big_trace(path: Path, n_jobs: int) -> None:
    rng = random.Random(1000)
    words = ("insert into t", "select x from y", "ad hoc 7", "etl nightly", "from logs", "pipeline")
    with open(path, "w", encoding="utf-8") as fh:
        batch = []
        for i in range(n_jobs):
            hour = (i * 7919) % 720  # one month of hours, scattered
            t = hour * 3600 + (i * 271) % 3600
            u = i % 100
            if u < 85:
                ib, sb, ob = (i * 13) % 10**6, 0, (i * 7) % 10**6
                dur, mts, rts, m, r = 30 + i % 60, 40.0, 0.0, 2, 0
            elif u < 97:
                ib, sb, ob = 10**8 + i % 10**9, 10**7, 10**6
                dur, mts, rts, m, r = 300 + i % 900, 4000.0, 1500.0, 20, 5
            else:
                ib, sb, ob = 10**11, 10**10, 10**9
                dur, mts, rts, m, r = 3000 + i % 9000, 4.0e6, 1.0e6, 300, 50
            batch.append(
                f'{{"job_id":{i},"name":"{words[i % 6]}","submit_time":{t},"duration":{dur},'
                f'"input_bytes":{ib},"shuffle_bytes":{sb},"output_bytes":{ob},'
                f'"map_task_seconds":{mts},"reduce_task_seconds":{rts},'
                f'"map_tasks":{m},"reduce_tasks":{r},'
                f'"input_path_hash":{(i * 2654435761) % 5000},"output_path_hash":{100000 + i}}}'
            )
            if len(batch) == 50_000:
                fh.write("\n".join(batch) + "\n")
                batch = []
        if batch:
            fh.write("\n".join(batch) + "\n")


def test_criterion_10_analyze_performance(tmp_path):
    trace_path = tmp_path / "million.jsonl"
    _write_big_trace(trace_path, 1_000_000)
    out = tmp_path / "report.json"
    plots = tmp_path / "plots"

    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "mrtrace", "analyze",
         "--trace", str(trace_path), "--machines", "3000",
         "--out", str(out), "--plots", str(plots)],
        capture_output=True, text=True,
    )
    elapsed = time.monotonic() - t0
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    assert proc.returncode == 0, proc.stderr[-2000:]
    assert elapsed < 60.0, f"analyze took {elapsed:.1f}s"
    peak_gb = peak_kb / 1024 / 1024
    assert peak_gb < 2.0 or peak_kb == before, f"peak RSS {peak_gb:.2f} GB"

    report = json.loads(out.read_text())
    assert report["metadata"]["record_count"] == 1_000_000
    assert report["skipped"] == []
    ok(10, f"1M-job analyze finished in {elapsed:.1f}s using {peak_gb:.2f} GB peak RSS")
