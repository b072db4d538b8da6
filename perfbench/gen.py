"""Seeded input generators for the benchmark workloads.

Every generator draws from ``numpy.random.default_rng(seed)`` only, so the
same seed writes byte-identical files and a different seed different ones.
Each returns the facts the output checks need, computed from the drawn
arrays rather than from anything the program reports.

Run as ``python3 perfbench/gen.py KIND PATH SEED``: it writes the file and
prints its facts as one JSON line. The benchmark generates in a child
process because a child inherits its parent's peak RSS at exec, which
would otherwise leak into the measured ``ru_maxrss`` of every later run.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

NAME_WORDS = ("insert into t", "select x from y", "ad hoc 7", "etl nightly", "from logs", "pipeline")
HOUR = 3600
DAY = 86400


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
        # Flush to disk now, so write-back of the input does not overlap
        # the timed runs that read it.
        fh.flush()
        os.fsync(fh.fileno())


def _write_jobs(path, word, submit, dur, ib, sb, ob, mts, rts, m, r, in_path, out_base) -> None:
    """Jobs carrying every field, job ids in row order, each writing its
    own output path ``out_base + job_id``."""
    names = [NAME_WORDS[w] for w in word.tolist()]
    _write_lines(path, [
        f'{{"job_id":{i},"name":"{nm}","submit_time":{t},"duration":{d},'
        f'"input_bytes":{a},"shuffle_bytes":{b},"output_bytes":{c},'
        f'"map_task_seconds":{x!r},"reduce_task_seconds":{y!r},'
        f'"map_tasks":{mm},"reduce_tasks":{rr},'
        f'"input_path_hash":{h},"output_path_hash":{out_base + i}}}'
        for i, (nm, t, d, a, b, c, x, y, mm, rr, h) in enumerate(zip(
            names, submit.tolist(), dur.tolist(), ib.tolist(), sb.tolist(), ob.tolist(),
            mts.tolist(), rts.tolist(), m.tolist(), r.tolist(), in_path.tolist()))
    ])


def _log_uniform(rng, lo: float, hi: float, n: int) -> np.ndarray:
    return np.floor(np.exp(rng.uniform(np.log(lo), np.log(hi), n))).astype(np.int64)


def analyze_trace(path, seed: int, n_jobs: int = 1_000_000) -> dict:
    """The analyze-1m input: an 85/12/3 small/medium/large mix over 720
    hourly buckets, about 5,000 shared input paths and six name words, in
    the per-class shape of the acceptance suite's 1M-job trace."""
    rng = np.random.default_rng(seed)
    kind = rng.choice(3, size=n_jobs, p=(0.85, 0.12, 0.03))
    submit = rng.integers(0, 720, n_jobs) * HOUR + rng.integers(0, HOUR, n_jobs)
    word = rng.integers(0, len(NAME_WORDS), n_jobs)
    in_path = rng.integers(0, 5000, n_jobs)
    small_in = rng.integers(0, 10**6, n_jobs)
    small_out = rng.integers(0, 10**6, n_jobs)
    medium_in = 10**8 + rng.integers(0, 10**9, n_jobs)
    jitter = rng.integers(0, 9000, n_jobs)

    small, medium = kind == 0, kind == 1
    ib = np.where(small, small_in, np.where(medium, medium_in, 10**11))
    sb = np.where(small, 0, np.where(medium, 10**7, 10**10))
    ob = np.where(small, small_out, np.where(medium, 10**6, 10**9))
    dur = np.where(small, 30 + jitter % 60, np.where(medium, 300 + jitter % 900, 3000 + jitter))
    mts = np.where(small, 40.0, np.where(medium, 4000.0, 4.0e6))
    rts = np.where(small, 0.0, np.where(medium, 1500.0, 1.0e6))
    m = np.where(small, 2, np.where(medium, 20, 300))
    r = np.where(small, 0, np.where(medium, 5, 50))

    _write_jobs(path, word, submit, dur, ib, sb, ob, mts, rts, m, r, in_path, out_base=100000)
    return {"jobs": n_jobs}


def cache_trace(path, seed: int, n_jobs: int = 200_000, n_files: int = 20_000,
                zipf_exponent: float = 1.1) -> dict:
    """The cache-sweep input: one Zipf-distributed read per job over
    ``n_files`` input files, one private output write per job, file sizes
    log-uniform from 1 KB to 1 GB, submit times over 30 days."""
    rng = np.random.default_rng(seed)
    file_size = _log_uniform(rng, 1e3, 1e9, n_files)
    popularity = np.arange(1, n_files + 1, dtype=np.float64) ** -zipf_exponent
    file_of_rank = rng.permutation(n_files)
    reads = file_of_rank[rng.choice(n_files, size=n_jobs, p=popularity / popularity.sum())]
    submit = rng.integers(0, 30 * DAY, n_jobs)
    duration = rng.integers(10, 2 * HOUR, n_jobs)
    out_size = _log_uniform(rng, 1e3, 1e9, n_jobs)
    word = rng.integers(0, len(NAME_WORDS), n_jobs)

    # Input digests are 1..n_files and output digests start above them, so
    # no output write ever installs a file that a job reads.
    out_base = n_files + 1
    names = [NAME_WORDS[w] for w in word.tolist()]
    lines = [
        f'{{"job_id":{i},"name":"{nm}","submit_time":{t},"duration":{d},'
        f'"input_bytes":{ib},"output_bytes":{ob},'
        f'"input_path_hash":{f + 1},"output_path_hash":{out_base + i}}}'
        for i, (nm, t, d, f, ib, ob) in enumerate(zip(
            names, submit.tolist(), duration.tolist(), reads.tolist(),
            file_size[reads].tolist(), out_size.tolist()))
    ]
    _write_lines(path, lines)
    touched = np.unique(reads)
    largest = int(max(file_size[touched].max(), out_size.max()))
    total = int(file_size[touched].sum() + out_size.sum())
    return {
        "jobs": n_jobs,
        "reads": n_jobs,
        "first_touch_reads": int(touched.size),
        "distinct_file_bytes": total,
        "max_file_bytes": largest,
        "capacities": sweep_capacities(largest, total),
    }


def sweep_capacities(largest: int, total: int, points: int = 5) -> list[int]:
    """Geometric capacities from the largest file (every file fits, so a
    one-pass stack-distance sweep would be legal) up to all distinct file
    bytes combined (nothing is ever evicted)."""
    inner = [math.ceil(largest * (total / largest) ** (k / (points - 1))) for k in range(1, points - 1)]
    return [largest, *inner, total]


def mixed_trace(path, seed: int, n_jobs: int = 100_000) -> dict:
    """The synth-replay source: an 80/15/5 small/medium/large mix with
    diurnal arrivals, twelve jobs an hour on average."""
    rng = np.random.default_rng(seed)
    hours = n_jobs // 12
    weight = 1.0 + 0.8 * np.sin(2 * np.pi * np.arange(hours) / 24)
    submit = np.sort(rng.choice(hours, size=n_jobs, p=weight / weight.sum()) * HOUR
                     + rng.integers(0, HOUR, n_jobs))
    kind = rng.choice(3, size=n_jobs, p=(0.80, 0.15, 0.05))

    def pick(small, medium, large):
        return np.select([kind == 0, kind == 1],
                         [rng.integers(*small, n_jobs), rng.integers(*medium, n_jobs)],
                         rng.integers(*large, n_jobs))

    ib = pick((10, 10**5), (10**7, 10**9), (10**10, 10**12))
    sb = pick((0, 1), (10**6, 10**8), (10**9, 10**11))
    ob = pick((10, 10**6), (10**5, 10**7), (10**8, 10**10))
    dur = pick((10, 90), (60, 1800), (1800, 20000))
    mts = pick((5, 60), (500, 5000), (10**5, 10**7)).astype(np.float64)
    rts = pick((0, 1), (100, 2000), (10**4, 10**6)).astype(np.float64)
    m = pick((1, 4), (4, 40), (40, 400))
    r = pick((0, 1), (1, 10), (10, 100))
    in_path = rng.integers(1, 200, n_jobs)
    word = rng.integers(0, len(NAME_WORDS), n_jobs)

    _write_jobs(path, word, submit, dur, ib, sb, ob, mts, rts, m, r, in_path, out_base=1000)
    return {"jobs": n_jobs}


GENERATORS = {"analyze": analyze_trace, "cache": cache_trace, "mixed": mixed_trace}

if __name__ == "__main__":
    kind, path, seed = sys.argv[1:]
    facts = GENERATORS[kind](path, int(seed))
    print(json.dumps({"facts": facts, "numpy": np.__version__}))
