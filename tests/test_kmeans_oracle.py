"""``compute_patterns.kmeans`` and ``elbow_fit`` against the serial k-means
they replaced (``kmeans_oracle``): the same assignments, centroids,
residual, rounds and chosen restart, bit for bit, on duplicate rows, tied
centroids, empty-cluster reseeds, k=1, k=n and n from 1 to 3000, under
one OpenBLAS thread and under two."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kmeans_oracle
from conftest import matrix_of
from mrtrace import compute_patterns, elbow_fit, fit_best, kmeans

KINDS = ("normal", "blobs", "grid", "pool", "constant")


def rows_of(kind: str, n: int, seed: int) -> np.ndarray:
    """n six-dimensional rows: Gaussian, Gaussian blobs, a small integer
    grid (exact distance ties), a few distinct rows repeated (tied
    centroids and reseeds), or one repeated row."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-3, 4)
    if kind == "normal":
        rows = rng.normal(size=(n, 6))
    elif kind == "blobs":
        centers = rng.normal(scale=5.0, size=(int(rng.integers(1, 6)), 6))
        rows = centers[rng.integers(len(centers), size=n)] + rng.normal(scale=0.3, size=(n, 6))
    elif kind == "grid":
        rows = rng.integers(-2, 3, size=(n, 6)).astype(np.float64)
    elif kind == "pool":
        pool = rng.normal(size=(int(rng.integers(1, 5)), 6))
        rows = pool[rng.integers(len(pool), size=n)]
    else:
        rows = np.full((n, 6), rng.normal())
    return rows * scale


def assert_same_model(got, want):
    assert got.k == want.k
    assert got.seed == want.seed  # the same restart won
    assert np.array_equal(got.assignments, want.assignments)
    assert got.assignments.dtype == want.assignments.dtype
    assert np.array_equal(got.centroids, want.centroids)
    assert got.residual_variance == want.residual_variance
    assert (got.rounds, got.converged) == (want.rounds, want.converged)


@st.composite
def fits(draw):
    n = draw(st.one_of(st.integers(1, 12), st.integers(13, 300), st.integers(301, 3000)))
    rows = rows_of(draw(st.sampled_from(KINDS)), n, draw(st.integers(0, 2**32 - 1)))
    k = draw(st.one_of(st.just(1), st.just(n), st.integers(1, min(n, 12))))
    return rows, k, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(fit=fits())
def test_kmeans_matches_the_serial_oracle(fit):
    rows, k, seed = fit
    m = matrix_of(rows)
    assert_same_model(kmeans(m, k, seed), kmeans_oracle.kmeans(m, k, seed))


@settings(max_examples=40, deadline=None)
@given(fit=fits(), seed=st.integers(0, 2**32 - 1))
def test_elbow_fit_matches_the_serial_oracle(fit, seed):
    rows, k_max, _ = fit
    k_max = min(k_max, 8)
    m = matrix_of(rows)
    assert_same_model(elbow_fit(m, k_max, seed=seed), kmeans_oracle.elbow_fit(m, k_max, seed=seed))


@pytest.mark.parametrize("rows, k", [
    ([[0.0] * 6] * 6 + [[1.0] * 6] * 5, 5),  # two values, five clusters
    ([[0.0] * 6] * 6 + [[1.0] * 6] * 5, 11),  # k = n on duplicates
    ([[0.5] * 6] * 4, 4),  # one value, k = n
    (rows_of("pool", 200, 1), 9),
    (rows_of("pool", 60, 3), 60),
], ids=["two values", "k=n duplicates", "one value", "pool", "pool k=n"])
def test_empty_cluster_reseeds_match(rows, k, monkeypatch):
    reseeds = []
    fill = compute_patterns._fill_empty

    def spy(points, assign, d2, centroids):
        reseeds.append(int((np.bincount(assign, minlength=len(centroids)) == 0).sum()))
        return fill(points, assign, d2, centroids)

    monkeypatch.setattr(compute_patterns, "_fill_empty", spy)
    m = matrix_of(rows)
    for seed in range(5):
        assert_same_model(kmeans(m, k, seed), kmeans_oracle.kmeans(m, k, seed))
    assert sum(reseeds) > 0


def test_restarts_on_more_threads_than_cores_match(monkeypatch):
    # Five workers whatever the machine, switching threads every microsecond.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    m = matrix_of(rows_of("blobs", 2000, 4))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(3):
            assert_same_model(fit_best(m, 6, seed), kmeans_oracle.fit_best(m, 6, seed))
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("rest", [0, 1, 2, 7])
def test_blocked_product_matches_the_whole_matrix(rest):
    # n = rest, and one and two _BLOCKs past it: a last block of one point
    # would take numpy's matrix-vector path, which rounds differently.
    block = compute_patterns._BLOCK
    rng = np.random.default_rng(rest)
    for n in sorted({rest, block + rest, 2 * block + rest} - {0}):
        points = rng.standard_normal((n, 6)) * 10.0 ** rng.integers(-3, 4, size=6)
        x_norms = (points * points).sum(axis=1)
        for k in range(1, 13):
            centroids = points[rng.choice(n, min(k, n), replace=False)] + rng.standard_normal(6)
            got = compute_patterns._nearest(points, centroids, x_norms)
            want = kmeans_oracle._nearest(points, centroids, x_norms)
            assert np.array_equal(got[0], want[0]), (n, k)
            assert got[1].tobytes() == want[1].tobytes(), (n, k)


def run_fixed_cases() -> int:
    """A fixed seeded subset of the differential cases, sizes up to 20k
    rows; returns how many fits matched. Run by the test below in a child
    process that sets its own OpenBLAS thread count."""
    matched = 0
    for case in range(30):
        kind = KINDS[case % len(KINDS)]
        n = (1, 7, 64, 500, 2999, 20_000)[case % 6]
        m = matrix_of(rows_of(kind, n, case))
        for k in sorted({1, min(n, 2), min(n, 9)}):
            assert_same_model(kmeans(m, k, case), kmeans_oracle.kmeans(m, k, case))
            matched += 1
        k_max = min(n, 6)
        assert_same_model(elbow_fit(m, k_max, seed=case), kmeans_oracle.elbow_fit(m, k_max, seed=case))
        matched += 1
    return matched


def _child(code: str, **env) -> subprocess.CompletedProcess:
    tests = Path(__file__).resolve().parent
    paths = [str(tests.parent / "src"), str(tests)]
    child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child_env.update(env, PYTHONPATH=os.pathsep.join(paths))
    # Run from tests/, whose conftest is the one the test modules import:
    # the repository root has a conftest.py of its own.
    return subprocess.run([sys.executable, "-c", code], env=child_env, capture_output=True,
                          text=True, timeout=300, cwd=tests)


def test_two_blas_threads_match_the_oracle():
    proc = _child("import os; assert os.environ['OPENBLAS_NUM_THREADS'] == '2'\n"
                  "import test_kmeans_oracle as t; print(t.run_fixed_cases())",
                  OPENBLAS_NUM_THREADS="2")
    assert proc.returncode == 0, proc.stderr[-3000:]
    # 25 cases of three fits and an elbow, and 5 one-row cases of k=1 and an elbow.
    assert int(proc.stdout.split()[-1]) == 25 * 4 + 5 * 2


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2"), ("8", "8")])
def test_import_pins_one_blas_thread_unless_set(preset, expected):
    env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
    proc = _child("import os, mrtrace\n"
                  "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task'))"
                  " if os.path.isdir('/proc/self/task') else -1)", **env)
    assert proc.returncode == 0, proc.stderr[-3000:]
    value, threads = proc.stdout.split()
    assert value == expected
    if preset is None and threads != "-1":
        assert threads == "1"  # OpenBLAS loaded without a worker pool
