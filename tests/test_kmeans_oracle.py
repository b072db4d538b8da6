"""``compute_patterns.kmeans`` and ``elbow_fit`` against the serial k-means
they replaced (``kmeans_oracle``): the same assignments, centroids,
residual, rounds and chosen restart, bit for bit, on duplicate rows, tied
centroids, near-ties, centroids that creep, empty-cluster reseeds, the
round cap, k=1, k=n, k up to 20 and n from 1 to 20k, under one OpenBLAS
thread and under two."""

import itertools
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

KINDS = ("normal", "blobs", "grid", "pool", "constant", "mirrored", "elongated")


def rows_of(kind: str, n: int, seed: int) -> np.ndarray:
    """n six-dimensional rows: Gaussian, Gaussian blobs, a small integer
    grid (exact distance ties), a few distinct rows repeated (tied
    centroids and reseeds), one repeated row, rows mirrored in the first
    dimension with a third of them within a few units in the last place of
    the mirror (near-ties), or an elongated Gaussian (centroids that creep
    for many rounds, some fits to the round cap)."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-3, 4)
    if kind == "normal":
        rows = rng.normal(size=(n, 6))
    elif kind == "mirrored":
        rows = rng.normal(size=(n, 6))
        rows[1::2] = rows[0::2][: n // 2]
        rows[1::2, 0] *= -1.0
        near = rng.random(n) < 1 / 3
        rows[near, 0] = rng.choice([-1e-15, -2**-52, 0.0, 2**-52, 1e-15], size=int(near.sum()))
    elif kind == "elongated":
        rows = rng.normal(size=(n, 6)) * np.array([3.0, 2.0, 1.0, 0.5, 0.3, 0.2])
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


@pytest.mark.parametrize("seed", [8, 15])
def test_fits_stopped_by_the_round_cap_match(seed):
    # Found by search: these seeds take k = 10 to the 100-round cap.
    m = matrix_of(np.random.default_rng(seed).standard_normal((5000, 6))
                  * np.array([3.0, 2.0, 1.0, 0.5, 0.3, 0.2]))
    got = kmeans(m, 10, seed)
    assert (got.rounds, got.converged) == (100, False)
    assert_same_model(got, kmeans_oracle.kmeans(m, 10, seed))


def separable_sample(seed: int, n: int = 20_000) -> np.ndarray:
    """Five well separated Gaussian blobs."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=8.0, size=(5, 6))
    return centers[rng.integers(5, size=n)] + rng.normal(size=(n, 6))


def test_bounds_skip_most_distance_rows():
    # Eight clusters over five blobs take many rounds, in which few points
    # come near a boundary; the full passes alone would send every point
    # each round and once more.
    m = matrix_of(separable_sample(1))
    model = kmeans(m, 8, 1)
    assert model.rounds > 20
    assert model.nearest_rows < 0.2 * len(m) * (model.rounds + 1)
    assert_same_model(model, kmeans_oracle.kmeans(m, 8, 1))


def test_bounds_never_skip_a_near_tie_the_rounding_decides():
    # Points within a few units in the last place of the plane between two
    # centroids, and centroids then moved by far less than that: a point
    # the bounds let keep its assignment must keep it in a full pass.
    rng = np.random.default_rng(0)
    eps = np.finfo(np.float64).eps
    for _ in range(200):
        scale = 10.0 ** rng.integers(-3, 4)
        centroids = rng.normal(size=(2, 6)) * scale
        mid, normal = centroids.mean(axis=0), centroids[1] - centroids[0]
        points = mid + rng.normal(size=(4000, 6)) * scale
        points -= np.outer((points - mid) @ normal / (normal @ normal), normal)
        points += np.outer(rng.integers(-8, 9, size=4000) * eps, normal)
        x_norms = (points * points).sum(axis=1)
        x_len = np.sqrt(x_norms)
        slack = compute_patterns._SLACK * (x_len + x_len.max()) ** 2
        assign, best, second = compute_patterns._nearest(points, centroids, x_norms)
        upper, lower = compute_patterns._bounds(best, second, slack)
        moved_to = centroids + rng.normal(size=centroids.shape) * scale * 1e-17
        moved = np.sqrt(((moved_to - centroids) ** 2).sum(axis=1)).max()
        kept = upper + moved < lower - moved
        again = compute_patterns._nearest(points, moved_to, x_norms)[0]
        assert np.array_equal(again[kept], assign[kept])


def test_nearest_rows_repeat_for_a_seed():
    m = matrix_of(separable_sample(2, 5000))
    counts = {kmeans(m, k, seed).nearest_rows for k, seed in [(7, 3)] * 3}
    assert len(counts) == 1
    assert fit_best(m, 7, 3).nearest_rows == fit_best(m, 7, 3).nearest_rows


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
        for k in range(1, 21):
            centroids = points[rng.choice(n, min(k, n), replace=False)] + rng.standard_normal(6)
            got = compute_patterns._nearest(points, centroids, x_norms)
            want = kmeans_oracle._nearest(points, centroids, x_norms)
            assert np.array_equal(got[0], want[0]), (n, k)
            assert got[1].tobytes() == want[1].tobytes(), (n, k)
            # The bounded rounds send gathered rows, which must come out
            # as they do in the whole pass.
            for size in [s for s in {2, 3, 9, n // 2} if 2 <= s <= n]:
                rows = np.sort(rng.choice(n, size, replace=False))
                part = compute_patterns._nearest(points[rows], centroids, x_norms[rows])
                for whole, gathered in zip(got, part):
                    assert whole[rows].tobytes() == gathered.tobytes(), (n, k, size)


SIZES = (1, 7, 64, 500, 2999, 20_000)


def fixed_cases() -> list[tuple[str, int, int]]:
    """(kind, n, seed): each of the first five kinds at each size, then
    the near-tie and creeping kinds at each size."""
    cases = [(KINDS[case % 5], SIZES[case % 6], case) for case in range(30)]
    return cases + [(kind, n, 30 + i) for i, (kind, n) in enumerate(itertools.product(KINDS[5:], SIZES))]


def run_many_cluster_cases() -> int:
    """Fits of k = 13 to 20, past the 12 centroids the other cases reach,
    on near-tie rows in two blocks of _nearest; returns how many matched.
    Their bounded rounds send gathered rows through _nearest."""
    gathered = 0
    for k in range(13, 21):
        m = matrix_of(rows_of("mirrored", 6000, k))
        model = kmeans(m, k, k)
        assert_same_model(model, kmeans_oracle.kmeans(m, k, k))
        gathered += model.nearest_rows < len(m) * (model.rounds + (not model.converged))
    assert gathered == 8
    return 8


def test_many_clusters_on_near_ties_match():
    assert run_many_cluster_cases() == 8


def run_fixed_cases() -> int:
    """A fixed seeded subset of the differential cases, sizes up to 20k
    rows, and the fits of many clusters; returns how many fits matched.
    Run by the test below in a child process that sets its own OpenBLAS
    thread count."""
    matched = run_many_cluster_cases()
    for kind, n, case in fixed_cases():
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
    # 35 cases of three fits and an elbow, 7 one-row cases of k=1 and an
    # elbow, and 8 fits of many clusters.
    assert int(proc.stdout.split()[-1]) == 35 * 4 + 7 * 2 + 8


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
