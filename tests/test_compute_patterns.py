import math
import random
import string
import warnings

import numpy as np
import pytest

from mrtrace import (
    ClusterModel,
    KTooLarge,
    NoData,
    elbow_fit,
    first_word,
    fit_best,
    job_feature_vectors,
    kmeans,
    name_breakdown,
    summarize_clusters,
)
from mrtrace import compute_patterns
from mrtrace.compute_patterns import FEATURE_NAMES, UNNAMED
from conftest import full_rec, make_trace, matrix_of, rec


class TestFirstWord:
    @pytest.mark.parametrize("name,expected", [
        ("Ad-hoc_Query_17", "ad"),
        ("INSERT overwrite table", "insert"),
        ("123_etl-run", "etl"),
        ("select * from t", "select"),
        ("FROM (SELECT ...)", "from"),
        ("", UNNAMED),
        (None, UNNAMED),
        ("12345", UNNAMED),
        ("___", UNNAMED),
    ])
    def test_examples(self, name, expected):
        assert first_word(name) == expected

    def test_idempotent_on_random_strings(self):
        rng = random.Random(17)
        alphabet = string.ascii_letters + string.digits + "_-. ()*<>"
        for _ in range(500):
            s = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 30)))
            assert first_word(first_word(s)) == first_word(s)


class TestNameBreakdown:
    def _named(self, specs):
        return make_trace([
            full_rec(i, i, name=n, input_bytes=ib, shuffle_bytes=0, output_bytes=0,
                     map_task_seconds=ts, reduce_task_seconds=0.0)
            for i, (n, ib, ts) in enumerate(specs)
        ])

    def test_job_counting(self):
        t = self._named([("insert a", 1, 1.0), ("insert b", 1, 1.0),
                         ("select c", 1, 1.0), ("etl d", 1, 1.0)])
        b = name_breakdown(t, "jobs")
        assert b.words == ["insert", "etl", "select"]
        assert b.fractions == [0.5, 0.25, 0.25]
        assert b.other_fraction == 0.0

    def test_io_weighting_dominated_by_heavy_job(self):
        t = self._named([("insert a", 10, 1.0), ("insert b", 10, 1.0),
                         ("select c", 10, 1.0), ("etl d", 300, 1.0)])
        b = name_breakdown(t, "io_bytes")
        assert b.words[0] == "etl"
        assert b.fractions[0] == pytest.approx(300 / 330)

    def test_task_time_weighting(self):
        t = self._named([("insert a", 1, 30.0), ("etl d", 1, 10.0)])
        b = name_breakdown(t, "task_time")
        assert b.words == ["insert", "etl"]
        assert b.fractions == [pytest.approx(0.75), pytest.approx(0.25)]

    def test_fractions_sum_to_one_under_every_weighting(self):
        rng = random.Random(18)
        t = self._named([
            (rng.choice(["a x", "bb y", "c", "dd", "e1"]), rng.randrange(1, 10**6),
             float(rng.randrange(1, 1000)))
            for _ in range(200)
        ])
        for weighting in ("jobs", "io_bytes", "task_time"):
            b = name_breakdown(t, weighting, min_fraction=0.15)
            assert sum(b.fractions) + b.other_fraction == pytest.approx(1.0, abs=1e-9)

    def test_cutoff_folds_into_other(self):
        t = self._named([("aa", 1, 1.0)] * 0 + [("big j", 1, 1.0)] * 9 + [("rare k", 1, 1.0)])
        b = name_breakdown(t, "jobs", min_fraction=0.2)
        assert b.words == ["big"]
        assert b.fractions == [pytest.approx(0.9)]
        assert b.other_fraction == pytest.approx(0.1)

    def test_nameless_trace(self):
        t = make_trace([rec(0, 0), rec(1, 1)])
        with pytest.raises(NoData):
            name_breakdown(t, "jobs")

    def test_partially_named_uses_unnamed_token(self):
        t = make_trace([rec(0, 0, name="etl x"), rec(1, 1)])
        b = name_breakdown(t, "jobs")
        assert dict(zip(b.words, b.fractions)) == {"etl": 0.5, UNNAMED: 0.5}


class TestFeatureVectors:
    def test_all_zero_job_maps_through_log_shift(self):
        t = make_trace([
            full_rec(0, 0, input_bytes=0, shuffle_bytes=0, output_bytes=0, duration=0,
                     map_task_seconds=0.0, reduce_task_seconds=0.0),
            full_rec(1, 1),
        ])
        m = job_feature_vectors(t)
        # The two jobs in FEATURE_NAMES order; log10(1+0) = 0, so the zero
        # job's row is (0 - mean)/std per dimension.
        logs = np.log10(1.0 + np.array([[0, 0, 0, 0, 0.0, 0.0], [1000, 100, 10, 60, 20.0, 5.0]]))
        assert m.rows == pytest.approx((logs - logs.mean(axis=0)) / logs.std(axis=0))

    def test_identical_jobs_identical_rows(self):
        t = make_trace([full_rec(0, 0), full_rec(1, 5)])
        m = job_feature_vectors(t)
        assert np.array_equal(m.rows[0], m.rows[1])

    def test_moments_match_independent_recomputation(self):
        rng = random.Random(19)
        t = make_trace([
            full_rec(i, i, input_bytes=rng.randrange(10**8), shuffle_bytes=rng.randrange(10**6),
                     output_bytes=rng.randrange(10**7), duration=rng.randrange(1, 10**4),
                     map_task_seconds=float(rng.randrange(1, 10**5)),
                     reduce_task_seconds=float(rng.randrange(1, 10**4)))
            for i in range(100)
        ])
        m = job_feature_vectors(t)
        for d in range(6):
            col = m.rows[:, d].tolist()
            mean = sum(col) / len(col)
            var = sum((v - mean) ** 2 for v in col) / len(col)
            assert mean == pytest.approx(0.0, abs=1e-9)
            assert var == pytest.approx(1.0, abs=1e-9)

    def test_incomplete_jobs_excluded_and_counted(self):
        t = make_trace([full_rec(0, 0), rec(1, 1, input_bytes=5), rec(2, 2)])
        m = job_feature_vectors(t)
        assert len(m) == 1
        assert m.excluded_count == 2

    def test_zero_variance_dimension_kept_centered(self):
        t = make_trace([full_rec(i, i, duration=100) for i in range(5)])
        m = job_feature_vectors(t)
        d = FEATURE_NAMES.index("duration")
        assert np.all(m.rows[:, d] == 0.0)

    def test_no_complete_rows(self):
        t = make_trace([rec(0, 0, input_bytes=1)])
        with pytest.raises(NoData):
            job_feature_vectors(t)

    @pytest.mark.parametrize("n", [3, 17, 4099, 1_000_000])
    def test_column_statistics_equal_the_whole_matrix_ones(self, n):
        # The per-column figures must be those of the n x 6 array, which
        # numpy sums row by row; a per-column mean() sums pairwise.
        class Columns:
            def __len__(self):
                return n

        rng = np.random.default_rng(n)
        raw = np.floor(rng.lognormal(8.0, 4.0, size=(n, len(FEATURE_NAMES))))
        raw[rng.random(raw.shape) < 0.05] = np.nan
        cols = Columns()
        for name, col in zip(FEATURE_NAMES, raw.T):
            setattr(cols, name, np.ascontiguousarray(col))
        index, means, stds = compute_patterns._standardization(cols)
        complete = ~np.isnan(raw).any(axis=1)
        rows = np.log10(1.0 + raw[complete])
        assert np.array_equal(index, np.flatnonzero(complete))
        assert means.tobytes() == rows.mean(axis=0).tobytes()
        assert stds.tobytes() == rows.std(axis=0).tobytes()

    def test_sampled_rows_are_rows_of_every_job(self, monkeypatch):
        monkeypatch.setattr(compute_patterns, "CLUSTER_SAMPLE_CAP", 50)
        trace, _ = planted_clusters(n_per=40)
        every = job_feature_vectors(trace)
        matrix, k_max, sampled_from = compute_patterns.cluster_sample(trace, 7, 10)
        keep = np.sort(np.random.default_rng(7).choice(len(every), 50, replace=False))
        assert (k_max, sampled_from, matrix.excluded_count) == (10, 120, every.excluded_count)
        assert matrix.rows.tobytes() == every.rows[keep].tobytes()
        assert matrix.raw.tobytes() == every.raw[keep].tobytes()


def planted_clusters(n_per=200, seed=20, centers=(2.0, 5.0, 8.0), spread=0.05):
    """Trace whose six log-scaled dimensions form tight, well-separated blobs."""
    rng = random.Random(seed)
    samples = []
    for ci, c in enumerate(centers):
        for _ in range(n_per):
            vals = [max(0.0, 10 ** (c + rng.gauss(0, spread)) - 1.0) for _ in range(6)]
            samples.append((ci, vals))
    rng.shuffle(samples)
    records = [
        full_rec(
            i, i,
            input_bytes=int(v[0]), shuffle_bytes=int(v[1]), output_bytes=int(v[2]),
            duration=int(v[3]), map_task_seconds=v[4], reduce_task_seconds=v[5],
        )
        for i, (_, v) in enumerate(samples)
    ]
    return make_trace(records), [ci for ci, _ in samples]


def best_permutation_agreement(assignments, truth, k):
    from itertools import permutations

    best = 0
    for perm in permutations(range(k)):
        agree = sum(1 for a, t in zip(assignments, truth) if perm[a] == t)
        best = max(best, agree)
    return best / len(truth)


class TestKMeans:
    def test_k1_centroid_is_column_mean(self):
        trace, _ = planted_clusters(n_per=50)
        m = job_feature_vectors(trace)
        model = kmeans(m, 1, seed=0)
        assert model.centroids[0] == pytest.approx(m.rows.mean(axis=0))
        dists = ((m.rows - m.rows.mean(axis=0)) ** 2).sum(axis=1)
        assert model.residual_variance == pytest.approx(dists.mean())

    def test_two_planted_clouds_recovered_exactly(self):
        trace, labels = planted_clusters(n_per=150, centers=(2.0, 8.0))
        m = job_feature_vectors(trace)
        model = kmeans(m, 2, seed=1)
        assert best_permutation_agreement(model.assignments.tolist(), labels, 2) == 1.0
        # Exhaustive nearest-centroid check of the returned model.
        d = ((m.rows[:, None, :] - model.centroids[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(d.argmin(axis=1), model.assignments)

    def test_deterministic_given_seed(self):
        trace, _ = planted_clusters(n_per=80)
        m = job_feature_vectors(trace)
        a = kmeans(m, 3, seed=7)
        b = kmeans(m, 3, seed=7)
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.assignments, b.assignments)
        assert a.residual_variance == b.residual_variance

    def test_k_too_large(self):
        trace, _ = planted_clusters(n_per=2, centers=(3.0,))
        m = job_feature_vectors(trace)
        with pytest.raises(KTooLarge):
            kmeans(m, 3, seed=0)

    def test_every_point_nearest_its_centroid(self):
        rng = random.Random(21)
        t = make_trace([
            full_rec(i, i, input_bytes=rng.randrange(10**9), shuffle_bytes=rng.randrange(10**7),
                     output_bytes=rng.randrange(10**8), duration=rng.randrange(1, 10**4),
                     map_task_seconds=float(rng.randrange(1, 10**5)),
                     reduce_task_seconds=float(rng.randrange(1, 10**4)))
            for i in range(300)
        ])
        m = job_feature_vectors(t)
        model = kmeans(m, 5, seed=3)
        d = ((m.rows[:, None, :] - model.centroids[None, :, :]) ** 2).sum(axis=2)
        best = d[np.arange(len(m)), model.assignments]
        assert np.all(best <= d.min(axis=1) + 1e-12)

    def test_fit_records_rounds_and_convergence(self):
        trace, _ = planted_clusters(n_per=50)
        model = kmeans(job_feature_vectors(trace), 3, seed=1)
        # The fixpoint shows in a second round at the earliest.
        assert model.converged
        assert 2 <= model.rounds < 100

    def test_more_clusters_than_distinct_rows_stay_finite(self):
        # Every d2 is 0 once both values hold a centroid, so the farthest
        # point is the first one each time; a reseed used to move it from
        # one empty cluster to the next and leave NaN means behind.
        rows = np.array([[0.0] * 6] * 6 + [[1.0] * 6] * 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = kmeans(matrix_of(rows), 5, seed=3)
        assert np.isfinite(model.centroids).all()
        assert model.residual_variance == 0.0
        assert np.bincount(model.assignments, minlength=5).min() >= 1
        assert np.array_equal(model.centroids[model.assignments], rows)

    def test_degenerate_fits_keep_every_cluster(self):
        rng = np.random.default_rng(5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for trial in range(200):
                n = int(rng.integers(1, 30))
                pool = rng.normal(size=(int(rng.integers(1, 4)), 6))
                rows = pool[rng.integers(len(pool), size=n)]
                k = int(rng.integers(1, n + 1))
                model = kmeans(matrix_of(rows), k, seed=trial)
                assert np.isfinite(model.centroids).all(), trial
                assert np.bincount(model.assignments, minlength=k).min() >= 1, trial


class TestSelectK:
    def test_three_planted_clusters(self):
        trace, _ = planted_clusters(n_per=100)
        m = job_feature_vectors(trace)
        assert elbow_fit(m, k_max=8, seed=5).k == 3
        # Brute-force variance table: the elbow rule picks the first k whose
        # k+1 refit improves by < 10%.
        rv = {k: fit_best(m, k, 5).residual_variance for k in range(1, 6)}
        first = next(k for k in range(1, 5) if (rv[k] - rv[k + 1]) / rv[k] < 0.10)
        assert first == 3

    def test_identical_points_give_one(self):
        t = make_trace([full_rec(i, i) for i in range(20)])
        m = job_feature_vectors(t)
        assert elbow_fit(m, k_max=5, seed=0).k == 1

    def test_variance_non_increasing_in_k(self):
        trace, _ = planted_clusters(n_per=60)
        m = job_feature_vectors(trace)
        rvs = [fit_best(m, k, seed=9).residual_variance for k in range(1, 7)]
        assert all(a >= b - 1e-12 for a, b in zip(rvs, rvs[1:]))


class TestSummaries:
    def test_odd_count_median(self):
        t = make_trace([full_rec(i, i, input_bytes=b) for i, b in enumerate((1, 2, 3))])
        m = job_feature_vectors(t)
        model = kmeans(m, 1, seed=0)
        _, medians, _ = summarize_clusters(model)
        assert medians[0, FEATURE_NAMES.index("input_bytes")] == 2.0

    def test_single_job_cluster(self):
        t = make_trace([full_rec(0, 0, input_bytes=123, duration=45)])
        model = kmeans(job_feature_vectors(t), 1, seed=0)
        counts, medians, _ = summarize_clusters(model)
        assert counts.tolist() == [1]
        assert medians[0, FEATURE_NAMES.index("input_bytes")] == 123.0
        assert medians[0, FEATURE_NAMES.index("duration")] == 45.0

    def test_counts_cover_all_clustered_jobs(self):
        trace, _ = planted_clusters(n_per=70)
        m = job_feature_vectors(trace)
        model = kmeans(m, 3, seed=2)
        counts, medians, labels = summarize_clusters(model)
        assert counts.dtype == np.int64 and counts.sum() == len(m)
        assert medians.shape == (3, len(FEATURE_NAMES)) and len(labels) == 3

    def test_label_is_marked_suggestion(self):
        trace, _ = planted_clusters(n_per=30)
        model = kmeans(job_feature_vectors(trace), 2, seed=0)
        _, _, labels = summarize_clusters(model)
        assert len(labels) == 2
        assert all(label.endswith("(suggested)") for label in labels)

    def test_equal_sizes_keep_cluster_order(self):
        # Past 16 clusters numpy's default argsort is not insertion sort,
        # so an unstable sort would reorder these ties. Each job's six
        # values are its cluster's index, so the medians name the clusters.
        k = 40
        sizes = [1 + j % 3 for j in range(k)]
        assign = np.random.default_rng(3).permutation(np.repeat(np.arange(k), sizes))
        matrix = matrix_of(np.repeat(assign[:, None], len(FEATURE_NAMES), axis=1))
        model = ClusterModel(k=k, centroids=np.ones((k, len(FEATURE_NAMES))), assignments=assign,
                             residual_variance=0.0, seed=0, matrix=matrix, rounds=1,
                             converged=True, nearest_rows=len(assign))
        counts, medians, _ = summarize_clusters(model)
        order = sorted(range(k), key=lambda j: -sizes[j])  # sorted() is stable
        assert counts.tolist() == [sizes[j] for j in order]
        assert medians[:, 0].tolist() == order
