import math
import random
import string

import numpy as np
import pytest

from mrtrace import (
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
from mrtrace.compute_patterns import FEATURE_NAMES, UNNAMED
from conftest import full_rec, make_trace, rec


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
        assert b.entries == [("insert", 0.5), ("etl", 0.25), ("select", 0.25)]
        assert b.other_fraction == 0.0

    def test_io_weighting_dominated_by_heavy_job(self):
        t = self._named([("insert a", 10, 1.0), ("insert b", 10, 1.0),
                         ("select c", 10, 1.0), ("etl d", 300, 1.0)])
        b = name_breakdown(t, "io_bytes")
        assert b.entries[0] == ("etl", pytest.approx(300 / 330))

    def test_task_time_weighting(self):
        t = self._named([("insert a", 1, 30.0), ("etl d", 1, 10.0)])
        b = name_breakdown(t, "task_time")
        assert b.entries == [("insert", pytest.approx(0.75)), ("etl", pytest.approx(0.25))]

    def test_fractions_sum_to_one_under_every_weighting(self):
        rng = random.Random(18)
        t = self._named([
            (rng.choice(["a x", "bb y", "c", "dd", "e1"]), rng.randrange(1, 10**6),
             float(rng.randrange(1, 1000)))
            for _ in range(200)
        ])
        for weighting in ("jobs", "io_bytes", "task_time"):
            b = name_breakdown(t, weighting, min_fraction=0.15)
            assert sum(f for _, f in b.entries) + b.other_fraction == pytest.approx(1.0, abs=1e-9)

    def test_cutoff_folds_into_other(self):
        t = self._named([("aa", 1, 1.0)] * 0 + [("big j", 1, 1.0)] * 9 + [("rare k", 1, 1.0)])
        b = name_breakdown(t, "jobs", min_fraction=0.2)
        assert b.entries == [("big", pytest.approx(0.9))]
        assert b.other_fraction == pytest.approx(0.1)

    def test_nameless_trace(self):
        t = make_trace([rec(0, 0), rec(1, 1)])
        with pytest.raises(NoData):
            name_breakdown(t, "jobs")

    def test_partially_named_uses_unnamed_token(self):
        t = make_trace([rec(0, 0, name="etl x"), rec(1, 1)])
        b = name_breakdown(t, "jobs")
        assert dict(b.entries) == {"etl": 0.5, UNNAMED: 0.5}


class TestFeatureVectors:
    def test_all_zero_job_maps_through_log_shift(self):
        t = make_trace([
            full_rec(0, 0, input_bytes=0, shuffle_bytes=0, output_bytes=0, duration=0,
                     map_task_seconds=0.0, reduce_task_seconds=0.0),
            full_rec(1, 1),
        ])
        m = job_feature_vectors(t)
        # log10(1+0) = 0, so the zero job's row is (0 - mean)/std per dim.
        expected = (0.0 - m.transform.means) / m.transform.stds
        assert m.rows[0] == pytest.approx(expected)

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
        assert "duration" in m.transform.zero_variance_dims
        assert np.all(m.rows[:, d] == 0.0)

    def test_no_complete_rows(self):
        t = make_trace([rec(0, 0, input_bytes=1)])
        with pytest.raises(NoData):
            job_feature_vectors(t)


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
        summary = summarize_clusters(t, model)
        assert summary.clusters[0].medians["input_bytes"] == 2.0

    def test_single_job_cluster(self):
        t = make_trace([full_rec(0, 0, input_bytes=123, duration=45)])
        model = kmeans(job_feature_vectors(t), 1, seed=0)
        row = summarize_clusters(t, model).clusters[0]
        assert row.job_count == 1
        assert row.medians["input_bytes"] == 123.0
        assert row.medians["duration"] == 45.0

    def test_counts_cover_all_clustered_jobs(self):
        trace, _ = planted_clusters(n_per=70)
        m = job_feature_vectors(trace)
        model = kmeans(m, 3, seed=2)
        summary = summarize_clusters(trace, model)
        assert sum(c.job_count for c in summary.clusters) == len(m)

    def test_label_is_marked_suggestion(self):
        trace, _ = planted_clusters(n_per=30)
        model = kmeans(job_feature_vectors(trace), 2, seed=0)
        for row in summarize_clusters(trace, model).clusters:
            assert row.suggested_label.endswith("(suggested)")
            assert row.label == ""
