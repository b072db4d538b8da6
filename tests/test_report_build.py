"""ReportBuilder.build runs the elbow fit on a worker thread beside the
other sections. These tests hold its output to that of the same build
with the fit run inline, in the clusters section's place, and pin what
happens when either thread raises."""

import json
import threading
import time

import pytest

from mrtrace import compute_patterns as cp
from mrtrace import data_access as da
from mrtrace import report
from mrtrace.errors import KTooLarge
from mrtrace.report import ReportBuilder, json_text, tsv_text
from conftest import InlineExecutor, full_rec, make_trace, mixed_workload_trace


def _outputs(builder: ReportBuilder) -> tuple:
    text = json_text(builder.build())
    plots = {name: tsv_text(columns) for name, columns in builder.plots.items()}
    return text, plots, builder.cluster_table


def _build_both_ways(monkeypatch, trace, **kwargs) -> tuple:
    """(threaded, inline) outputs of one build, and the threads the fit ran on."""
    fit_threads = []
    real_fit = cp.elbow_fit

    def recording_fit(*args, **kw):
        fit_threads.append(threading.current_thread())
        return real_fit(*args, **kw)

    monkeypatch.setattr(cp, "elbow_fit", recording_fit)
    threaded = _outputs(ReportBuilder(trace, **kwargs))
    with monkeypatch.context() as m:
        m.setattr(report, "ThreadPoolExecutor", InlineExecutor)
        inline = _outputs(ReportBuilder(trace, **kwargs))
    return threaded, inline, fit_threads


def _sampled_trace():
    return mixed_workload_trace(n_jobs=400, seed=60, hours=50)


@pytest.fixture
def sample_cap_150(monkeypatch):
    """A cap under _sampled_trace's 400 complete rows, so its fit samples."""
    monkeypatch.setattr(cp, "CLUSTER_SAMPLE_CAP", 150)


def _trace_without_input_bytes():
    return make_trace([full_rec(i, 3600 * i, input_bytes=None) for i in range(60)])


def _six_job_trace():
    return make_trace([full_rec(i, 3600 * i, input_bytes=1000 * (i + 1), duration=30 + 7 * i)
                       for i in range(6)])


@pytest.mark.usefixtures("sample_cap_150")
@pytest.mark.parametrize("make, kwargs, clusters_ran", [
    (_sampled_trace, {"k_max": 5, "seed": 3}, True),
    (_trace_without_input_bytes, {}, False),
    (_six_job_trace, {"k_max": 10}, True),
], ids=["sampled", "no-clustering-field", "k-max-over-rows"])
def test_threaded_build_matches_inline_build(monkeypatch, make, kwargs, clusters_ran):
    threaded, inline, fit_threads = _build_both_ways(monkeypatch, make(), **kwargs)
    assert threaded == inline
    text, _, table = threaded
    doc = json.loads(text)
    if clusters_ran:
        main = threading.main_thread()
        assert len(fit_threads) == 2 and fit_threads[0] is not main and fit_threads[1] is main
        assert "clusters" in doc and table is not None
    else:
        assert fit_threads == [] and table is None
        assert doc["skipped"][-1]["section"] == "clusters"
        assert doc["skipped"][-1]["reason"].startswith("NoData: ")


@pytest.mark.usefixtures("sample_cap_150")
def test_sampled_and_clamped_fits_record_their_inputs():
    sampled = ReportBuilder(_sampled_trace(), k_max=5).build()["clusters"]
    assert sampled["sampled_from"] == 400 and sampled["clustered_jobs"] == 150
    assert sampled["k_max"] == 5
    clamped = ReportBuilder(_six_job_trace(), k_max=10).build()["clusters"]
    assert clamped["sampled_from"] is None and clamped["clustered_jobs"] == 6
    assert clamped["k_max"] == 6


def _nameless_trace():
    # The names section skips too, so the clusters skip must come after it.
    return make_trace([full_rec(i, 600 * i, name=None, input_bytes=1000 + 37 * i)
                       for i in range(80)])


def test_error_inside_the_elbow_is_the_last_skip(monkeypatch):
    expected_keys = list(ReportBuilder(_nameless_trace(), k_max=4).build())
    expected_keys.remove("clusters")
    real_fit_best = cp.fit_best

    def failing_fit_best(matrix, k, seed, *args, **kwargs):
        if k == 2:
            raise KTooLarge("forced at k=2")
        return real_fit_best(matrix, k, seed, *args, **kwargs)

    monkeypatch.setattr(cp, "fit_best", failing_fit_best)
    builder = ReportBuilder(_nameless_trace(), k_max=4)
    out = builder.build()
    assert list(out) == expected_keys
    assert [s["section"] for s in out["skipped"]][-2:] == ["names", "clusters"]
    assert out["skipped"][-1] == {"section": "clusters", "reason": "KTooLarge: forced at k=2"}
    assert builder.cluster_table is None
    with monkeypatch.context() as m:
        m.setattr(report, "ThreadPoolExecutor", InlineExecutor)
        assert json_text(ReportBuilder(_nameless_trace(), k_max=4).build()) == json_text(out)


def test_other_error_in_the_elbow_propagates(monkeypatch):
    def broken_fit_best(*args, **kwargs):
        raise RuntimeError("elbow broke")

    monkeypatch.setattr(cp, "fit_best", broken_fit_best)
    with pytest.raises(RuntimeError, match="elbow broke"):
        ReportBuilder(_sampled_trace(), k_max=3).build()


def test_error_in_a_main_thread_section_waits_for_the_elbow(monkeypatch):
    started, finished = threading.Event(), threading.Event()
    real_fit = cp.elbow_fit

    def slow_fit(*args, **kwargs):
        started.set()
        time.sleep(0.2)
        model = real_fit(*args, **kwargs)
        finished.set()
        return model

    def broken_reaccess(trace):
        assert started.wait(10)
        raise RuntimeError("section broke")

    monkeypatch.setattr(cp, "elbow_fit", slow_fit)
    monkeypatch.setattr(da, "reaccess_intervals", broken_reaccess)
    with pytest.raises(RuntimeError, match="section broke"):
        ReportBuilder(_sampled_trace(), k_max=3).build()
    assert finished.is_set()
