import dataclasses
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from mrtrace import SimConfig, build_workload_model, parse_trace, simulate, synthesize
from mrtrace import compute_patterns as cp
from mrtrace import temporal as ts
from mrtrace.cli import atomic_open, main
from mrtrace.report import Records, ReportBuilder, json_text
from mrtrace.temporal import MAX_BUCKETS
from conftest import full_rec, make_trace, mixed_workload_trace, trace_to_jsonl


@pytest.fixture
def trace_file(tmp_path):
    t = mixed_workload_trace(n_jobs=400, seed=60, hours=50)
    return trace_to_jsonl(t, tmp_path / "t.jsonl")


class TestAnalyze:
    def test_happy_path(self, tmp_path, trace_file):
        out = tmp_path / "report.json"
        plots = tmp_path / "plots"
        code = main(["analyze", "--trace", str(trace_file), "--machines", "100",
                     "--out", str(out), "--plots", str(plots)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["metadata"]["record_count"] == 400
        assert report["skipped"] == []
        produced = sorted(os.listdir(plots))
        for fig in ("fig1_input.tsv", "fig2_input.tsv", "fig5_reaccess_intervals.tsv",
                    "fig7_jobs_submitted.tsv", "fig8_tasktime.tsv", "fig9_correlations.tsv",
                    "fig10_jobs.tsv", "table2_clusters.txt"):
            assert fig in produced

    def test_reports_are_reproducible(self, tmp_path, trace_file):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["analyze", "--trace", str(trace_file), "--out", str(a)]) == 0
        assert main(["analyze", "--trace", str(trace_file), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_nameless_trace_skips_names_section(self, tmp_path):
        named = mixed_workload_trace(n_jobs=100, seed=61)
        t = make_trace([dataclasses.replace(r, name=None) for r in named.records])
        path = trace_to_jsonl(t, tmp_path / "noname.jsonl")
        out = tmp_path / "r.json"
        code = main(["analyze", "--trace", str(path), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert any(s["section"] == "names" for s in report["skipped"])

    def test_missing_trace_is_data_error_without_partial_output(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["analyze", "--trace", str(tmp_path / "nope.jsonl"), "--out", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("bad_line", [1, 2])
    def test_deeply_nested_line_is_a_data_error(self, tmp_path, capsys, bad_line):
        lines = ['{"job_id":1,"submit_time":1}'] * 2
        lines[bad_line - 1] = '{"job_id":2,"submit_time":2,"name":' + "[" * 100_000
        path = tmp_path / "deep.jsonl"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "r.json"
        assert main(["analyze", "--trace", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"mrtrace analyze: line {bad_line}: invalid JSON (")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "names"])
    def test_csv_field_past_the_csv_module_limit_is_a_data_error(self, tmp_path, capsys, command):
        path = tmp_path / "long.csv"
        path.write_text("job_id,submit_time,name\n1,0,a\n2,1," + "x" * 200_000 + "\n")
        out = tmp_path / "out"
        assert main([command, "--trace", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"mrtrace {command}: line 3: invalid CSV (")
        assert "Traceback" not in err
        assert not out.exists()

    def test_csv_value_past_the_header_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "extra.csv"
        path.write_text("job_id,submit_time\n1,5\n2,6,999\n")
        out = tmp_path / "r.json"
        assert main(["analyze", "--trace", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("mrtrace analyze: line 3: value '999' past the header's 2 columns")
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_each_series_is_built_once(self, trace_file, monkeypatch):
        calls = []
        for fn in ("bucket_time_series", "occupancy_series"):
            monkeypatch.setattr(ts, fn, lambda *a, _fn=fn, _exact=getattr(ts, fn):
                                calls.append(_fn) or _exact(*a))
        ReportBuilder(parse_trace(trace_file)).build()
        # One per dimension; the correlations read the same three series.
        assert sorted(calls) == ["bucket_time_series"] * 3 + ["occupancy_series"]

    def test_fig7_payloads_hold_the_series_arrays(self, trace_file):
        builder = ReportBuilder(parse_trace(trace_file))
        builder.build()
        for dim in ts.DIMENSIONS:
            buckets, values = builder.plots[f"fig7_{dim}.tsv"]
            assert buckets == range(values.size)
            assert isinstance(values, np.ndarray)
            assert values is builder._series(dim).values

    def test_a_series_that_raises_is_skipped_by_each_section(self, tmp_path):
        t = make_trace([full_rec(i, 3600 * i, input_bytes=None) for i in range(60)])
        path = trace_to_jsonl(t, tmp_path / "t.jsonl")
        out = tmp_path / "r.json"
        assert main(["analyze", "--trace", str(path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        reason = "NoData: no record carries all of input/shuffle/output bytes"
        skipped = {s["section"]: s["reason"] for s in report["skipped"]}
        assert skipped["time_series.data_size_bytes"] == reason
        assert report["burstiness"]["data_size_bytes"] == {"skipped": reason}
        assert report["periodogram"]["data_size_bytes"] == {"skipped": reason}

    def test_usage_error_is_exit_one(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["analyze"])  # --trace is required
        assert ei.value.code == 1

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as ei:
            main(["frobnicate"])
        assert ei.value.code == 1

    def test_env_seed_recorded(self, tmp_path, trace_file, monkeypatch):
        monkeypatch.setenv("MRTRACE_SEED", "123")
        out = tmp_path / "r.json"
        assert main(["analyze", "--trace", str(trace_file), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["decisions"]["seed"] == 123

    def test_seed_flag_beats_env(self, tmp_path, trace_file, monkeypatch):
        monkeypatch.setenv("MRTRACE_SEED", "123")
        out = tmp_path / "r.json"
        assert main(["analyze", "--trace", str(trace_file), "--out", str(out),
                     "--seed", "7"]) == 0
        assert json.loads(out.read_text())["decisions"]["seed"] == 7

    @pytest.mark.parametrize("command", [
        ["analyze"],
        ["cluster"],
        ["synthesize", "--target-machines", "1", "--mode", "sampled"],
        ["synthesize", "--target-machines", "1", "--mode", "replay_scaled"],
    ], ids=lambda c: c[-1])
    @pytest.mark.parametrize("env", ["-5", "abc", "", "1.5"])
    def test_bad_env_seed_is_usage_error(self, tmp_path, trace_file, monkeypatch, capsys,
                                         command, env):
        monkeypatch.setenv("MRTRACE_SEED", env)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as ei:
            main([*command, "--trace", str(trace_file), "--out", str(out)])
        assert ei.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: mrtrace")
        assert "error: MRTRACE_SEED: " in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_bad_env_seed_is_ignored_without_a_seed(self, tmp_path, trace_file, monkeypatch):
        monkeypatch.setenv("MRTRACE_SEED", "abc")
        out = tmp_path / "r.json"
        # The flag wins over the variable, and names has no seed to read.
        assert main(["analyze", "--trace", str(trace_file), "--out", str(out),
                     "--seed", "7"]) == 0
        assert main(["names", "--trace", str(trace_file), "--out", str(tmp_path / "n.tsv")]) == 0

    def test_int64_wide_span_skips_time_series(self, tmp_path, capsys):
        t = make_trace([full_rec(0, 0), full_rec(1, 2**62)])
        path = trace_to_jsonl(t, tmp_path / "wide.jsonl")
        out = tmp_path / "r.json"
        assert main(["analyze", "--trace", str(path), "--out", str(out)]) == 0
        skipped = {s["section"]: s["reason"] for s in json.loads(out.read_text())["skipped"]}
        assert skipped["time_series.jobs_submitted"] == (
            f"TooManyBuckets: a span of {2**62} s at bucket width 3600 s needs "
            f"{2**62 // 3600 + 1} buckets, more than {MAX_BUCKETS}"
        )
        assert "periodogram" in skipped and "correlations" in skipped
        assert main(["burstiness", "--trace", str(path)]) == 2
        assert capsys.readouterr().err.startswith("mrtrace burstiness: a span of ")


PAST_INT64 = str(10**23)


@pytest.fixture
def two_jobs(tmp_path, monkeypatch):
    """Two complete jobs two hours apart, in two.jsonl in the working directory."""
    monkeypatch.chdir(tmp_path)
    return str(trace_to_jsonl(make_trace([full_rec(0, 0), full_rec(1, 7200)]),
                              tmp_path / "two.jsonl"))


class TestWidthsPastInt64:
    """Any width past the span gives one bucket or window, and every output
    keeps the width as given."""

    def test_analyze(self, two_jobs, capsys):
        assert main(["analyze", "--trace", two_jobs, "--bucket-width", PAST_INT64,
                     "--out", "r.json"]) == 0
        report = json.loads(Path("r.json").read_text())
        assert report["decisions"]["bucket_width"] == 10**23
        assert report["time_series.jobs_submitted"]["buckets"] == 1
        assert report["time_series.occupancy_slots"]["bucket_width"] == 10**23
        assert "Traceback" not in capsys.readouterr().err

    def test_burstiness(self, two_jobs, capsys):
        assert main(["burstiness", "--trace", two_jobs, "--dimension", "jobs_submitted",
                     "--bucket-width", PAST_INT64]) == 0
        assert capsys.readouterr().out == "".join(f"1\t{p}\n" for p in range(1, 101))

    @pytest.mark.parametrize("mode", ["sampled", "replay_scaled"])
    def test_synthesize_then_simulate(self, two_jobs, mode, capsys):
        assert main(["synthesize", "--trace", two_jobs, "--target-machines", "1", "--mode", mode,
                     "--window-width", PAST_INT64, "--out", "w.jsonl"]) == 0
        assert len(Path("w.jsonl").read_text().splitlines()) == 2
        assert main(["simulate", "--workload", "w.jsonl", "--nodes", "1", "--bucket-width",
                     PAST_INT64, "--occupancy", "o.tsv", "--out", "s.json"]) == 0
        assert len(Path("o.tsv").read_text().splitlines()) == 1
        assert "Traceback" not in capsys.readouterr().err


PAST_FLOAT64 = str(10**400)


class TestValuesPastFloat64:
    """A width or a machine ratio past the float64 range is an argument
    error: the section is skipped or the command writes nothing."""

    def test_analyze_skips_occupancy(self, two_jobs, capsys):
        assert main(["analyze", "--trace", two_jobs, "--bucket-width", PAST_FLOAT64,
                     "--out", "r.json"]) == 0
        report = json.loads(Path("r.json").read_text())
        skipped = {s["section"]: s["reason"] for s in report["skipped"]}
        assert skipped["time_series.occupancy_slots"] == (
            "InvalidBucketWidth: bucket_width does not fit a 64-bit float")
        assert report["time_series.jobs_submitted"]["buckets"] == 1
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("out", [["--out", "s.json"], []], ids=["file", "stdout"])
    def test_simulate_writes_nothing(self, two_jobs, out, capsys):
        assert main(["simulate", "--workload", two_jobs, "--nodes", "1", "--bucket-width",
                     PAST_FLOAT64, "--occupancy", "o.tsv", *out]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "mrtrace simulate: bucket_width in microseconds does not fit a 64-bit float\n")
        assert captured.out == ""
        assert not Path("o.tsv").exists() and not Path("s.json").exists()

    @pytest.mark.parametrize("mode", ["sampled", "replay_scaled"])
    def test_synthesize_writes_nothing(self, two_jobs, mode, capsys):
        assert main(["synthesize", "--trace", two_jobs, "--target-machines", PAST_FLOAT64,
                     "--mode", mode, "--out", "w.jsonl", "--data-plan", "p.tsv"]) == 2
        assert capsys.readouterr().err == (
            f"mrtrace synthesize: {PAST_FLOAT64} target machines over 1 source machines "
            "is a scale factor past the 64-bit float range\n")
        assert not Path("w.jsonl").exists() and not Path("p.tsv").exists()


class TestSynthesizeManyWindows:
    def test_window_per_second_over_a_long_span(self, tmp_path, capsys):
        # 4e12 one-second windows: sampled mode would need one per target
        # window, and replay_scaled reads no window at all.
        path = trace_to_jsonl(make_trace([full_rec(0, 0), full_rec(1, 4 * 10**12)]),
                              tmp_path / "long.jsonl")
        argv = ["synthesize", "--trace", str(path), "--target-machines", "1", "--window-width", "1"]
        assert main([*argv, "--out", str(tmp_path / "s.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err == (f"mrtrace synthesize: a target span of {4 * 10**12} s at window width 1 s "
                       f"needs {4 * 10**12} windows, more than {MAX_BUCKETS}\n")
        assert not (tmp_path / "s.jsonl").exists()
        assert main([*argv, "--mode", "replay_scaled", "--out", str(tmp_path / "r.jsonl")]) == 0
        assert len((tmp_path / "r.jsonl").read_text().splitlines()) == 2

    def test_target_span_past_max_windows(self, tmp_path, capsys):
        path = trace_to_jsonl(make_trace([full_rec(0, 0), full_rec(1, 7200)]), tmp_path / "t.jsonl")
        assert main(["synthesize", "--trace", str(path), "--target-machines", "1",
                     "--target-span", str(10**12), "--out", str(tmp_path / "s.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("mrtrace synthesize: a target span of 1000000000000 s at window "
                              "width 3600 s needs 277777778 windows") and "Traceback" not in err
        assert not (tmp_path / "s.jsonl").exists()


@pytest.mark.parametrize("argv", [["analyze"], ["cluster", "--k-max", "4"]], ids=" ".join)
def test_stdout_json_is_the_out_file(argv, tmp_path, trace_file, capsys):
    out = tmp_path / "o.json"
    assert main([*argv, "--trace", str(trace_file), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main([*argv, "--trace", str(trace_file)]) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


@pytest.mark.parametrize("cap", [None, 150], ids=["unsampled", "sampled"])
def test_cluster_prints_the_analyze_clusters_section(cap, tmp_path, trace_file, monkeypatch):
    if cap:
        monkeypatch.setattr(cp, "CLUSTER_SAMPLE_CAP", cap)
    argv = ["--trace", str(trace_file), "--seed", "3", "--k-max", "5"]
    report, out = tmp_path / "r.json", tmp_path / "c.json"
    assert main(["analyze", *argv, "--out", str(report)]) == 0
    assert main(["cluster", *argv, "--out", str(out)]) == 0
    clusters = json.loads(report.read_text())["clusters"]
    assert out.read_bytes() == json_text(clusters).encode()
    assert clusters["clustered_jobs"] == (cap or 400)
    assert clusters["sampled_from"] == (400 if cap else None)


def test_cluster_without_complete_rows_fails_with_the_analyze_skip(tmp_path, capsys):
    t = make_trace([full_rec(i, 3600 * i, input_bytes=None) for i in range(60)])
    path = trace_to_jsonl(t, tmp_path / "t.jsonl")
    report, out = tmp_path / "r.json", tmp_path / "c.json"
    assert main(["analyze", "--trace", str(path), "--out", str(report)]) == 0
    skipped = {s["section"]: s["reason"] for s in json.loads(report.read_text())["skipped"]}
    assert skipped["clusters"].startswith("NoData: ")
    capsys.readouterr()
    assert main(["cluster", "--trace", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"mrtrace cluster: {skipped['clusters'].removeprefix('NoData: ')}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["burstiness"],
    ["burstiness", "--dimension", "jobs_submitted"],
    ["names", "--weighting", "io_bytes"],
    ["cachesim", "--capacity", "1", "--sweep", "1000,1000000,100000000"],
], ids=" ".join)
def test_stdout_tsv_is_the_out_file(argv, tmp_path, trace_file, capsys):
    out = tmp_path / "o.tsv"
    assert main([*argv, "--trace", str(trace_file), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main([*argv, "--trace", str(trace_file)]) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_json_output_is_strict():
    assert json_text({"x": [1.23456789012, 2]}) == '{\n  "x": [\n    1.23456789,\n    2\n  ]\n}\n'
    with pytest.raises(ValueError):
        json_text({"x": math.nan})


# Arguments that argparse must reject as usage errors; the trace or
# workload path and an output path are appended per subcommand.
BAD_ARGUMENTS = [
    ["analyze", "--machines", "0"],
    ["analyze", "--k-max", "0"],
    ["analyze", "--seed", "-1"],
    ["analyze", "--bucket-width", "0"],
    ["analyze", "--bucket-width", "-5"],
    ["burstiness", "--bucket-width", "0"],
    ["cluster", "--k-max", "0"],
    ["cluster", "--seed", "-2"],
    ["cachesim", "--capacity", "0"],
    ["cachesim", "--capacity", "1", "--admission", "size:abc"],
    ["cachesim", "--capacity", "1", "--eviction", "ttl:x"],
    ["cachesim", "--capacity", "1", "--sweep", "1,x"],
    ["synthesize", "--target-machines", "0"],
    ["synthesize", "--target-machines", "1", "--window-width", "0"],
    ["synthesize", "--target-machines", "1", "--target-span", "0"],
    ["synthesize", "--target-machines", "1", "--mode", "sampled", "--seed", "-1"],
    ["synthesize", "--target-machines", "1", "--mode", "replay_scaled", "--seed", "-1"],
    ["simulate", "--nodes", "0"],
    ["simulate", "--nodes", "1", "--map-slots", "-1"],
    ["simulate", "--nodes", "1", "--occupancy", "occ.tsv", "--bucket-width", "0"],
]


@pytest.mark.parametrize("argv", BAD_ARGUMENTS, ids=" ".join)
def test_bad_argument_is_usage_error(argv, tmp_path, trace_file, capsys):
    source = "--workload" if argv[0] == "simulate" else "--trace"
    with pytest.raises(SystemExit) as ei:
        main([*argv, source, str(trace_file), "--out", str(tmp_path / "out")])
    assert ei.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: mrtrace")
    assert f"argument {argv[-2]}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


UNWRITABLE = {
    "analyze": ["analyze", "--out", "r.json", "--plots", "a_file"],
    "cluster": ["cluster", "--out", "c.json", "--table", "nodir/x.txt"],
    "synthesize": ["synthesize", "--target-machines", "10", "--out", "w.jsonl",
                   "--data-plan", "nodir/p.tsv"],
    "simulate": ["simulate", "--nodes", "10", "--out", "s.json", "--occupancy", "nodir/o.tsv"],
    "analyze to stdout": ["analyze", "--plots", "a_file"],
    "burstiness": ["burstiness", "--out", "nodir/b.tsv"],
    "names": ["names", "--out", "nodir/n.tsv"],
    "cachesim": ["cachesim", "--capacity", "1000", "--out", "nodir/c.json"],
    "cachesim --sweep": ["cachesim", "--capacity", "1", "--sweep", "1,1000", "--out", "nodir/s.tsv"],
}


@pytest.mark.parametrize("argv", UNWRITABLE.values(), ids=UNWRITABLE)
def test_unwritable_output_leaves_no_other_output(argv, tmp_path, trace_file, monkeypatch, capsys):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "a_file").write_text("")
    monkeypatch.chdir(out_dir)
    source = "--workload" if argv[0] == "simulate" else "--trace"
    assert main([*argv, source, str(trace_file)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"mrtrace {argv[0]}: ") and "Traceback" not in captured.err
    assert captured.out == ""
    assert os.listdir(out_dir) == ["a_file"]


def test_output_that_is_a_directory_leaves_no_other_output(tmp_path, trace_file, capsys):
    plots = tmp_path / "plots"
    (plots / "fig1_input.tsv").mkdir(parents=True)
    assert main(["analyze", "--trace", str(trace_file), "--out", str(tmp_path / "r.json"),
                 "--plots", str(plots)]) == 2
    err = capsys.readouterr().err
    assert err == f"mrtrace analyze: {plots / 'fig1_input.tsv'} is a directory\n"
    assert sorted(os.listdir(tmp_path)) == ["plots", "t.jsonl"]
    assert os.listdir(plots) == ["fig1_input.tsv"]


class TestAtomicOpen:
    def test_replaces_only_on_success(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with pytest.raises(RuntimeError):
            with atomic_open(path) as fh:
                fh.write("partial")
                raise RuntimeError("stop")
        assert path.read_text() == "old\n"
        with atomic_open(path) as fh:
            fh.write("new\n")
        assert path.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class TestSubcommands:
    def test_burstiness_tsv(self, tmp_path, trace_file):
        out = tmp_path / "b.tsv"
        code = main(["burstiness", "--trace", str(trace_file), "--dimension",
                     "jobs_submitted", "--out", str(out)])
        assert code == 0
        rows = [line.split("\t") for line in out.read_text().splitlines()]
        assert len(rows) == 100
        assert [int(p) for _, p in rows] == list(range(1, 101))

    def test_names_tsv(self, tmp_path, trace_file):
        out = tmp_path / "names.tsv"
        assert main(["names", "--trace", str(trace_file), "--out", str(out)]) == 0
        words = [line.split("\t")[0] for line in out.read_text().splitlines()]
        assert "insert" in words

    def test_cluster_json_and_table(self, tmp_path, trace_file):
        out = tmp_path / "c.json"
        table = tmp_path / "c.txt"
        code = main(["cluster", "--trace", str(trace_file), "--k-max", "6",
                     "--seed", "1", "--out", str(out), "--table", str(table)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["k"] >= 1
        assert sum(c["job_count"] for c in doc["clusters"]) == doc["clustered_jobs"]
        assert table.read_text().startswith("# Jobs")

    def test_synthesize_then_simulate_and_cachesim(self, tmp_path, trace_file):
        synth = tmp_path / "synth.jsonl"
        plan = tmp_path / "plan.tsv"
        code = main(["synthesize", "--trace", str(trace_file), "--machines", "100",
                     "--target-machines", "10", "--seed", "5",
                     "--out", str(synth), "--data-plan", str(plan)])
        assert code == 0
        assert synth.exists() and plan.exists()

        sim_out = tmp_path / "sim.json"
        occ = tmp_path / "occ.tsv"
        code = main(["simulate", "--workload", str(synth), "--nodes", "10",
                     "--out", str(sim_out), "--occupancy", str(occ)])
        assert code == 0
        doc = json.loads(sim_out.read_text())
        assert doc["jobs"] > 0
        assert doc["makespan_seconds"] > 0
        assert occ.exists()

        cache_out = tmp_path / "cache.json"
        code = main(["cachesim", "--trace", str(synth), "--capacity", str(10**12),
                     "--out", str(cache_out)])
        assert code == 0
        doc = json.loads(cache_out.read_text())
        assert doc["accesses"] > 0

    def test_in_process_replay_matches_file_round_trip(self, tmp_path, trace_file):
        synth, sim = tmp_path / "synth.jsonl", tmp_path / "sim.json"
        assert main(["synthesize", "--trace", str(trace_file), "--machines", "100",
                     "--target-machines", "10", "--mode", "replay_scaled",
                     "--out", str(synth)]) == 0
        assert main(["simulate", "--workload", str(synth), "--nodes", "3",
                     "--scheduler", "fair", "--out", str(sim)]) == 0

        model = build_workload_model(parse_trace(trace_file, machine_count=100))
        workload = synthesize(model, 10, model.span_seconds, "replay_scaled")
        res = simulate(workload.jobs, SimConfig(nodes=3, scheduler="fair"))
        (tmp_path / "in_process.json").write_text(json_text({
            "jobs": len(workload.jobs),
            "makespan_seconds": res.makespan,
            "busy_map_slot_seconds": res.busy_map_slot_seconds,
            "busy_reduce_slot_seconds": res.busy_reduce_slot_seconds,
            "total_slots": res.total_slots,
            "job_timings": Records(submit=res.submit, first_task_start=res.first_task_start,
                                   completion=res.completion),
        }))
        assert (tmp_path / "in_process.json").read_bytes() == sim.read_bytes()

    def test_cachesim_sweep(self, tmp_path, trace_file):
        out = tmp_path / "sweep.tsv"
        code = main(["cachesim", "--trace", str(trace_file), "--capacity", "1",
                     "--sweep", "1000,1000000,1000000000000", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].split("\t") == ["capacity_bytes", "hit_rate_by_accesses", "hit_rate_by_bytes"]
        rates = [float(line.split("\t")[1]) for line in lines[1:]]
        assert rates == sorted(rates)

    def test_cachesim_sweep_needs_no_capacity(self, tmp_path, trace_file):
        both, sweep_only = tmp_path / "both.tsv", tmp_path / "sweep.tsv"
        argv = ["cachesim", "--trace", str(trace_file), "--sweep", "1000,1000000"]
        assert main([*argv, "--capacity", "1", "--out", str(both)]) == 0
        assert main([*argv, "--out", str(sweep_only)]) == 0
        assert sweep_only.read_bytes() == both.read_bytes()

    def test_cachesim_needs_capacity_or_sweep(self, tmp_path, trace_file, capsys):
        out = tmp_path / "c.json"
        with pytest.raises(SystemExit) as ei:
            main(["cachesim", "--trace", str(trace_file), "--out", str(out)])
        assert ei.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: mrtrace") and "required: --capacity" in err
        assert not out.exists()

    def test_synthetic_closure_via_analyze(self, tmp_path, trace_file):
        synth = tmp_path / "synth.jsonl"
        assert main(["synthesize", "--trace", str(trace_file), "--machines", "100",
                     "--target-machines", "10", "--out", str(synth)]) == 0
        out = tmp_path / "r.json"
        assert main(["analyze", "--trace", str(synth), "--machines", "10",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["skipped"] == []


class TestWorkloadErrors:
    def test_simulate_rejects_job_missing_a_replay_field(self, tmp_path, capsys):
        t = make_trace([full_rec(0, 0), dataclasses.replace(full_rec(1, 5), input_bytes=None)])
        path = trace_to_jsonl(t, tmp_path / "w.jsonl")
        out = tmp_path / "sim.json"
        assert main(["simulate", "--workload", str(path), "--nodes", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "mrtrace simulate: workload job 1 is missing ['input_bytes']; "
            "not a replayable workload\n"
        )
        assert not out.exists()

    def test_simulate_occupancy_past_bucket_cap_writes_nothing(self, tmp_path, capsys):
        # One job of one map task running 2 * MAX_BUCKETS seconds.
        t = make_trace([full_rec(0, 0, map_tasks=1, map_task_seconds=2.0 * MAX_BUCKETS)])
        path = trace_to_jsonl(t, tmp_path / "w.jsonl")
        out, occ = tmp_path / "sim.json", tmp_path / "occ.tsv"
        assert main(["simulate", "--workload", str(path), "--nodes", "1", "--bucket-width", "1",
                     "--out", str(out), "--occupancy", str(occ)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("mrtrace simulate: a makespan of ")
        assert f"more than {MAX_BUCKETS}" in err and "Traceback" not in err
        assert not out.exists() and not occ.exists()

    @pytest.mark.parametrize("records, message", [
        # A submit time just past 2**63 microseconds after the span start.
        ([full_rec(0, 0), full_rec(5, 2**63 // 10**6 + 1)],
         "job 5: submit offset from the span start 9223372036855000000 us does not fit"),
        # Two 4.65e18 us maps side by side: every time fits, their sum does not.
        ([full_rec(0, 0, map_tasks=2, map_task_seconds=9.3e12, reduce_tasks=0,
                   reduce_task_seconds=0.0)],
         "total busy slot time 9300000000000000000 us does not fit"),
        # A task time whose microseconds round to a float's inf.
        ([full_rec(0, 0), full_rec(3, 1, reduce_tasks=2, reduce_task_seconds=1e303)],
         "job 3: reduce task-seconds 1e+303 over 2 tasks give a task time in microseconds "
         "that does not fit"),
    ])
    def test_simulate_time_past_int64_writes_nothing(self, tmp_path, capsys, records, message):
        path = trace_to_jsonl(make_trace(records), tmp_path / "w.jsonl")
        out, occ = tmp_path / "sim.json", tmp_path / "occ.tsv"
        assert main(["simulate", "--workload", str(path), "--nodes", "1",
                     "--bucket-width", str(10**9), "--out", str(out), "--occupancy", str(occ)]) == 2
        assert capsys.readouterr().err == f"mrtrace simulate: {message} a 64-bit integer\n"
        assert not out.exists() and not occ.exists()

    def test_sampled_draw_without_jobs_writes_nothing(self, tmp_path, capsys):
        t = make_trace([full_rec(0, 0), full_rec(1, 100_000)], machines=10)
        path = trace_to_jsonl(t, tmp_path / "sparse.jsonl")
        out = tmp_path / "synth.jsonl"
        assert main(["synthesize", "--trace", str(path), "--machines", "10",
                     "--target-machines", "5", "--mode", "sampled", "--target-span", "1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "mrtrace synthesize: workload has no jobs\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("field, value, shown", [
        ("input_bytes", 10**15, "1e+20, above 9007199254740992"),
        ("input_bytes", 10**12, "1e+17, above 9007199254740992"),
        ("map_task_seconds", 1e305, "inf, not finite"),
    ])
    def test_synthesize_rejects_scaled_values_no_trace_holds(self, tmp_path, capsys, field,
                                                            value, shown):
        t = make_trace([dataclasses.replace(full_rec(7, 0), **{field: value})])
        path = trace_to_jsonl(t, tmp_path / "big.jsonl")
        out = tmp_path / "synth.jsonl"
        assert main(["synthesize", "--trace", str(path), "--machines", "1",
                     "--target-machines", "100000", "--mode", "replay_scaled",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"mrtrace synthesize: {field} of source job 7 scaled by 100000 is {shown}\n"
        )
        assert not out.exists()


def _hostile_jobs(value, every_field):
    """Two jobs holding value, or the most that fits, in job_id,
    submit_time, the task-seconds and the path hashes; with every_field
    also in the byte and duration fields, which refuse more than 2**53."""
    fits = min(value, 2**63 - 1)
    counts = value if every_field else min(value, 2**53)
    job = dict(name="etl x", duration=counts, input_bytes=counts, shuffle_bytes=counts,
               output_bytes=counts, map_task_seconds=float(value),
               reduce_task_seconds=float(value), map_tasks=1, reduce_tasks=1,
               input_path_hash=value, output_path_hash=value)
    return [dict(job, job_id=0, submit_time=0),
            dict(job, job_id=fits, submit_time=fits, input_path_hash=1)]


def _timed_jobs(*task_seconds, gap=100_000):
    """Complete jobs gap seconds apart, one per (map, reduce) task-seconds
    pair given."""
    job = dict(name="etl x", duration=60, input_bytes=10, shuffle_bytes=1, output_bytes=1,
               map_tasks=1, reduce_tasks=1, input_path_hash=3, output_path_hash=4)
    return [dict(job, job_id=i, submit_time=i * gap, map_task_seconds=m, reduce_task_seconds=r)
            for i, (m, r) in enumerate(task_seconds)]


# Small traces at the edges of the schema: task times whose microseconds or
# sums overflow a float, deviations whose squares or spectral power
# underflow or overflow it, a peak whose ratio to the median overflows it,
# and integers at 2**53, 2**63 - 1 and 2**64 - 1. Task counts stay small:
# simulate's cost grows with the tasks of a job.
HOSTILE_TRACES = {
    "task time past float us": _timed_jobs((1e308, 0.0), (1.0, 0.0)),
    "task-second sums past float": _timed_jobs((1e308, 1e308), (1.0, 1.0), gap=5),
    "tiny deviations": _timed_jobs((5e-324, 0.0), (1e-300, 0.0)),
    "huge deviations": _timed_jobs((1e200, 0.0), (3e200, 0.0)),
    "spectral power past float": _timed_jobs(*[(1.0, 0.0)] * 59, (1e200, 0.0), gap=3600),
    "peak over median past float": _timed_jobs(*[(5e-324, 0.0)] * 59, (1e300, 0.0), gap=3600),
    "2**53": _hostile_jobs(2**53, True),
    "2**63-1 where allowed": _hostile_jobs(2**63 - 1, False),
    "2**63-1 everywhere": _hostile_jobs(2**63 - 1, True),
    "2**64-1 where allowed": _hostile_jobs(2**64 - 1, False),
    "2**64-1 everywhere": _hostile_jobs(2**64 - 1, True),
}

# Each command with every output it can write; {out} is a directory.
COMMANDS = [
    ["analyze", "--out", "{out}/r.json", "--plots", "{out}/plots"],
    ["burstiness", "--out", "{out}/b.tsv"],
    ["cluster", "--out", "{out}/c.json", "--table", "{out}/c.txt"],
    ["names", "--weighting", "task_time", "--out", "{out}/n.tsv"],
    ["synthesize", "--target-machines", "1", "--out", "{out}/w.jsonl",
     "--data-plan", "{out}/plan.tsv"],
    ["simulate", "--nodes", "1", "--out", "{out}/s.json", "--occupancy", "{out}/o.tsv"],
    ["cachesim", "--capacity", "1000", "--out", "{out}/cache.json"],
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", COMMANDS, ids=lambda argv: argv[0])
@pytest.mark.parametrize("name", HOSTILE_TRACES)
def test_hostile_input_exits_cleanly(tmp_path, capsys, name, command):
    """Every command on every hostile trace exits 0 or 2, with no
    traceback and no numpy warning, and leaves no output on exit 2."""
    path = tmp_path / "t.jsonl"
    path.write_text("".join(json.dumps(job) + "\n" for job in HOSTILE_TRACES[name]))
    out = tmp_path / "out"
    out.mkdir()
    trace_arg = ["--workload" if command[0] == "simulate" else "--trace", str(path)]
    code = main([command[0], *trace_arg, *(a.format(out=out) for a in command[1:])])
    err = capsys.readouterr().err
    assert code in (0, 2) and "Traceback" not in err
    if code == 2:
        assert [p for p in out.rglob("*") if p.is_file()] == []
