import dataclasses
import json
import math
import os
from pathlib import Path

import pytest

from mrtrace import SimConfig, build_workload_model, parse_trace, simulate, synthesize
from mrtrace.cli import main
from mrtrace.report import json_text, write_json_atomic
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


@pytest.mark.parametrize("argv", [["analyze"], ["cluster", "--k-max", "4"]], ids=" ".join)
def test_stdout_json_is_the_out_file(argv, tmp_path, trace_file, capsys):
    out = tmp_path / "o.json"
    assert main([*argv, "--trace", str(trace_file), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main([*argv, "--trace", str(trace_file)]) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


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
    ["analyze", "--cluster-sample", "0"],
    ["cluster", "--k-max", "0"],
    ["cachesim", "--capacity", "0"],
    ["cachesim", "--capacity", "1", "--admission", "size:abc"],
    ["cachesim", "--capacity", "1", "--eviction", "ttl:x"],
    ["cachesim", "--capacity", "1", "--sweep", "1,x"],
    ["synthesize", "--target-machines", "0"],
    ["synthesize", "--target-machines", "1", "--window-width", "0"],
    ["synthesize", "--target-machines", "1", "--target-span", "0"],
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
        write_json_atomic(tmp_path / "in_process.json", {
            "jobs": len(workload.jobs),
            "makespan_seconds": res.makespan,
            "busy_map_slot_seconds": res.busy_map_slot_seconds,
            "busy_reduce_slot_seconds": res.busy_reduce_slot_seconds,
            "total_slots": res.total_slots,
            "job_timings": [vars(t) for t in res.job_timings],
        })
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
