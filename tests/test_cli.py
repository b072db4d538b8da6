import dataclasses
import json
import os
from pathlib import Path

import pytest

from mrtrace.cli import main
from conftest import make_trace, mixed_workload_trace, trace_to_jsonl


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
