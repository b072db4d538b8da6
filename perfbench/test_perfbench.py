"""Tests for the benchmark itself: seeded inputs, span arithmetic, metric
names and the output checks. Run with ``PYTHONPATH=src pytest perfbench``."""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import gen
import run
import tracer

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mrtrace.cli import main as mrtrace_main  # noqa: E402

SMALL = {"analyze": {"n_jobs": 3000}, "cache": {"n_jobs": 2000, "n_files": 300},
         "mixed": {"n_jobs": 600}}


@pytest.mark.parametrize("kind", sorted(gen.GENERATORS))
def test_same_seed_same_bytes_other_seed_other_bytes(kind, tmp_path):
    def write(name, seed):
        path = tmp_path / name
        facts = gen.GENERATORS[kind](path, seed, **SMALL[kind])
        return path.read_bytes(), facts

    a, facts_a = write("a.jsonl", 7)
    b, facts_b = write("b.jsonl", 7)
    c, _ = write("c.jsonl", 8)
    assert a == b and facts_a == facts_b
    assert a != c
    assert len(a.splitlines()) == facts_a["jobs"]


def test_sweep_capacities_span_largest_file_to_all_bytes():
    caps = gen.sweep_capacities(10**9, 10**13)
    assert caps[0] == 10**9 and caps[-1] == 10**13
    assert caps == sorted(caps) and len(set(caps)) == len(caps)


def test_self_time_of_nested_spans():
    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["report.build", 1.0, 7.0, 0, None],
        ["columns.columns", 2.0, 3.0, 1, None],
        ["temporal.bucket_time_series", 3.5, 5.0, 1, None],
        ["temporal.bucket_time_series", 3.75, 4.25, 3, None],
        ["report.write_json_atomic", 8.0, 9.0, 0, None],
    ]
    assert tracer.self_times(spans) == [3.0, 3.5, 1.0, 1.0, 0.5, 1.0]
    m = tracer.layer_metrics(spans)
    assert m["cli.main.s"] == 10.0 and m["cli.self_s"] == 3.0
    assert m["report.build.self_s"] == 3.5
    assert m["report.self_s"] == 4.5
    # The inner span of the same name is inside the outer one: busy time
    # counts it once, calls count both.
    assert m["temporal.bucket_time_series.s"] == 1.5
    assert m["temporal.bucket_time_series.calls"] == 2
    assert m["temporal.self_s"] == 1.5


def test_per_layer_ratios_carry_their_bases():
    spans = [["replay_sim.simulate", 0.0, 2.0, -1, {"tasks": 4}],
             ["cache_sim.access_stream", 2.0, 3.0, -1, {"events": 10}],
             ["cache_sim.simulate_cache", 3.0, 4.0, -1, None],
             ["cache_sim.simulate_cache", 4.0, 5.0, -1, None]]
    trace = {"spans": spans, "gc_s": 0.5, "gc_collections": 3, "cpu_s": 4.0}
    m = run.per_layer([trace, trace], traced_wall=12.0, untraced_wall=11.0)
    assert set(m) == set(run.PER_LAYER)
    assert m["replay_sim.tasks"] == 8 and m["replay_sim.us_per_task"] == pytest.approx(0.5e6)
    assert m["cache_sim.events"] == 20 and m["cache_sim.simulate_cache.calls"] == 4
    assert m["cache_sim.us_per_event"] == pytest.approx(4.0 / (20 * 4) * 1e6)
    assert m["process.gc_collections"] == 6 and m["trace_overhead_s"] == 1.0
    assert m["compute_patterns.kmeans.s"] == 0


NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for section, code in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[section]} == code
        for m in spec[section]:
            assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
            assert m["better"] in ("lower", "higher")
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for w in spec["workloads"]:
        assert NAME.fullmatch(w["name"]) and len(w["why"]) <= 200 and "\n" not in w["why"]
    assert set(run.WORKLOADS) == set(checks.CHECKS)


def _analyze(tmp_path):
    facts = gen.analyze_trace(tmp_path / "trace.jsonl", 3, **SMALL["analyze"])
    out = tmp_path / "out"
    out.mkdir()
    assert mrtrace_main(["analyze", "--trace", str(tmp_path / "trace.jsonl"), "--machines", "3000",
                         "--out", str(out / "report.json"), "--plots", str(out / "plots")]) == 0
    checks.check_analyze(out, facts)
    return out, facts


def test_analyze_check_rejects_skipped_section_and_nan(tmp_path):
    out, facts = _analyze(tmp_path)
    path = out / "report.json"
    good = path.read_text()
    report = json.loads(good)

    report["skipped"] = [{"section": "clusters", "reason": "NoData: tampered"}]
    path.write_text(json.dumps(report))
    with pytest.raises(checks.CheckError, match="skipped"):
        checks.check_analyze(out, facts)

    path.write_text(good.replace('"span_hours": ', '"span_hours": NaN, "was": ', 1))
    with pytest.raises(checks.CheckError, match="non-finite"):
        checks.check_analyze(out, facts)

    path.write_text(good)
    with pytest.raises(checks.CheckError, match="record_count"):
        checks.check_analyze(out, {"jobs": facts["jobs"] + 1})


def test_sweep_check_holds_compulsory_miss_law_and_rejects_tampering(tmp_path):
    facts = gen.cache_trace(tmp_path / "trace.jsonl", 5, **SMALL["cache"])
    out = tmp_path / "out"
    out.mkdir()
    for step in run._cache_sweep(str(tmp_path), str(out), facts):
        assert mrtrace_main(step) == 0
    text = (out / "sweep.tsv").read_text()
    checks.check_sweep(text, facts)

    lines = text.splitlines()
    cap, _, by_bytes = lines[2].split("\t")
    with pytest.raises(checks.CheckError, match="out of range"):
        checks.check_sweep("\n".join(lines[:2] + [f"{cap}\t1.25\t{by_bytes}"] + lines[3:]), facts)
    with pytest.raises(checks.CheckError, match="capacities"):
        checks.check_sweep("\n".join(lines[:-1]), facts)
    cap, _, by_bytes = lines[-1].split("\t")
    with pytest.raises(checks.CheckError, match="compulsory"):
        checks.check_sweep("\n".join(lines[:-1] + [f"{cap}\t0.5\t{by_bytes}"]), facts)


def test_synth_replay_check_rejects_lost_slot_seconds_and_bad_timing(tmp_path):
    facts = gen.mixed_trace(tmp_path / "source.jsonl", 9, **SMALL["mixed"])
    out = tmp_path / "out"
    out.mkdir()
    for step in run._synth_replay(str(tmp_path), str(out), facts):
        assert mrtrace_main(step) == 0
    checks.check_synth_replay(out, facts)

    sim_path = out / "sim.json"
    good = json.loads(sim_path.read_text())
    lossy = dict(good, busy_map_slot_seconds=good["busy_map_slot_seconds"] * 0.999)
    sim_path.write_text(json.dumps(lossy))
    with pytest.raises(checks.CheckError, match="busy_map_slot_seconds"):
        checks.check_synth_replay(out, facts)

    late = json.loads(json.dumps(good))
    t = late["job_timings"][0]
    t["first_task_start"] = t["completion"] + 1.0
    sim_path.write_text(json.dumps(late))
    with pytest.raises(checks.CheckError, match="out of order"):
        checks.check_synth_replay(out, facts)


def test_traced_run_matches_untraced_output(tmp_path):
    facts = gen.cache_trace(tmp_path / "trace.jsonl", 6, **SMALL["cache"])
    caps = ",".join(map(str, facts["capacities"]))
    argv = ["cachesim", "--trace", str(tmp_path / "trace.jsonl"), "--capacity", caps.split(",")[0],
            "--sweep", caps]
    assert mrtrace_main([*argv, "--out", str(tmp_path / "plain.tsv")]) == 0
    spans_path = tmp_path / "spans.json"
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(ROOT / "src"),
                    str(spans_path), "--", *argv, "--out", str(tmp_path / "traced.tsv")],
                   check=True, timeout=120)
    assert (tmp_path / "traced.tsv").read_bytes() == (tmp_path / "plain.tsv").read_bytes()

    traced = json.loads(spans_path.read_text())
    m = tracer.layer_metrics(traced["spans"])
    assert traced["spans"][0][0] == "cli.main" and traced["spans"][0][3] == -1
    assert m["cache_sim.access_stream.events"] == 2 * facts["jobs"]
    assert m["cache_sim.simulate_cache.calls"] == len(facts["capacities"])
    assert m["trace.parse_trace.rows"] == facts["jobs"]
    assert m["cli.main.s"] >= m["cache_sim.simulate_cache.s"] > 0
    assert traced["gc_collections"] >= 0 and math.isfinite(traced["cpu_s"])


def test_refuses_to_run_without_program_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "tracer.py"):
        (tmp_path / "perfbench" / name).write_bytes((ROOT / "perfbench" / name).read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "analyze-1m", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
    assert not (tmp_path / ".perfbench-work").exists()
