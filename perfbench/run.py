"""mrtrace benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's input from --seed, then runs the ``mrtrace`` CLI
as child processes, one at a time (a closed loop with one client), until
--seconds of measured work have passed; every repetition gets a fresh
output directory and must pass the workload's output check. With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` the same repetitions run, followed by one traced run in which
``tracer.py`` wraps every public ``mrtrace`` function, and the last line
holds the per-layer metrics. ``--workload all`` runs every workload and
prints each metric with its unit.

Inputs and outputs live under ``.perfbench-work/`` in the checkout and are
removed when the run ends; only a small per-seed digest record stays.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
BENCH_DIR = Path(__file__).resolve().parent

SETUP_REPEATS = 7
STEP_TIMEOUT_S = 150.0
# A repetition is not started when the run would then likely pass this,
# so the whole run stays inside its 180 s limit.
RUN_BUDGET_S = 120.0

MACHINES = "3000"
SYNTH_TARGET_MACHINES = "1500"
SIM_NODES = "400"


def _analyze(inp: str, out: str, facts: dict) -> list[list[str]]:
    return [["analyze", "--trace", f"{inp}/trace.jsonl", "--machines", MACHINES,
             "--out", f"{out}/report.json", "--plots", f"{out}/plots"]]


def _cache_sweep(inp: str, out: str, facts: dict) -> list[list[str]]:
    caps = facts["capacities"]
    return [["cachesim", "--trace", f"{inp}/trace.jsonl", "--capacity", str(caps[0]),
             "--sweep", ",".join(map(str, caps)), "--out", f"{out}/sweep.tsv"]]


def _synth_replay(inp: str, out: str, facts: dict) -> list[list[str]]:
    return [
        ["synthesize", "--trace", f"{inp}/source.jsonl", "--machines", MACHINES,
         "--mode", "replay_scaled", "--target-machines", SYNTH_TARGET_MACHINES,
         "--out", f"{out}/workload.jsonl", "--data-plan", f"{out}/plan.tsv"],
        ["simulate", "--workload", f"{out}/workload.jsonl", "--nodes", SIM_NODES,
         "--scheduler", "fair", "--occupancy", f"{out}/occupancy.tsv", "--out", f"{out}/sim.json"],
    ]


# name -> (generator kind in gen.py, input file name, CLI steps). The
# output check of each is checks.CHECKS[name]; the reasons for each
# workload are recorded in BENCHMARK.json.
WORKLOADS = {
    "analyze-1m": ("analyze", "trace.jsonl", _analyze),
    "cache-lru-sweep": ("cache", "trace.jsonl", _cache_sweep),
    "synth-replay": ("mixed", "source.jsonl", _synth_replay),
}

END_TO_END = {"wall_s": "s", "jobs_per_s": "jobs/s", "peak_rss_mb": "MB", "setup_s": "s"}

# Per-layer metric -> unit. "<module>.<function>.s" is inclusive busy time,
# ".self_s" excludes wrapped child spans, and the counts are read at the
# layer boundary.
PER_LAYER = {
    "trace.parse_trace.s": "s", "trace.parse_trace.rows": "count", "trace.parse_trace.rss_mb": "MB",
    "trace.serialize_trace.s": "s",
    "columns.columns.s": "s", "columns.columns.calls": "count",
    "data_access.self_s": "s", "data_access.reaccess_intervals.s": "s",
    "temporal.self_s": "s", "temporal.bucket_time_series.calls": "count",
    "temporal.occupancy_series.s": "s",
    "compute_patterns.kmeans.s": "s", "compute_patterns.kmeans.calls": "count",
    "compute_patterns.name_breakdown.s": "s", "compute_patterns.job_feature_vectors.s": "s",
    "report.build.self_s": "s", "report.write_json_atomic.s": "s", "report.write_tsv_atomic.s": "s",
    "synthesis.build_workload_model.s": "s", "synthesis.synthesize.s": "s",
    "synthesis.workload_to_trace.s": "s", "synthesis.data_prepopulation_plan.s": "s",
    "synthesis.jobs": "count",
    "replay_sim.simulate.s": "s", "replay_sim.tasks": "count", "replay_sim.us_per_task": "us",
    "replay_sim.sim_occupancy_series.s": "s",
    "cache_sim.access_stream.s": "s", "cache_sim.events": "count",
    "cache_sim.simulate_cache.s": "s", "cache_sim.simulate_cache.calls": "count",
    "cache_sim.us_per_event": "us",
    "cli.self_s": "s",
    "process.gc_s": "s", "process.gc_collections": "count", "process.cpu_s": "s",
    "trace_overhead_s": "s",
}

# Per-layer names that are boundary counts under another span's name.
_ALIASES = {
    "synthesis.jobs": "synthesis.synthesize.jobs",
    "replay_sim.tasks": "replay_sim.simulate.tasks",
    "cache_sim.events": "cache_sim.access_stream.events",
}


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def tree_digests(top: Path) -> dict[str, str]:
    """sha256 of every file under ``top``, keyed by relative path."""
    return {p.relative_to(top).as_posix(): _sha256(p)
            for p in sorted(top.rglob("*")) if p.is_file()}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("MRTRACE_SEED", None)  # the program's own seed stays at its default
    return env


def run_child(argv: list[str], log_dir: Path, tag: str) -> tuple[float, float, str | None]:
    """Run one child to completion; return (wall s, peak RSS MB, failure or None)."""
    log_dir.mkdir(parents=True, exist_ok=True)
    with open(log_dir / f"{tag}.out", "wb") as out, open(log_dir / f"{tag}.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(STEP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    stderr = (log_dir / f"{tag}.err").read_text(encoding="utf-8", errors="replace")
    failure = None
    if code != 0:
        failure = f"exit {code}: {stderr[-400:]}"
    elif "Traceback (most recent call last)" in stderr:
        failure = f"traceback: {stderr[-400:]}"
    return wall, usage.ru_maxrss / 1024.0, failure


def measure_setup() -> float:
    """Median time for a fresh interpreter to import mrtrace.cli and exit."""
    walls = []
    for k in range(SETUP_REPEATS):
        wall, _, failure = run_child([sys.executable, "-c", "import mrtrace.cli"], WORK / "setup", str(k))
        if failure:
            raise RuntimeError(f"import mrtrace.cli failed: {failure}")
        walls.append(wall)
    shutil.rmtree(WORK / "setup")
    return statistics.median(walls)


class Run:
    """One benchmark invocation: generated input, repetitions, checks."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        kind, input_name, self.build = WORKLOADS[workload]
        self.dir = WORK / f"{workload}-{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.inp = self.dir / "input"
        self.inp.mkdir(parents=True)
        argv = [sys.executable, str(BENCH_DIR / "gen.py"), kind, str(self.inp / input_name), str(seed)]
        _, _, failure = run_child(argv, self.dir / "logs", "gen")
        if failure:
            raise RuntimeError(f"input generation failed: {failure}")
        generated = json.loads((self.dir / "logs" / "gen.out").read_text(encoding="utf-8"))
        self.facts, self.numpy_version = generated["facts"], generated["numpy"]
        self.manifest = tree_digests(self.inp)
        self.input_bytes = sum(p.stat().st_size for p in self.inp.iterdir())
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] | None = None
        self.walls: list[float] = []
        self.peak_rss_mb = 0.0
        self.argv: list[list[str]] = []

    def _rel(self, p: Path) -> str:
        return p.relative_to(ROOT).as_posix()

    def repetition(self, name: str, traced: bool = False) -> tuple[float, list[dict]]:
        """Run every step once into a fresh directory and check the result.
        Returns the summed wall time and, when traced, each step's trace."""
        rep = self.dir / name
        out = rep / "out"
        out.mkdir(parents=True)
        steps = self.build(self._rel(self.inp), self._rel(out), self.facts)
        self.argv = [["mrtrace", *s] for s in steps]
        self.attempted += 1
        wall, traces, failure = 0.0, [], None
        for k, step in enumerate(steps):
            if traced:
                spans = rep / f"spans{k}.json"
                argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(SRC), str(spans), "--", *step]
            else:
                argv = [sys.executable, "-m", "mrtrace", *step]
            w, rss, failure = run_child(argv, rep / "logs", f"step{k}")
            wall += w
            if failure:
                break
            if traced:
                traces.append(json.loads(spans.read_text(encoding="utf-8")))
            else:
                self.peak_rss_mb = max(self.peak_rss_mb, rss)
        if failure is None:
            _, _, failure = run_child([sys.executable, str(BENCH_DIR / "checks.py"), self.workload,
                                       str(out), json.dumps(self.facts)], rep / "logs", "check")
        if failure is None:
            digests = tree_digests(out)
            if self.digests is not None and digests != self.digests:
                failure = f"outputs differ from the first repetition of seed {self.seed}"
            elif tree_digests(self.inp) != self.manifest:
                failure = "input directory no longer holds exactly the generated files"
            else:
                self.digests = digests
        if failure:
            self.failed += 1
            self.failures.append(f"{name}: {failure}")
        shutil.rmtree(out, ignore_errors=True)
        return wall, traces

    def measure(self, seconds: float, started: float) -> None:
        """Repeat until ``seconds`` of measured work, at least once."""
        while not self.walls or (sum(self.walls) < seconds
                                 and time.perf_counter() - started + max(self.walls) < RUN_BUDGET_S):
            wall, _ = self.repetition(f"rep{len(self.walls)}")
            self.walls.append(wall)

    def record_digest(self) -> None:
        """Outputs of one seed must not change between invocations either."""
        if self.digests is None:
            return
        store = WORK / "digests.json"
        known = json.loads(store.read_text(encoding="utf-8")) if store.exists() else {}
        key = f"{self.workload}/{self.seed}"
        combined = hashlib.sha256(json.dumps(self.digests, sort_keys=True).encode()).hexdigest()
        if known.setdefault(key, combined) != combined:
            self.failed += 1
            self.failures.append(f"outputs of seed {self.seed} differ from an earlier invocation")
        store.write_text(json.dumps(known, sort_keys=True, indent=1), encoding="utf-8")

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def end_to_end(run: Run, setup_s: float) -> dict[str, float]:
    wall = statistics.median(run.walls)
    return {"wall_s": wall, "jobs_per_s": run.facts["jobs"] / wall,
            "peak_rss_mb": run.peak_rss_mb, "setup_s": setup_s}


def per_layer(traces: list[dict], traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics summed over the traced steps; layers a workload
    never enters read 0."""
    layers: dict[str, float] = {}
    for t in traces:
        for key, value in tracer.layer_metrics(t["spans"]).items():
            layers[key] = layers.get(key, 0) + value
        for key in ("gc_s", "gc_collections", "cpu_s"):
            layers[f"process.{key}"] = layers.get(f"process.{key}", 0) + t[key]
    out = {name: layers.get(_ALIASES.get(name, name), 0) for name in PER_LAYER}
    tasks, events = out["replay_sim.tasks"], out["cache_sim.events"]
    calls = out["cache_sim.simulate_cache.calls"]
    out["replay_sim.us_per_task"] = out["replay_sim.simulate.s"] / tasks * 1e6 if tasks else 0.0
    out["cache_sim.us_per_event"] = (out["cache_sim.simulate_cache.s"] / (events * calls) * 1e6
                                     if events and calls else 0.0)
    out["trace_overhead_s"] = traced_wall - untraced_wall
    return out


def run_record(run: Run, seconds: int, trace: int) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    src = hashlib.sha256()
    for path, digest in tree_digests(SRC / "mrtrace").items():
        if path.endswith(".py"):
            src.update(f"{path}\0{digest}\n".encode())
    return {
        "workload": run.workload, "seed": run.seed, "seconds": seconds, "trace": trace,
        "git_sha": sha, "src_sha256": src.hexdigest(), "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": run.numpy_version,
        "input_facts": run.facts, "input_bytes": run.input_bytes, "argv": run.argv,
        "repetition_walls_s": run.walls, "output_digests": run.digests,
        "failures": run.failures,
    }


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.perf_counter()
    WORK.mkdir(exist_ok=True)
    setup_s = measure_setup()
    run = Run(workload, seed)
    try:
        run.measure(seconds, started)
        if trace:
            traced_wall, traces = run.repetition("traced", traced=True)
            metrics = per_layer(traces, traced_wall, statistics.median(run.walls)) if traces else {}
            units = PER_LAYER
        else:
            metrics = end_to_end(run, setup_s)
            units = END_TO_END
        run.record_digest()
        print(json.dumps({"run_record": run_record(run, seconds, trace)}))
    finally:
        run.cleanup()
    for failure in run.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return {
        "correct": run.failed == 0 and len(metrics) == len(units),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mrtrace" / "cli.py").is_file():
        print(f"perfbench: no mrtrace sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    results = {}
    for name in WORKLOADS:
        result = results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        error_rate = result["failed"] / result["attempted"]
        print(f"{name}  error_rate {error_rate:g} ({result['failed']} of {result['attempted']} runs failed)")
        for metric, m in result["metrics"].items():
            print(f"{name}  {metric} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
