"""Output checks. Each compares what a workload wrote against facts the
benchmark computed from the input it generated, and raises CheckError on
the first mismatch.

Run as ``python3 perfbench/checks.py WORKLOAD OUT_DIR FACTS_JSON``; it
exits 1 with the reason on stderr when the check fails. The benchmark
checks in a child process so that loading outputs never raises its own
peak RSS, which children inherit at exec.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SWEEP_HEADER = ["capacity_bytes", "hit_rate_by_accesses", "hit_rate_by_bytes"]


class CheckError(Exception):
    pass


def strict_json(text: str):
    """Parse JSON, refusing NaN and Infinity, which are not JSON."""
    def refuse(constant):
        raise CheckError(f"non-finite number {constant} in JSON output")
    return json.loads(text, parse_constant=refuse)


def check_analyze(out: Path, facts: dict) -> None:
    report = strict_json((out / "report.json").read_text(encoding="utf-8"))
    count = report["metadata"]["record_count"]
    if count != facts["jobs"]:
        raise CheckError(f"record_count {count}, expected {facts['jobs']}")
    if report["skipped"] != []:
        raise CheckError(f"skipped sections {report['skipped']}")
    if not any((out / "plots").glob("*.tsv")):
        raise CheckError("no plot TSVs written")


def check_sweep(text: str, facts: dict) -> None:
    """One row per capacity, in order, every rate in [0, 1], and at the
    capacity that holds every file the compulsory-miss law: hit rate =
    1 - first-touch reads / reads."""
    capacities = facts["capacities"]
    rows = [line.split("\t") for line in text.splitlines()]
    if rows[:1] != [SWEEP_HEADER]:
        raise CheckError(f"bad sweep header {rows[:1]}")
    got = [int(r[0]) for r in rows[1:]]
    if got != capacities:
        raise CheckError(f"sweep capacities {got}, expected {capacities}")
    for r in rows[1:]:
        if len(r) != 3 or not all(0.0 <= float(v) <= 1.0 for v in r[1:]):
            raise CheckError(f"sweep row out of range: {r}")
    reads, first = facts["reads"], facts["first_touch_reads"]
    want = f"{(reads - first) / reads:.9g}"
    for r in rows[1:]:
        if int(r[0]) >= facts["distinct_file_bytes"] and r[1] != want:
            raise CheckError(f"hit rate {r[1]} at capacity {r[0]}, compulsory-miss law gives {want}")


def _close(got: float, want: float, rel: float = 1e-6) -> bool:
    return abs(got - want) <= rel * max(abs(want), 1.0)


def check_synth_replay(out: Path, facts: dict, bucket_width: int = 3600) -> None:
    jobs = [json.loads(line) for line in (out / "workload.jsonl").read_text(encoding="utf-8").splitlines()]
    if len(jobs) != facts["jobs"]:
        raise CheckError(f"synthesized {len(jobs)} jobs, expected {facts['jobs']}")
    plan = (out / "plan.tsv").read_text(encoding="utf-8").splitlines()
    if len(plan) != facts["jobs"]:
        raise CheckError(f"data plan has {len(plan)} files, expected {facts['jobs']}")

    sim = strict_json((out / "sim.json").read_text(encoding="utf-8"))
    if sim["jobs"] != len(jobs) or len(sim["job_timings"]) != len(jobs):
        raise CheckError(f"simulated {sim['jobs']} jobs, expected {len(jobs)}")
    for key, field in (("busy_map_slot_seconds", "map_task_seconds"),
                       ("busy_reduce_slot_seconds", "reduce_task_seconds")):
        want = sum(j[field] for j in jobs)
        if not _close(sim[key], want):
            raise CheckError(f"{key} {sim[key]} but the workload holds {want} task-seconds")
    for i, t in enumerate(sim["job_timings"]):
        if not t["submit"] <= t["first_task_start"] <= t["completion"]:
            raise CheckError(f"job {i} timing out of order: {t}")

    occupancy = [line.split("\t") for line in (out / "occupancy.tsv").read_text(encoding="utf-8").splitlines()]
    slot_seconds = sum(float(v) for _, v in occupancy) * bucket_width
    busy = sim["busy_map_slot_seconds"] + sim["busy_reduce_slot_seconds"]
    if not _close(slot_seconds, busy):
        raise CheckError(f"occupancy series covers {slot_seconds} slot-seconds, busy total {busy}")


CHECKS = {
    "analyze-1m": check_analyze,
    "cache-lru-sweep": lambda out, facts: check_sweep((out / "sweep.tsv").read_text(encoding="utf-8"), facts),
    "synth-replay": check_synth_replay,
}

if __name__ == "__main__":
    workload, out_dir, facts_json = sys.argv[1:]
    try:
        CHECKS[workload](Path(out_dir), json.loads(facts_json))
    except (CheckError, OSError, KeyError, ValueError) as exc:
        print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        raise SystemExit(1)
