"""Golden outputs of ``cachesim``: the ``--sweep`` TSV and the
single-capacity JSON on small fixed traces, pinned byte for byte.

One sweep is eligible for the stack-distance shortcut (admit-all LRU,
every file fits the smallest capacity, one size per digest); each of the
others breaks exactly one of those conditions and so takes the
per-capacity simulation. Both paths must keep these bytes.
"""

import json
import random

import pytest

from mrtrace.cli import main


def _write_trace(path, *, seed=3, n_jobs=300, n_files=24, resize_digest=None):
    """Reads and writes over a shared pool of digests, with equal submit
    times, missing sides and writes that land on files jobs read.
    ``resize_digest`` shrinks that digest from its tenth appearance on."""
    rng = random.Random(seed)
    sizes = {d: rng.randrange(1, 400) for d in range(1, n_files + 1)}
    seen = {}
    t = 0
    lines = []

    def size_of(d):
        seen[d] = seen.get(d, 0) + 1
        if d == resize_digest and seen[d] >= 10:
            return sizes[d] // 3 + 1
        return sizes[d]

    for i in range(n_jobs):
        t += rng.choice((0, 0, 1, 5, 30))
        job = {"job_id": i, "submit_time": t, "duration": rng.choice((0, 3, 40, 200))}
        if rng.random() < 0.9:
            d = 1 + min(int(rng.paretovariate(1.0)) - 1, n_files - 1)
            job.update(input_path_hash=d, input_bytes=size_of(d))
        if rng.random() < 0.6:
            d = rng.randrange(1, n_files + 1)
            job.update(output_path_hash=d, output_bytes=size_of(d))
        lines.append(json.dumps(job))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


SWEEP = "400,600,900,1500,2500,6000"
HEADER = "capacity_bytes\thit_rate_by_accesses\thit_rate_by_bytes\n"

# case -> (trace arguments, cachesim arguments, TSV rows)
GOLDEN_SWEEPS = {
    "shortcut": ({}, ["--sweep", SWEEP], (
        "400\t0.267924528\t0.204612221\n"
        "600\t0.40754717\t0.339348665\n"
        "900\t0.554716981\t0.492173074\n"
        "1500\t0.713207547\t0.639814504\n"
        "2500\t0.849056604\t0.810559006\n"
        "6000\t0.969811321\t0.972951989\n")),
    "size admission": ({}, ["--sweep", SWEEP, "--admission", "size:200"], (
        "400\t0.558490566\t0.365452409\n"
        "600\t0.61509434\t0.397515528\n"
        "900\t0.626415094\t0.406202787\n"
        "1500\t0.626415094\t0.406202787\n"
        "2500\t0.626415094\t0.406202787\n"
        "6000\t0.626415094\t0.406202787\n")),
    "ttl eviction": ({}, ["--sweep", SWEEP, "--eviction", "ttl:60"], (
        "400\t0.267924528\t0.204612221\n"
        "600\t0.40754717\t0.339348665\n"
        "900\t0.543396226\t0.48119859\n"
        "1500\t0.664150943\t0.594111969\n"
        "2500\t0.728301887\t0.667051368\n"
        "6000\t0.728301887\t0.667051368\n")),
    "file above smallest capacity": ({}, ["--sweep", "250,600,1500,6000"], (
        "250\t0.350943396\t0.234618936\n"
        "600\t0.40754717\t0.339348665\n"
        "1500\t0.713207547\t0.639814504\n"
        "6000\t0.969811321\t0.972951989\n")),
    "digest changes size": ({"resize_digest": 2}, ["--sweep", SWEEP], (
        "400\t0.298113208\t0.246364207\n"
        "600\t0.445283019\t0.387374982\n"
        "900\t0.581132075\t0.522853554\n"
        "1500\t0.732075472\t0.676354061\n"
        "2500\t0.864150943\t0.836570517\n"
        "6000\t0.969811321\t0.968860221\n")),
}

# case -> (trace arguments, cachesim arguments,
#          (accesses, hits, by accesses, by bytes, evictions, peak))
GOLDEN_SINGLE = {
    "lru 900": ({}, ["--capacity", "900"], (265, 147, "0.554716981", "0.492173074", 279, 900)),
    "lru 2500": ({}, ["--capacity", "2500"], (265, 225, "0.849056604", "0.810559006", 137, 2495)),
    "lru 6000": ({}, ["--capacity", "6000"], (265, 257, "0.969811321", "0.972951989", 0, 5306)),
    "resized 900": ({"resize_digest": 2}, ["--capacity", "900"],
                    (265, 154, "0.581132075", "0.522853554", 271, 900)),
    "ttl 900": ({}, ["--capacity", "900", "--eviction", "ttl:60"],
                (265, 144, "0.543396226", "0.48119859", 284, 900)),
}


def _run(tmp_path, trace_kw, argv):
    src = tmp_path / "t.jsonl"
    _write_trace(src, **trace_kw)
    out = tmp_path / "out"
    assert main(["cachesim", "--trace", str(src), "--capacity", "1", *argv, "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


@pytest.mark.parametrize("case", list(GOLDEN_SWEEPS))
def test_sweep_tsv_is_pinned(case, tmp_path):
    trace_kw, argv, rows = GOLDEN_SWEEPS[case]
    assert _run(tmp_path, trace_kw, argv) == HEADER + rows


@pytest.mark.parametrize("case", list(GOLDEN_SINGLE))
def test_single_capacity_json_is_pinned(case, tmp_path):
    trace_kw, argv, (accesses, hits, by_acc, by_bytes, evictions, peak) = GOLDEN_SINGLE[case]
    assert _run(tmp_path, trace_kw, argv) == (
        "{\n"
        f'  "accesses": {accesses},\n'
        f'  "hits": {hits},\n'
        f'  "hit_rate_by_accesses": {by_acc},\n'
        f'  "hit_rate_by_bytes": {by_bytes},\n'
        f'  "evictions": {evictions},\n'
        f'  "peak_resident_bytes": {peak}\n'
        "}\n"
    )
