"""Golden outputs: analyze, synthesize and simulate on a fixed trace must
stay byte-identical. A change that alters any of these bytes on purpose
updates the digests here and says why."""

import csv
import hashlib
import io
import json
import random
from dataclasses import fields, replace

import pytest

from mrtrace import JobRecord, parse_trace, serialize_trace
from mrtrace.trace import FIELD_NAMES
from mrtrace.cli import main
from conftest import full_rec, make_trace, mixed_workload_trace, rec, trace_to_jsonl

GOLDEN = {
    "mixed.jsonl": "3b86190cb62077f07f706cb13523f00fb4c0c5c7a2acea28e03e2baedd00acc8",
    "report.json": "08290506a8b85de9efa7225cf63ef71827fa80ef621addff80118931252c2fee",
    "plots/fig1_input.tsv": "2851488c604d1a1219cd1cbd5cdf4ddfa233f1300008f650ddc0d963bd144451",
    "plots/fig1_output.tsv": "6d5754f8f100ff8a104073e49aebfb2ab283505fbccc84273ac815bb7811a818",
    "plots/fig1_shuffle.tsv": "1d081b8a614894af7cd7c9b1844827e1873306ecfe21be146d2e45376a29d5f5",
    "plots/fig2_input.tsv": "4a88af32291bbfb4868643d8c2d9d7a112a0c4326637862925410695456d9e39",
    "plots/fig2_output.tsv": "338797eae6b84d2c8a1b69a5dea52d71c1bc80110b9ee635f9d98ef778f457b4",
    "plots/fig3_input_bytes.tsv": "fcffc17f1df23a8d9195ac3caef55ff2e2f8cc6a0b6d416bf26efddacb109593",
    "plots/fig3_input_jobs.tsv": "2a34f4fed6a8ef6fa61082315d241b1954129619a9f3a7c8755961f14147bb28",
    "plots/fig4_output_bytes.tsv": "aa39d473e31c5168dbb73ed3f237d67638000f3c8a407834345a8937f14440e0",
    "plots/fig4_output_jobs.tsv": "6d5754f8f100ff8a104073e49aebfb2ab283505fbccc84273ac815bb7811a818",
    "plots/fig5_reaccess_intervals.tsv": "fc77a18e913d66fd8c43720ef55820d6fee7945bc790a155020eced14b856f68",
    "plots/fig6_preexisting_input.tsv": "c619afa06bcf805046e1286c17db2976e9ecedb110bed86328fbd0e367224ba2",
    "plots/fig7_compute_time_task_seconds.tsv": "d3f094ef27ddd03ba16ed06d421aef494a0770401c2873864e6b34de61479c5c",
    "plots/fig7_data_size_bytes.tsv": "19b6f40df73f8803a0bbadb678434f23097060a6642c7e7d25c838d5d8873690",
    "plots/fig7_jobs_submitted.tsv": "95a5dc34e7e738971efc0bd057599edd19c6b89b3524410a3176d7c5452f4860",
    "plots/fig7_occupancy_slots.tsv": "54cec56f37a746580bc147c7b0331f64545c9e0ade7d184b1786af24bc01687d",
    "plots/fig8_sine_mean.tsv": "d0e245e8a1077033af1b958dacdc4c6f57388a7fe2090301db1a938abe4cd9cf",
    "plots/fig8_sine_tenth.tsv": "37ea6c4c1a664b5e6dc3d86be528fd4f7b975dbc1b0062b5c1f7028d53029aeb",
    "plots/fig8_tasktime.tsv": "1d7eeb56a7ac262709085ddec047e5bd124e2e35f0f51ad2dbfbe75a38e7deb9",
    "plots/fig9_correlations.tsv": "f3b1f60cc1d42ce5c634562536a3882a434cebf332d5266ae7292c2ad6f5a8aa",
    "plots/fig10_io_bytes.tsv": "792e24d5e7d006592922566513e904d630eef2e38e62ebb34c75ac1cf3507108",
    "plots/fig10_jobs.tsv": "85ab90dae773fbd3b390334f3ccede956bd41799ba8d9cc5c4da3aab02c0a0e7",
    "plots/fig10_task_time.tsv": "1cda79614466242a9759b66d03f89200e1f4f371781e9c343117483c9fc0c65c",
    "plots/table2_clusters.txt": "338d3f9776d1841ea9474c5f7b4809f418d4b2418ffc01fd334c47161c281e4b",
    "synth.jsonl": "039594271abd83d2dff43b42627c8e9adc05da484b49d7eaa92eef50c1c72e07",
    "plan.tsv": "d3c5c78145608bc0d0fdcb36791ff918d871ffa4bd1a23bd250425c326206744",
    "sim.json": "19ccb720a65dab369c6d6a87f61e300c763bde616876d38f70036b4b87cf0635",
    "occ.tsv": "bb297d8284833581b7e608857dc697425ae9900f5c0805cd653765a4bf5c664d",
    "fifo_sim.json": "cc11f78f31cd363a665c82fe890151a0535ea3988d6a4c4b92c5500d5e3a26c0",
    "fifo_occ.tsv": "d5a372211bfe63ed9fde261154c9e270cd4e60c7790008135895aa66f549493e",
    "sampled.jsonl": "1d7ffdbad04b2cc2061932b9a5cdbbdc0ce3f622c720e7a05988d889d73be607",
    "sampled_plan.tsv": "ac756d6e8db2037710660739ca8539a453b651f5100017453994b868b6f0d639",
    "sampled_sim.json": "95701a9ba48caa6ae6aca27b916a3fcb02b23ab744a5388b71c49bee7cc4f4d0",
    "sampled_occ.tsv": "8d5cbdeaf5f1db4d71dcab4359557220c72733a937d90469774623dca9573d14",
    "sampled_part.jsonl": "3751de001566c315acf007d32e416379c3e117525b7c992531ed70e72f01d44d",
}


def test_outputs_match_golden_digests(tmp_path, capsys):
    def out(name):
        return str(tmp_path / name)

    src = out("mixed.jsonl")
    trace_to_jsonl(mixed_workload_trace(n_jobs=2000, seed=11), src)
    assert main(["analyze", "--trace", src, "--seed", "42",
                 "--out", out("report.json"), "--plots", out("plots")]) == 0
    assert main(["synthesize", "--trace", src, "--machines", "100", "--target-machines", "40",
                 "--mode", "replay_scaled", "--seed", "42",
                 "--out", out("synth.jsonl"), "--data-plan", out("plan.tsv")]) == 0
    assert main(["simulate", "--workload", src, "--nodes", "20", "--scheduler", "fair",
                 "--out", out("sim.json"), "--occupancy", out("occ.tsv")]) == 0
    # The synthesized workload under fifo, so both schedulers are pinned.
    assert main(["simulate", "--workload", out("synth.jsonl"), "--nodes", "20",
                 "--scheduler", "fifo",
                 "--out", out("fifo_sim.json"), "--occupancy", out("fifo_occ.tsv")]) == 0
    # Sampled synthesis over the full span (fixed window counts) and over a
    # shorter span (stochastic rounding of every window count).
    assert main(["synthesize", "--trace", src, "--machines", "100", "--target-machines", "40",
                 "--mode", "sampled", "--seed", "42",
                 "--out", out("sampled.jsonl"), "--data-plan", out("sampled_plan.tsv")]) == 0
    assert main(["simulate", "--workload", out("sampled.jsonl"), "--nodes", "20",
                 "--scheduler", "fair",
                 "--out", out("sampled_sim.json"), "--occupancy", out("sampled_occ.tsv")]) == 0
    assert main(["synthesize", "--trace", src, "--machines", "100", "--target-machines", "40",
                 "--mode", "sampled", "--seed", "42", "--target-span", "100000",
                 "--out", out("sampled_part.jsonl")]) == 0

    # Without --out the same bytes go to stdout.
    capsys.readouterr()
    assert main(["simulate", "--workload", src, "--nodes", "20", "--scheduler", "fair"]) == 0
    assert capsys.readouterr().out.encode() == (tmp_path / "sim.json").read_bytes()
    assert main(["analyze", "--trace", src, "--seed", "42"]) == 0
    assert capsys.readouterr().out.encode() == (tmp_path / "report.json").read_bytes()

    produced = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()}
    assert produced == set(GOLDEN)
    for name, digest in GOLDEN.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_csv_trace_gives_the_jsonl_report(tmp_path, newline):
    """The golden trace written as CSV, with LF or CRLF endings, analyzes
    to the golden report: the name "SELECT a,b" is quoted."""
    src = tmp_path / "mixed.csv"
    with open(src, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator=newline)
        writer.writerow(FIELD_NAMES)
        writer.writerows([getattr(job, f) for f in FIELD_NAMES]
                         for job in mixed_workload_trace(n_jobs=2000, seed=11).records)
    text = src.read_bytes()
    assert b',"SELECT a,b",' in text and text.count(newline.encode()) == text.count(b"\n") == 2001
    out = tmp_path / "report.json"
    assert main(["analyze", "--trace", str(src), "--format", "csv", "--label", "mixed",
                 "--seed", "42", "--out", str(out), "--plots", str(tmp_path / "plots")]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN["report.json"]


CLI_GOLDEN = {
    "burstiness_jobs_submitted.tsv": "b876de0344cf699a235fa8e0ad7237451e535e15e18fbfdcaf974658bfcc6ed6",
    "burstiness_data_size_bytes.tsv": "d82a6a514fbca3f6314d50080e38529f207d3eda4fd3c94091c3574df1dae8b4",
    "burstiness_compute_time_task_seconds.tsv": "1d7eeb56a7ac262709085ddec047e5bd124e2e35f0f51ad2dbfbe75a38e7deb9",
    "burstiness_occupancy_slots.tsv": "d16970a67ef83ea753efc4c6ccec55ee8d8e10bc859bac4b45684337cd1e3ac9",
    "names_jobs.tsv": "85ab90dae773fbd3b390334f3ccede956bd41799ba8d9cc5c4da3aab02c0a0e7",
    "names_io_bytes.tsv": "792e24d5e7d006592922566513e904d630eef2e38e62ebb34c75ac1cf3507108",
    "names_task_time.tsv": "1cda79614466242a9759b66d03f89200e1f4f371781e9c343117483c9fc0c65c",
    "cluster.json": "d87fce0c46dbccd2ef466797235eed97673526987191b3489b774c4602bc05d5",
    "cluster_table.txt": "338d3f9776d1841ea9474c5f7b4809f418d4b2418ffc01fd334c47161c281e4b",
}


def test_single_analysis_commands_match_golden_digests(tmp_path, capsys):
    def out(name):
        return str(tmp_path / name)

    src = out("mixed.jsonl")
    trace_to_jsonl(mixed_workload_trace(n_jobs=2000, seed=11), src)
    for dim in ("jobs_submitted", "data_size_bytes", "compute_time_task_seconds", "occupancy_slots"):
        assert main(["burstiness", "--trace", src, "--dimension", dim,
                     "--out", out(f"burstiness_{dim}.tsv")]) == 0
    for weighting in ("jobs", "io_bytes", "task_time"):
        assert main(["names", "--trace", src, "--weighting", weighting,
                     "--out", out(f"names_{weighting}.tsv")]) == 0
    assert main(["cluster", "--trace", src, "--seed", "42",
                 "--out", out("cluster.json"), "--table", out("cluster_table.txt")]) == 0

    # Without --out the same bytes go to stdout.
    capsys.readouterr()
    assert main(["burstiness", "--trace", src]) == 0
    assert capsys.readouterr().out.encode() == (
        tmp_path / "burstiness_compute_time_task_seconds.tsv").read_bytes()
    assert main(["names", "--trace", src, "--weighting", "io_bytes"]) == 0
    assert capsys.readouterr().out.encode() == (tmp_path / "names_io_bytes.tsv").read_bytes()
    assert main(["cluster", "--trace", src, "--seed", "42"]) == 0
    assert capsys.readouterr().out.encode() == (tmp_path / "cluster.json").read_bytes()

    for name, digest in CLI_GOLDEN.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


OPTIONAL_FIELDS = [f.name for f in fields(JobRecord) if f.name not in ("job_id", "submit_time")]

# Names that JSON must escape: a quote, a backslash, control characters,
# non-ASCII text and a character outside the Basic Multilingual Plane.
ESCAPED_NAMES = ['say "hi"', "back\\slash", "ctl\x01\x1f\ttab\nline", "naïve ✓ 日本",
                 "emoji \U0001F600", "/", ""]


def escape_trace():
    """Jobs with each optional field missing in turn, names that need
    escaping and boundary values."""
    full = full_rec(0, 0, input_path_hash=2**64 - 1, output_path_hash=0)
    records = [rec(0, 0)]
    for i, f in enumerate(OPTIONAL_FIELDS, start=1):
        job = replace(full, job_id=i, submit_time=i, name=ESCAPED_NAMES[i % len(ESCAPED_NAMES)])
        records.append(replace(job, **{f: None}))
    records += [
        rec(100 + k, 100, name=n, map_task_seconds=x, reduce_task_seconds=y, input_bytes=b)
        for k, (n, x, y, b) in enumerate(zip(
            ESCAPED_NAMES, (5e-324, 0.1, 1e300, 2.0**53, 1 / 3, 0.0, 1.5),
            (1e-7, 123456789.125, 1e16, 1e-300, 7.0, 2.5e-8, 9.99e22),
            (2**53, 0, 1, 2**53 - 1, 10**15, 12345, 2**52 + 1)))
    ]
    records.append(rec(2**63 - 1, 2**62, name="last", input_path_hash=2**63))
    return make_trace(records)


ESCAPE_JSONL = "d5c1d9322f32b89a5988099968831decc68ea9517c8589d0c44821e795c373f5"


def test_escaped_names_and_missing_fields_round_trip():
    buf = io.StringIO()
    serialize_trace(escape_trace(), buf)
    text = buf.getvalue()
    assert hashlib.sha256(text.encode()).hexdigest() == ESCAPE_JSONL
    assert list(parse_trace(text.encode()).records) == list(escape_trace().records)


def gap_trace():
    """Jobs in hours 0-29, 60-79 and 110-149, so every series has two
    30-bucket zero runs, and first words of which five fall under the names
    cutoff under every weighting: one job each among 600."""
    rng = random.Random(23)
    common = ["alpha", "beta x", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
              "iota", "kappa", "lambda", "mu"]
    rare = ["nu", "xi q", "omicron", "pi", "naïve"]
    hours = [*range(30), *range(60, 80), *range(110, 150)]
    records = []
    for jid in range(600):
        name = rare[jid // 120] if jid % 120 == 7 else common[rng.randrange(len(common))]
        records.append(full_rec(
            jid, rng.choice(hours) * 3600 + rng.randrange(3600) if jid else 0, name=name,
            duration=rng.randrange(10, 5000), input_bytes=rng.randrange(10, 10**9),
            shuffle_bytes=rng.randrange(0, 10**7), output_bytes=rng.randrange(10, 10**8),
            map_task_seconds=float(rng.randrange(5, 5000)),
            reduce_task_seconds=float(rng.randrange(0, 500)),
            map_tasks=rng.randrange(1, 40), reduce_tasks=rng.randrange(0, 10)))
    return make_trace(records, label="gaps")


GAP_GOLDEN = {
    "report.json": "d04dce9f8152701cdcbc4ce52d75e904f3d3cc3cdf1d8056a6f27148e859fcdb",
    "plots/fig10_io_bytes.tsv": "e3db5b8063b1fbb71df141163a15a0f64ab770beaee77567bfeab9b4a5efec9b",
    "plots/fig10_jobs.tsv": "9a1a00f1d58438e5dde467567f5fbe4884061526662ca75a5ddf4af0e32451ca",
    "plots/fig10_task_time.tsv": "734fccd9e6d1e4a609e36c1928b471aff74399453251d58ab36a9da39b228005",
}


def test_logging_gaps_and_other_names_match_golden_digests(tmp_path):
    src = trace_to_jsonl(gap_trace(), tmp_path / "gaps.jsonl")
    assert main(["analyze", "--trace", str(src), "--seed", "42",
                 "--out", str(tmp_path / "report.json"), "--plots", str(tmp_path / "plots")]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    for dim in ("jobs_submitted", "data_size_bytes", "compute_time_task_seconds"):
        assert report[f"time_series.{dim}"]["suspected_logging_gaps"] == [
            {"start_bucket": 30, "length": 30}, {"start_bucket": 80, "length": 30}]
    for weighting in ("jobs", "io_bytes", "task_time"):
        assert len(report["names"][weighting]["top"]) == 10
        assert report["names"][weighting]["other_fraction"] > 0
        assert "\n<other>\t" in (tmp_path / f"plots/fig10_{weighting}.tsv").read_text()
    for name, digest in GAP_GOLDEN.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
