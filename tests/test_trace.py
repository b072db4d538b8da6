import io
import json
import random

import pytest

from mrtrace import (
    EmptyPath,
    EmptyTrace,
    JobRecord,
    MalformedRecord,
    MissingRequiredField,
    Trace,
    hash_path,
    parse_trace,
    serialize_trace,
    validate,
)
from mrtrace.cli import main
from mrtrace.columns import TraceColumns
from conftest import full_rec, make_trace, rec


def jl(*objs):
    return ("\n".join(json.dumps(o) for o in objs)).encode()


class TestParse:
    def test_three_sorted_records(self):
        src = jl(
            {"job_id": 1, "submit_time": 10, "input_bytes": 5},
            {"job_id": 2, "submit_time": 20, "input_bytes": 6},
            {"job_id": 3, "submit_time": 30, "input_bytes": 7},
        )
        t = parse_trace(src)
        assert [r.job_id for r in t.records] == [1, 2, 3]
        assert [r.submit_time for r in t.records] == [10, 20, 30]
        assert t.span == (10, 30)

    def test_unsorted_input_gets_sorted(self):
        t = parse_trace(jl(
            {"job_id": 1, "submit_time": 30},
            {"job_id": 2, "submit_time": 10},
        ))
        assert [r.job_id for r in t.records] == [2, 1]

    def test_sort_is_stable_on_ties(self):
        t = parse_trace(jl(
            {"job_id": 7, "submit_time": 10},
            {"job_id": 3, "submit_time": 10},
            {"job_id": 5, "submit_time": 10},
        ))
        assert [r.job_id for r in t.records] == [7, 3, 5]

    def test_missing_optional_field_is_none_not_zero(self):
        t = parse_trace(jl({"job_id": 1, "submit_time": 0, "input_bytes": 9}))
        r = t.records[0]
        assert r.output_path_hash is None
        assert r.shuffle_bytes is None
        assert r.input_bytes == 9

    def test_negative_input_bytes_rejected(self):
        with pytest.raises(MalformedRecord):
            parse_trace(jl({"job_id": 1, "submit_time": 0, "input_bytes": -5}))

    def test_missing_job_id(self):
        with pytest.raises(MissingRequiredField) as ei:
            parse_trace(jl({"submit_time": 0}))
        assert ei.value.field == "job_id"

    def test_missing_submit_time(self):
        with pytest.raises(MissingRequiredField) as ei:
            parse_trace(jl({"job_id": 1}))
        assert ei.value.field == "submit_time"

    def test_empty_source(self):
        with pytest.raises(EmptyTrace):
            parse_trace(b"")

    def test_bad_json_reports_line_number(self):
        src = b'{"job_id": 1, "submit_time": 0}\nnot json\n'
        with pytest.raises(MalformedRecord) as ei:
            parse_trace(src)
        assert ei.value.line_no == 2

    def test_unknown_key_rejected(self):
        with pytest.raises(MalformedRecord):
            parse_trace(jl({"job_id": 1, "submit_time": 0, "bogus": 1}))

    def test_subsecond_times_truncated(self):
        t = parse_trace(jl({"job_id": 1, "submit_time": 10.9, "duration": 5.7}))
        assert t.records[0].submit_time == 10
        assert t.records[0].duration == 5

    def test_csv_with_empty_cells(self):
        src = b"job_id,submit_time,name,input_bytes\n1,0,alpha,100\n2,5,,\n"
        t = parse_trace(src, "csv")
        assert t.records[0].input_bytes == 100
        assert t.records[1].name is None
        assert t.records[1].input_bytes is None

    def test_csv_unknown_column(self):
        with pytest.raises(MalformedRecord):
            parse_trace(b"job_id,submit_time,oops\n1,0,3\n", "csv")

    def test_roundtrip_is_identity(self):
        records = [
            full_rec(i, i * 37, input_path_hash=hash_path(f"/p/{i % 3}"),
                     output_path_hash=hash_path(f"/o/{i}"))
            for i in range(20)
        ]
        records.append(rec(99, 1))  # minimal record: only required fields
        t1 = make_trace(records)
        buf = io.StringIO()
        serialize_trace(t1, buf)
        t2 = parse_trace(buf.getvalue().encode())
        assert list(t2.records) == list(t1.records)


# (field, literal) pairs that are valid JSON or CSV but no column can hold:
# non-finite values, integers past int64, and integer fields past 2**53,
# where float64 columns stop being exact.
NON_REPRESENTABLE = [
    ("submit_time", "NaN"),
    ("submit_time", "Infinity"),
    ("submit_time", "1e400"),
    ("submit_time", "100000000000000000000"),
    ("job_id", "9223372036854775808"),
    ("duration", "1e400"),
    ("map_task_seconds", "Infinity"),
    ("reduce_task_seconds", "1e400"),
    ("input_bytes", "9007199254740993"),
]


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("field,literal", NON_REPRESENTABLE)
def test_non_representable_number_is_malformed(tmp_path, capsys, fmt, field, literal):
    good = {"job_id": "1", "submit_time": "0"}
    bad = {"job_id": "2", "submit_time": "5", field: literal}
    if fmt == "jsonl":
        text = "".join("{" + ",".join(f'"{k}":{v}' for k, v in row.items()) + "}\n"
                       for row in (good, bad))
        bad_line = 2
    else:
        keys = list(bad)
        text = "\n".join(",".join(row.get(k, "") for k in keys) for row in (
            dict(zip(keys, keys)), good, bad)) + "\n"
        bad_line = 3
    with pytest.raises(MalformedRecord) as ei:
        parse_trace(text.encode(), fmt)
    assert ei.value.line_no == bad_line
    assert field in ei.value.reason

    path = tmp_path / f"bad.{fmt}"
    path.write_text(text)
    assert main(["analyze", "--trace", str(path), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert f"line {bad_line}" in err and "Traceback" not in err


def test_overlong_integer_literal_is_malformed():
    with pytest.raises(MalformedRecord) as ei:
        parse_trace(jl({"job_id": 1, "submit_time": 0}) + b'\n{"job_id":2,"submit_time":' + b"1" * 5000 + b"}")
    assert ei.value.line_no == 2


def test_largest_exact_values_are_kept():
    line = {"job_id": 2**63 - 1, "submit_time": -(2**63), "input_bytes": 2**53,
            "input_path_hash": 2**64 - 1, "map_task_seconds": 1.7e308}
    t = parse_trace(jl(line))
    assert t.records[0] == JobRecord(**line)


class TestTraceInvariants:
    def test_unsorted_records_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            Trace("t", 1, TraceColumns.from_records([rec(1, 10), rec(2, 5)]), span=(5, 10))

    def test_span_must_cover_submit_times(self):
        with pytest.raises(ValueError, match="span"):
            make_trace([rec(1, 5), rec(2, 10)], span=(5, 9))

    def test_digest_must_fit_uint64(self):
        with pytest.raises(ValueError):
            make_trace([rec(1, 5, input_path_hash=2**64)])

    def test_records_view(self):
        records = [full_rec(i, i, name=None if i % 2 else f"n{i}") for i in range(5)]
        t = make_trace(records)
        assert len(t.records) == 5
        assert t.records[-1] == records[-1]
        assert t.records[1:4] == records[1:4]
        with pytest.raises(IndexError):
            t.records[5]
        assert list(t.records) == records


class TestValidate:
    def test_complete_records_have_no_missing(self):
        t = make_trace([full_rec(i, i, input_path_hash=i, output_path_hash=i + 50) for i in range(10)])
        report = validate(t)
        assert report.record_count == 10
        assert all(v == 0 for v in report.missing_field_counts.values())
        assert report.anomalies == []

    def test_counts_missing_shuffle(self):
        records = [full_rec(i, i) for i in range(3)]
        records += [rec(10, 20), rec(11, 21)]
        report = validate(make_trace(records))
        assert report.missing_field_counts["shuffle_bytes"] == 2

    def test_reduce_seconds_without_reduce_tasks_flagged(self):
        t = make_trace([rec(1, 0, reduce_tasks=0, reduce_task_seconds=30.0)])
        report = validate(t)
        assert any("reduce_task_seconds" in d for _, d in report.anomalies)

    def test_shuffle_on_map_only_job_flagged(self):
        t = make_trace([rec(1, 0, reduce_tasks=0, shuffle_bytes=10)])
        assert any("shuffle" in d for _, d in validate(t).anomalies)

    def test_duplicate_job_id_flagged(self):
        t = make_trace([rec(1, 0), rec(1, 5)])
        assert any("duplicate" in d for _, d in validate(t).anomalies)

    def test_pure(self):
        t = make_trace([full_rec(i, i) for i in range(5)] + [rec(9, 3, reduce_tasks=0, shuffle_bytes=4)])
        assert validate(t) == validate(t)


class TestHashPath:
    def test_deterministic(self):
        assert hash_path("/a/b") == hash_path("/a/b")

    def test_distinct_paths_differ(self):
        assert hash_path("/a/b") != hash_path("/a/c")

    def test_empty_path(self):
        with pytest.raises(EmptyPath):
            hash_path("")

    def test_64_bit_range(self):
        for p in ("/x", "a" * 300, "/über/ünicode"):
            assert 0 <= hash_path(p) < 2**64

    def test_no_collisions_at_scale(self):
        # Birthday bound: expected collisions for n draws over 2^64 is
        # ~n^2/2^65; for n=10^5 that is ~3e-10, so any collision fails.
        rng = random.Random(1)
        paths = {f"/data/{rng.randrange(10**12)}/{i}" for i in range(100_000)}
        digests = {hash_path(p) for p in paths}
        assert len(digests) == len(paths)
