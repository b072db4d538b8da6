import io
import json
import random
from unittest import mock

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
from mrtrace import trace as trace_module
from mrtrace.cli import main
from conftest import columns_of_records, full_rec, make_trace, rec


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


# Spellings int() and float() take but jsonl rejects: digit separators and
# non-ASCII digits.
PYTHON_ONLY_NUMBERS = [("input_bytes", "1_000"), ("duration", "\u0661\u0662"),
                       ("duration", "1_0.5"), ("map_task_seconds", "\uff15.0"),
                       ("submit_time", "1_5")]


@pytest.mark.parametrize("column,cell", PYTHON_ONLY_NUMBERS)
def test_csv_takes_ascii_decimal_numbers_only(column, cell):
    row = {"job_id": "1", "submit_time": "0", column: cell}
    text = ",".join(row) + "\n3,0\n" + ",".join(row.values()) + "\n"
    with pytest.raises(MalformedRecord) as ei:
        parse_trace(text.encode(), "csv")
    assert ei.value.line_no == 3
    assert f"in column {column}" in ei.value.reason and repr(cell) in ei.value.reason


def test_csv_ascii_number_spellings_are_kept():
    text = "job_id,submit_time,duration,map_task_seconds\n+1,-5,1e3,.5\n2,0,7.,2E1\n"
    r1, r2 = parse_trace(text.encode(), "csv").records
    assert (r1.job_id, r1.submit_time, r1.duration, r1.map_task_seconds) == (1, -5, 1000, 0.5)
    assert (r2.duration, r2.map_task_seconds) == (7, 20.0)


@pytest.mark.parametrize("fmt, text, bad_line", [
    ("jsonl", b'{"job_id":1,"submit_time":0}\n\n{"job_id":2,"submit_time":1,"name":"a\xffb"}\n', 3),
    ("jsonl", b'{"job_id":1,"submit_time":0,"name":"\xc3\xa9"}\n{"job_id":2,"submit_\xc3":1}\n', 2),
    ("csv", b"job_id,submit_time,name\n1,0,a\xffb\n", 2),
    ("csv", b"job_id,submit_time,n\xe9\n1,0,x\n", 1),
])
def test_invalid_utf8_is_malformed_with_its_line(tmp_path, capsys, fmt, text, bad_line):
    with pytest.raises(MalformedRecord) as ei:
        parse_trace(text, fmt)
    assert ei.value.line_no == bad_line and "UTF-8" in ei.value.reason
    path = tmp_path / f"bad.{fmt}"
    path.write_bytes(text)
    out = tmp_path / "out"
    argv = (["analyze", "--trace", str(path), "--out", str(out)] if fmt == "jsonl" else
            ["names", "--trace", str(path), "--format", "csv", "--out", str(out)])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"line {bad_line}: invalid UTF-8" in err and "Traceback" not in err
    assert not out.exists()


def test_parsed_columns_own_exactly_their_rows():
    # Chunks of 3 lines make the read columns grow past their size; no
    # array of the Trace may keep such a larger buffer alive.
    records = [full_rec(i, (i * 7) % 10, input_path_hash=i, output_path_hash=2 * i)
               for i in range(11)]
    buf = io.StringIO()
    serialize_trace(make_trace(records), buf)
    with mock.patch.object(trace_module, "_JSONL_CHUNK", 3):
        t = parse_trace(buf.getvalue().encode())
    assert len(t) == 11
    for key, value in vars(t.columns).items():
        if hasattr(value, "base"):
            assert value.base is None and value.flags.owndata, key
            assert value.nbytes == len(value) * value.itemsize, key


class TestTraceInvariants:
    def test_unsorted_records_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            Trace("t", 1, columns_of_records([rec(1, 10), rec(2, 5)]), span=(5, 10))

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


# The same jobs in both formats; a bad last line raises at line 3 (jsonl)
# or 4 (csv, after the header).
SPLIT_LINES = {
    "jsonl": ['{"job_id":1,"submit_time":5,"name":"a,b"}',
              '{"job_id":2,"submit_time":3,"input_bytes":7}'],
    "csv": ["job_id,submit_time,name,input_bytes", '1,5,"a,b",', "2,3,,7"],
}
BAD_LAST_LINE = {"jsonl": '{"job_id":3}', "csv": "3,x"}


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("endings", [["\n"], ["\r\n"], ["\r"], ["\r\n", "\r", "\n"]],
                         ids=["lf", "crlf", "cr", "mixed"])
@pytest.mark.parametrize("bad", [False, True], ids=["good", "bad"])
def test_path_and_bytes_split_lines_alike(tmp_path, fmt, endings, bad):
    lines = SPLIT_LINES[fmt] + [BAD_LAST_LINE[fmt]] * bad
    data = "".join(line + endings[i % len(endings)] for i, line in enumerate(lines)).encode()
    path = tmp_path / f"t.{fmt}"
    path.write_bytes(data)
    for source in (path, data):
        if bad:
            with pytest.raises((MalformedRecord, MissingRequiredField)) as ei:
                parse_trace(source, fmt)
            assert str(ei.value).startswith(f"line {len(lines)}: ")
        else:
            assert list(parse_trace(source, fmt).records) == [
                JobRecord(2, 3, input_bytes=7), JobRecord(1, 5, name="a,b")]


@pytest.mark.parametrize("text, bad_line", [
    ("job_id,submit_time,name\n1,0,a\n2,1,{long}\n", 3),
    # Lines are numbered as an editor numbers them, so a quoted cell over
    # two lines counts twice.
    ('job_id,submit_time,name\n1,0,"a\nb"\n2,1,{long}\n', 4),
    ("job_id,{long}\n1,0\n", 1),
])
def test_csv_field_past_the_csv_module_limit_is_malformed(text, bad_line):
    with pytest.raises(MalformedRecord) as ei:
        parse_trace(text.format(long="x" * 200_000).encode(), "csv")
    assert ei.value.line_no == bad_line and "invalid CSV" in ei.value.reason


@pytest.mark.parametrize("text, bad_line", [
    ('job_id,submit_time,name\n1,0,"a\nb"\n2,x,c\n', 4),
    ('job_id,submit_time,name\n1,0,"a\r\nb\r\nc"\n\n2,x,c\n', 6),
    ('job_id,submit_time,name\n1,0,a\n2,x,"c\nd"\n', 3),
])
def test_csv_errors_name_the_first_physical_line_of_the_record(tmp_path, text, bad_line):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    for source in (path, text.encode()):
        with pytest.raises(MalformedRecord) as ei:
            parse_trace(source, "csv")
        assert ei.value.line_no == bad_line


@pytest.mark.parametrize("text, bad_line", [
    ("job_id,submit_time\n1,5,999\n", 2),
    ("job_id,submit_time\n1,5\n2,6,, x\n", 3),
    ('job_id,submit_time,name\n1,0,"a\nb",7\n2,1,c\n', 2),
])
def test_csv_value_past_the_header_is_malformed(text, bad_line):
    with pytest.raises(MalformedRecord) as ei:
        parse_trace(text.encode(), "csv")
    assert ei.value.line_no == bad_line and "past the header's" in ei.value.reason


def test_csv_empty_cells_past_the_header_are_missing():
    # Spreadsheets pad short rows with empty cells.
    text = b"job_id,submit_time,name\n1,5,a,,\n2,6,, \n"
    assert list(parse_trace(text, "csv").records) == [JobRecord(1, 5, name="a"), JobRecord(2, 6)]


BOM = "\ufeff".encode()


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_a_leading_byte_order_mark_is_dropped(tmp_path, fmt):
    data = "".join(line + "\n" for line in SPLIT_LINES[fmt]).encode()
    path = tmp_path / f"t.{fmt}"
    path.write_bytes(BOM + data)
    want = list(parse_trace(data, fmt).records)
    assert list(parse_trace(path, fmt).records) == want
    assert list(parse_trace(BOM + data, fmt).records) == want


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("at", [1, 2], ids=["second line", "mid line"])
def test_a_byte_order_mark_past_the_start_is_malformed(tmp_path, fmt, at):
    lines = [line.encode() for line in SPLIT_LINES[fmt]]
    lines[1] = lines[1][:at - 1] + BOM + lines[1][at - 1:]
    data = b"\n".join(lines) + b"\n"
    path = tmp_path / f"t.{fmt}"
    path.write_bytes(data)
    for source in (path, data, BOM + data):
        with pytest.raises((MalformedRecord, MissingRequiredField)) as ei:
            parse_trace(source, fmt)
        assert ei.value.line_no == 2


@pytest.mark.parametrize("fmt, text, bad_line, reason", [
    ("csv", "job_id,submit_time,job_id\n1,5,2\n", 1, "repeated column(s) ['job_id']"),
    ("csv", "job_id, submit_time ,name,submit_time\n1,5,a,6\n", 1,
     "repeated column(s) ['submit_time']"),
    ("jsonl", '{"job_id":1,"submit_time":5,"job_id":2}\n', 1, "repeated key(s) ['job_id']"),
    ("jsonl", '{"job_id":1,"submit_time":5}\n{"job_id":2,"name":"a","submit_time":6,"name":"b"}\n',
     2, "repeated key(s) ['name']"),
])
def test_a_repeated_key_or_column_is_malformed(tmp_path, capsys, fmt, text, bad_line, reason):
    with pytest.raises(MalformedRecord) as ei:
        parse_trace(text.encode(), fmt)
    assert (ei.value.line_no, ei.value.reason) == (bad_line, reason)
    path = tmp_path / f"bad.{fmt}"
    path.write_text(text)
    out, plots = tmp_path / "r.json", tmp_path / "plots"
    argv = ["analyze", "--trace", str(path), "--format", fmt, "--out", str(out),
            "--plots", str(plots)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"line {bad_line}: {reason}" in captured.err and "Traceback" not in captured.err
    assert not out.exists() and not plots.exists()
