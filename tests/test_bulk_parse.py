"""The bulk jsonl tiers against the line-by-line path they fall back to.

trace._layout_columns and trace._bulk_columns read a chunk of lines at
once and decline anything they cannot vouch for; trace._iter_jsonl then
reads the chunk line by line. The line-by-line path is the oracle:
parsing with chunks of a few lines must give the same Trace, or raise the
same error, as parsing the whole file line by line.
"""

import importlib.util
import io
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from mrtrace import MalformedRecord, parse_trace, serialize_trace, trace
from conftest import mixed_workload_trace


@contextmanager
def line_by_line():
    """Parse as before the bulk tiers: every line through _iter_jsonl, in
    one pass over the whole file."""
    with mock.patch.object(trace, "_layout_columns", lambda lines: None), \
            mock.patch.object(trace, "_bulk_columns", lambda lines: None), \
            mock.patch.object(trace, "_JSONL_CHUNK", 1 << 30):
        yield


def test_line_by_line_sends_every_line_to_iter_jsonl():
    buf = io.StringIO()
    serialize_trace(mixed_workload_trace(300, 5), buf)
    lines = buf.getvalue().splitlines(keepends=True)
    seen = []
    exact = trace._iter_jsonl

    def counted(chunk, first_line_no=1):
        seen.extend(chunk)
        return exact(chunk, first_line_no)

    with line_by_line(), mock.patch.object(trace, "_iter_jsonl", counted):
        assert len(parse_trace(buf.getvalue().encode())) == 300
    assert seen == lines


def outcome(data: bytes):
    try:
        return parse_trace(data)
    except Exception as exc:  # compared as an outcome, not handled
        return exc


def assert_same_outcome(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want), (got, want)
        assert getattr(got, "line_no", None) == getattr(want, "line_no", None)
        assert str(got) == str(want)
        return
    assert not isinstance(got, Exception), got
    assert (got.label, got.machine_count, got.span) == (want.label, want.machine_count, want.span)
    for key, value in vars(want.columns).items():
        other = getattr(got.columns, key)
        if not isinstance(value, np.ndarray):
            assert other == value, key
            continue
        assert other.dtype == value.dtype, key
        assert np.array_equal(other, value, equal_nan=value.dtype.kind == "f"), key
        if value.dtype.kind == "f":  # array_equal does not tell -0.0 from 0.0
            assert np.array_equal(np.signbit(other), np.signbit(value)), key


def fallback_calls(data: bytes, chunk: int) -> int:
    calls = []
    exact = trace._iter_jsonl

    def counted(lines, first_line_no=1):
        calls.append(first_line_no)
        return exact(lines, first_line_no)

    with mock.patch.object(trace, "_JSONL_CHUNK", chunk), \
            mock.patch.object(trace, "_iter_jsonl", counted):
        parse_trace(data)
    return len(calls)


# -- differential test ------------------------------------------------------

EDGE_INTS = [0, 1, 2**53 - 1, 2**53, 2**53 + 1, 2**63 - 1, 2**63, 2**64 - 1, 2**64, -1, 10**400]
EDGE_FLOATS = [0.0, -0.0, 0.5, 2.5, 1e-300, 2.0**53, 2.0**53 + 2, 1e300, 1.7976931348623157e308,
               math.nan, math.inf, -math.inf, -1.5]
NAMES = st.text(alphabet=st.sampled_from("ab {}\",\\:\xe9\u4e2d\u2028\u2029\x85\U0001f600"),
                max_size=6)

anything = st.one_of(
    st.sampled_from(EDGE_INTS),
    st.sampled_from(EDGE_FLOATS),
    st.booleans(),
    NAMES,
    st.sampled_from([[], [1], {}, {"a": 1}]),
)
# Accepted by the line-by-line path in every numeric field.
NUMBER_EDGES = [0, -0.0, 0.5, 7.9, 2**53 - 1, 2**53, 2.0**53]


def valid(key):
    if key == "job_id":
        return st.integers(0, 50)
    if key == "submit_time":
        return st.integers(-5, 50)
    if key == "name":
        return st.one_of(NAMES, st.none())
    if key.endswith("_hash"):
        return st.one_of(st.integers(0, 2**64 - 1), st.none())
    return st.one_of(st.integers(0, 10**6), st.floats(0, 1e7), st.sampled_from(NUMBER_EDGES),
                     st.none())


rare = st.integers(0, 39).map(lambda i: i == 0)


@st.composite
def job_line(draw):
    """One line of a trace file: usually a valid job, now and then one a
    rare missing, unknown, duplicate or out-of-range field spoils."""
    obj = {}
    for key in trace.FIELD_NAMES:
        if key in ("job_id", "submit_time") and not draw(rare) or draw(st.booleans()):
            obj[key] = draw(anything if draw(rare) else valid(key))
    if draw(rare):
        obj["extra"] = 1
    keys = list(obj)
    order = draw(st.permutations(keys))
    text = json.dumps({k: obj[k] for k in order}, ensure_ascii=draw(st.booleans()),
                      separators=draw(st.sampled_from([(",", ":"), (", ", ": ")])))
    if keys and draw(rare):  # a duplicate key; the last one wins
        key = draw(st.sampled_from(keys))
        text = "{" + f"{json.dumps(key)}:{json.dumps(draw(anything))}," + text[1:]
    return draw(st.sampled_from(["", " ", "\t"])) + text + draw(st.sampled_from(["", " "]))


@st.composite
def array_over_lines(draw):
    """A job whose key first holds an array of objects split across lines,
    then its value from job_line: the last one wins, so a chunk decoded at
    once sees no array."""
    text = draw(job_line()).strip()
    key = draw(st.sampled_from(trace.FIELD_NAMES))
    splits = "}\n{" * draw(st.integers(1, 3))
    return "{" + f'"{key}":[{{{splits}}}],' + text[1:]


junk = st.one_of(st.sampled_from([
    "{}", "[]", "5", "{", '"x"', '{"job_id":1}{"job_id":2}',
    '{"job_id":1,"submit_time":1},{"job_id":2,"submit_time":2}',
    '{"job_id":1,"submit_time":1,"name":"}', '{"}',
]), array_over_lines())
line = st.one_of(job_line(), st.sampled_from(["", "   ", "\t"]), rare.flatmap(
    lambda bad: junk if bad else job_line()))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lines=st.lists(line, min_size=0, max_size=14), newline=st.sampled_from(["\n", "\r\n"]),
       chunk=st.integers(1, 5))
def test_chunked_bulk_parse_matches_line_by_line(lines, newline, chunk):
    data = newline.join(lines).encode()
    with line_by_line():
        want = outcome(data)
    with mock.patch.object(trace, "_JSONL_CHUNK", chunk):
        got = outcome(data)
    event("error" if isinstance(want, Exception) else "parsed")
    assert_same_outcome(got, want)


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(job_line(), min_size=1, max_size=6))
def test_whatever_bulk_accepts_line_by_line_accepts_with_same_columns(lines):
    bulk = trace._bulk_columns([s + "\n" for s in lines])
    event("accepted" if bulk is not None else "declined")
    if bulk is None:
        return
    exact = trace._columns_of(trace._iter_jsonl(lines))
    for key, value in vars(exact).items():
        other = getattr(bulk, key)
        if isinstance(value, np.ndarray):
            assert other.dtype == value.dtype, key
            assert np.array_equal(other, value, equal_nan=True), key
            if value.dtype.kind == "f":
                assert np.array_equal(np.signbit(other), np.signbit(value)), key
        else:
            assert other == value, key


@settings(max_examples=100, deadline=None)
@given(job=array_over_lines(), others=st.lists(job_line(), max_size=3))
def test_duplicate_key_over_an_array_across_lines_is_declined(job, others):
    # Each physical line of the split job is balanced by one more object
    # on the last line, so the joined chunk holds as many objects as lines.
    split = job.split("\n")
    extra = ",".join('{"job_id":%d,"submit_time":%d}' % (i, i) for i in range(len(split)))
    lines = split + others + [extra]
    data = "\n".join(lines).encode()
    with line_by_line():
        want = outcome(data)
    assert isinstance(want, MalformedRecord)
    assert trace._bulk_columns([s + "\n" for s in lines]) is None
    with mock.patch.object(trace, "_JSONL_CHUNK", len(lines)):
        assert_same_outcome(outcome(data), want)


# -- pinned cases -------------------------------------------------------------

TWO_JOBS_ONE_LINE = '{"job_id":2,"submit_time":2},{"job_id":3,"submit_time":3}'
JOINED_ONLY = {
    # Joined with a bare comma these decode as three jobs, and with the
    # first check each line's braces; a newline in the separator is the fix.
    "comma join": ['{"job_id":1,"submit_time":1,"name":"}', '{"}', TWO_JOBS_ONE_LINE],
    "string across lines": ['{"job_id":1,"submit_time":1,"name":"a', 'b"}', TWO_JOBS_ONE_LINE],
    "object across lines": ['{"job_id":1', '"submit_time":1}', TWO_JOBS_ONE_LINE],
    "two objects in a line": ['{"job_id":1,"submit_time":1}', TWO_JOBS_ONE_LINE],
    "nesting that balances the count": ['{"job_id":1,"submit_time":1,"name":[{}', "{}", "{}]}",
                                        '{"job_id":2,"submit_time":2},5,{"job_id":3,"submit_time":3}'],
    # The last "name" wins, so joined these decode as three flat jobs.
    "duplicate key over an array across lines": ['{"job_id":1,"submit_time":1,"name":[{}',
                                                 '{}],"name":"x"}', TWO_JOBS_ONE_LINE],
}


def test_comma_join_hole():
    lines = JOINED_ONLY["comma join"]
    assert len(json.loads("[" + ",".join(lines) + "]")) == 3
    with pytest.raises(MalformedRecord) as ei:
        parse_trace("\n".join(lines).encode())
    assert ei.value.line_no == 1


@pytest.mark.parametrize("case", sorted(JOINED_ONLY))
def test_lines_that_decode_only_when_joined_are_declined(case):
    lines = JOINED_ONLY[case]
    assert trace._bulk_columns([s + "\n" for s in lines]) is None
    data = "\n".join(lines).encode()
    with line_by_line():
        want = outcome(data)
    assert isinstance(want, MalformedRecord)
    with mock.patch.object(trace, "_JSONL_CHUNK", len(lines)):
        assert_same_outcome(outcome(data), want)


def test_bad_line_in_second_chunk_keeps_its_line_number():
    good = [json.dumps({"job_id": i, "submit_time": i, "input_bytes": 10 * i}) for i in range(9)]
    lines = good[:6] + ['{"job_id": 6, "submit_time": 6, "input_bytes": -1}'] + good[6:]
    data = "\n".join(lines).encode()
    with line_by_line():
        want = outcome(data)
    with mock.patch.object(trace, "_JSONL_CHUNK", 4):
        got = outcome(data)
    assert isinstance(want, MalformedRecord) and want.line_no == 7
    assert_same_outcome(got, want)


EDGE_LITERALS = [
    "0", "-0", "-0.0", "0.5", "7.9", "-1", "-1.5", "NaN", "Infinity", "-Infinity", "true",
    "null", '"7"', "[]", "{}", "1e400", "1" + "0" * 400, "-" + "1" * 400,
    str(2**53 - 1), str(2**53), str(2**53 + 1), "9007199254740992.0", "9007199254740994.0",
    str(2**63 - 1), str(2**63), str(-(2**63)), str(-(2**63) - 1), str(2**64 - 1), str(2**64),
    "1e19", "-1e19", "1.7976931348623157e308", str(int(sys.float_info.max)),
    str(int(sys.float_info.max) + 1),
]


def test_edge_literals_in_every_field_match_line_by_line():
    for key in trace.FIELD_NAMES:
        for literal in EDGE_LITERALS:
            job = {"job_id": "1", "submit_time": "0", key: literal}
            lines = ["{" + ",".join(f'"{k}":{v}' for k, v in job.items()) + "}",
                     '{"job_id":2,"submit_time":1,"duration":3}']
            data = "\n".join(lines).encode()
            with line_by_line():
                want = outcome(data)
            with mock.patch.object(trace, "_JSONL_CHUNK", 2):
                got = outcome(data)
            try:
                assert_same_outcome(got, want)
            except AssertionError as exc:
                raise AssertionError(f"{key}={literal}") from exc


def test_edge_literals_keep_their_line_by_line_values():
    lines = ['{"job_id":1,"submit_time":0,"duration":-0.0,"map_task_seconds":-0.0}',
             '{"job_id":2,"submit_time":1,"duration":7.9,"map_task_seconds":7.9}',
             '{"job_id":3,"submit_time":2,"duration":9007199254740992,"map_task_seconds":1e300}']
    with mock.patch.object(trace, "_JSONL_CHUNK", 2):  # the last line declines
        t = parse_trace("\n".join(lines).encode())
    assert t.columns.duration.tolist() == [0.0, 7.0, 2.0**53]
    assert not np.signbit(t.columns.duration[0])
    assert t.columns.map_task_seconds.tolist() == [-0.0, 7.9, 1e300]
    assert np.signbit(t.columns.map_task_seconds[0])


def test_name_tables_merge_in_first_appearance_order():
    names = ["b", None, "a", "b", " x", "a", "c"]
    lines = [json.dumps({"job_id": i, "submit_time": 0, **({"name": n} if n else {})},
                        ensure_ascii=False) for i, n in enumerate(names)]
    with mock.patch.object(trace, "_JSONL_CHUNK", 2):
        t = parse_trace("\n".join(lines).encode())
    assert t.columns.names == ("b", "a", " x", "c")
    assert [r.name for r in t.records] == names


def test_crlf_file_takes_the_bulk_path(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_bytes(b'{"job_id":1,"submit_time":5}\r\n\r\n  \r\n{"job_id":2,"submit_time":3}\r\n')
    calls = []
    exact = trace._iter_jsonl
    with mock.patch.object(trace, "_iter_jsonl", lambda *a: calls.append(a) or exact(*a)):
        t = parse_trace(path)
    assert calls == [] and t.columns.job_id.tolist() == [2, 1]


# -- fast-path coverage guard -------------------------------------------------

def _benchmark_generators():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.GENERATORS


@pytest.mark.parametrize("kind, size", [
    ("analyze", {"n_jobs": 3000}),
    ("cache", {"n_jobs": 2000, "n_files": 300}),
    ("mixed", {"n_jobs": 1200}),
])
def test_benchmark_shaped_inputs_never_fall_back(tmp_path, kind, size):
    path = tmp_path / f"{kind}.jsonl"
    _benchmark_generators()[kind](path, 3, **size)
    assert fallback_calls(path.read_bytes(), chunk=500) == 0


def test_serialized_trace_never_falls_back():
    buf = io.StringIO()
    serialize_trace(mixed_workload_trace(1500, 5), buf)
    assert fallback_calls(buf.getvalue().encode(), chunk=400) == 0
