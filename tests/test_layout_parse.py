"""The layout reader against the line-by-line path.

trace._layout_columns reads a chunk of bytes whose lines all share the
compact layout of the first, {"k1":v1,...,"km":vm}, with numpy, and
declines anything else. Whatever it accepts must give the columns and
name table _iter_jsonl gives, and parsing any input through it must give
the Trace, or the error at the line, that parsing line by line gives. It
is the one reader in front of _iter_jsonl, so the differential test here
is what vouches for every chunk that does not parse line by line.
"""

import io
import json
import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from mrtrace import EmptyTrace, MalformedRecord, parse_trace, serialize_trace, trace
from mrtrace.columns import FLOAT_FIELDS, NUMERIC
from conftest import InlineExecutor, make_trace, rec
from test_bulk_parse import assert_same_outcome, fallback_calls, line_by_line, outcome

INT_FIELDS = [f for f in NUMERIC if f not in FLOAT_FIELDS]
DIGESTS = ["input_path_hash", "output_path_hash"]
rare = st.integers(0, 19).map(lambda i: i == 0)


def digits(n):
    """Decimal texts of exactly n digits, drawn digit by digit: integers
    drawn from a wide range favour round values."""
    return st.tuples(st.sampled_from("123456789"), st.text("0123456789", min_size=n - 1,
                                                           max_size=n - 1)).map("".join)


def decimal(n):
    """Texts of an n-digit mantissa with a dot inside: "12.5", "0.25"."""
    return st.tuples(digits(n), st.integers(1, n - 1), st.booleans()).map(
        lambda t: ("0." + t[0]) if t[2] else t[0][:t[1]] + "." + t[0][t[1]:])


# Valid for the line-by-line path (mostly), and at the edges of each range.
INT_EDGES = ["0", str(2**53 - 1), str(2**53), str(2**53 + 1), "1" + "0" * 15, "9" * 16]
ID_EDGES = ["0", str(2**53 + 1), str(2**63 - 1), str(2**63), "1" + "0" * 18, "9" * 19]
DIGEST_EDGES = ["0", str(2**63), str(2**64 - 1), str(2**64), "1" + "0" * 19,
                str(2**64 - 1)[:-1] + "6", "9" * 20, "2" + "0" * 19]
FLOAT_EDGES = ["0", "0.0", "1.0", "0.1", "40.5", str(2**53 - 1), str(2**53 + 1),
               repr(2.0**53 + 2), "9007199254740993.0", "1.7976931348623157e308",
               str(int(1.7976931348623157e308)), "0.30000000000000004", "123456789012345.6"]
# Spoil a line: json.loads rejects these, or the line-by-line path reads
# them differently from a plain number, or raises on them.
BAD = ["01", "00", "-0.0", "-1", "1e5", "1E5", "40.5", "7.", ".5", "+1", "1.5e3", "0.0", "1.2.3",
       "1..2", "null", "true", '"7"', "[1]", "{}", "NaN", "-Infinity", " 1", "1 ", "1\t", "1" * 25,
       "1" + "0" * 400, "0." + "0" * 400 + "1"]

NAMES = st.text(alphabet=st.sampled_from("ab ,:{}[]\"\\é中 \x7f\U0001f600\t"),
                max_size=6)


def literal(key):
    if key == "name":
        return st.builds(json.dumps, NAMES, ensure_ascii=st.booleans())
    if key in ("job_id", "submit_time"):
        return st.one_of(st.integers(0, 10**6).map(str), digits(18), digits(19),
                         st.sampled_from(ID_EDGES))
    if key in DIGESTS:
        return st.one_of(st.integers(0, 10**6).map(str), digits(18), digits(19), digits(20),
                         st.sampled_from(DIGEST_EDGES))
    if key in INT_FIELDS:
        return st.one_of(st.integers(0, 10**9).map(str), digits(15), digits(16), digits(17),
                         st.sampled_from(INT_EDGES))
    return st.one_of(st.integers(0, 10**9).map(str),
                     *[decimal(n) for n in (2, 3, 7, 14, 15, 16, 17, 18)],
                     st.floats(0, 1e7).map(repr), st.floats(0, 1e300).map(repr),
                     st.sampled_from(FLOAT_EDGES))


@st.composite
def keys_of_a_layout(draw):
    keys = draw(st.lists(st.sampled_from(trace.FIELD_NAMES), unique=True, max_size=13))
    required = [k for k in ("job_id", "submit_time") if k not in keys and not draw(rare)]
    return draw(st.permutations(keys + required))


@st.composite
def layout_text(draw):
    """Lines of one layout with, now and then, a spoiled value, a change of
    keys, a duplicate key, a blank line, CRLF or no final newline."""
    keys = draw(keys_of_a_layout())
    lines = []
    for _ in range(draw(st.integers(1, 7))):
        line_keys = keys
        if lines and draw(rare):
            line_keys = draw(keys_of_a_layout())
        pairs = []
        for key in line_keys:
            value = draw(st.sampled_from(BAD) if draw(rare) else literal(key))
            if key == "submit_time" and draw(rare):
                value = draw(st.sampled_from(["5.0", "5.5", "-5", "-0", "1e3"]))
            pairs.append(f'"{key}":{value}')
        if pairs and draw(rare):
            pairs.insert(draw(st.integers(0, len(pairs))), draw(st.sampled_from(pairs)))
        lines.append("{" + ",".join(pairs) + "}")
        if draw(rare):
            lines.append(draw(st.sampled_from(["", " "])))
    newline = "\r\n" if draw(rare) else "\n"
    text = newline.join(lines) + ("" if draw(rare) else newline)
    data = text.encode()
    if draw(rare):  # a byte that is not UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


FIELD_VALUES = {
    "name": st.text(max_size=5),
    "duration": st.integers(0, 2**53), "input_bytes": st.integers(0, 2**53),
    "map_task_seconds": st.floats(0, 1e12), "reduce_task_seconds": st.one_of(
        st.floats(0, 1e300), st.integers(0, 10**6).map(float)),
    "map_tasks": st.integers(0, 10**4), "input_path_hash": st.integers(0, 2**64 - 1),
    "output_path_hash": st.integers(0, 2**64 - 1),
}


@st.composite
def serialized_text(draw):
    """A trace written by serialize_trace, every job with the same fields."""
    present = draw(st.lists(st.sampled_from(sorted(FIELD_VALUES)), unique=True))
    jobs = [rec(draw(st.integers(0, 2**63 - 1)), draw(st.integers(-(2**40), 2**40)),
                **{k: draw(FIELD_VALUES[k]) for k in present})
            for _ in range(draw(st.integers(1, 7)))]
    buf = io.StringIO()
    serialize_trace(make_trace(jobs), buf)
    return buf.getvalue().encode()


def chunks_of(data: bytes, lines: int) -> list[bytes]:
    """The chunks of at most `lines` lines that parse_trace reads from data."""
    with mock.patch.object(trace, "_JSONL_CHUNK", lines):
        return list(trace._jsonl_chunks(io.BytesIO(data)))


def line_by_line_columns(chunk: bytes):
    """The columns _iter_jsonl reads from a chunk's lines."""
    lines = chunk.decode("utf-8", "surrogateescape").split("\n")[:-1]
    return trace._columns_of(trace._iter_jsonl(lines))


def assert_same_columns(got, want):
    assert got.names == want.names
    for key, value in vars(want).items():
        if not isinstance(value, np.ndarray):
            continue
        other = getattr(got, key)
        assert other.dtype == value.dtype, key
        assert np.array_equal(other, value, equal_nan=value.dtype.kind == "f"), key
        if value.dtype.kind == "f":
            assert np.array_equal(np.signbit(other), np.signbit(value)), key


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.one_of(layout_text(), serialized_text()), chunk=st.integers(1, 7))
def test_layout_reader_matches_line_by_line(data, chunk):
    for part in chunks_of(data, chunk):
        got = trace._layout_columns(part)
        event("chunk accepted" if got is not None else "chunk declined")
        if got is not None:
            assert_same_columns(got, line_by_line_columns(part))
    with line_by_line():
        want = outcome(data)
    with mock.patch.object(trace, "_JSONL_CHUNK", chunk):
        got = outcome(data)
    event("error" if isinstance(want, Exception) else "parsed")
    assert_same_outcome(got, want)


@settings(max_examples=200, deadline=None)
@given(texts=st.lists(st.one_of(*[decimal(n) for n in (15, 16, 17)], digits(16), digits(17),
                                st.floats(1e-4, 1e15).map(repr)),  # repr without exponent
                      min_size=1, max_size=64))
def test_float_mantissas_near_the_fast_path_limit(texts):
    # Past 15 digits a mantissa may exceed 2**53, where mantissa / 10**f
    # rounds twice; those must be converted alone.
    chunk = "".join('{"job_id":%d,"submit_time":0,"map_task_seconds":%s}\n' % (i, t)
                    for i, t in enumerate(texts)).encode()
    got = trace._layout_columns(chunk)
    assert got is not None
    assert_same_columns(got, line_by_line_columns(chunk))


# -- pinned cases -------------------------------------------------------------

# (field, literal) that the reader must take itself, with the value the
# line-by-line path gives.
ACCEPTED = [
    ("job_id", str(2**63 - 1)), ("job_id", "1" + "0" * 18), ("submit_time", "0"),
    ("input_path_hash", str(2**64 - 1)), ("input_path_hash", "1" + "0" * 19),
    ("output_path_hash", "9" * 19), ("duration", str(2**53)), ("duration", str(2**53 - 1)),
    ("map_tasks", "0"), ("map_task_seconds", "123456789012345"),
    ("map_task_seconds", "12345678901234.5"), ("map_task_seconds", "1234567890123.456"),
    ("map_task_seconds", "0.30000000000000004"), ("map_task_seconds", "9007199254740993"),
    ("map_task_seconds", "9007199254740993.0"), ("reduce_task_seconds", "0.1"),
    ("reduce_task_seconds", "0.0"), ("reduce_task_seconds", "1.7976931348623157"),
    ("reduce_task_seconds", str(int(1.7976931348623157e308))),
]
# Literals the reader must decline: the line-by-line path rejects them or
# reads them by rules the reader does not check.
DECLINED = [
    ("job_id", str(2**63)), ("input_path_hash", str(2**64)), ("input_path_hash", "2" + "0" * 19),
    ("input_path_hash", "9" * 20), ("duration", str(2**53 + 1)), ("duration", "40.5"),
    ("duration", "1e5"), ("submit_time", "5.0"), ("submit_time", "-5"), ("map_tasks", "01"),
    ("map_task_seconds", "-0.0"), ("map_task_seconds", "5."), ("map_task_seconds", ".5"),
    ("map_task_seconds", "1.2.3"), ("map_task_seconds", "1..5"), ("map_task_seconds", "00.5"),
    ("reduce_task_seconds", str(int(1.7976931348623157e308) + 1)),
    ("reduce_task_seconds", "1" * 400 + ".0"), ("name", '"a\\"b"'), ("name", "null"),
]


def two_lines(key, value):
    fields = {"job_id": "1", "submit_time": "3", "name": '"x"', "duration": "4",
              "map_task_seconds": "2.5", "input_path_hash": "7"}
    first = "{" + ",".join(f'"{k}":{v}' for k, v in {**fields, key: "1"}.items()) + "}\n"
    if key == "name":
        first = first.replace('"name":1', '"name":"y"')
    second = "{" + ",".join(f'"{k}":{v}' for k, v in {**fields, key: value}.items()) + "}\n"
    return (first + second).encode()


@pytest.mark.parametrize("key, value", ACCEPTED)
def test_reader_takes_values_in_range(key, value):
    chunk = two_lines(key, value)
    got = trace._layout_columns(chunk)
    assert got is not None
    assert_same_columns(got, line_by_line_columns(chunk))


@pytest.mark.parametrize("key, value", DECLINED)
def test_reader_declines_values_it_cannot_vouch_for(key, value):
    data = two_lines(key, value)
    assert trace._layout_columns(data) is None
    with line_by_line():
        want = outcome(data)
    assert_same_outcome(outcome(data), want)


@pytest.mark.parametrize("lines", [
    ['{"job_id":1,"submit_time":2}\r\n', '{"job_id":2,"submit_time":3}\r\n'],
    ['{"job_id":1,"submit_time":2}\n', "\n", '{"job_id":2,"submit_time":3}\n'],
    ['{"job_id":1,"submit_time":2}\n', '{"job_id":2, "submit_time":3}\n'],
    ['{"job_id":1,"submit_time":2}\n', '{"submit_time":3,"job_id":2}\n'],
    ['{"job_id":1,"submit_time":2}\n', '{"job_id":2,"job_id":2,"submit_time":3}\n'],
    ['{"job_id":1,"job_id":1,"submit_time":2}\n', '{"job_id":2,"submit_time":3}\n'],
    ['{"job_id":1,"submit_time":2,"name":"a"}\n', '{"job_id":2,"submit_time":3,"name":5}\n'],
    ['{"job_id":1,"submit_time":2,"name":"a"}\n', '{"job_id":2,"submit_time":3,"name":"b"}x\n'],
    ['{"job_id":1,"submit_time":2,"name":"' + "n" * 2000 + '"}\n'],
    ['{"job_id":1,"submit_time":2,"name":"a\udcff"}\n'],
])
def test_reader_declines_lines_off_the_layout(lines):
    # A lone surrogate stands for a byte that is not UTF-8.
    assert trace._layout_columns("".join(lines).encode("utf-8", "surrogateescape")) is None


def test_missing_final_newline_is_read():
    data = b'{"job_id":1,"submit_time":2,"name":"a,b:{}"}\n{"job_id":2,"submit_time":3,"name":""}'
    [chunk] = chunks_of(data, 4096)
    assert chunk == data + b"\n"
    got = trace._layout_columns(chunk)
    assert got is not None and got.names == ("a,b:{}", "")
    assert_same_columns(got, line_by_line_columns(chunk))


def test_name_table_keeps_first_appearance_across_chunks():
    names = ["b", "a", "b", "c", "a", "é", "d", "c", "", "b"]
    lines = [json.dumps({"job_id": i, "name": n, "submit_time": 10 - i}, ensure_ascii=False,
                        separators=(",", ":")) for i, n in enumerate(names)]
    data = "\n".join(lines).encode()
    assert fallback_calls(data, chunk=3) == 0
    with mock.patch.object(trace, "_JSONL_CHUNK", 3):
        t = parse_trace(data)
    assert t.columns.names == ("b", "a", "c", "é", "d", "")
    assert [r.name for r in t.records] == names[::-1]


def test_mixed_tiers_share_one_name_table():
    lines = ['{"job_id":1,"submit_time":1,"name":"x"}', '{"job_id":2,"submit_time":2,"name":"y"}',
             '{"job_id": 3, "submit_time": 3, "name": "z"}', '{"job_id":4,"submit_time":4,"name":"x"}',
             '{"job_id":5,"submit_time":5,"name":"w"}', '{"job_id":6,"submit_time":6}']
    with mock.patch.object(trace, "_JSONL_CHUNK", 2):
        t = parse_trace("\n".join(lines).encode())
    assert t.columns.names == ("x", "y", "z", "w")
    assert t.columns.name_codes.tolist() == [0, 1, 2, 0, 3, -1]


def test_benchmark_float_texts_are_read_exactly():
    values = [40.0, 4000.0, 4.0e6, 0.1, 1 / 3, 2.0**53 + 2, 1e15 + 0.5, 123.456]
    chunk = "".join(json.dumps({"job_id": i, "submit_time": 0, "map_task_seconds": v},
                               separators=(",", ":")) + "\n" for i, v in enumerate(values))
    got = trace._layout_columns(chunk.encode())
    assert got is not None
    assert got.map_task_seconds.tolist() == values
    assert not any(math.copysign(1, v) < 0 for v in got.map_task_seconds.tolist())


# -- the pool -----------------------------------------------------------------

def job_line(i, **extra):
    """Line i of a file of one layout, which _layout_columns reads."""
    return json.dumps({"job_id": i, "name": f"n{i % 3}", "submit_time": 50 - i, **extra},
                      separators=(",", ":"))


def lines_with(changes: dict, count=40) -> bytes:
    """count job lines, with the line at each key of changes (from 1)
    replaced by its value. A lone surrogate stands for a byte that is not
    UTF-8."""
    text = "\n".join(changes.get(i + 1, job_line(i)) for i in range(count))
    return text.encode("utf-8", "surrogateescape")


def parse_both_ways(monkeypatch, data: bytes, chunk=4):
    """The outcome of parse_trace with the pool and with an inline
    executor, chunk lines at a time, and the threads _layout_columns ran
    on in each."""
    monkeypatch.setattr(trace, "_JSONL_CHUNK", chunk)
    threads = []
    real = trace._layout_columns

    def recording(chunk):
        threads.append(threading.current_thread())
        return real(chunk)

    monkeypatch.setattr(trace, "_layout_columns", recording)
    pooled, pooled_threads = outcome(data), threads[:]
    threads.clear()
    with monkeypatch.context() as m:
        m.setattr(trace, "ThreadPoolExecutor", InlineExecutor)
        inline = outcome(data)
    return pooled, inline, pooled_threads, threads


@pytest.mark.parametrize("changes", [
    pytest.param({2: '{"job_id":-1,"submit_time":1}'}, id="bad-line-in-first-chunk"),
    pytest.param({39: job_line(38, duration=-5)}, id="bad-line-in-last-chunk"),
    pytest.param({n: json.dumps({"job_id": n, "submit_time": n}) for n in range(13, 17)},
                 id="declined-chunk-between-accepted"),
    pytest.param({22: job_line(21).replace("n0", "n\udcff")}, id="non-utf8-byte"),
    pytest.param({9: "[" * 100_000 + "]" * 100_000}, id="deep-first-line-of-chunk"),
    pytest.param({3: '{"job_id":1,"submit_time":"x"}', 33: "{"}, id="two-bad-lines"),
])
def test_pooled_parse_matches_inline(monkeypatch, changes):
    data = lines_with(changes)
    pooled, inline, pooled_threads, inline_threads = parse_both_ways(monkeypatch, data)
    assert_same_outcome(pooled, inline)
    with line_by_line():
        assert_same_outcome(pooled, outcome(data))
    assert set(inline_threads) == {threading.main_thread()}
    if isinstance(pooled, Exception):
        # Consumed in order, an error stops the parse within _IN_FLIGHT chunks
        # of the bad line's.
        bad_chunk = (pooled.line_no - 1) // 4
        assert len(pooled_threads) <= bad_chunk + trace._IN_FLIGHT
    else:
        assert threading.main_thread() not in pooled_threads


def test_pool_reads_every_chunk_of_a_valid_file(monkeypatch):
    data = lines_with({})
    pooled, inline, pooled_threads, inline_threads = parse_both_ways(monkeypatch, data)
    assert_same_outcome(pooled, inline)
    assert len(pooled_threads) == len(inline_threads) == 10
    assert threading.main_thread() not in pooled_threads
    assert len(set(pooled_threads)) <= min(trace._LAYOUT_WORKERS, trace.usable_cores())


def test_pool_on_more_threads_than_cores_matches_inline(monkeypatch):
    # Eight workers whatever the machine, switching threads every microsecond.
    monkeypatch.setattr(trace, "_LAYOUT_WORKERS", 8)
    monkeypatch.setattr(trace, "usable_cores", lambda: 8)
    data = lines_with({n: json.dumps({"job_id": n, "submit_time": n}) for n in range(5, 9)}, 200)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled, inline, pooled_threads, _ = parse_both_ways(monkeypatch, data, chunk=3)
    finally:
        sys.setswitchinterval(interval)
    assert_same_outcome(pooled, inline)
    assert len(set(pooled_threads)) > 1


# -- one road for every file ----------------------------------------------------

# The line each version of a file puts last, given the file's line count.
LAST_LINE = {
    "valid": lambda count: {},
    # json.dumps' default separators, which the layout reader declines.
    "last-chunk-declined": lambda count: {count: json.dumps({"job_id": count, "submit_time": 1})},
    "bad-line-in-last-chunk": lambda count: {count: job_line(count - 1, duration=-5)},
}


@pytest.mark.parametrize("version", sorted(LAST_LINE))
@pytest.mark.parametrize("count", [1, 4, 4 * trace._IN_FLIGHT, 4 * (trace._IN_FLIGHT + 1)],
                         ids=["one-line", "one-chunk", "in-flight-chunks",
                              "in-flight-plus-one-chunks"])
def test_every_chunk_is_read_on_the_pool(monkeypatch, count, version):
    monkeypatch.setattr(trace, "_JSONL_CHUNK", 4)
    data = lines_with(LAST_LINE[version](count), count)
    with line_by_line():
        want = outcome(data)
    assert isinstance(want, MalformedRecord) == (version == "bad-line-in-last-chunk")
    threads = []
    real = trace._layout_columns

    def recording(chunk):
        threads.append(threading.current_thread())
        return real(chunk)

    monkeypatch.setattr(trace, "_layout_columns", recording)
    before = set(threading.enumerate())
    got = outcome(data)
    assert set(threading.enumerate()) == before
    assert_same_outcome(got, want)
    assert len(threads) == -(-count // 4)
    assert threading.main_thread() not in threads


@pytest.mark.parametrize("text", [b"\n", b" \n\t\r\n\n" * 7], ids=["one-line", "six-chunks"])
def test_a_file_of_blank_lines_is_empty(monkeypatch, text):
    monkeypatch.setattr(trace, "_JSONL_CHUNK", 4)
    before = set(threading.enumerate())
    with pytest.raises(EmptyTrace):
        parse_trace(text)
    assert set(threading.enumerate()) == before
