"""parse_trace puts the parsed columns in submit-time order one column at a
time (trace._sorted_by_submit), after _read_jsonl has shrunk its growing
buffers in place. These tests compare the result with the gather of the
whole table it replaced, TraceColumns.take(np.argsort(submit_time,
kind="stable")), in both formats, and check that every returned column is
read-only and owns exactly its rows."""

import csv
import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrtrace import parse_trace
from mrtrace import trace as trace_module
from mrtrace.columns import FLOAT_FIELDS, ROW_FIELDS, TraceColumns

U64 = 2**64 - 1
MAX_EXACT = 2**53

SUBMITS = st.integers(-3, 3) | st.integers(-2**63, 2**63 - 1)
NAMES = st.none() | st.sampled_from(["etl", "select x", "ad, hoc", "é"])
DIGESTS = st.none() | st.integers(0, 3) | st.integers(0, U64)


def _value(field):
    if field in FLOAT_FIELDS:
        return st.none() | st.floats(0, 1e12, allow_nan=False) | st.just(0.5)
    return st.none() | st.integers(0, 10**6) | st.just(MAX_EXACT)


ROW = st.tuples(st.integers(0, 2**63 - 1), SUBMITS, NAMES,
                *(_value(f) for f in ROW_FIELDS[3:11]), DIGESTS, DIGESTS)


def _jsonl(rows) -> bytes:
    return "".join(
        json.dumps({k: v for k, v in zip(ROW_FIELDS, row) if v is not None},
                   separators=(",", ":")) + "\n"
        for row in rows).encode()


def _csv(rows) -> bytes:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(ROW_FIELDS)
    writer.writerows(["" if v is None else repr(v) if isinstance(v, float) else v for v in row]
                     for row in rows)
    return out.getvalue().encode()


def _whole_table_sort(rows) -> TraceColumns:
    cols = TraceColumns.from_fields(list(zip(*rows)))
    return cols.take(np.argsort(cols.submit_time, kind="stable"))


def assert_same_columns(got: TraceColumns, want: TraceColumns):
    assert got.names == want.names
    for key, value in vars(want).items():
        if isinstance(value, np.ndarray):
            column = getattr(got, key)
            assert column.dtype == value.dtype, key
            assert np.array_equal(column, value, equal_nan=value.dtype.kind == "f"), key


def assert_owns_its_rows(cols: TraceColumns):
    for key, value in vars(cols).items():
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable, key
            owner = value
            while isinstance(owner.base, np.ndarray):
                owner = owner.base
            assert owner.nbytes == value.nbytes == len(value) * value.itemsize, key


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("chunk", [3, 4096])
@settings(max_examples=60, deadline=None)
@given(rows=st.lists(ROW, min_size=1, max_size=25), arrange=st.sampled_from(["drawn", "sorted", "reversed"]))
@example(rows=[(0, 5, None, *[None] * 8, None, None)], arrange="drawn")  # one row
@example(rows=[(i, 1, "etl", 1, 1, 1, 1, 1.5, 1.5, 1, 1, i, None) for i in range(7)],
         arrange="drawn")  # all ties
def test_per_column_sort_matches_the_whole_table_sort(fmt, chunk, rows, arrange):
    if arrange == "sorted":
        rows = sorted(rows, key=lambda r: r[1])
    elif arrange == "reversed":
        rows = sorted(rows, key=lambda r: r[1], reverse=True)
    data = _jsonl(rows) if fmt == "jsonl" else _csv(rows)
    with mock.patch.object(trace_module, "_JSONL_CHUNK", chunk):
        got = parse_trace(data, fmt).columns
    assert_same_columns(got, _whole_table_sort(rows))
    assert_owns_its_rows(got)


@settings(max_examples=100, deadline=None)
@given(st.lists(SUBMITS, min_size=1, max_size=40))
def test_sorted_by_submit_gathers_each_column_as_take_does(submits):
    n = len(submits)
    rng = np.random.default_rng(n)
    cols = TraceColumns.from_fields([
        list(range(n)), submits, [None if i % 3 else "a" for i in range(n)],
        *([float(x) for x in rng.integers(0, 9, n)] for _ in range(8)),
        [int(d) for d in rng.integers(0, 2**63, n)], [None] * n])
    want = cols.take(np.argsort(cols.submit_time, kind="stable"))
    got = trace_module._sorted_by_submit(dict(vars(cols)))
    assert_same_columns(got, want)
    if np.all(cols.submit_time[1:] >= cols.submit_time[:-1]):  # in order: the columns are kept
        assert got.job_id is cols.job_id
