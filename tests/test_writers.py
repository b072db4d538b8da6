"""Differential tests of the columnar writers against the per-row and
per-value writers they replaced (tests/writer_oracle.py): serialize_trace,
the synthetic path digests, json_text and tsv_text must give the same
bytes, or raise the same error type."""

import io
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrtrace import build_workload_model, serialize_trace, synthesize
from mrtrace import trace as trace_mod
from mrtrace.columns import TraceColumns
from mrtrace.report import json_text, tsv_text
from mrtrace.trace import numbered_path_digests
from conftest import full_rec, make_trace, rec
from writer_oracle import (
    json_text_per_value,
    serialize_trace_per_row,
    synthetic_digests,
    tsv_stdout_per_cell,
    tsv_text_per_cell,
)

INT64 = st.integers(-(2**63), 2**63 - 1)

# Values a trace column can hold; None is a missing value.
int_values = st.one_of(st.none(), st.integers(0, 2**53), st.sampled_from([0, 2**53, 2**53 - 1]),
                       st.integers(-(2**40), -1))
float_values = st.one_of(
    st.none(),
    st.floats(allow_nan=False),  # finite and +-inf
    st.sampled_from([5e-324, 0.0, -0.0, math.inf, 2.0**53, 1e16, 1e-5, 0.1]),
)
digests = st.one_of(st.none(), st.integers(0, 2**64 - 1),
                    st.integers(2**64 - 1000, 2**64 - 1))
names = st.one_of(st.none(), st.text(max_size=6), st.sampled_from(['"', "\\", "\x00", "é", "\U0001F600"]))


@st.composite
def jobs(draw):
    return rec(
        draw(st.integers(0, 2**63 - 1)), draw(INT64),
        name=draw(names),
        duration=draw(int_values), input_bytes=draw(int_values),
        shuffle_bytes=draw(int_values), output_bytes=draw(int_values),
        map_task_seconds=draw(float_values), reduce_task_seconds=draw(float_values),
        map_tasks=draw(int_values), reduce_tasks=draw(int_values),
        input_path_hash=draw(digests), output_path_hash=draw(digests),
    )


def jsonl(trace, writer):
    buf = io.StringIO()
    writer(trace, buf)
    return buf.getvalue()


class TestSerializeTrace:
    @settings(max_examples=300, deadline=None)
    @given(records=st.lists(jobs(), min_size=1, max_size=12), chunk=st.integers(1, 5))
    def test_matches_per_row_writer(self, records, chunk):
        trace = make_trace(records)
        with mock.patch.object(trace_mod, "_WRITE_CHUNK", chunk):
            assert jsonl(trace, serialize_trace) == jsonl(trace, serialize_trace_per_row)

    def test_every_missing_field_pattern(self):
        # All 2**11 subsets of the optional fields, one job each.
        full = full_rec(0, 0, name='a "b"', input_path_hash=2**64 - 1, output_path_hash=1,
                        map_task_seconds=math.inf, reduce_task_seconds=5e-324)
        optional = [f for f in trace_mod.FIELD_NAMES if f not in ("job_id", "submit_time")]
        records = [
            replace(full, job_id=mask, submit_time=mask,
                    **{f: None for i, f in enumerate(optional) if mask >> i & 1})
            for mask in range(1 << len(optional))
        ]
        trace = make_trace(records)
        assert jsonl(trace, serialize_trace) == jsonl(trace, serialize_trace_per_row)

    def test_several_default_chunks_to_a_path(self, tmp_path):
        n = 2 * trace_mod._WRITE_CHUNK + 7
        rng = np.random.default_rng(3)
        present = rng.random(n) < 0.9
        fields = [
            list(range(n)), sorted(rng.integers(0, 10**6, n).tolist()),
            [None if i % 7 == 0 else f"job {i % 5}" for i in range(n)],
            *[[None if i % 11 == k else v for i, v in enumerate(rng.integers(0, 10**12, n).tolist())]
              for k in range(4)],
            *[[None if not p else v for p, v in zip(present, rng.random(n).tolist())]
              for _ in range(2)],
            *[rng.integers(0, 400, n).tolist() for _ in range(2)],
            *[[None if i % 13 == k else v for i, v in
               enumerate(rng.integers(0, 2**63, n, dtype=np.uint64).tolist())] for k in range(2)],
        ]
        trace = trace_mod.Trace("t", 1, TraceColumns.from_fields(fields), (0, 10**6))
        serialize_trace(trace, tmp_path / "new.jsonl")
        serialize_trace_per_row(trace, tmp_path / "old.jsonl")
        assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "old.jsonl").read_bytes()


class TestNumberedPathDigests:
    @settings(max_examples=300, deadline=None)
    @given(ids=st.lists(INT64, max_size=20), prefix=st.sampled_from(["synthetic/input/", "", "é/"]))
    def test_matches_scalar_hash_path(self, ids, prefix):
        ids = np.array(ids, dtype=np.int64)
        assert np.array_equal(numbered_path_digests(prefix, ids), synthetic_digests(prefix, ids))

    def test_boundary_ids(self):
        ids = np.array([0, 9, 10, 99, 100, 10**18, 2**63 - 1, -1, -9, -10, -(2**63)], dtype=np.int64)
        got = numbered_path_digests("synthetic/output/", ids)
        assert np.array_equal(got, synthetic_digests("synthetic/output/", ids))
        assert got.dtype == np.uint64

    def test_negative_source_job_id(self):
        # Parsing rejects negative job ids, but from_records does not.
        trace = make_trace([full_rec(-5, 0), full_rec(-(2**63), 10), full_rec(7, 20)], machines=2)
        workload = synthesize(build_workload_model(trace), 4, 20, "replay_scaled")
        cols = workload.jobs.columns
        assert np.array_equal(cols.input_path_hash,
                              synthetic_digests("synthetic/input/", [-5, -(2**63), 7]))
        assert np.array_equal(cols.output_path_hash,
                              synthetic_digests("synthetic/output/", [0, 1, 2]))


def same_outcome(new, old, arg):
    """new(arg) and old(arg) return equal text or raise the same error type."""
    try:
        expected = old(arg)
    except (ValueError, TypeError) as exc:
        with pytest.raises(type(exc)):
            new(arg)
        return
    assert new(arg) == expected


scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, 2.0**53, 2**53, 1e16, 1.5e9, -0.0, 0.1]),
    st.text(max_size=5),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    INT64.map(np.int64), st.integers(-100, 100).map(np.int32),
)
keys = st.text(max_size=3)


@st.composite
def record_lists(draw, values):
    """Lists of flat dicts that share one key tuple, sometimes made ragged:
    a row with another key order, a missing key, or a nested value."""
    row_keys = draw(st.lists(keys, min_size=1, max_size=4, unique=True))
    rows = [{k: draw(values) for k in row_keys} for _ in range(draw(st.integers(1, 6)))]
    spoil = draw(st.sampled_from(["none", "order", "drop", "nest", "not dict"]))
    i = draw(st.integers(0, len(rows) - 1))
    if spoil == "order":
        rows[i] = dict(reversed(rows[i].items()))
    elif spoil == "drop":
        rows[i].pop(row_keys[0])
    elif spoil == "nest":
        rows[i][row_keys[-1]] = [rows[i][row_keys[-1]]]
    elif spoil == "not dict":
        rows[i] = list(rows[i].values())
    return rows


documents = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(keys, inner, max_size=4),
        st.dictionaries(st.integers(-5, 5), inner, max_size=2),
        record_lists(scalars),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4).map(np.array),
        st.lists(INT64, max_size=4).map(lambda v: np.array(v, dtype=np.int64)),
        st.lists(st.booleans(), max_size=4).map(np.array),
    ),
    max_leaves=20,
)


class TestJsonText:
    @settings(max_examples=500, deadline=None)
    @given(doc=documents)
    def test_matches_per_value_writer(self, doc):
        same_outcome(json_text, json_text_per_value, doc)

    @settings(max_examples=200, deadline=None)
    @given(doc=documents, bad=st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan"),
                                                 1e400, np.float32("inf")]))
    def test_non_finite_raises(self, doc, bad):
        for wrapped in ([doc, bad], {"a": doc, "b": [{"x": 1.0}, {"x": bad}]}, [{"x": bad}] * 3):
            same_outcome(json_text, json_text_per_value, wrapped)
            with pytest.raises(ValueError):
                json_text(wrapped)

    @pytest.mark.parametrize("doc", [
        {}, [], {"a": {}, "b": [], "c": [{}]}, [{}, {}], [[], []],
        {"diurnal": True, "flags": [False, True], "rows": [{"ok": True}, {"ok": False}]},
        {"x": np.arange(3), "y": np.array([0.1, 2.0]), "z": np.float32(0.1), "w": np.int64(-4)},
        [{"a%s": 1, "b": 2.5}, {"a%s": 3, "b": 1e20}],
        [{"t": 1.0, "u": "x"}, {"t": 2, "u": None}],
        {1: "int key", 2.5: "float key", None: "null key", True: "bool key"},
        {"timings": [{"submit": i / 3, "completion": i * 1e9} for i in range(5)]},
    ], ids=repr)
    def test_fixed_documents(self, doc):
        assert json_text(doc) == json_text_per_value(doc)

    def test_unsupported_key_and_value_types_raise(self):
        for doc in ({np.int64(1): 0}, {"a": object()}, [np.bool_(True)], {"a": {1, 2}}):
            same_outcome(json_text, json_text_per_value, doc)


tsv_cells = st.one_of(
    st.integers(), st.floats(), st.text(alphabet=st.characters(blacklist_characters="\t\n\r"), max_size=5),
    st.floats(allow_nan=False).map(np.float64), st.floats(width=32).map(np.float32),
    INT64.map(np.int64), st.booleans(), st.none(),
)


def columns_of(rows, width):
    return [[row[i] for row in rows] for i in range(width)]


class TestTsvText:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), width=st.integers(1, 4))
    def test_matches_per_cell_writer(self, data, width):
        rows = data.draw(st.lists(st.tuples(*[tsv_cells] * width), max_size=8))
        assert tsv_text(columns_of(rows, width)) == tsv_text_per_cell(rows)

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(st.integers(), st.text(alphabet="ab.9", max_size=4)), min_size=1))
    def test_stdout_without_float_cells_is_unchanged(self, rows):
        # Cells that are not floats are written as str(cell).
        assert tsv_text(columns_of(rows, 2)) == tsv_stdout_per_cell(rows)

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(allow_nan=False), max_size=8),
           dtype=st.sampled_from([np.float64, np.float32, np.int64, np.bool_]))
    def test_arrays_and_ranges_format_as_their_elements(self, values, dtype):
        with np.errstate(over="ignore", invalid="ignore"):
            column = np.array(values).astype(dtype)
        rows = list(zip(range(len(values)), column))
        assert tsv_text([range(len(values)), column]) == tsv_text_per_cell(rows)

    def test_unequal_columns_raise(self):
        with pytest.raises(ValueError):
            tsv_text([[1, 3], [2]])
