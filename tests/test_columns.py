"""Column storage against naive oracles: the per-record column extraction
and validation loop that the vectorized code replaced, run over small
random record lists with missing fields, zeros, duplicates and extremes."""

import io
from operator import attrgetter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mrtrace import JobRecord, ValidationReport, parse_trace, serialize_trace, validate
from conftest import make_trace

NUMERIC = ("submit_time", "duration", "input_bytes", "shuffle_bytes", "output_bytes",
           "map_task_seconds", "reduce_task_seconds", "map_tasks", "reduce_tasks")
INT_FIELDS = ("duration", "input_bytes", "shuffle_bytes", "output_bytes", "map_tasks", "reduce_tasks")
FLOAT_FIELDS = ("map_task_seconds", "reduce_task_seconds")
OPTIONAL_FIELDS = ("name", *NUMERIC[1:], "input_path_hash", "output_path_hash")


_GETTER = attrgetter(*NUMERIC, "input_path_hash", "output_path_hash")


def extract_oracle(records):
    """Columns extracted record by record, as the weakly cached column view
    did before traces stored columns."""
    raw = [_GETTER(r) for r in records]
    cols_t = list(zip(*raw)) if raw else [()] * 11
    # np.asarray turns None into NaN during float conversion.
    cols = {name: np.asarray(cols_t[i], dtype=np.float64)
            for i, name in enumerate(NUMERIC[1:], start=1)}
    cols["submit_time"] = np.asarray(cols_t[0], dtype=np.int64)
    for side, hash_raw in (("input", cols_t[9]), ("output", cols_t[10])):
        cols[f"{side}_hash_present"] = np.asarray([v is not None for v in hash_raw], dtype=bool)
        cols[f"{side}_path_hash"] = np.asarray([v or 0 for v in hash_raw], dtype=np.uint64)
    return cols


def validate_oracle(records, span):
    """The per-record validation loop, including the sort and span checks
    that construction now makes unreachable."""
    missing = {name: 0 for name in OPTIONAL_FIELDS}
    anomalies = []
    seen_ids = set()
    prev_submit = None
    lo, hi = span
    for r in records:
        for name in OPTIONAL_FIELDS:
            if getattr(r, name) is None:
                missing[name] += 1
        if r.job_id in seen_ids:
            anomalies.append((r.job_id, "duplicate job_id"))
        else:
            seen_ids.add(r.job_id)
        if prev_submit is not None and r.submit_time < prev_submit:
            anomalies.append((r.job_id, "records not sorted by submit_time"))
        prev_submit = r.submit_time
        if not lo <= r.submit_time <= hi:
            anomalies.append((r.job_id, f"submit_time {r.submit_time} outside span {span}"))
        if r.duration is not None and r.duration < 0:
            anomalies.append((r.job_id, "negative duration"))
        for name in ("input_bytes", "shuffle_bytes", "output_bytes",
                     "map_task_seconds", "reduce_task_seconds", "map_tasks", "reduce_tasks"):
            v = getattr(r, name)
            if v is not None and v < 0:
                anomalies.append((r.job_id, f"negative {name}"))
        if r.map_tasks == 0 and r.map_task_seconds:
            anomalies.append((r.job_id, "map_tasks=0 but map_task_seconds>0"))
        if r.reduce_tasks == 0 and r.reduce_task_seconds:
            anomalies.append((r.job_id, "reduce_tasks=0 but reduce_task_seconds>0"))
        if r.reduce_tasks == 0 and r.shuffle_bytes:
            anomalies.append((r.job_id, "map-only job (reduce_tasks=0) but shuffle_bytes>0"))
    return ValidationReport(record_count=len(records), missing_field_counts=missing,
                            anomalies=anomalies)


def records(negative: bool):
    """Random JobRecords as parse would produce them; negative values are
    only drawn when the records skip parsing, which rejects them."""
    low = -3 if negative else 0
    ints = st.none() | st.integers(low, 3) | st.just(2**53)
    floats = st.none() | st.sampled_from([0.0, 0.5, 7.25, 1.7e308] + ([-1.5] if negative else []))
    record = st.builds(
        JobRecord,
        job_id=st.integers(0, 4) | st.just(2**63 - 1),
        submit_time=st.integers(-5, 5) | st.sampled_from([-(2**63), 2**63 - 1]),
        name=st.none() | st.sampled_from(["", "etl run", "SELECT 1", "<unnamed>", "ünï"]),
        **{f: ints for f in INT_FIELDS},
        **{f: floats for f in FLOAT_FIELDS},
        input_path_hash=st.none() | st.integers(0, 3) | st.just(2**64 - 1),
        output_path_hash=st.none() | st.integers(0, 3) | st.just(2**64 - 1),
    )
    return st.lists(record, min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@given(records(negative=True))
def test_columns_and_validate_match_oracles(recs):
    t = make_trace(recs)
    ordered = sorted(recs, key=lambda r: r.submit_time)
    expected = extract_oracle(ordered)
    for name, col in expected.items():
        got = getattr(t.columns, name)
        assert got.dtype == col.dtype, name
        np.testing.assert_array_equal(got, col, err_msg=name)  # NaN equals NaN here
    np.testing.assert_array_equal(t.columns.job_id, [r.job_id for r in ordered])
    assert list(t.records) == ordered
    report, expected_report = validate(t), validate_oracle(ordered, t.span)
    assert report == expected_report
    assert list(report.missing_field_counts) == list(expected_report.missing_field_counts)


@settings(max_examples=200, deadline=None)
@given(records(negative=False))
def test_parse_serialize_parse_keeps_records(recs):
    def roundtrip(trace):
        buf = io.StringIO()
        serialize_trace(trace, buf)
        return parse_trace(buf.getvalue().encode())

    t = make_trace(recs)
    once = roundtrip(t)
    assert list(once.records) == list(t.records) == list(roundtrip(once).records)
    assert once.span == t.span
