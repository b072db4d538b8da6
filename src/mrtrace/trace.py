"""Trace files and the Trace type: parsing, validation, serialization.

A trace file is JSON Lines (one job per line) or CSV with a header row.
Only job_id and submit_time are required; every other dimension may be
missing and is then left missing, never zero-filled. A parsed Trace
stores its jobs as columns (see columns.py); Trace.records presents them
as JobRecords.

JSON Lines are read _JSONL_CHUNK lines at a time. Each chunk is first
decoded with one json.loads and checked column by column with numpy
(_bulk_columns). That bulk path only ever accepts: when a chunk holds
anything it cannot vouch for (a malformed line, a "[" anywhere, a nested
value, a NaN, an integer a float64 column might round, a float submit
time, an unknown key), it declines and the chunk is read again line by
line (_iter_jsonl), which either accepts it with the same values or
raises the error naming the first bad line. One json.loads per line
would need none of the checks that keep a joined chunk's objects on
their own lines, but it is slower on a 2-core VM: parsing 1M jobs took
11.9-12.0 s against 9.1-9.6 s (three runs each), and `mrtrace analyze`
on them 24.0 s against 21.2 s (medians of ten rounds). CSV is always
read line by line: a quoted cell may span lines, so chunks of physical
lines do not split it into records.

serialize_trace writes canonical jsonl, the bytes json.dumps gives each
row as a compact dict with missing fields left out. It formats
_WRITE_CHUNK rows at a time, a field at a time: one list of
',"key":value' fragments per field ("" where the value is missing), ints
through str, floats through float.__repr__ as json.dumps does, and each
distinct name through json.dumps once. A dict and a json.dumps call per
row took 1.1-1.5 s on a 100k-job synthetic workload, against 0.6-0.7 s.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from pathlib import Path
from types import NoneType
from typing import Iterable, Iterator, Optional

import numpy as np

from .columns import (
    FLOAT_FIELDS,
    MAX_EXACT,
    NUMERIC,
    ROW_FIELDS,
    JobRecord,
    RecordView,
    TraceColumns,
)
from .errors import (
    EmptyPath,
    EmptyTrace,
    MalformedRecord,
    MissingRequiredField,
)

# Canonical on-disk column order.
FIELD_NAMES = (
    "job_id",
    "name",
    "submit_time",
    "duration",
    "input_bytes",
    "shuffle_bytes",
    "output_bytes",
    "map_task_seconds",
    "reduce_task_seconds",
    "map_tasks",
    "reduce_tasks",
    "input_path_hash",
    "output_path_hash",
)

# FNV-1a with the standard 64-bit offset basis; the basis acts as a fixed
# seed so digests are reproducible across runs and recorded in reports.
HASH_ALGORITHM = "fnv1a64"
FNV64_OFFSET_BASIS = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF
_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1


@dataclass(frozen=True, eq=False)
class Trace:
    """Jobs of one workload, stored as columns, plus cluster metadata.

    Immutable after construction. Construction checks that jobs are sorted
    by submit_time and that span covers every submit time, and raises
    ValueError otherwise; every analysis relies on both.
    """

    label: str
    machine_count: int
    columns: TraceColumns
    span: tuple[int, int]

    def __post_init__(self):
        submit = self.columns.submit_time
        if np.any(submit[1:] < submit[:-1]):
            raise ValueError("records not sorted by submit_time")
        lo, hi = self.span
        if submit.size and not (lo <= submit[0] and submit[-1] <= hi):
            raise ValueError(f"span {self.span} does not cover every submit time")

    def __len__(self) -> int:
        return len(self.columns)

    @property
    def records(self) -> RecordView:
        """The jobs as read-only JobRecords, built from the columns on access."""
        return RecordView(self.columns)


@dataclass
class ValidationReport:
    record_count: int
    missing_field_counts: dict[str, int]
    anomalies: list[tuple[int, str]] = field(default_factory=list)


def _fnv1a(data: bytes, h: int = FNV64_OFFSET_BASIS) -> int:
    for b in data:
        h = ((h ^ b) * FNV64_PRIME) & _U64
    return h


def hash_path(path: str) -> int:
    """FNV-1a 64-bit digest of a file path; stable across runs."""
    if not path:
        raise EmptyPath("cannot hash an empty path")
    return _fnv1a(path.encode("utf-8"))


def numbered_path_digests(prefix: str, numbers: np.ndarray) -> np.ndarray:
    """hash_path(f"{prefix}{n}") of each int64 n, as a uint64 array.

    The FNV-1a state after prefix is computed once; the decimal digits
    are then folded in one position at a time across the whole column,
    where uint64 multiplication wraps mod 2**64 as `& _U64` does.
    """
    n = np.asarray(numbers, dtype=np.int64)
    prime = np.uint64(FNV64_PRIME)
    h = np.full(n.shape, _fnv1a(prefix.encode("utf-8")), dtype=np.uint64)
    neg = n < 0
    h = np.where(neg, (h ^ np.uint64(ord("-"))) * prime, h)
    u = n.astype(np.uint64)
    mag = np.where(neg, -u, u)  # |n|, also for -2**63
    # An int64 magnitude is at most 2**63 < 10**19: at most 19 digits.
    digits = 1 + sum((mag >= np.uint64(10**k)).astype(np.int64) for k in range(1, 19))
    for k in range(int(digits.max(initial=1)) - 1, -1, -1):
        d = mag // np.uint64(10**k) % np.uint64(10)
        h = np.where(digits > k, (h ^ (d + np.uint64(ord("0")))) * prime, h)
    return h


_KEY_SET = frozenset(FIELD_NAMES)


def _coerce_nonneg(obj, key, line_no, as_int):
    # type() instead of isinstance keeps bools out and is faster on the
    # million-record path; `not v >= 0` also rejects NaN.
    v = obj.get(key)
    if v is None:
        return None
    t = type(v)
    if (t is not int and t is not float) or not v >= 0:
        raise MalformedRecord(line_no, f"{key} must be a non-negative number, got {v!r}")
    limit = MAX_EXACT if as_int else sys.float_info.max  # the float limit rejects inf
    if not v <= limit:
        raise MalformedRecord(line_no, f"{key} must be at most {limit!r}, got {v!r}")
    return int(v) if as_int else float(v)


def _record_values(obj: dict, line_no: int) -> tuple:
    """Check a decoded line's types, signs and ranges; return its values
    in JobRecord field order, None for a missing field."""
    if not obj.keys() <= _KEY_SET:
        unknown = sorted(obj.keys() - _KEY_SET)
        raise MalformedRecord(line_no, f"unknown field(s) {unknown}")

    job_id = obj.get("job_id")
    if job_id is None:
        raise MissingRequiredField(line_no, "job_id")
    if type(job_id) is not int or job_id < 0:
        raise MalformedRecord(line_no, f"job_id must be a non-negative integer, got {job_id!r}")
    if job_id > _I64_MAX:
        raise MalformedRecord(line_no, f"job_id must fit in int64, got {job_id!r}")

    submit = obj.get("submit_time")
    if submit is None:
        raise MissingRequiredField(line_no, "submit_time")
    t = type(submit)
    if t is not int and t is not float:
        raise MalformedRecord(line_no, f"submit_time must be a number, got {submit!r}")
    # Also rejects NaN and infinities.
    if not _I64_MIN <= submit <= _I64_MAX:
        raise MalformedRecord(line_no, f"submit_time must be finite and fit in int64, got {submit!r}")
    if t is float:
        submit = int(submit)

    name = obj.get("name")
    if name is not None and type(name) is not str:
        raise MalformedRecord(line_no, f"name must be a string, got {name!r}")

    for key in ("input_path_hash", "output_path_hash"):
        v = obj.get(key)
        if v is not None and (type(v) is not int or not 0 <= v <= _U64):
            raise MalformedRecord(line_no, f"{key} must be a 64-bit unsigned integer, got {v!r}")

    return (
        job_id,
        submit,
        name,
        _coerce_nonneg(obj, "duration", line_no, True),
        _coerce_nonneg(obj, "input_bytes", line_no, True),
        _coerce_nonneg(obj, "shuffle_bytes", line_no, True),
        _coerce_nonneg(obj, "output_bytes", line_no, True),
        _coerce_nonneg(obj, "map_task_seconds", line_no, False),
        _coerce_nonneg(obj, "reduce_task_seconds", line_no, False),
        _coerce_nonneg(obj, "map_tasks", line_no, True),
        _coerce_nonneg(obj, "reduce_tasks", line_no, True),
        obj.get("input_path_hash"),
        obj.get("output_path_hash"),
    )


def _iter_jsonl(lines: Iterable[str], first_line_no: int = 1):
    for line_no, line in enumerate(lines, start=first_line_no):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
            raise MalformedRecord(line_no, f"invalid JSON ({getattr(exc, 'msg', exc)})") from exc
        if not isinstance(obj, dict):
            raise MalformedRecord(line_no, "line is not a JSON object")
        yield _record_values(obj, line_no)


def _iter_csv(lines: Iterable[str]):
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        return
    header = [h.strip() for h in header]
    unknown = [h for h in header if h not in _KEY_SET]
    if unknown:
        raise MalformedRecord(1, f"unknown column(s) {unknown}")
    for line_no, row in enumerate(reader, start=2):
        if not row or all(cell == "" for cell in row):
            continue
        obj: dict[str, object] = {}
        for col, cell in zip(header, row):
            cell = cell.strip()
            if cell == "":
                continue  # empty cell = missing
            if col == "name":
                obj[col] = cell
            else:
                try:
                    obj[col] = float(cell) if "." in cell or "e" in cell or "E" in cell else int(cell)
                except ValueError:
                    raise MalformedRecord(line_no, f"non-numeric value {cell!r} in column {col}")
        yield _record_values(obj, line_no)


def _open_lines(source, fmt: str):
    """Yield text lines from a path, bytes, or file object."""
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", newline="" if fmt == "csv" else None)
    if isinstance(source, bytes):
        return io.StringIO(source.decode("utf-8"))
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return io.StringIO(data)
    raise TypeError(f"unsupported trace source {type(source)!r}")


def _columns_of(rows: Iterable[tuple]) -> TraceColumns:
    """Columns of checked rows, each in JobRecord field order."""
    values = tuple([] for _ in ROW_FIELDS)
    appends = tuple(v.append for v in values)
    for row in rows:
        for append, v in zip(appends, row):
            append(v)
    return TraceColumns.from_fields(values)


# Lines per bulk chunk. glibc raises its mmap threshold to the size of each
# large buffer freed, so later buffers of that size come from the heap and
# leave holes in it. At 4096 lines a chunk's text stays near a megabyte;
# 65,536-line chunks (20 MB texts) raised the peak RSS of later stages,
# and parsed no faster.
_JSONL_CHUNK = 4096

# Value types the bulk path accepts in each field; any other declines.
_BULK_TYPES = {
    "job_id": {int},
    "submit_time": {int},  # a float submit time declines
    "name": {str, NoneType},
    **{f: {int, float, NoneType} for f in NUMERIC},
    "input_path_hash": {int, NoneType},
    "output_path_hash": {int, NoneType},
}


def _bulk_numbers(values: list, as_int: bool) -> Optional[np.ndarray]:
    """A float64 column of one numeric field, NaN for missing, holding what
    _coerce_nonneg would return; None to decline."""
    try:
        col = np.asarray(values, dtype=np.float64)  # None becomes NaN
    except OverflowError:  # an integer beyond float64
        return None
    present = col[~np.isnan(col)]
    if present.size != len(values) - values.count(None):
        return None  # a NaN literal
    # Values that round to the limit may lie above it, so the limit itself
    # declines; NaN and infinities fail these tests too.
    limit = MAX_EXACT if as_int else sys.float_info.max
    if present.size and not (present.min() >= 0 and present.max() < limit):
        return None
    # int(v) truncates floats, and stores -0.0 as 0.
    return np.trunc(col) + 0.0 if as_int else col


def _bulk_columns(lines: list[str]) -> Optional[TraceColumns]:
    """Columns of a chunk of jsonl lines decoded with one json.loads, or
    None when the chunk holds anything _iter_jsonl might read differently.

    Never raises for bad input: whatever this accepts, _iter_jsonl accepts
    with the same values, so errors always come from _iter_jsonl.
    """
    body = [s for s in map(str.strip, lines) if s]
    count = len(body)
    # Strict JSON strings hold no raw newline, so with one in the separator
    # no string spans two lines. Inside an object a comma is followed by a
    # key, never by "{", so without arrays every "},\n{" separates two
    # top-level values. Then, if every line starts with "{" and ends with
    # "}" and there are as many objects as lines, each object is exactly
    # its own line. Any "[" declines: within an array a separator may fall
    # inside one object, and a duplicate key can drop that array before
    # the type checks see it.
    text = ",\n".join(body)
    del body  # each text copy of the chunk is freed as soon as it is spent
    if count and not (text[0] == "{" and text[-1] == "}" and "[" not in text
                      and text.count("},\n{") == count - 1):
        return None
    text = "[" + text + "]"
    try:
        objs = json.loads(text)
    except ValueError:  # JSONDecodeError, or an integer too long to convert
        return None
    del text
    if (len(objs) != count or not set(map(type, objs)) <= {dict}
            or not set().union(*objs) <= _KEY_SET):
        return None
    values = []
    for key in ROW_FIELDS:
        col = [o.get(key) for o in objs]
        if not set(map(type, col)) <= _BULK_TYPES[key]:
            return None
        if key in NUMERIC:
            col = _bulk_numbers(col, key not in FLOAT_FIELDS)
            if col is None:
                return None
        values.append(col)
    try:
        cols = TraceColumns.from_fields(values)
    except ValueError:  # a job_id, submit_time or digest outside its column
        return None
    return cols if not len(cols) or cols.job_id.min() >= 0 else None


def _read_jsonl(lines: Iterator[str]) -> TraceColumns:
    """Columns of every jsonl line, _JSONL_CHUNK lines at a time: in bulk
    where _bulk_columns accepts a chunk, else line by line."""
    parts = []
    first_line_no = 1
    while chunk := list(islice(lines, _JSONL_CHUNK)):
        cols = _bulk_columns(chunk)
        if cols is None:
            cols = _columns_of(_iter_jsonl(chunk, first_line_no))
        parts.append(cols)
        first_line_no += len(chunk)
    return TraceColumns.concat(parts)


def parse_trace(
    source,
    fmt: str = "jsonl",
    *,
    label: str = "trace",
    machine_count: int = 1,
    span: Optional[tuple[int, int]] = None,
) -> Trace:
    """Parse a trace file into an immutable Trace.

    source may be a path, bytes, or an open file. Records are sorted by
    submit_time (stable, so ties keep source order). If span is not given
    it is derived from the min/max submit times.
    """
    if fmt not in ("jsonl", "csv"):
        raise ValueError(f"unknown trace format {fmt!r}")
    if machine_count < 1:
        raise ValueError("machine_count must be positive")

    fh = _open_lines(source, fmt)
    try:
        cols = _read_jsonl(fh) if fmt == "jsonl" else _columns_of(_iter_csv(fh))
    finally:
        fh.close()
    if not len(cols):
        raise EmptyTrace("trace contains no records")

    cols = cols.take(np.argsort(cols.submit_time, kind="stable"))
    if span is None:
        span = (int(cols.submit_time[0]), int(cols.submit_time[-1]))
    return Trace(label=label, machine_count=machine_count, columns=cols, span=span)


# Rows per serialize_trace chunk. Only one chunk's text is held at a
# time: formatting a 100k-job workload as one chunk raised the peak RSS
# of `mrtrace synthesize` from 100 to 218 MB.
_WRITE_CHUNK = 16384


def _field_texts(part: TraceColumns, key: str, prefix: str) -> list[str]:
    """prefix + the JSON text of key's value for each row of part, "" where
    the value is missing; ints as str, floats as float.__repr__, the texts
    json.dumps writes."""
    if key in ("job_id", "submit_time"):
        return list(map(prefix.__add__, map(str, getattr(part, key).tolist())))
    if key in NUMERIC:
        col = getattr(part, key)
        gaps = np.isnan(col)
        if key in FLOAT_FIELDS:
            texts = list(map(float.__repr__, col.tolist()))
            for i in np.flatnonzero(np.isinf(col)).tolist():
                texts[i] = "Infinity" if col[i] > 0 else "-Infinity"
        else:
            texts = map(str, np.where(gaps, 0, col).astype(np.int64).tolist())
    else:
        digests, present = part.hash_column(key.removesuffix("_path_hash"))
        gaps = ~present
        texts = map(str, digests.tolist())
    out = list(map(prefix.__add__, texts))
    for i in np.flatnonzero(gaps).tolist():
        out[i] = ""
    return out


def serialize_trace(trace: Trace, dest) -> None:
    """Write a trace as canonical jsonl to a path or an open text file:
    one compact JSON object per job, keys in FIELD_NAMES order, missing
    fields omitted. Built a column at a time (see the module docstring)."""
    cols = trace.columns
    # Code -1, a missing name, indexes the trailing "".
    names = [f',"name":{json.dumps(name)}' for name in cols.names] + [""]
    own = isinstance(dest, (str, Path))
    fh = open(dest, "w", encoding="utf-8") if own else dest
    try:
        for start in range(0, len(cols), _WRITE_CHUNK):
            part = cols.take(slice(start, start + _WRITE_CHUNK))
            fields = [
                list(map(names.__getitem__, part.name_codes.tolist())) if key == "name"
                else _field_texts(part, key, ("{" if key == "job_id" else ",") + f'"{key}":')
                for key in FIELD_NAMES
            ]
            fh.write("".join(chain.from_iterable(zip(*fields, repeat("}\n")))))
    finally:
        if own:
            fh.close()


def _truthy(col: np.ndarray) -> np.ndarray:
    """Present and nonzero."""
    return (col != 0) & ~np.isnan(col)


def validate(trace: Trace) -> ValidationReport:
    """Report per-field missing counts and invariant violations; pure, never mutates.

    Anomalies are listed job by job in trace order, each job's in the
    order of the checks below.
    """
    cols = trace.columns
    duplicate = np.ones(len(cols), dtype=bool)
    duplicate[np.unique(cols.job_id, return_index=True)[1]] = False
    checks = [(duplicate, "duplicate job_id")]
    checks += [(getattr(cols, name) < 0, f"negative {name}") for name in NUMERIC]
    checks += [
        ((cols.map_tasks == 0) & _truthy(cols.map_task_seconds),
         "map_tasks=0 but map_task_seconds>0"),
        ((cols.reduce_tasks == 0) & _truthy(cols.reduce_task_seconds),
         "reduce_tasks=0 but reduce_task_seconds>0"),
        ((cols.reduce_tasks == 0) & _truthy(cols.shuffle_bytes),
         "map-only job (reduce_tasks=0) but shuffle_bytes>0"),
    ]
    rows, kinds = np.nonzero(np.stack([mask for mask, _ in checks], axis=1))
    anomalies = [
        (job_id, checks[k][1]) for job_id, k in zip(cols.job_id[rows].tolist(), kinds.tolist())
    ]
    return ValidationReport(
        record_count=len(cols),
        missing_field_counts=cols.missing_counts(),
        anomalies=anomalies,
    )
