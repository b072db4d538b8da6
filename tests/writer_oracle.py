"""The per-row and per-value writers that the columnar writers replaced,
kept as oracles for the differential tests in test_writers.py.

serialize_trace_per_row is trace.serialize_trace, json_text_per_value is
report.json_text and tsv_text_per_cell is the TSV file formatting of
report.tsv_text, as they were before the writers worked a column at a time;
synthetic_digests is the scalar hash_path loop of synthesis._scaled_workload.
"""

import json
from operator import itemgetter
from pathlib import Path

import numpy as np

from mrtrace.columns import ROW_FIELDS
from mrtrace.report import Records
from mrtrace.trace import FIELD_NAMES, hash_path

_FILE_ORDER = itemgetter(*(ROW_FIELDS.index(k) for k in FIELD_NAMES))


def serialize_trace_per_row(trace, dest) -> None:
    """Write a trace as canonical jsonl; missing fields are omitted keys."""
    own = isinstance(dest, (str, Path))
    fh = open(dest, "w", encoding="utf-8") if own else dest
    try:
        for row in trace.columns.tuples():
            obj = {k: v for k, v in zip(FIELD_NAMES, _FILE_ORDER(row)) if v is not None}
            fh.write(json.dumps(obj, separators=(",", ":")))
            fh.write("\n")
    finally:
        if own:
            fh.close()


def _sig9(x: float) -> float:
    return float(f"{x:.9g}")


def _clean(obj):
    """Round floats to 9 significant digits, unbox numpy scalars, and stand
    a Records for its list of dicts, one per row."""
    if isinstance(obj, Records):
        rows = zip(*map(_clean, obj.columns.values()))
        return [dict(zip(obj.columns, row)) for row in rows]
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return _sig9(float(obj))
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    return obj


def json_text_per_value(obj) -> str:
    """The JSON text of every JSON output, file or stdout. Strict: a NaN
    raises instead of writing invalid JSON."""
    return json.dumps(_clean(obj), indent=2, allow_nan=False) + "\n"


def _format_cell(c) -> str:
    if isinstance(c, (np.floating, float)):
        return f"{float(c):.9g}"
    return str(c)


def tsv_text_per_cell(rows) -> str:
    lines = ["\t".join(_format_cell(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"


def tsv_stdout_per_cell(rows) -> str:
    """What the CLI printed for a TSV sent to stdout."""
    return "".join("\t".join(str(c) for c in row) + "\n" for row in rows)


def synthetic_digests(prefix: str, ids) -> np.ndarray:
    paths = (f"{prefix}{s}" for s in np.asarray(ids).tolist())
    return np.fromiter(map(hash_path, paths), dtype=np.uint64, count=len(ids))
