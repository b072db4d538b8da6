"""Peak memory of the stages that set `mrtrace analyze`'s high-water, as
tracemalloc sees it: every numpy buffer and Python object the stage
allocates, on every thread, and nothing of the allocator's own layout, so
the figures repeat exactly. Each bound is the measured multiple with a 15%
margin; the inputs have the shape of the benchmark's analyze input: every
field present, shared input paths, one output path per job."""

import functools
import gc
import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from mrtrace import data_access, temporal, trace
from mrtrace.columns import ROW_FIELDS, TraceColumns

MARGIN = 1.15
WORDS = ("insert into t", "select x from y", "ad hoc 7", "etl nightly", "from logs", "pipeline")


@functools.cache
def benchmark_shaped_trace(n: int, seed: int = 3) -> trace.Trace:
    rng = np.random.default_rng(seed)
    submit = np.sort(rng.integers(0, 30 * 86400, n))

    def sizes(lo, hi):
        return rng.integers(lo, hi, n).astype(np.float64)

    cols = TraceColumns(
        job_id=np.arange(n), submit_time=submit, name_codes=rng.integers(0, len(WORDS), n),
        names=WORDS, duration=sizes(30, 20_000), input_bytes=sizes(0, 10**9),
        shuffle_bytes=sizes(0, 10**7), output_bytes=sizes(0, 10**6),
        map_task_seconds=sizes(1, 5000), reduce_task_seconds=sizes(0, 1000),
        map_tasks=sizes(1, 300), reduce_tasks=sizes(0, 50),
        input_path_hash=rng.integers(0, n // 200, n).astype(np.uint64),
        input_hash_present=np.ones(n, dtype=bool),
        output_path_hash=np.arange(10**6, 10**6 + n, dtype=np.uint64),
        output_hash_present=np.ones(n, dtype=bool))
    return trace.Trace(label="memory", machine_count=1, columns=cols,
                       span=(int(submit[0]), int(submit[-1])))


def traced_peak(fn):
    """fn()'s result and the most bytes it held at once, also when the
    interpreter already traces allocations (python -X tracemalloc)."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def array_bytes(*arrays) -> int:
    """The bytes of the distinct buffers behind the arrays given: a view
    counts its base's, and a broadcast array its one value's."""
    owners = {}
    for a in arrays:
        while isinstance(a.base, np.ndarray):
            a = a.base
        owners[id(a)] = a.nbytes
    return sum(owners.values())


def column_bytes(cols: TraceColumns) -> int:
    return array_bytes(*(v for v in vars(cols).values() if isinstance(v, np.ndarray)))


def unsorted_jsonl(n: int) -> bytes:
    out = io.StringIO()
    trace.serialize_trace(benchmark_shaped_trace(n), out)
    lines = out.getvalue().splitlines(keepends=True)
    np.random.default_rng(5).shuffle(lines)
    return "".join(lines).encode()


def unsorted_csv(n: int) -> bytes:
    values = benchmark_shaped_trace(n).columns.values()
    order = [ROW_FIELDS.index(key) for key in trace.FIELD_NAMES]
    rows = [",".join(trace.FIELD_NAMES)]
    for i in np.random.default_rng(6).permutation(n).tolist():
        rows.append(",".join("" if values[j][i] is None else str(values[j][i]) for j in order))
    return ("\n".join(rows) + "\n").encode()


def parse_multiple(fmt: str) -> float:
    """The parse's peak over the bytes of the columns it returns. 250,000
    rows fill most of the last doubling of the jsonl buffers (262,144
    rows); 512-line chunks keep the chunks in flight small beside them."""
    data = unsorted_jsonl(250_000) if fmt == "jsonl" else unsorted_csv(20_000)
    with mock.patch.object(trace, "_JSONL_CHUNK", 512):
        parsed, peak = traced_peak(lambda: trace.parse_trace(data, fmt))
    return peak / column_bytes(parsed.columns)


def table_bytes(files: data_access.FileTable) -> int:
    return sum(array_bytes(*vars(side).values()) for side in (files.input, files.output)) \
        + files.reread_gaps.nbytes


def file_table_multiple() -> float:
    t = benchmark_shaped_trace(200_000)
    files, peak = traced_peak(lambda: data_access.file_table(t))
    return peak / table_bytes(files)


def output_ranking_multiple() -> float:
    """The Zipf fits of the output side, as the report makes them, over
    the bytes of one count per output file."""
    files = data_access.file_table(benchmark_shaped_trace(200_000))

    def fits():
        counts = data_access.access_frequency_rank(files, "output")
        data_access.fit_zipf(counts)
        return data_access.tail_trimmed(counts)

    _, peak = traced_peak(fits)
    return peak / (len(files.output.counts) * 8)


def occupancy_multiple(width: int) -> float:
    """The series' peak over 8 bytes per row read, in 4096-row chunks."""
    t = benchmark_shaped_trace(200_000)
    with mock.patch.object(temporal, "_OCCUPANCY_CHUNK", 4096):
        _, peak = traced_peak(lambda: temporal.occupancy_series(t, width))
    return peak / (len(t) * 8)


# Measured multiples; the values before the columns were sorted one at a
# time and the file table, the ranking and the occupancy series lost their
# full-length temporaries, and before CSV records were gathered in
# chunks, are in CHANGES.md.
MEASURED = {
    "parse.jsonl": 1.69,
    "parse.csv": 2.56,
    "file_table": 1.76,
    "output_ranking": 1.13,
    "occupancy.60": 0.75,
    "occupancy.600": 0.56,
    "occupancy.3600": 0.53,
}


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_parse_peak_stays_near_its_columns(fmt):
    assert parse_multiple(fmt) <= MEASURED[f"parse.{fmt}"] * MARGIN


def test_file_table_peak_stays_near_what_it_keeps():
    assert file_table_multiple() <= MEASURED["file_table"] * MARGIN


def test_output_ranking_copies_no_file_column():
    assert output_ranking_multiple() <= MEASURED["output_ranking"] * MARGIN


@pytest.mark.parametrize("width", [60, 600, 3600])
def test_occupancy_peak_is_bounded_by_its_chunks(width):
    assert occupancy_multiple(width) <= MEASURED[f"occupancy.{width}"] * MARGIN
