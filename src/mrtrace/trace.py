"""Trace files and the Trace type: parsing, validation, serialization.

A trace file is JSON Lines (one job per line) or CSV with a header row.
Only job_id and submit_time are required; every other dimension may be
missing and is then left missing, never zero-filled. A parsed Trace
stores its jobs as columns (see columns.py); Trace.records presents them
as JobRecords.

JSON Lines are read as bytes, _JSONL_CHUNK lines at a time.
_layout_columns reads a chunk whose lines all have exactly the compact
layout of its first, {"k1":v1,...,"km":vm}, as serialize_trace and the
benchmark generators write it: it indexes the chunk's quotes and
newlines, as simdjson does (Langdale & Lemire, VLDB J. 2019), and reads
every number a uint64 word of 8 digits at a time (_number_values). It
declines whatever it cannot vouch for, and _iter_jsonl, its oracle, then
reads the chunk line by line: it accepts what the layout reader accepts,
with the same values, or raises the error naming the first bad line,
such as a key given twice. The layout reader declines that, and
_iter_jsonl's object_pairs_hook raises on it, at a cost paid on declined
chunks only: json.loads of 200k 13-field job lines took 1.5-1.8 s with
the hook, 1.2-1.4 s without. On the seed-11 benchmark inputs the layout
reader read every chunk and declined none: 245 for analyze, 49 for the
cache sweep, 25 for the mixed source and 25 for the workload synthesized
from it. Any other layout parses line by line: json.dumps' default
separators, escaped names, keys that vary by line. parse_trace of 200k
jobs in such layouts took 1.6-2.7 s, against 0.46-0.60 s for the compact
file (2-core VM). A benchmark workload with such input would justify a
fast path for it.

Every chunk takes one road, the generator _jsonl_parts, even in a file
of one chunk: a 300-line parse took 2.2-2.5 ms there against 1.1-1.4 ms
read inline, and the smallest benchmark input has 25 chunks. The calling
thread reads the file's bytes, cuts them into chunks at a numpy index of
their newlines (_jsonl_chunks), and hands each chunk to _layout_columns
on a pool of one worker per usable core, at most _LAYOUT_WORKERS, with at
most _IN_FLIGHT chunks handed over and not yet taken back. No text is
decoded on the way: the cut turns CR and CRLF into LF and drops a
leading byte-order mark, as universal newlines and utf-8-sig would, and
_layout_columns checks a chunk's UTF-8 itself. The calling thread takes
the readings back in file order and does the rest itself: _iter_jsonl on
a declined chunk, decoded with surrogateescape and split at LF, the line
numbers, the name table, and the copy of each chunk into output columns
that grow by doubling (see _JSONL_CHUNK). So the lowest bad line raises,
with the error a one-thread read gives; on any error the pending chunks
are cancelled and the pool is joined before the error leaves. On the
seed-11 1M-job analyze input (2-core VM, in process) the parse took
1.4-1.9 s, against 1.9-2.4 s on one worker. The calling thread spends
0.5-0.7 s of CPU there, 0.2-0.3 s of it reading and cutting the bytes,
the rest on the name table, the copies and parse_trace's sort; the
readings took 1.6-2.1 s of CPU, where numpy holds the GIL between its
loops and both threads fault in fresh pages. Run alone over the same 245
chunks, _number_values took 0.41-0.45 s, and the per-digit reader it
replaced (tests/number_oracle.py) 1.0-1.05 s. A wider window parsed no
faster. CSV is read by the csv module from text lines (_open_lines),
_JSONL_CHUNK records at a time, into the same growing columns: a quoted
cell may span lines, so a chunk of records, not of lines, is the unit. A
header that names a column twice raises at line 1. Bytes that are not
UTF-8 raise MalformedRecord at their line in both formats.

serialize_trace writes canonical jsonl, the bytes json.dumps gives each
row as a compact dict with missing fields left out. It formats
_WRITE_CHUNK rows at a time, a field at a time: one list of
',"key":value' fragments per field ("" where the value is missing), ints
through str, floats through float.__repr__ as json.dumps does, and each
distinct name through json.dumps once. A dict and a json.dumps call per
row took 1.1-1.5 s on a 100k-job synthetic workload, against 0.6-0.7 s.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import os
import re
import sys
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field
from itertools import chain, count, islice, repeat
from pathlib import Path
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
# Trace files are read with errors="surrogateescape", which turns each byte
# that is not UTF-8 into a lone surrogate; text read from UTF-8 holds none.
# The patterns are compiled on first use (re caches them), not at import.
_UNDECODABLE = "[\udc80-\udcff]"
# The number spellings a CSV cell may use: ASCII digits, an optional sign,
# fraction and exponent. int() and float() also take "1_000" and non-ASCII
# digits, which jsonl rejects.
_CSV_NUMBER = r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"


def _require_utf8(text: str, line_no: int) -> None:
    if not text.isascii() and re.search(_UNDECODABLE, text):
        raise MalformedRecord(line_no, "invalid UTF-8")


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


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """json.loads' object_pairs_hook: KeyError lists the keys repeated."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise KeyError([key for key, n in Counter(key for key, _ in pairs).items() if n > 1])
    return obj


def _iter_jsonl(lines: Iterable[str], first_line_no: int = 1):
    for line_no, line in enumerate(lines, start=first_line_no):
        line = line.strip()
        if not line:
            continue
        _require_utf8(line, line_no)
        try:
            obj = json.loads(line, object_pairs_hook=_unique_keys)
        except KeyError as exc:
            raise MalformedRecord(line_no, f"repeated key(s) {exc.args[0]}") from None
        # JSONDecodeError, an integer too long to convert, or nesting too deep
        except (ValueError, RecursionError) as exc:
            raise MalformedRecord(line_no, f"invalid JSON ({getattr(exc, 'msg', exc)})") from exc
        if not isinstance(obj, dict):
            raise MalformedRecord(line_no, "line is not a JSON object")
        yield _record_values(obj, line_no)


def _csv_rows(lines: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """Each CSV record with the physical line it starts on, the header's
    being 1, as an editor numbers them. A record the csv module refuses,
    such as one with a field past its field_size_limit, raises
    MalformedRecord."""
    reader = csv.reader(lines)
    while True:
        line_no = reader.line_num + 1
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise MalformedRecord(line_no, f"invalid CSV ({exc})") from exc
        yield line_no, row


def _iter_csv(lines: Iterable[str]):
    rows = _csv_rows(lines)
    _, header = next(rows, (1, None))
    if header is None:
        return
    _require_utf8("".join(header), 1)
    header = [h.strip() for h in header]
    unknown = [h for h in header if h not in _KEY_SET]
    if unknown:
        raise MalformedRecord(1, f"unknown column(s) {unknown}")
    repeated = [h for h, n in Counter(header).items() if n > 1]
    if repeated:
        raise MalformedRecord(1, f"repeated column(s) {repeated}")
    for line_no, row in rows:
        if not row or all(cell == "" for cell in row):
            continue
        _require_utf8("".join(row), line_no)
        extra = next((cell for cell in row[len(header):] if cell.strip()), None)
        if extra is not None:
            raise MalformedRecord(line_no, f"value {extra.strip()!r} past the header's {len(header)} columns")
        obj: dict[str, object] = {}
        for col, cell in zip(header, row):
            cell = cell.strip()
            if cell == "":
                continue  # empty cell = missing
            if col == "name":
                obj[col] = cell
            elif re.fullmatch(_CSV_NUMBER, cell):
                obj[col] = float(cell) if "." in cell or "e" in cell or "E" in cell else int(cell)
            else:
                raise MalformedRecord(line_no, f"non-numeric value {cell!r} in column {col}")
        yield _record_values(obj, line_no)


def _open_bytes(source):
    """A binary file of a path or of bytes."""
    if isinstance(source, (str, Path)):
        return open(source, "rb")
    if isinstance(source, bytes):
        return io.BytesIO(source)
    raise TypeError(f"unsupported trace source {type(source)!r}")


def _open_lines(source):
    """CSV text lines of a path or bytes, each keeping its LF, CRLF or CR
    for the csv module. A UTF-8 byte-order mark at the start is dropped;
    one anywhere else stays, and the reader refuses it. Bytes that are not
    UTF-8 become lone surrogates, which the reader reports by line."""
    return io.TextIOWrapper(_open_bytes(source), encoding="utf-8-sig",
                            errors="surrogateescape", newline="")


def _columns_of(rows: Iterable[tuple]) -> TraceColumns:
    """Columns of checked rows, each in JobRecord field order."""
    return TraceColumns.from_fields(list(zip(*rows)) or [()] * len(ROW_FIELDS))


# Lines per chunk, for both jsonl readers. glibc raises its mmap
# threshold to the size of each large buffer freed, so later buffers of
# that size come from the heap and leave holes in it. At 4096 lines a
# chunk's text stays near a megabyte; 65,536-line chunks (20 MB texts)
# raised the peak RSS of later stages, and parsed no faster. For the same
# reason _gather copies each chunk into output columns at once: keeping
# the 245 chunks of a 1M-job file and joining them at the end left 254 MB
# resident after the parse instead of 141-151 MB. The columns then shrink
# in place to the rows read, and parse_trace sorts them a column at a
# time: the parse of the 1M-job analyze input peaked at 166-168 MB, where
# keeping the spare capacity alive through a sort of all 13 columns at
# once peaked at 258-262 MB (2-core VM, seed 11).
#
# glibc gives each pool thread a malloc arena of its own, which keeps the
# pages of the chunk temporaries freed in it resident after the pool is
# gone, where no later allocation on the calling thread reuses them.
# Unreleased, they added 13-14 MB to the peak RSS of a 1M-job analyze and
# 9 MB to that of the cache sweep, so the pool's end calls malloc_trim
# (_release_free_heap), which gave most of it back. What is left is the
# top of each worker's arena, which malloc_trim does not shrink; it is at
# most a chunk's working set. So _layout_columns drops each temporary as
# soon as it is read, and _number_values works in place: a 4096-line
# chunk of the seed-11 analyze input, 1.1 MB of bytes, peaks at 4.5 MB of
# temporaries, 2.4 MB of them in _number_values. The working set also
# sets the page faults: after each chunk glibc trims a worker's arena
# back to its trim threshold, which rises with the largest buffer freed,
# and the next chunk faults the rest in again. A first word reader that
# peaked at 6.5 MB in arrays of at most 1.1 MB took 160-176k minor faults
# in the parse of `mrtrace analyze`; the per-digit reader, at the same
# peak but in larger arrays, took 65-113k, and this one 71-108k.
#
# parse_trace calls _release_free_heap again after the sort. The columns
# the sort replaced are freed inside glibc's heap, whose pages stay
# resident, and whether the report's sections reuse them turned on the
# order of small allocations at startup: with the byte reader, analyze-1m
# peaked at 247-252 MB from a git checkout of the program and at 231-235
# MB from a copy of its program files alone. After the trim it peaked at
# 228-239 MB in both, against 231-248 MB for the parent (seed 11).
#
# _jsonl_chunks reads _JSONL_CHUNK * 256 bytes at a time, about one chunk
# of the benchmark inputs' 170-270-byte lines, so a cut holds at most a
# read or two beside the chunks in flight. On the parse bound of
# tests/test_memory_bounds.py (512-line chunks, 128 KB reads) the parse
# peaked at 1.658 times its columns' bytes; with 4 MB reads, at 1.810.
_JSONL_CHUNK = 4096
# At most this many pool threads read chunks, at most _IN_FLIGHT chunks
# ahead of the one being copied; a chunk's bytes take about 1.1 MB.
_LAYOUT_WORKERS = 2
_IN_FLIGHT = 4

# The layout reader lays a chunk's names out in rows as wide as the
# longest; a longer name declines.
_LAYOUT_NAME_MAX = 1024


def _not_digits(word: np.ndarray) -> np.ndarray:
    """Whether each uint64 word holds a byte that is not an ASCII digit:
    a digit's high nibble is 3, and stays 3 when 6 is added to it."""
    test = word + 0x0606060606060606
    test &= 0xF0F0F0F0F0F0F0F0
    test >>= 4
    test |= word & 0xF0F0F0F0F0F0F0F0
    return test != 0x3333333333333333


def _number_values(buf: np.ndarray, start: np.ndarray, end: np.ndarray):
    """Parse the number texts buf[start:end], each nonempty and at least 7
    bytes past buf's start: the integer of each text's digits, wrapping
    mod 2**64; its digit count; and its digit count after the dot. None
    when a byte is neither a digit nor a dot, or a text has a leading
    zero, two dots, or a dot at either end.

    A text is read as little-endian uint64 words that end where it ends,
    one word per 8 bytes, each step over the texts that still have bytes
    left, as Lemire reads 8 digits at once ("Number parsing at a gigabyte
    per second", SPE 2021). In a word the bytes before the text read as
    "0". In a word that fails the digit test, a dot is found by an exact
    zero-byte test and also reads as "0"; the word must then pass. Three
    multiply-shift steps combine the 8 digits. Digits before the dot count
    a tenth as much: in the dot's word they are divided by 10, and word k
    from the end, when wholly before the dot, counts 10**(8k-1), not
    10**(8k). The steps work in place, to keep the working set small (see
    _JSONL_CHUNK).
    """
    zero = np.flatnonzero(buf[start] == 48)
    if np.any((end[zero] - start[zero] > 1) & (buf[start[zero] + 1] != 46)):
        return None
    words = np.ndarray((buf.size - 7,), dtype="<u8", buffer=buf, strides=(1,))
    low = np.array([(1 << 8 * n) - 1 for n in range(8)], dtype=np.uint64)  # the n first bytes
    after = np.array([10 ** (7 - j) for j in range(8)], dtype=np.uint64)  # a dot at byte j
    dot_at = np.full(start.size, -1, dtype=np.int64)
    live, first, at, dotted = None, start, end - 8, None  # live None: every text
    for k in count():
        word = words[at]
        fill = first - at
        np.maximum(fill, 0, out=fill)
        fill = low[fill]
        word &= ~fill
        fill &= 0x3030303030303030
        word |= fill
        del fill
        bad = np.flatnonzero(_not_digits(word))
        if bad.size:
            part = word[bad]
            dot = part ^ 0x2E2E2E2E2E2E2E2E
            test = dot & 0x7F7F7F7F7F7F7F7F
            test += 0x7F7F7F7F7F7F7F7F
            test |= dot
            test |= 0x7F7F7F7F7F7F7F7F
            dot = np.invert(test, out=test)  # 0x80 in each "." byte
            part ^= (dot >> 7) * 0x1E  # "." ^ 0x1E is "0"
            if (np.any(_not_digits(part)) or np.any(np.bitwise_count(dot) > 1)
                    or k and np.any(dotted[bad])):
                return None  # a byte neither digit nor dot, or two dots
            word[bad] = part
        word &= 0x0F0F0F0F0F0F0F0F
        word *= 2561  # 10 << 8 | 1: pairs
        word >>= 8
        word &= 0x00FF00FF00FF00FF
        word *= 6553601  # 100 << 16 | 1: fours
        word >>= 16
        word &= 0x0000FFFF0000FFFF
        word *= 42949672960001  # 10000 << 32 | 1: eights, wrapping mod 2**64
        word >>= 32
        if bad.size:
            byte = np.bitwise_count(dot - 1) >> 3  # the dot's byte in its word
            dot_at[bad if live is None else live[bad]] = at[bad] + byte
            both = word[bad]
            tail = both % after[byte]
            word[bad] = tail + (both - tail) // 10
        if not k:
            value = word
        else:
            value[live] += word * np.where(dotted, np.uint64(pow(10, 8 * k - 1, 1 << 64)),
                                           np.uint64(pow(10, 8 * k, 1 << 64)))
        more = np.flatnonzero(first < at)
        if not more.size:
            break
        live = more if live is None else live[more]
        first, at = first[more], at[more] - 8
        dotted = dot_at[live] >= 0
    if np.any((dot_at == start) | (dot_at == end - 1)):
        return None
    has_dot = dot_at >= 0
    return value, end - start - has_dot, np.where(has_dot, end - 1 - dot_at, 0)


def _layout_columns(chunk: bytes) -> Optional[TraceColumns]:
    """Columns of a chunk of LF-terminated lines whose every line has
    exactly the compact layout of its first, {"k1":v1,...,"km":vm}, read
    from its bytes with numpy; None to decline. It never raises for bad
    input: whatever it accepts, _iter_jsonl accepts with the same values,
    so errors always come from _iter_jsonl.

    With no backslash no quote is escaped, so every line holds the same
    quotes: two per key and two around the name. Each key's head, such as
    ',"duration":', is checked by 8-byte word gathers; what lies between
    two heads is a value.
    """
    if not chunk.isascii():
        try:
            chunk.decode()
        except UnicodeDecodeError:  # _iter_jsonl names the line
            return None
    try:
        first = json.loads(chunk[:chunk.find(b"\n")].decode())
    except (ValueError, RecursionError):
        return None
    if type(first) is not dict or not {"job_id", "submit_time"} <= first.keys() <= _KEY_SET or any(
            type(v) not in ((str,) if k == "name" else (int, float)) for k, v in first.items()):
        return None
    keys = tuple(first)
    size = len(chunk)
    pad = _LAYOUT_NAME_MAX + 32  # room for word and name reads past the last byte
    padded = chunk + bytes(pad)
    buf = np.frombuffer(padded, dtype=np.uint8)
    body = buf[:size]
    hits = np.flatnonzero(body <= 34)  # control bytes, spaces, "!" and quotes
    byte = body[hits]
    ends = hits[byte == 10]  # the newline of each line
    quotes = hits[byte == 34]
    rows = ends.size
    quote_cols = np.cumsum([0] + [4 if key == "name" else 2 for key in keys])
    if (quotes.size != rows * quote_cols[-1] or np.count_nonzero(byte < 32) != rows
            or padded.find(b"\\") >= 0):
        return None  # a control byte, a backslash, or lines unlike the first
    del hits, byte  # each array is dropped once read (see _JSONL_CHUNK)
    quotes = quotes.reshape(rows, quote_cols[-1])

    # bound[:, j] is the "{" or "," before key j, and bound[:, -1] the "}".
    bound = np.empty((rows, len(keys) + 1), dtype=np.int64)
    bound[:, :-1] = quotes[:, quote_cols[:-1]] - 1
    bound[:, -1] = ends - 1
    heads = [(b"," if j else b"{") + f'"{key}":'.encode() for j, key in enumerate(keys)]
    key_of, at, mask, expect = zip(*(
        (j, at, (1 << 8 * len(head[at:at + 8])) - 1, int.from_bytes(head[at:at + 8], "little"))
        for j, head in enumerate(heads) for at in range(0, len(head), 8)))
    words = np.ndarray((size + pad - 7,), dtype="S8", buffer=padded, strides=(1,))
    found = words[bound[:, key_of] + at].view("<u8") & np.array(mask, dtype=np.uint64)
    if not (np.all(found == np.array(expect, dtype=np.uint64)) and bound[0, 0] == 0
            and np.all(bound[1:, 0] == ends[:-1] + 1) and np.all(body[ends - 1] == 125)):
        return None
    # Each value runs from the end of its head to the next bound.
    start = bound[:, :-1] + np.array([len(head) for head in heads])
    stop = bound[:, 1:]
    codes, names = np.full(rows, -1, dtype=np.int64), ()
    if "name" in keys:
        j = keys.index("name")
        if not (np.array_equal(quotes[:, quote_cols[j] + 2], start[:, j])
                and np.array_equal(quotes[:, quote_cols[j] + 3], stop[:, j] - 1)):
            return None
        named = _layout_names(padded, start[:, j] + 1, stop[:, j] - 1)
        if named is None:
            return None
        codes, names = named
    del quotes, found, bound
    numbers = [key for key in keys if key != "name"]
    cols = [keys.index(key) for key in numbers]
    start, stop = start[:, cols].ravel(), stop[:, cols].ravel()  # row-major: in file order
    parsed = _number_values(buf, start, stop) if np.all(stop > start) else None
    if parsed is None:
        return None
    value, digits, fraction, start, stop = (a.reshape(rows, -1) for a in (*parsed, start, stop))

    values = {}
    for i, key in enumerate(numbers):
        v, d, f = value[:, i], digits[:, i], fraction[:, i]
        if key in FLOAT_FIELDS:
            exact = np.array([float(10**k) for k in range(16)])
            values[key] = col = v / exact[np.where(d <= 15, f, 0)]
            for r in np.flatnonzero(d > 15).tolist():
                literal = padded[start[r, i]:stop[r, i]].decode()
                try:
                    number = float(literal) if "." in literal else int(literal)
                except ValueError:  # an integer past the str-to-int digit limit
                    return None
                if not number <= sys.float_info.max:
                    return None
                col[r] = float(number)
            continue
        if key.endswith("_hash"):
            # A 20-digit value past 2**64-1 starts with 1 and wraps below 10**19.
            good = (d < 20) | (d == 20) & (buf[start[:, i]] == 49) & (v >= 10**19)
            dtype = np.uint64
        elif key in ("job_id", "submit_time"):
            good, dtype = (d <= 19) & (v <= _I64_MAX), np.int64
        else:
            good, dtype = (d <= 16) & (v <= MAX_EXACT), np.float64
        if np.any(f) or not np.all(good):
            return None  # a dot in an integer field, or a value out of range
        values[key] = v.astype(dtype)

    no_digest = np.zeros(rows, dtype=np.uint64)
    return TraceColumns(
        job_id=values["job_id"], submit_time=values["submit_time"], name_codes=codes, names=names,
        **{f: values.get(f, np.full(rows, np.nan)) for f in NUMERIC},
        input_path_hash=values.get("input_path_hash", no_digest),
        input_hash_present=np.full(rows, "input_path_hash" in values),
        output_path_hash=values.get("output_path_hash", no_digest),
        output_hash_present=np.full(rows, "output_path_hash" in values))


def _layout_names(padded: bytes, start: np.ndarray, stop: np.ndarray):
    """Name codes and table, in order of first appearance, of the UTF-8
    names padded[start:stop]; None when one is too long."""
    length = stop - start
    width = max(int(length.max()), 1)
    if width > _LAYOUT_NAME_MAX:
        return None
    windows = np.ndarray((len(padded) - width + 1,), dtype=f"S{width}", buffer=padded,
                         strides=(1,))
    names = windows[start]
    names.view(np.uint8).reshape(-1, width)[np.arange(width) >= length[:, None]] = 0
    unique, first, inverse = np.unique(names, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rank[inverse].astype(np.int64), tuple(n.decode() for n in unique[order].tolist())


def usable_cores() -> int:
    """The CPUs this process may run on."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cores or 1


def _release_free_heap() -> None:
    """Hand the free pages of every malloc arena back to the system, where
    the C library is glibc; elsewhere do nothing (see _JSONL_CHUNK)."""
    import ctypes

    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):  # not glibc, or no dlopen(NULL)
        return
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    trim(0)


def _jsonl_chunks(raw) -> Iterator[bytes]:
    """The bytes of a binary file in chunks of _JSONL_CHUNK lines, the
    last maybe fewer, each line ending in LF, as a text file read with
    universal newlines splits them: each CR or CRLF becomes LF, and a
    UTF-8 byte-order mark at the start is dropped; a mark anywhere else
    stays, and the readers refuse it. The file is read _JSONL_CHUNK * 256
    bytes at a time, and one numpy index of each read's newlines gives the
    cuts; a CRLF split between two reads stays one line end."""
    held, lines, cr = [], 0, False  # the next chunk's pieces and whole lines so far
    block = raw.read(_JSONL_CHUNK * 256)
    if block.startswith(codecs.BOM_UTF8):
        block = block[3:]
    while block:
        if cr and block[0] == 10:
            block = block[1:]  # the LF of a CRLF whose CR ended the last read
        cr = block.endswith(b"\r")
        if b"\r" in block:
            block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        ends = np.flatnonzero(np.frombuffer(block, dtype=np.uint8) == 10)
        view, cut = memoryview(block), 0
        for end in ends[_JSONL_CHUNK - 1 - lines::_JSONL_CHUNK].tolist():
            held.append(view[cut:end + 1])
            yield b"".join(held)
            held, cut = [], end + 1
        held.append(view[cut:])
        lines = (lines + ends.size) % _JSONL_CHUNK
        block = raw.read(_JSONL_CHUNK * 256)
    tail = b"".join(held)
    if tail:
        yield tail if tail.endswith(b"\n") else tail + b"\n"


def _jsonl_parts(raw) -> Iterator[TraceColumns]:
    """Columns of each chunk of _jsonl_chunks(raw), in file order: the
    reading of _layout_columns, on a pool of up to _LAYOUT_WORKERS threads
    at most _IN_FLIGHT chunks ahead of the one yielded, or, where that
    declines, of _iter_jsonl on this thread. Closing the generator cancels
    what is pending and joins the pool."""
    chunks = _jsonl_chunks(raw)
    pool = ThreadPoolExecutor(max_workers=min(_LAYOUT_WORKERS, usable_cores()))
    try:
        pending, first_line_no = deque(), 1
        while True:
            for chunk in islice(chunks, _IN_FLIGHT - len(pending)):
                pending.append((chunk, pool.submit(_layout_columns, chunk)))
            if not pending:
                return
            chunk, reading = pending.popleft()
            part = reading.result()
            if part is None:
                # Bytes that are not UTF-8 become lone surrogates, which
                # _iter_jsonl reports by line.
                lines = chunk.decode("utf-8", "surrogateescape").split("\n")
                part = _columns_of(_iter_jsonl(lines[:-1], first_line_no))
            yield part
            first_line_no += _JSONL_CHUNK
    finally:
        pool.shutdown(cancel_futures=True)
        _release_free_heap()


def _csv_parts(lines: Iterable[str]) -> Iterator[TraceColumns]:
    """Columns of each chunk of _JSONL_CHUNK CSV records, in file order.
    A chunk of records, unlike one of lines, never splits a quoted cell
    that spans lines."""
    records = _iter_csv(lines)
    while part := _columns_of(islice(records, _JSONL_CHUNK)):
        yield part


def _gather(parts: Iterable[TraceColumns]) -> dict:
    """The fields of the TraceColumns holding the rows of every part, in
    order. Each part is copied at once into output columns that grow by
    doubling, and shrink in place to the rows read at the end. Raises
    EmptyTrace when the parts hold no row."""
    out: dict[str, np.ndarray] = {}
    index: dict[str, int] = {}  # the name table, in order of first appearance
    size = 0
    for part in parts:
        end = size + len(part)
        arrays = {k: v for k, v in vars(part).items() if isinstance(v, np.ndarray)}
        # The trailing -1 keeps code -1 (missing) missing.
        remap = [index.setdefault(name, len(index)) for name in part.names]
        arrays["name_codes"] = np.array(remap + [-1], dtype=np.int64)[part.name_codes]
        if not out or end > len(out["job_id"]):
            capacity = max(end, 2 * size)
            grown = {k: np.empty(capacity, dtype=v.dtype) for k, v in arrays.items()}
            for k, v in out.items():
                grown[k][:size] = v[:size]
            out = grown
        for k, v in arrays.items():
            out[k][size:end] = v
        size = end
    if not size:
        raise EmptyTrace("trace contains no records")
    # No view of the buffers exists, so each can give its spare capacity
    # back; a v[:size] view would keep all of it alive.
    for v in out.values():
        v.resize(size, refcheck=False)
    return {**out, "names": tuple(index)}


def _sorted_by_submit(fields: dict) -> TraceColumns:
    """The columns in fields, _gather's result, as the rows of
    TraceColumns.take(np.argsort(submit_time, kind="stable")). Each column
    is gathered on its own and replaces its source in fields at once, so
    when fields holds the only reference to the unsorted columns, the sort
    needs one spare column, not a second copy of all of them."""
    submit = fields["submit_time"]
    if np.any(submit[1:] < submit[:-1]):
        order = np.argsort(submit, kind="stable")
        del submit
        for key, column in fields.items():
            if isinstance(column, np.ndarray):
                fields[key] = column[order]
    return TraceColumns(**fields)


def parse_trace(
    source,
    fmt: str = "jsonl",
    *,
    label: str = "trace",
    machine_count: int = 1,
) -> Trace:
    """Parse a trace file into an immutable Trace.

    source may be a path or bytes, read alike. _gather's columns go
    straight to a stable sort by submit_time, which frees each unsorted
    column once sorted; the span runs from the first submit time to the last.
    """
    if fmt not in ("jsonl", "csv"):
        raise ValueError(f"unknown trace format {fmt!r}")
    if machine_count < 1:
        raise ValueError("machine_count must be positive")

    jsonl = fmt == "jsonl"
    with (_open_bytes(source) if jsonl else _open_lines(source)) as fh, \
            closing(_jsonl_parts(fh) if jsonl else _csv_parts(fh)) as parts:
        fields = _gather(parts)
    cols = _sorted_by_submit(fields)
    _release_free_heap()  # the pages of the columns the sort replaced (see _JSONL_CHUNK)
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
