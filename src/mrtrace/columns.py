"""Column storage of a trace's jobs: the one module that decides how a
job is stored.

job_id and submit_time are int64; the eight numeric dimensions are
float64 with NaN for missing; path digests are uint64 with a presence
mask, since uint64 has no NaN; names are codes into a table of distinct
names, -1 for missing. JobRecord is the row type, and RecordView turns
the columns back into records.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import starmap
from typing import Optional

import numpy as np


@dataclass(frozen=True, slots=True)
class JobRecord:
    """Per-job summary: identifiers, sizes, durations, task times, path digests."""

    job_id: int
    submit_time: int
    name: Optional[str] = None
    duration: Optional[int] = None
    input_bytes: Optional[int] = None
    shuffle_bytes: Optional[int] = None
    output_bytes: Optional[int] = None
    map_task_seconds: Optional[float] = None
    reduce_task_seconds: Optional[float] = None
    map_tasks: Optional[int] = None
    reduce_tasks: Optional[int] = None
    input_path_hash: Optional[int] = None
    output_path_hash: Optional[int] = None


# JobRecord's fields, in order.
ROW_FIELDS = ("job_id", "submit_time", "name", "duration", "input_bytes", "shuffle_bytes",
              "output_bytes", "map_task_seconds", "reduce_task_seconds", "map_tasks",
              "reduce_tasks", "input_path_hash", "output_path_hash")
NUMERIC = ROW_FIELDS[3:11]  # float64 columns, NaN = missing
FLOAT_FIELDS = ("map_task_seconds", "reduce_task_seconds")
# Integer fields live in float64 columns, which hold every integer up to
# 2**53 exactly.
MAX_EXACT = 1 << 53

_CHUNK = 65536


@dataclass(frozen=True, eq=False)
class TraceColumns:
    job_id: np.ndarray  # int64
    submit_time: np.ndarray  # int64
    name_codes: np.ndarray  # int64 index into names, -1 = missing
    names: tuple[str, ...]  # distinct names in order of first appearance
    duration: np.ndarray  # float64, NaN = missing (same for the rest)
    input_bytes: np.ndarray
    shuffle_bytes: np.ndarray
    output_bytes: np.ndarray
    map_task_seconds: np.ndarray
    reduce_task_seconds: np.ndarray
    map_tasks: np.ndarray
    reduce_tasks: np.ndarray
    input_path_hash: np.ndarray  # uint64
    input_hash_present: np.ndarray  # bool
    output_path_hash: np.ndarray
    output_hash_present: np.ndarray

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @classmethod
    def from_fields(cls, values: Sequence[Sequence]) -> "TraceColumns":
        """Columns from one value list per JobRecord field, in field order,
        None for missing. Raises ValueError when a value does not fit."""
        job_id, submit, names, *numeric, in_hash, out_hash = values
        index: dict[str, int] = {}
        codes = np.fromiter(
            (-1 if v is None else index.setdefault(v, len(index)) for v in names),
            dtype=np.int64, count=len(names),
        )
        try:
            return cls(
                job_id=np.asarray(job_id, dtype=np.int64),
                submit_time=np.asarray(submit, dtype=np.int64),
                name_codes=codes,
                names=tuple(index),
                # np.asarray turns None into NaN during float conversion.
                **{f: np.asarray(v, dtype=np.float64) for f, v in zip(NUMERIC, numeric)},
                input_path_hash=np.asarray([v or 0 for v in in_hash], dtype=np.uint64),
                input_hash_present=np.asarray([v is not None for v in in_hash], dtype=bool),
                output_path_hash=np.asarray([v or 0 for v in out_hash], dtype=np.uint64),
                output_hash_present=np.asarray([v is not None for v in out_hash], dtype=bool),
            )
        except OverflowError as exc:
            raise ValueError(f"job value does not fit its column: {exc}") from exc

    def __len__(self) -> int:
        return int(self.job_id.size)

    def take(self, index) -> "TraceColumns":
        """Rows selected (and ordered) by an index array or slice."""
        return TraceColumns(**{
            k: v[index] if isinstance(v, np.ndarray) else v for k, v in vars(self).items()
        })

    def hash_column(self, side: str) -> tuple[np.ndarray, np.ndarray]:
        if side == "input":
            return self.input_path_hash, self.input_hash_present
        if side == "output":
            return self.output_path_hash, self.output_hash_present
        raise ValueError(f"side must be 'input' or 'output', got {side!r}")

    def bytes_column(self, side_or_dim: str) -> np.ndarray:
        try:
            return getattr(self, f"{side_or_dim}_bytes")
        except AttributeError:
            raise ValueError(f"unknown byte dimension {side_or_dim!r}")

    def missing_counts(self) -> dict[str, int]:
        """Jobs lacking each optional field, in JobRecord field order."""
        counts = {"name": int((self.name_codes < 0).sum())}
        counts.update((f, int(np.isnan(getattr(self, f)).sum())) for f in NUMERIC)
        for side in ("input", "output"):
            counts[f"{side}_path_hash"] = int((~self.hash_column(side)[1]).sum())
        return counts

    def values(self, index=slice(None)) -> list[list]:
        """Python values of the selected rows, one list per JobRecord field:
        integer fields as int, float fields as float, missing as None."""
        part = self.take(index)
        names = np.array([*self.names, None], dtype=object)  # code -1 -> None
        values = [part.job_id.tolist(), part.submit_time.tolist(), names[part.name_codes].tolist()]
        for f in NUMERIC:
            col = getattr(part, f)
            gaps = np.isnan(col)
            if f not in FLOAT_FIELDS:
                col = np.where(gaps, 0, col).astype(np.int64)
            values.append(_fill_none(col.tolist(), gaps))
        for side in ("input", "output"):
            digests, present = part.hash_column(side)
            values.append(_fill_none(digests.tolist(), ~present))
        return values

    def tuples(self) -> Iterator[tuple]:
        """Every row as a tuple of Python values in JobRecord field order,
        converted a chunk at a time so a large trace is never held as
        Python objects all at once."""
        for start in range(0, len(self), _CHUNK):
            yield from zip(*self.values(slice(start, start + _CHUNK)))


def _fill_none(values: list, gaps: np.ndarray) -> list:
    for i in np.flatnonzero(gaps).tolist():
        values[i] = None
    return values


class RecordView(Sequence):
    """Read-only sequence of JobRecords over a trace's columns."""

    __slots__ = ("_cols",)

    def __init__(self, cols: TraceColumns):
        self._cols = cols

    def __len__(self) -> int:
        return len(self._cols)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(JobRecord, *self._cols.values(i)))
        i = range(len(self))[i]  # negative indices and IndexError as for a list
        return JobRecord(*(v[0] for v in self._cols.values(slice(i, i + 1))))

    def __iter__(self):
        return starmap(JobRecord, self._cols.tuples())
