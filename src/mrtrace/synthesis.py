"""Empirical workload model and scaled-down synthetic workload generation.

No parametric distributions are fitted anywhere here: the trace is the
model. Jobs are sampled whole so cross-dimension correlations survive,
and windowed sampling preserves the temporal shape of the source. A
synthetic workload is a Trace plus the source job id of each of its
jobs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .columns import FLOAT_FIELDS, MAX_EXACT
from .errors import NoCompleteJobs, NoData, ScaledValueTooLarge, SpanTooLong, TooManyBuckets
from .temporal import MAX_BUCKETS
from .trace import Trace, numbered_path_digests

# A job must carry all of these to be replayable; jobs missing any are
# excluded from the model and counted.
REQUIRED_FIELDS = (
    "input_bytes",
    "shuffle_bytes",
    "output_bytes",
    "duration",
    "map_task_seconds",
    "reduce_task_seconds",
    "map_tasks",
    "reduce_tasks",
)


@dataclass
class WorkloadModel:
    trace: Trace
    window_width: int
    included: np.ndarray  # int64 rows of trace that carry every REQUIRED_FIELDS dimension
    offsets: np.ndarray  # submit time of each included row less the span start, sorted
    excluded_count: int

    @property
    def span_seconds(self) -> int:
        return self.trace.span[1] - self.trace.span[0]

    @property
    def n_windows(self) -> int:
        return self.span_seconds // self.window_width + 1

    def window(self, w: int) -> np.ndarray:
        """Trace rows of window w, those at offsets [w, w + 1) x window_width.
        The trace is sorted, so they are a contiguous run of included."""
        # The offsets below a bound b are those at most b - 1. No offset
        # passes the span, so clamped to it, b - 1 finds the same rows and
        # fits int64, where numpy compares exactly.
        span, width = self.span_seconds, self.window_width
        lo = self.offsets.searchsorted(min(w * width - 1, span), side="right")
        hi = self.offsets.searchsorted(min((w + 1) * width - 1, span), side="right")
        return self.included[lo:hi]


@dataclass
class SyntheticWorkload:
    jobs: Trace  # labelled synthetic:<source>, at the target machine count
    source_job_id: np.ndarray  # int64, the source job each synthetic job copies
    scale_factor: float


@dataclass
class DataPlan:
    """One private input file per distinct source job: access-frequency skew
    and shared-input structure across jobs are not modeled."""

    file_ids: list[str]
    sizes: list[int]  # bytes, one per file


def build_workload_model(trace: Trace, window_width: int = 3600) -> WorkloadModel:
    """Partition replayable jobs into contiguous time windows."""
    if window_width <= 0:
        raise ValueError("window_width must be positive")
    cols = trace.columns
    complete = ~np.any([np.isnan(getattr(cols, f)) for f in REQUIRED_FIELDS], axis=0)
    included = np.flatnonzero(complete)
    if not included.size:
        raise NoCompleteJobs("no job carries every dimension needed for synthesis")
    span = trace.span[1] - trace.span[0]
    if span > np.iinfo(np.int64).max:
        raise SpanTooLong(f"source span {span} does not fit the int64 submit times of a workload")
    return WorkloadModel(
        trace=trace,
        window_width=window_width,
        included=included,
        offsets=cols.submit_time[included] - trace.span[0],
        excluded_count=len(trace) - included.size,
    )


def _scale_count(counts: np.ndarray, factor: float) -> np.ndarray:
    # A job keeps at least one task per phase it had; zero stays zero so
    # map-only jobs stay map-only.
    return np.where(counts == 0, 0, np.maximum(1, np.rint(counts * factor)))


def _scaled_workload(
    model: WorkloadModel, rows: np.ndarray, offsets: np.ndarray, target_machine_count: int
) -> SyntheticWorkload:
    """The source jobs at rows, submitted at offsets, with byte sizes and
    task metrics scaled to the target cluster. Job ids are fresh and
    sequential; input paths follow the pre-population plan (one file per
    distinct source job) and each job writes its own output path.

    Raises ScaledValueTooLarge when a scaled integer field exceeds 2**53
    (the most a trace file holds exactly) or a scaled float is not finite.
    """
    if not rows.size:
        raise NoData("workload has no jobs")
    source = model.trace
    try:
        factor = target_machine_count / source.machine_count
    except OverflowError:
        raise ScaledValueTooLarge(f"{target_machine_count} target machines over {source.machine_count} "
                                  "source machines is a scale factor past the 64-bit float range") from None
    src = source.columns.take(rows)
    n = len(src)
    with np.errstate(over="ignore"):  # an overflow to inf is reported below
        scaled = {
            **{f: np.rint(getattr(src, f) * factor)
               for f in ("input_bytes", "shuffle_bytes", "output_bytes")},
            "map_task_seconds": src.map_task_seconds * factor,
            "reduce_task_seconds": src.reduce_task_seconds * factor,
            "map_tasks": _scale_count(src.map_tasks, factor),
            "reduce_tasks": _scale_count(src.reduce_tasks, factor),
        }
    for f, col in scaled.items():
        bad = ~np.isfinite(col) if f in FLOAT_FIELDS else col > MAX_EXACT
        if bad.any():
            row = int(np.argmax(bad))
            limit = "not finite" if f in FLOAT_FIELDS else f"above {MAX_EXACT}"
            raise ScaledValueTooLarge(
                f"{f} of source job {src.job_id[row]} scaled by {factor:g} is "
                f"{col[row]:g}, {limit}"
            )
    job_id = np.arange(n, dtype=np.int64)
    columns = replace(
        src,
        job_id=job_id,
        submit_time=offsets,
        **scaled,
        input_path_hash=numbered_path_digests("synthetic/input/", src.job_id),
        input_hash_present=np.ones(n, dtype=bool),
        output_path_hash=numbered_path_digests("synthetic/output/", job_id),
        output_hash_present=np.ones(n, dtype=bool),
    )
    jobs = Trace(
        label=f"synthetic:{source.label}",
        machine_count=target_machine_count,
        columns=columns,
        span=(0, int(offsets[-1])),
    )
    return SyntheticWorkload(jobs=jobs, source_job_id=src.job_id, scale_factor=factor)


def synthesize(
    model: WorkloadModel,
    target_machine_count: int,
    target_span: int,
    mode: str = "sampled",
    seed: int = 42,
) -> SyntheticWorkload:
    """Produce a synthetic workload scaled to the target cluster size.

    replay_scaled keeps every source job at its original offset with byte
    sizes and task metrics multiplied by the machine-count ratio. sampled
    draws whole jobs per window, with replacement, from the matching
    source window; window counts follow the source except for stochastic
    rounding where a window is only partially covered. Raises NoData when
    the workload would hold no jobs.
    """
    if target_machine_count < 1:
        raise ValueError("target_machine_count must be >= 1")
    if target_span <= 0:
        raise ValueError("target_span must be positive")
    span = model.span_seconds
    full = target_span == max(span, 1)
    if mode == "replay_scaled":
        # A trace occupying a single instant still offers a 1-second window.
        if target_span > max(span, 1):
            raise SpanTooLong(f"target_span {target_span} exceeds source span {span}")
        # Half-open [0, target_span); a full-span replay also keeps the
        # job sitting exactly on the end boundary.
        keep = (model.offsets < target_span) | (full & (model.offsets == span))
        return _scaled_workload(model, model.included[keep], model.offsets[keep],
                                target_machine_count)
    if mode != "sampled":
        raise ValueError(f"unknown synthesis mode {mode!r}")

    width = model.window_width
    n_target = (target_span - 1) // width + 1
    if n_target > MAX_BUCKETS:
        raise TooManyBuckets(
            f"a target span of {target_span} s at window width {width} s needs {n_target} "
            f"windows, more than {MAX_BUCKETS}"
        )
    n_source = model.n_windows
    rows, offsets = [], []
    for w in range(n_target):
        rng = np.random.default_rng(np.random.SeedSequence((seed, w)))
        src = model.window(w % n_source)  # cycle if the target span is longer
        lo = w * width
        if full:
            # Full-span synthesis reproduces every window count exactly,
            # including the final partially-occupied source window.
            count = src.size
            coverage = min(width, span + 1 - lo)
        else:
            coverage = min(width, target_span - lo)
            expected = src.size * (coverage / width)
            count = int(expected) + (1 if rng.random() < expected - int(expected) else 0)
        if count == 0:
            continue
        rows.append(src[rng.integers(0, src.size, size=count)])
        offsets.append(np.sort(rng.integers(lo, lo + coverage, size=count)))
    if not rows:
        raise NoData("workload has no jobs")
    return _scaled_workload(model, np.concatenate(rows), np.concatenate(offsets),
                            target_machine_count)


def data_prepopulation_plan(workload: SyntheticWorkload) -> DataPlan:
    """Input files to pre-populate: one per distinct source job, at the
    scaled input size, in order of first use."""
    first = np.sort(np.unique(workload.source_job_id, return_index=True)[1])
    file_ids = [f"input_{s}" for s in workload.source_job_id[first].tolist()]
    sizes = [int(s) for s in workload.jobs.columns.input_bytes[first].tolist()]
    return DataPlan(file_ids=file_ids, sizes=sizes)
