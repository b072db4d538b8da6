"""Empirical workload model and scaled-down synthetic workload generation.

No parametric distributions are fitted anywhere here: the trace is the
model. Jobs are sampled whole so cross-dimension correlations survive,
and windowed sampling preserves the temporal shape of the source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .columns import NUMERIC, TraceColumns
from .errors import NoCompleteJobs, NoData, SpanTooLong
from .trace import JobRecord, Trace, hash_path

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


@dataclass(frozen=True, slots=True)
class SyntheticJob:
    submit_offset: int
    input_bytes: int
    shuffle_bytes: int
    output_bytes: int
    map_tasks: int
    reduce_tasks: int
    map_task_seconds: float
    reduce_task_seconds: float
    duration: int  # wall-clock shape of the source job, not scaled
    source_job_id: int
    name: Optional[str] = None


@dataclass
class Window:
    start_offset: int
    width: int
    member_indices: list[int]  # indices into the model's included job list


@dataclass
class WorkloadModel:
    source_label: str
    source_machine_count: int
    window_width: int
    windows: list[Window]
    trace: Trace
    included: list[JobRecord]
    excluded_count: int

    @property
    def span_seconds(self) -> int:
        return self.trace.span[1] - self.trace.span[0]


@dataclass
class SyntheticWorkload:
    jobs: list[SyntheticJob]
    target_machine_count: int
    scale_factor: float
    seed: int
    mode: str
    source_label: str
    window_width: int


@dataclass
class DataPlan:
    files: list[tuple[str, int]]  # (file_id, size_bytes)
    total_bytes: int
    notes: str = (
        "one private input file per distinct source job; access-frequency "
        "skew and shared-input structure across jobs are not modeled"
    )


def build_workload_model(trace: Trace, window_width: int = 3600) -> WorkloadModel:
    """Partition replayable jobs into contiguous time windows."""
    if window_width <= 0:
        raise ValueError("window_width must be positive")
    included = [
        r for r in trace.records
        if all(getattr(r, name) is not None for name in REQUIRED_FIELDS)
    ]
    if not included:
        raise NoCompleteJobs("no job carries every dimension needed for synthesis")

    start = trace.span[0]
    span = trace.span[1] - start
    n_windows = span // window_width + 1
    windows = [
        Window(start_offset=w * window_width, width=window_width, member_indices=[])
        for w in range(n_windows)
    ]
    for i, r in enumerate(included):
        windows[(r.submit_time - start) // window_width].member_indices.append(i)
    return WorkloadModel(
        source_label=trace.label,
        source_machine_count=trace.machine_count,
        window_width=window_width,
        windows=windows,
        trace=trace,
        included=included,
        excluded_count=len(trace.records) - len(included),
    )


def _scale_count(count: int, factor: float) -> int:
    # A job keeps at least one task per phase it had; zero stays zero so
    # map-only jobs stay map-only.
    if count == 0:
        return 0
    return max(1, round(count * factor))


def _scale_job(record: JobRecord, offset: int, factor: float) -> SyntheticJob:
    return SyntheticJob(
        submit_offset=offset,
        input_bytes=round(record.input_bytes * factor),
        shuffle_bytes=round(record.shuffle_bytes * factor),
        output_bytes=round(record.output_bytes * factor),
        map_tasks=_scale_count(record.map_tasks, factor),
        reduce_tasks=_scale_count(record.reduce_tasks, factor),
        map_task_seconds=record.map_task_seconds * factor,
        reduce_task_seconds=record.reduce_task_seconds * factor,
        duration=record.duration,
        source_job_id=record.job_id,
        name=record.name,
    )


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
    rounding where a window is only partially covered.
    """
    if target_machine_count < 1:
        raise ValueError("target_machine_count must be >= 1")
    if target_span <= 0:
        raise ValueError("target_span must be positive")
    factor = target_machine_count / model.source_machine_count
    span = model.span_seconds
    start = model.trace.span[0]

    jobs: list[SyntheticJob] = []
    full = target_span == max(span, 1)
    if mode == "replay_scaled":
        # A trace occupying a single instant still offers a 1-second window.
        if target_span > max(span, 1):
            raise SpanTooLong(f"target_span {target_span} exceeds source span {span}")
        for r in model.included:
            offset = r.submit_time - start
            # Half-open [0, target_span); a full-span replay also keeps the
            # job sitting exactly on the end boundary.
            if offset < target_span or (full and offset == span):
                jobs.append(_scale_job(r, offset, factor))
    elif mode == "sampled":
        width = model.window_width
        n_target = (target_span - 1) // width + 1
        n_source = len(model.windows)
        for w in range(n_target):
            rng = np.random.default_rng(np.random.SeedSequence((seed, w)))
            src = model.windows[w % n_source]  # cycle if the target span is longer
            lo = w * width
            if full:
                # Full-span synthesis reproduces every window count exactly,
                # including the final partially-occupied source window.
                count = len(src.member_indices)
                coverage = min(width, span + 1 - lo)
            else:
                coverage = min(width, target_span - lo)
                expected = len(src.member_indices) * (coverage / width)
                count = int(expected) + (1 if rng.random() < expected - int(expected) else 0)
            if count == 0:
                continue
            picks = rng.integers(0, len(src.member_indices), size=count)
            offsets = np.sort(rng.integers(lo, lo + coverage, size=count))
            for off, p in zip(offsets, picks):
                jobs.append(_scale_job(model.included[src.member_indices[p]], int(off), factor))
    else:
        raise ValueError(f"unknown synthesis mode {mode!r}")

    return SyntheticWorkload(
        jobs=jobs,
        target_machine_count=target_machine_count,
        scale_factor=factor,
        seed=seed,
        mode=mode,
        source_label=model.source_label,
        window_width=model.window_width,
    )


def data_prepopulation_plan(workload: SyntheticWorkload) -> DataPlan:
    """Input files to pre-populate: one per distinct source job, at the
    scaled input size."""
    if not workload.jobs:
        raise NoData("workload has no jobs to plan for")
    files: list[tuple[str, int]] = []
    seen: set[int] = set()
    for job in workload.jobs:
        if job.source_job_id in seen:
            continue
        seen.add(job.source_job_id)
        files.append((f"input_{job.source_job_id}", job.input_bytes))
    return DataPlan(files=files, total_bytes=sum(size for _, size in files))


def workload_to_trace(workload: SyntheticWorkload, label: Optional[str] = None) -> Trace:
    """Re-express a synthetic workload in the canonical trace schema.

    Synthetic jobs get fresh sequential job ids; input paths follow the
    pre-population plan (one file per distinct source job) and each job
    writes its own output path.
    """
    jobs = workload.jobs
    if not jobs:
        raise NoData("workload has no jobs")
    submit = [job.submit_offset for job in jobs]
    columns = TraceColumns.from_fields([
        range(len(jobs)),
        submit,
        [job.name for job in jobs],
        *([getattr(job, f) for job in jobs] for f in NUMERIC),  # SyntheticJob shares the names
        [hash_path(f"synthetic/input/{job.source_job_id}") for job in jobs],
        [hash_path(f"synthetic/output/{i}") for i in range(len(jobs))],
    ])
    return Trace(
        label=label or f"synthetic:{workload.source_label}",
        machine_count=workload.target_machine_count,
        columns=columns,
        span=(0, max(submit)),
    )
