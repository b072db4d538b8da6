"""Command-line front end.

Subcommands: analyze, burstiness, cluster, names, synthesize, simulate,
cachesim. `cluster` prints analyze's clusters section, k-means job typing
over a seeded sample of at most 50,000 complete jobs. Exit status 0 on
success, 1 on usage errors, 2 on data errors. All randomized steps take
--seed, a non-negative integer (default 42, overridable via the
MRTRACE_SEED environment variable, where any other value is a usage
error). This module writes every output file, each through atomic_open;
`_outputs` opens all of a command's outputs before writing any, so on exit 2
none is written. `mrtrace.report` only builds the sections and their text.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Optional

from . import compute_patterns as cp
from . import temporal as ts
from .cache_sim import CacheConfig, access_stream, simulate_cache
from .errors import MRTraceError
from .replay_sim import SimConfig, sim_occupancy_series, simulate
from .report import (
    DEFAULT_BUCKET_WIDTH,
    DEFAULT_K_MAX,
    DEFAULT_SEED,
    Records,
    ReportBuilder,
    cluster_section,
    json_text,
    name_columns,
    series_columns,
    tsv_text,
)
from .synthesis import build_workload_model, data_prepopulation_plan, synthesize
from .trace import parse_trace, serialize_trace

USAGE_ERROR = 1
DATA_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None


def _positive_int(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _seed(text: str) -> int:
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _admission(text: str) -> tuple[str, Optional[int]]:
    if text == "all":
        return "all", None
    if text.startswith("size:"):
        return "size_at_most", _positive_int(text[5:])
    raise argparse.ArgumentTypeError(f'expected "all" or "size:<bytes>", got {text!r}')


def _eviction(text: str) -> tuple[str, Optional[int]]:
    if text == "lru":
        return "lru", None
    if text.startswith("ttl:"):
        return "idle_ttl", _positive_int(text[4:])
    raise argparse.ArgumentTypeError(f'expected "lru" or "ttl:<seconds>", got {text!r}')


def _capacities(text: str) -> list[int]:
    return [_positive_int(c) for c in text.split(",")]


def _add_trace_args(p: _Parser):
    p.add_argument("--trace", required=True, help="trace file (jsonl or csv)")
    p.add_argument("--format", choices=("jsonl", "csv"), default=None,
                   help="trace format; default inferred from extension")
    p.add_argument("--label", default=None, help="workload label (default: file stem)")
    p.add_argument("--machines", type=_positive_int, default=1, help="cluster machine count")


def _load_trace(args):
    path = Path(args.trace)
    fmt = args.format or ("csv" if path.suffix.lower() == ".csv" else "jsonl")
    label = args.label or path.stem
    return parse_trace(path, fmt, label=label, machine_count=args.machines)


def build_parser() -> _Parser:
    parser = _Parser(prog="mrtrace", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[], help="run every applicable analysis")
    _add_trace_args(p)
    p.add_argument("--out", help="report JSON path (default: stdout)")
    p.add_argument("--plots", help="directory for per-figure TSV plot data")
    p.add_argument("--bucket-width", type=_positive_int, default=DEFAULT_BUCKET_WIDTH)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--k-max", type=_positive_int, default=DEFAULT_K_MAX)

    p = sub.add_parser("burstiness", help="percentile-to-median curve for one dimension")
    _add_trace_args(p)
    p.add_argument("--dimension", default="compute_time_task_seconds", choices=ts.DIMENSIONS)
    p.add_argument("--bucket-width", type=_positive_int, default=DEFAULT_BUCKET_WIDTH)
    p.add_argument("--out", help="TSV output (ratio, percentile); default stdout")

    p = sub.add_parser("cluster", help="analyze's clusters section: k-means job typing over a "
                                       f"seeded sample of at most {cp.CLUSTER_SAMPLE_CAP:,} complete jobs")
    _add_trace_args(p)
    p.add_argument("--k-max", type=_positive_int, default=DEFAULT_K_MAX)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--out", help="cluster summary JSON; default stdout")
    p.add_argument("--table", help="aligned-column text table output path")

    p = sub.add_parser("names", help="job-name first-word breakdown")
    _add_trace_args(p)
    p.add_argument("--weighting", default="jobs", choices=("jobs", "io_bytes", "task_time"))
    p.add_argument("--out", help="TSV output (word, fraction); default stdout")

    p = sub.add_parser("synthesize", help="build a scaled-down synthetic workload")
    _add_trace_args(p)
    p.add_argument("--target-machines", type=_positive_int, required=True)
    p.add_argument("--target-span", type=_positive_int, default=None,
                   help="seconds of workload to produce (default: source span)")
    p.add_argument("--mode", default="sampled", choices=("sampled", "replay_scaled"))
    p.add_argument("--window-width", type=_positive_int, default=DEFAULT_BUCKET_WIDTH)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--out", required=True, help="synthetic workload jsonl")
    p.add_argument("--data-plan", help="pre-population plan TSV (file_id, size_bytes)")

    p = sub.add_parser("simulate", help="replay a workload on a slot-based cluster model")
    p.add_argument("--workload", required=True, help="workload jsonl (canonical schema)")
    p.add_argument("--nodes", type=_positive_int, required=True)
    p.add_argument("--map-slots", type=_positive_int, default=2)
    p.add_argument("--reduce-slots", type=_positive_int, default=2)
    p.add_argument("--scheduler", default="fifo", choices=("fifo", "fair"))
    p.add_argument("--bucket-width", type=_positive_int, default=DEFAULT_BUCKET_WIDTH)
    p.add_argument("--out", help="result JSON; default stdout")
    p.add_argument("--occupancy", help="occupancy TSV output path")

    p = sub.add_parser("cachesim", help="trace-driven storage cache simulation")
    _add_trace_args(p)
    p.add_argument("--capacity", type=_positive_int,
                   help="cache capacity in bytes; required without --sweep")
    p.add_argument("--admission", type=_admission, default="all",
                   help='"all" or "size:<bytes>" for size-threshold admission')
    p.add_argument("--eviction", type=_eviction, default="lru",
                   help='"lru" or "ttl:<seconds>" for idle-time eviction')
    p.add_argument("--sweep", type=_capacities, default=None,
                   help="comma-separated capacities; emits a TSV sweep instead")
    p.add_argument("--out", help="report JSON or sweep TSV; default stdout")

    return parser


@contextmanager
def atomic_open(path):
    """A text file that replaces path only when the block completes: it is
    written to a temp file and renamed, so readers never see partial output."""
    path = Path(path)
    # os.replace onto a directory would fail only at the rename, after
    # _outputs had renamed other outputs.
    if path.is_dir():
        raise IsADirectoryError(f"{path} is a directory")
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@contextmanager
def _outputs(out_path, *paths):
    """Files for a command's outputs: stdout for an out_path of None, None
    for any other None, and an atomic_open temp file for each path. All are
    created before any is written and renamed only when the block
    completes, so an error leaves none of them behind."""
    with ExitStack() as stack:
        files = [stack.enter_context(atomic_open(p)) if p else None for p in (out_path, *paths)]
        yield [files[0] or sys.stdout, *files[1:]]


def _cmd_analyze(args) -> int:
    builder = ReportBuilder(_load_trace(args), seed=args.seed, bucket_width=args.bucket_width,
                            k_max=args.k_max)
    report = builder.build()
    table, tsvs = None, []
    if args.plots:
        plots = Path(args.plots)
        plots.mkdir(parents=True, exist_ok=True)
        table = plots / "table2_clusters.txt" if builder.cluster_table else None
        tsvs = [plots / name for name in builder.plots]
    with _outputs(args.out, table, *tsvs) as (out, table_file, *tsv_files):
        out.write(json_text(report))
        if table_file:
            table_file.write(builder.cluster_table)
        for fh, columns in zip(tsv_files, builder.plots.values()):
            fh.write(tsv_text(columns))
    return 0


def _cmd_burstiness(args) -> int:
    trace = _load_trace(args)
    curve = ts.burstiness_curve(ts.dimension_series(trace, args.dimension, args.bucket_width))
    with _outputs(args.out) as (out,):
        out.write(tsv_text((curve.ratios, curve.percentiles)))
    return 0


def _cmd_cluster(args) -> int:
    trace = _load_trace(args)
    matrix, k_max, sampled_from = cp.cluster_sample(trace, args.seed, args.k_max)
    model = cp.elbow_fit(matrix, k_max, seed=args.seed)
    section, table_text = cluster_section(model, args.seed, k_max, sampled_from)
    with _outputs(args.out, args.table) as (out, table):
        out.write(json_text(section))
        if table:
            table.write(table_text)
    return 0


def _cmd_names(args) -> int:
    trace = _load_trace(args)
    breakdown = cp.name_breakdown(trace, args.weighting)
    with _outputs(args.out) as (out,):
        out.write(tsv_text(name_columns(breakdown)))
    return 0


def _cmd_synthesize(args) -> int:
    trace = _load_trace(args)
    model = build_workload_model(trace, args.window_width)
    span = trace.span[1] - trace.span[0]
    target_span = args.target_span if args.target_span is not None else max(span, 1)
    workload = synthesize(model, args.target_machines, target_span, args.mode, args.seed)
    with _outputs(args.out, args.data_plan) as (out, plan):
        serialize_trace(workload.jobs, out)
        if plan:
            data_plan = data_prepopulation_plan(workload)
            plan.write(tsv_text((data_plan.file_ids, data_plan.sizes)))
    print(
        f"synthesized {len(workload.jobs)} jobs at scale {workload.scale_factor:.6g} "
        f"({args.mode}), seed {args.seed}",
        file=sys.stderr,
    )
    return 0


def _cmd_simulate(args) -> int:
    path = Path(args.workload)
    trace = parse_trace(path, "jsonl", label=path.stem)
    config = SimConfig(
        nodes=args.nodes,
        map_slots_per_node=args.map_slots,
        reduce_slots_per_node=args.reduce_slots,
        scheduler=args.scheduler,
    )
    result = simulate(trace, config)
    # Built before anything is written, so a series that cannot be built
    # leaves nothing on stdout either.
    series = sim_occupancy_series(result, args.bucket_width) if args.occupancy else None
    out = {
        "jobs": len(result.submit),
        "makespan_seconds": result.makespan,
        "busy_map_slot_seconds": result.busy_map_slot_seconds,
        "busy_reduce_slot_seconds": result.busy_reduce_slot_seconds,
        "total_slots": result.total_slots,
        "job_timings": Records(submit=result.submit, first_task_start=result.first_task_start,
                               completion=result.completion),
    }
    with _outputs(args.out, args.occupancy) as (out_file, occupancy):
        out_file.write(json_text(out))
        if occupancy:
            occupancy.write(tsv_text(series_columns(series)))
    return 0


def _cache_config(args, capacity: int) -> CacheConfig:
    (admission, threshold), (eviction, ttl) = args.admission, args.eviction
    return CacheConfig(capacity_bytes=capacity, admission=admission, size_threshold=threshold,
                       eviction=eviction, idle_ttl=ttl)


def _cmd_cachesim(args) -> int:
    trace = _load_trace(args)
    stream = access_stream(trace)
    if args.sweep:
        reports = [simulate_cache(stream, _cache_config(args, cap)) for cap in args.sweep]
        text = tsv_text((["capacity_bytes", *args.sweep],
                         ["hit_rate_by_accesses", *(r.hit_rate_by_accesses for r in reports)],
                         ["hit_rate_by_bytes", *(r.hit_rate_by_bytes for r in reports)]))
    else:
        report = simulate_cache(stream, _cache_config(args, args.capacity))
        text = json_text({
            "accesses": report.accesses,
            "hits": report.hits,
            "hit_rate_by_accesses": report.hit_rate_by_accesses,
            "hit_rate_by_bytes": report.hit_rate_by_bytes,
            "evictions": report.evictions,
            "peak_resident_bytes": report.peak_resident_bytes,
        })
    with _outputs(args.out) as (out,):
        out.write(text)
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "burstiness": _cmd_burstiness,
    "cluster": _cmd_cluster,
    "names": _cmd_names,
    "synthesize": _cmd_synthesize,
    "simulate": _cmd_simulate,
    "cachesim": _cmd_cachesim,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "cachesim" and args.capacity is None and args.sweep is None:
        parser.error("the following arguments are required: --capacity (or --sweep)")
    # Only a command that takes --seed reads MRTRACE_SEED, and --seed wins.
    if "seed" in args and args.seed is None:
        try:
            args.seed = _seed(os.environ.get("MRTRACE_SEED", str(DEFAULT_SEED)))
        except argparse.ArgumentTypeError as exc:
            parser.error(f"MRTRACE_SEED: {exc}")
    try:
        return _COMMANDS[args.command](args)
    except MRTraceError as exc:
        print(f"mrtrace {args.command}: {exc}", file=sys.stderr)
        return DATA_ERROR
    except OSError as exc:
        print(f"mrtrace {args.command}: {exc}", file=sys.stderr)
        return DATA_ERROR


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
