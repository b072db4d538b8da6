"""Command-line front end.

Subcommands: analyze, burstiness, cluster, names, synthesize, simulate,
cachesim. Exit status 0 on success, 1 on usage errors, 2 on data errors.
All randomized steps take --seed, a non-negative integer (default 42,
overridable via the MRTRACE_SEED environment variable, where any other
value is a usage error); outputs are written atomically.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional

from . import compute_patterns as cp
from . import temporal as ts
from .cache_sim import CacheConfig, access_stream, simulate_cache
from .errors import MRTraceError
from .replay_sim import SimConfig, sim_occupancy_series, simulate
from .report import (
    DEFAULT_BUCKET_WIDTH,
    DEFAULT_CLUSTER_SAMPLE_CAP,
    DEFAULT_K_MAX,
    DEFAULT_SEED,
    atomic_open,
    cluster_list,
    json_text,
    name_columns,
    render_cluster_table,
    series_columns,
    tsv_text,
    write_atomic,
    write_json_atomic,
    write_report,
    write_tsv_atomic,
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
    p.add_argument("--cluster-sample", type=_positive_int, default=DEFAULT_CLUSTER_SAMPLE_CAP,
                   help="subsample cap for k-means on very large traces")

    p = sub.add_parser("burstiness", help="percentile-to-median curve for one dimension")
    _add_trace_args(p)
    p.add_argument("--dimension", default="compute_time_task_seconds", choices=ts.DIMENSIONS)
    p.add_argument("--bucket-width", type=_positive_int, default=DEFAULT_BUCKET_WIDTH)
    p.add_argument("--out", help="TSV output (ratio, percentile); default stdout")

    p = sub.add_parser("cluster", help="k-means job typing with elbow k selection")
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
    p.add_argument("--capacity", type=_positive_int, required=True, help="cache capacity in bytes")
    p.add_argument("--admission", type=_admission, default="all",
                   help='"all" or "size:<bytes>" for size-threshold admission')
    p.add_argument("--eviction", type=_eviction, default="lru",
                   help='"lru" or "ttl:<seconds>" for idle-time eviction')
    p.add_argument("--sweep", type=_capacities, default=None,
                   help="comma-separated capacities; emits a TSV sweep instead")
    p.add_argument("--out", help="report JSON or sweep TSV; default stdout")

    return parser


def _emit_json(obj, out_path):
    if out_path:
        write_json_atomic(Path(out_path), obj)
    else:
        sys.stdout.write(json_text(obj))


def _emit_tsv(columns, out_path):
    if out_path:
        write_tsv_atomic(Path(out_path), columns)
    else:
        sys.stdout.write(tsv_text(columns))


def _cmd_analyze(args) -> int:
    trace = _load_trace(args)
    report = write_report(
        trace,
        Path(args.out) if args.out else None,
        Path(args.plots) if args.plots else None,
        seed=args.seed,
        bucket_width=args.bucket_width,
        k_max=args.k_max,
        cluster_sample_cap=args.cluster_sample,
    )
    if not args.out:
        _emit_json(report, None)
    return 0


def _cmd_burstiness(args) -> int:
    trace = _load_trace(args)
    curve = ts.burstiness_curve(ts.dimension_series(trace, args.dimension, args.bucket_width))
    _emit_tsv(list(zip(*curve.points)), args.out)
    return 0


def _cmd_cluster(args) -> int:
    trace = _load_trace(args)
    matrix = cp.job_feature_vectors(trace)
    model = cp.elbow_fit(matrix, min(args.k_max, len(matrix)), seed=args.seed)
    summary = cp.summarize_clusters(trace, model)
    out = {
        "k": model.k,
        "seed": args.seed,
        "residual_variance": model.residual_variance,
        "clustered_jobs": len(matrix),
        "excluded_jobs": matrix.excluded_count,
        "clusters": cluster_list(summary),
    }
    _emit_json(out, args.out)
    if args.table:
        write_atomic(Path(args.table), render_cluster_table(summary))
    return 0


def _cmd_names(args) -> int:
    trace = _load_trace(args)
    _emit_tsv(name_columns(cp.name_breakdown(trace, args.weighting)), args.out)
    return 0


def _cmd_synthesize(args) -> int:
    trace = _load_trace(args)
    model = build_workload_model(trace, args.window_width)
    span = trace.span[1] - trace.span[0]
    target_span = args.target_span if args.target_span is not None else max(span, 1)
    workload = synthesize(model, args.target_machines, target_span, args.mode, args.seed)
    with atomic_open(Path(args.out)) as fh:
        serialize_trace(workload.jobs, fh)
    if args.data_plan:
        write_tsv_atomic(Path(args.data_plan), list(zip(*data_prepopulation_plan(workload).files)))
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
    # leaves no partial output.
    series = sim_occupancy_series(result, args.bucket_width) if args.occupancy else None
    out = {
        "jobs": len(result.job_timings),
        "makespan_seconds": result.makespan,
        "busy_map_slot_seconds": result.busy_map_slot_seconds,
        "busy_reduce_slot_seconds": result.busy_reduce_slot_seconds,
        "total_slots": result.total_slots,
        # A JobTiming's fields, in order, are the keys of its JSON object.
        "job_timings": [vars(t) for t in result.job_timings],
    }
    _emit_json(out, args.out)
    if series is not None:
        _emit_tsv(series_columns(series), args.occupancy)
    return 0


def _cache_config(args, capacity: int) -> CacheConfig:
    (admission, threshold), (eviction, ttl) = args.admission, args.eviction
    return CacheConfig(capacity_bytes=capacity, admission=admission, size_threshold=threshold,
                       eviction=eviction, idle_ttl=ttl)


def _cmd_cachesim(args) -> int:
    trace = _load_trace(args)
    stream = access_stream(trace)
    if args.sweep:
        rows = [("capacity_bytes", "hit_rate_by_accesses", "hit_rate_by_bytes")]
        for cap in args.sweep:
            report = simulate_cache(stream, _cache_config(args, cap))
            rows.append((cap, report.hit_rate_by_accesses, report.hit_rate_by_bytes))
        _emit_tsv(list(zip(*rows)), args.out)
        return 0
    report = simulate_cache(stream, _cache_config(args, args.capacity))
    _emit_json(
        {
            "accesses": report.accesses,
            "hits": report.hits,
            "hit_rate_by_accesses": report.hit_rate_by_accesses,
            "hit_rate_by_bytes": report.hit_rate_by_bytes,
            "evictions": report.evictions,
            "peak_resident_bytes": report.peak_resident_bytes,
        },
        args.out,
    )
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
