"""Report assembly: run every applicable analysis over a trace and emit
one JSON document plus per-figure TSV plot data.

Analyses whose dimensions are missing are skipped by name, never
zero-filled, and every randomized step records its seed so reruns are
byte-identical.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from . import __version__
from . import compute_patterns as cp
from . import data_access as da
from . import temporal as ts
from .errors import MRTraceError
from .trace import FNV64_OFFSET_BASIS, HASH_ALGORITHM, Trace

DEFAULT_SEED = 42
DEFAULT_BUCKET_WIDTH = 3600
DEFAULT_K_MAX = 10
DEFAULT_CLUSTER_SAMPLE_CAP = 50_000
NAME_CUTOFF = 0.01
MAX_PLOT_POINTS = 20_000


@contextmanager
def atomic_open(path: Path):
    """A text file that replaces path only when the block completes: it is
    written to a temp file and renamed, so readers never see partial output."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_atomic(path: Path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


_INDENT = "  "
_CONTAINERS = (dict, list, tuple, np.ndarray)


def _float_text(x: float) -> str:
    """x rounded to 9 significant digits, as JSON."""
    y = float(f"{x:.9g}")
    if not math.isfinite(y):
        raise ValueError(f"Out of range float values are not JSON compliant: {y!r}")
    return float.__repr__(y)


def _scalar_text(v) -> Optional[str]:
    """JSON text of a scalar, None for a container. Floats are rounded to 9
    significant digits, numpy scalars unboxed, and bools, being ints,
    written as 1 and 0."""
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if isinstance(v, (float, np.floating)):
        return _float_text(float(v))
    if isinstance(v, (int, np.integer)):
        return int.__repr__(int(v))
    if v is None:
        return "null"
    if isinstance(v, _CONTAINERS):
        return None
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _key_text(k) -> str:
    """A dict key as json.dumps writes it: keys are not rounded."""
    if isinstance(k, str):
        return encode_basestring_ascii(k)
    # json.dumps quotes an int, float, bool or None key and raises for others.
    return json.dumps({k: 0}, allow_nan=False)[1:-len(": 0}")]


def _column_texts(values) -> Optional[list[str]]:
    """JSON texts of one column of scalars, None if it holds a container."""
    types = set(map(type, values))
    if types == {int}:
        return list(map(int.__repr__, values))
    if types == {float}:
        rounded = list(map(float, map("{:.9g}".format, values)))
        if all(map(math.isfinite, rounded)):
            return list(map(float.__repr__, rounded))
    elif any(issubclass(t, _CONTAINERS) for t in types):
        return None
    return list(map(_scalar_text, values))  # raises for a non-finite float


def _records_text(items: list, level: int) -> Optional[str]:
    """JSON text of a list of flat dicts that share one key tuple, encoded
    a column at a time and joined row by row from one template; None for
    any other list."""
    if set(map(type, items)) != {dict}:
        return None
    keys = tuple(items[0])
    if not keys or set(map(tuple, items)) != {keys}:
        return None
    columns = []
    for k in keys:
        texts = _column_texts(list(map(itemgetter(k), items)))
        if texts is None:
            return None
        columns.append(texts)
    row_indent = "\n" + _INDENT * (level + 1)
    key_indent = row_indent + _INDENT
    fields = (key_indent + _key_text(k).replace("%", "%%") + ": %s" for k in keys)
    template = "{" + ",".join(fields) + row_indent + "}"
    rows = map(template.__mod__, zip(*columns))
    return "[" + row_indent + ("," + row_indent).join(rows) + "\n" + _INDENT * level + "]"


def _encode(obj, level: int, out: list) -> None:
    """Append the indent=2 JSON text of obj at nesting depth level."""
    text = _scalar_text(obj)
    if text is not None:
        out.append(text)
        return
    inner = "\n" + _INDENT * (level + 1)
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        sep = "{" + inner
        for k, v in obj.items():
            out.append(f"{sep}{_key_text(k)}: ")
            _encode(v, level + 1, out)
            sep = "," + inner
        out.append("\n" + _INDENT * level + "}")
        return
    items = list(obj.tolist()) if isinstance(obj, np.ndarray) else obj
    if not items:
        out.append("[]")
        return
    table = _records_text(items, level)
    if table is not None:
        out.append(table)
        return
    sep = "[" + inner
    for v in items:
        out.append(sep)
        _encode(v, level + 1, out)
        sep = "," + inner
    out.append("\n" + _INDENT * level + "]")


def json_text(obj) -> str:
    """The JSON text of every JSON output, file or stdout: indent 2, floats
    (Python or numpy) rounded to 9 significant digits, numpy integers as
    ints. Strict: a NaN or infinity raises ValueError instead of writing
    invalid JSON. The bytes are those of json.dumps(..., indent=2) on the
    rounded values, but written in one recursive pass."""
    out: list[str] = []
    _encode(obj, 0, out)
    out.append("\n")
    return "".join(out)


def write_json_atomic(path: Path, obj) -> None:
    write_atomic(path, json_text(obj))


def _cell_texts(column: list) -> Iterable[str]:
    """TSV cells of one column: floats (Python or numpy) to 9 significant
    digits, anything else as str."""
    types = set(map(type, column))
    if types == {float}:
        return map("{:.9g}".format, column)
    floats = {t for t in types if issubclass(t, (float, np.floating))}
    if not floats:
        return map(str, column)
    return [f"{float(c):.9g}" if type(c) in floats else str(c) for c in column]


def tsv_text(rows: Sequence[Sequence]) -> str:
    """The TSV text of every TSV output, file or stdout: one line per row,
    formatted a column at a time. Raises ValueError when rows differ in
    width."""
    widths = set(map(len, rows))
    if len(widths) > 1:
        raise ValueError(f"TSV rows differ in width: {sorted(widths)}")
    columns = [_cell_texts(list(map(itemgetter(i), rows))) for i in range(max(widths, default=0))]
    return "\n".join(map("\t".join, zip(*columns))) + "\n"


def write_tsv_atomic(path: Path, rows) -> None:
    write_atomic(path, tsv_text(rows))


def _plot_rows(*columns: np.ndarray) -> list[tuple]:
    """Rows of parallel columns for plotting, decimated past MAX_PLOT_POINTS.

    Figures cannot resolve millions of steps; decimation keeps the first
    and last point so a curve still spans its full range.
    """
    n = columns[0].size
    if n > MAX_PLOT_POINTS:
        idx = np.unique(np.linspace(0, n - 1, MAX_PLOT_POINTS).astype(np.int64))
        columns = [c[idx] for c in columns]
    return list(zip(*(c.tolist() for c in columns)))


def _cdf_section(cdf: da.EmpiricalCDF, excluded: int) -> dict:
    vals = cdf.values
    return {
        "sample_count": cdf.sample_count,
        "excluded_missing": excluded,
        "min": float(vals[0]),
        "median": float(vals[np.searchsorted(cdf.fractions, 0.5)]),
        "max": float(vals[-1]),
    }


class ReportBuilder:
    """Accumulates sections and plot payloads for one trace."""

    def __init__(
        self,
        trace: Trace,
        *,
        seed: int = DEFAULT_SEED,
        bucket_width: int = DEFAULT_BUCKET_WIDTH,
        k_max: int = DEFAULT_K_MAX,
        cluster_sample_cap: int = DEFAULT_CLUSTER_SAMPLE_CAP,
    ):
        self.trace = trace
        self.seed = seed
        self.bucket_width = bucket_width
        self.k_max = k_max
        self.cluster_sample_cap = cluster_sample_cap
        self.sections: dict = {}
        self.plots: dict[str, list] = {}
        self.skips: list[dict] = []
        self.cluster_table: Optional[str] = None

    def _run(self, name: str, fn) -> None:
        try:
            self.sections[name] = fn()
        except MRTraceError as exc:
            self.skips.append({"section": name, "reason": f"{type(exc).__name__}: {exc}"})

    def build(self) -> dict:
        t = self.trace
        self.sections["metadata"] = {
            "tool_version": __version__,
            "label": t.label,
            "machine_count": t.machine_count,
            "record_count": len(t),
            "span": list(t.span),
            "span_hours": (t.span[1] - t.span[0]) / 3600.0,
        }
        self.sections["missing_fields"] = t.columns.missing_counts()

        for dim in ("input", "shuffle", "output"):
            self._run(f"data_sizes.{dim}", lambda d=dim: self._data_sizes(d))
        for side in ("input", "output"):
            self._run(f"zipf.{side}", lambda s=side: self._zipf(s))
            self._run(f"access_vs_size.{side}", lambda s=side: self._access_vs_size(s))
            self._run(f"eighty_x.{side}", lambda s=side: self._eighty_x(s))
        self._run("reaccess", self._reaccess)
        for dim in ts.DIMENSIONS:
            self._run(f"time_series.{dim}", lambda d=dim: self._series_section(d))
        self._run("burstiness", self._burstiness)
        self._run("correlations", self._correlations)
        self._run("periodogram", self._periodogram)
        self._run("names", self._names)
        self._run("clusters", self._clusters)

        self.sections["decisions"] = {
            "seed": self.seed,
            "bucket_width": self.bucket_width,
            "path_hash": {"algorithm": HASH_ALGORITHM, "offset_basis": FNV64_OFFSET_BASIS},
            "percentile_scheme": "linear interpolation between order statistics",
            "file_size_rule": "max byte count observed per digest",
            "zipf_fit": "all entries, plus tail-trimmed (count >= 2) comparison fit",
            "reaccess_rule": "gap from any touch to the next input read, submit times",
            "occupancy_rule": "task-seconds spread uniformly over [submit, submit+duration]",
            "kmeans": {
                "transform": "log10(1+x) then z-score",
                "k_max": self.k_max,
                "improvement_threshold": 0.10,
                "restarts": 5,
                "sample_cap": self.cluster_sample_cap,
            },
            "name_cutoff_fraction": NAME_CUTOFF,
            "max_plot_points": MAX_PLOT_POINTS,
        }
        self.sections["skipped"] = self.skips
        return self.sections

    def _data_sizes(self, dim: str) -> dict:
        cdf = da.data_size_cdf(self.trace, dim)
        self.plots[f"fig1_{dim}.tsv"] = _plot_rows(cdf.values, cdf.fractions)
        out = {"operation": "data_size_cdf", "dimension": dim}
        out.update(_cdf_section(cdf, len(self.trace) - cdf.sample_count))
        return out

    def _zipf(self, side: str) -> dict:
        table = da.access_frequency_rank(self.trace, side)
        self.plots[f"fig2_{side}.tsv"] = _plot_rows(np.arange(1, len(table) + 1), table.counts)
        out = {"operation": "access_frequency_rank + fit_zipf", "side": side,
               "n_files": len(table), "n_accesses": int(table.counts.sum())}
        for label, tbl in (("full", table), ("tail_trimmed", da.tail_trimmed(table))):
            try:
                fit = da.fit_zipf(tbl)
                out[label] = {
                    "slope": fit.slope,
                    "intercept": fit.intercept,
                    "r_squared": fit.r_squared,
                    "n_points": fit.n_points,
                }
            except MRTraceError as exc:
                out[label] = {"skipped": str(exc)}
        return out

    def _access_vs_size(self, side: str) -> dict:
        jobs_cdf, bytes_cdf = da.access_vs_size_curves(self.trace, side)
        fig = "fig3" if side == "input" else "fig4"
        self.plots[f"{fig}_{side}_jobs.tsv"] = _plot_rows(jobs_cdf.values, jobs_cdf.fractions)
        self.plots[f"{fig}_{side}_bytes.tsv"] = _plot_rows(bytes_cdf.values, bytes_cdf.fractions)
        return {
            "operation": "access_vs_size_curves",
            "side": side,
            "jobs": cdf_summary(jobs_cdf),
            "stored_bytes": cdf_summary(bytes_cdf),
        }

    def _eighty_x(self, side: str) -> dict:
        x = da.eighty_x_rule(self.trace, side)
        return {"operation": "eighty_x_rule", "side": side,
                "access_quantile": 0.80, "x_percent_of_bytes": x}

    def _reaccess(self) -> dict:
        stats = da.reaccess_intervals(self.trace)
        gaps = stats.interval_cdf
        self.plots["fig5_reaccess_intervals.tsv"] = _plot_rows(gaps.values, gaps.fractions)
        self.plots["fig6_preexisting_input.tsv"] = [
            (self.trace.label, stats.reaccess_job_fraction)
        ]
        out = {
            "operation": "reaccess_intervals",
            "reaccess_job_fraction": stats.reaccess_job_fraction,
            "interval_count": gaps.sample_count,
        }
        if gaps.sample_count:
            out["within_6h_fraction"] = gaps.fraction_at(6 * 3600)
            out["median_interval_seconds"] = float(
                gaps.values[np.searchsorted(gaps.fractions, 0.5)]
            )
        return out

    def _series(self, dim: str) -> ts.TimeSeries:
        if dim == "occupancy_slots":
            return ts.occupancy_series(self.trace, self.bucket_width)
        return ts.bucket_time_series(self.trace, dim, self.bucket_width)

    def _series_section(self, dim: str) -> dict:
        series = self._series(dim)
        self.plots[f"fig7_{dim}.tsv"] = list(
            zip(range(len(series)), series.values.tolist())
        )
        operation = "occupancy_series" if dim == "occupancy_slots" else "bucket_time_series"
        out = {"operation": operation, "dimension": dim}
        out.update(_series_stats(series))
        return out

    def _burstiness(self) -> dict:
        out = {"operation": "burstiness_curve", "percentile_grid": "1..100",
               "bucket_width": self.bucket_width}
        curves = {}
        for dim in ("jobs_submitted", "data_size_bytes", "compute_time_task_seconds"):
            try:
                series = self._series(dim)
                curve = ts.burstiness_curve(series)
                curves[dim] = curve
                ratio = dict((p, r) for r, p in curve.points)
                out[dim] = {
                    "median": curve.median,
                    "p50_ratio": ratio.get(50),
                    "p90_ratio": ratio.get(90),
                    "p99_ratio": ratio.get(99),
                    "peak_to_median": ts.peak_to_median(series),
                }
            except MRTraceError as exc:
                out[dim] = {"skipped": f"{type(exc).__name__}: {exc}"}
        if not curves:
            raise MRTraceError("no dimension supports a burstiness curve")
        if "compute_time_task_seconds" in curves:
            self.plots["fig8_tasktime.tsv"] = curves["compute_time_task_seconds"].points
        buckets = max(24, len(self._series("jobs_submitted")))
        for kind, tag in (("range_equals_mean", "sine_mean"), ("range_equals_tenth_of_mean", "sine_tenth")):
            ref = ts.sine_reference(kind, buckets)
            self.plots[f"fig8_{tag}.tsv"] = ts.burstiness_curve(ref).points
        return out

    def _correlations(self) -> dict:
        corr = ts.dimension_correlations(self.trace, self.bucket_width)
        rows = [
            ("jobs_vs_data", corr.r_jobs_data),
            ("jobs_vs_compute", corr.r_jobs_compute),
            ("data_vs_compute", corr.r_data_compute),
        ]
        self.plots["fig9_correlations.tsv"] = rows
        return {"operation": "dimension_correlations", "bucket_width": self.bucket_width} \
            | {name: r for name, r in rows} | {"n_buckets": corr.n_buckets}

    def _periodogram(self) -> dict:
        out = {"operation": "periodogram", "top_k": 5, "bucket_width": self.bucket_width}
        ran_any = False
        last_exc: Optional[MRTraceError] = None
        for dim in ("jobs_submitted", "data_size_bytes", "compute_time_task_seconds"):
            try:
                peaks = ts.periodogram(self._series(dim))
                out[dim] = {
                    "diurnal": peaks.diurnal,
                    "top_components": [
                        {"period_hours": p / 3600.0, "power_fraction": f}
                        for p, f in peaks.components
                    ],
                }
                ran_any = True
            except MRTraceError as exc:
                out[dim] = {"skipped": f"{type(exc).__name__}: {exc}"}
                last_exc = exc
        if not ran_any and last_exc is not None:
            raise last_exc
        return out

    def _names(self) -> dict:
        out = {"operation": "name_breakdown", "min_fraction": NAME_CUTOFF}
        for weighting in ("jobs", "io_bytes", "task_time"):
            breakdown = cp.name_breakdown(self.trace, weighting, NAME_CUTOFF)
            self.plots[f"fig10_{weighting}.tsv"] = list(breakdown.entries) + (
                [("<other>", breakdown.other_fraction)] if breakdown.other_fraction else []
            )
            out[weighting] = {
                "top": [{"word": w, "fraction": f} for w, f in breakdown.entries[:10]],
                "other_fraction": breakdown.other_fraction,
            }
        return out

    def _clusters(self) -> dict:
        matrix = cp.job_feature_vectors(self.trace)
        sampled_from = None
        if len(matrix) > self.cluster_sample_cap:
            sampled_from = len(matrix)
            rng = np.random.default_rng(self.seed)
            keep = rng.choice(len(matrix), size=self.cluster_sample_cap, replace=False)
            keep.sort()
            matrix = cp.JobFeatureMatrix(
                rows=matrix.rows[keep],
                raw=matrix.raw[keep],
                transform=matrix.transform,
                excluded_count=matrix.excluded_count,
                job_ids=matrix.job_ids[keep],
            )
        k_max = min(self.k_max, len(matrix))
        model = cp.elbow_fit(matrix, k_max, seed=self.seed)
        summary = cp.summarize_clusters(self.trace, model)
        self.cluster_table = render_cluster_table(summary)
        return {
            "operation": "job_feature_vectors + elbow_fit",
            "seed": self.seed,
            "k": model.k,
            "k_max": k_max,
            "residual_variance": model.residual_variance,
            "clustered_jobs": len(matrix),
            "excluded_jobs": matrix.excluded_count,
            "sampled_from": sampled_from,
            "clusters": [
                {
                    "job_count": row.job_count,
                    "medians": row.medians,
                    "suggested_label": row.suggested_label,
                    "label": row.label,
                }
                for row in summary.clusters
            ],
        }


def cdf_summary(cdf: da.EmpiricalCDF) -> dict:
    return {
        "points": int(cdf.values.size),
        "min": float(cdf.values[0]),
        "max": float(cdf.values[-1]),
    }


def _series_stats(series: ts.TimeSeries) -> dict:
    v = series.values
    gaps = ts.zero_runs(series)
    return {
        "buckets": len(series),
        "bucket_width": series.bucket_width,
        "total": float(v.sum()),
        "mean": float(v.mean()),
        "peak": float(v.max()),
        "suspected_logging_gaps": [
            {"start_bucket": s, "length": l} for s, l in gaps
        ],
    }


_SIZE_UNITS = ((1 << 40, "TB"), (1 << 30, "GB"), (1 << 20, "MB"), (1 << 10, "KB"))


def _human_bytes(n: float) -> str:
    for scale, unit in _SIZE_UNITS:
        if n >= scale:
            return f"{n / scale:.1f} {unit}"
    return f"{n:.0f} B"


def _human_duration(s: float) -> str:
    if s >= 3600:
        return f"{s / 3600:.1f} hrs"
    if s >= 60:
        return f"{s / 60:.1f} min"
    return f"{s:.0f} sec"


def render_cluster_table(summary: "cp.ClusterSummary") -> str:
    """Aligned-column text table of cluster sizes, centers, and labels."""
    header = ("# Jobs", "Input", "Shuffle", "Output", "Duration", "Map time", "Reduce time", "Label")
    rows = [header]
    for c in summary.clusters:
        m = c.medians
        rows.append(
            (
                str(c.job_count),
                _human_bytes(m["input_bytes"]),
                _human_bytes(m["shuffle_bytes"]),
                _human_bytes(m["output_bytes"]),
                _human_duration(m["duration"]),
                f"{m['map_task_seconds']:,.0f}",
                f"{m['reduce_task_seconds']:,.0f}",
                c.label or c.suggested_label,
            )
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"


def write_report(
    trace: Trace,
    out_path: Optional[Path],
    plots_dir: Optional[Path],
    **kwargs,
) -> dict:
    """Assemble the report; write JSON and per-figure TSVs atomically."""
    builder = ReportBuilder(trace, **kwargs)
    report = builder.build()
    if out_path is not None:
        write_json_atomic(Path(out_path), report)
    if plots_dir is not None:
        plots_dir = Path(plots_dir)
        plots_dir.mkdir(parents=True, exist_ok=True)
        for name, rows in builder.plots.items():
            write_tsv_atomic(plots_dir / name, rows)
        if getattr(builder, "cluster_table", None):
            write_atomic(plots_dir / "table2_clusters.txt", builder.cluster_table)
    return report
