"""Report assembly: run every applicable analysis over a trace and build
one JSON document plus per-figure TSV plot data, as sections and text.
This module writes no file: `mrtrace.cli` writes every output.

Analyses whose dimensions are missing are skipped by name, never
zero-filled, and every randomized step records its seed so reruns are
byte-identical.

`ReportBuilder.build` uses two threads. The k-means elbow fit of the
clusters section, the largest single cost, runs on one background worker
over the rows `cp.cluster_sample` drew, while the main thread runs every
other section. The main thread alone fills in the report's sections, skips
and plots, in a fixed order, and reads the fit's result only when the
clusters section's turn comes; the fit depends on nothing but its sample
and seed. So the output bytes do not depend on which thread finishes
first. `cluster_section` builds the clusters section here and for
`mrtrace cluster`, so the two type jobs through one path.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import Future, ThreadPoolExecutor
from json.encoder import encode_basestring_ascii
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
NAME_CUTOFF = 0.01
MAX_PLOT_POINTS = 20_000


_INDENT = "  "


class Records:
    """Equal-length columns, given as keyword arguments in key order, that
    json_text writes as a list of objects, one per row. Raises ValueError
    when the columns differ in length."""

    def __init__(self, **columns):
        lengths = set(map(len, columns.values()))
        if len(lengths) > 1:
            raise ValueError(f"Records columns differ in length: {sorted(lengths)}")
        self.columns = columns


_CONTAINERS = (dict, list, tuple, np.ndarray, Records)


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


def _column_texts(column, level: int) -> list[str]:
    """JSON texts of one column's values at nesting depth level."""
    values = column.tolist() if isinstance(column, np.ndarray) else list(column)
    types = set(map(type, values))
    if types == {int}:
        return list(map(int.__repr__, values))
    if types == {float}:
        rounded = list(map(float, map("{:.9g}".format, values)))
        if all(map(math.isfinite, rounded)):
            return list(map(float.__repr__, rounded))
    texts = []
    for v in values:  # raises for a non-finite float
        out: list[str] = []
        _encode(v, level, out)
        texts.append("".join(out))
    return texts


# Rows per chunk of a Records' text. A chunk's column texts and rows go
# once it is joined, so a large Records is held as text about once, in the
# chunks, until json_text joins them: writing 100k job timings as one chunk
# held the column texts, the rows and their join at once.
_RECORDS_CHUNK = 16384


def _append_records(records: Records, level: int, out: list) -> None:
    """Append the JSON text of records to out, _RECORDS_CHUNK rows at a
    time, each chunk encoded a column at a time and joined row by row from
    one template."""
    rows = len(next(iter(records.columns.values()), ()))
    if not rows:
        out.append("[]")
        return
    row_indent = "\n" + _INDENT * (level + 1)
    key_indent = row_indent + _INDENT
    fields = (key_indent + _key_text(k).replace("%", "%%") + ": %s" for k in records.columns)
    template = "{" + ",".join(fields) + row_indent + "}"
    sep = "[" + row_indent
    for start in range(0, rows, _RECORDS_CHUNK):
        columns = [_column_texts(c[start:start + _RECORDS_CHUNK], level + 2)
                   for c in records.columns.values()]
        out.append(sep)
        out.append(("," + row_indent).join(map(template.__mod__, zip(*columns))))
        sep = "," + row_indent
    out.append("\n" + _INDENT * level + "]")


def _encode(obj, level: int, out: list) -> None:
    """Append the indent=2 JSON text of obj at nesting depth level."""
    text = _scalar_text(obj)
    if text is not None:
        out.append(text)
        return
    if isinstance(obj, Records):
        _append_records(obj, level, out)
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
    sep = "[" + inner
    for v in items:
        out.append(sep)
        _encode(v, level + 1, out)
        sep = "," + inner
    out.append("\n" + _INDENT * level + "]")


def json_text(obj) -> str:
    """The JSON text of every JSON output, file or stdout: indent 2, floats
    (Python or numpy) rounded to 9 significant digits, numpy integers as
    ints, a Records as its list of objects. Strict: a NaN or infinity
    raises ValueError instead of writing invalid JSON. The bytes are those
    of json.dumps(..., indent=2) on the rounded values, but written in one
    recursive pass."""
    out: list[str] = []
    _encode(obj, 0, out)
    out.append("\n")
    return "".join(out)


def _cell_texts(column) -> Iterable[str]:
    """TSV cells of one column: floats (Python or numpy) to 9 significant
    digits, anything else as str."""
    column = column.tolist() if isinstance(column, np.ndarray) else list(column)
    types = set(map(type, column))
    if types == {float}:
        return map("{:.9g}".format, column)
    floats = {t for t in types if issubclass(t, (float, np.floating))}
    if not floats:
        return map(str, column)
    return [f"{float(c):.9g}" if type(c) in floats else str(c) for c in column]


def tsv_text(columns: Sequence) -> str:
    """The TSV text of every TSV output, file or stdout: one line per row
    of equal-length columns (arrays, ranges or sequences), formatted a
    column at a time. Raises ValueError when the columns differ in length."""
    lengths = set(map(len, columns))
    if len(lengths) > 1:
        raise ValueError(f"TSV columns differ in length: {sorted(lengths)}")
    return "\n".join(map("\t".join, zip(*map(_cell_texts, columns)))) + "\n"


def _plot_columns(*columns: np.ndarray) -> tuple[np.ndarray, ...]:
    """Parallel columns for plotting, decimated past MAX_PLOT_POINTS.

    Figures cannot resolve millions of steps; decimation keeps the first
    and last point so a curve still spans its full range.
    """
    n = columns[0].size
    if n > MAX_PLOT_POINTS:
        idx = np.unique(np.linspace(0, n - 1, MAX_PLOT_POINTS).astype(np.int64))
        columns = tuple(c[idx] for c in columns)
    return columns


def series_columns(series: ts.TimeSeries) -> tuple:
    """The (bucket, value) TSV columns of fig7 and `simulate --occupancy`."""
    return range(len(series)), series.values


def name_columns(breakdown: cp.NameBreakdown) -> list:
    """The (word, fraction) TSV columns of fig10 and `mrtrace names`; a
    nonzero fraction under the cutoff ends them as one "<other>" row."""
    if not breakdown.other_fraction:
        return [breakdown.words, breakdown.fractions]
    return [[*breakdown.words, "<other>"], [*breakdown.fractions, breakdown.other_fraction]]


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
    """Accumulates sections and plot payloads for one trace.

    `build` draws the sample with `cp.cluster_sample` on the calling
    thread before any other section: made on the worker, its copies
    would overlap the other sections' arrays and raise peak memory. The
    worker runs `cp.elbow_fit` on it alone, and the clusters section
    passes the model to `cluster_section`, as `mrtrace cluster` does. An
    MRTraceError from the sampling or the fit becomes the clusters skip;
    any other exception propagates from `build` once the worker stops.
    The data-access sections share one `da.file_table`, which `build`
    drops once the re-access section has read it.
    """

    def __init__(
        self,
        trace: Trace,
        *,
        seed: int = DEFAULT_SEED,
        bucket_width: int = DEFAULT_BUCKET_WIDTH,
        k_max: int = DEFAULT_K_MAX,
    ):
        self.trace = trace
        self.seed = seed
        self.bucket_width = bucket_width
        self.k_max = k_max
        self.sections: dict = {}
        self.plots: dict[str, Sequence] = {}  # TSV columns by file name
        self.skips: list[dict] = []
        self.cluster_table: Optional[str] = None
        # Series by dimension, built once for every section that reads it.
        # One that raised is not kept, so each section records its own skip.
        self._series_cache: dict[str, ts.TimeSeries] = {}

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

        # Leaving the block waits for the fit, so no worker outlives build.
        with ThreadPoolExecutor(max_workers=1) as elbow_pool:
            fit, k_max, sampled_from = self._start_clusters(elbow_pool)
            for dim in ("input", "shuffle", "output"):
                self._run(f"data_sizes.{dim}", lambda d=dim: self._data_sizes(d))
            files = da.file_table(t)
            for side in ("input", "output"):
                self._run(f"zipf.{side}", lambda s=side: self._zipf(files, s))
                self._run(f"access_vs_size.{side}", lambda s=side: self._access_vs_size(files, s))
                self._run(f"eighty_x.{side}", lambda s=side: self._eighty_x(files, s))
            self._run("reaccess", lambda: self._reaccess(files))
            del files
            for dim in ts.DIMENSIONS:
                self._run(f"time_series.{dim}", lambda d=dim: self._series_section(d))
            self._run("burstiness", self._burstiness)
            self._run("correlations", self._correlations)
            self._run("periodogram", self._periodogram)
            self._run("names", self._names)
            self._run("clusters", lambda: self._clusters(fit.result(), k_max, sampled_from))

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
                "improvement_threshold": cp.ELBOW_IMPROVEMENT_THRESHOLD,
                "restarts": cp.KMEANS_RESTARTS,
                "sample_cap": cp.CLUSTER_SAMPLE_CAP,
            },
            "name_cutoff_fraction": NAME_CUTOFF,
            "max_plot_points": MAX_PLOT_POINTS,
        }
        self.sections["skipped"] = self.skips
        return self.sections

    def _data_sizes(self, dim: str) -> dict:
        cdf = da.data_size_cdf(self.trace, dim)
        self.plots[f"fig1_{dim}.tsv"] = _plot_columns(cdf.values, cdf.fractions)
        out = {"operation": "data_size_cdf", "dimension": dim}
        out.update(_cdf_section(cdf, len(self.trace) - cdf.sample_count))
        return out

    def _zipf(self, files: da.FileTable, side: str) -> dict:
        counts = da.access_frequency_rank(files, side)
        self.plots[f"fig2_{side}.tsv"] = _plot_columns(np.arange(1, counts.size + 1), counts)
        out = {"operation": "access_frequency_rank + fit_zipf", "side": side,
               "n_files": counts.size, "n_accesses": int(counts.sum())}
        for label, ranked in (("full", counts), ("tail_trimmed", da.tail_trimmed(counts))):
            try:
                fit = da.fit_zipf(ranked)
                out[label] = {
                    "slope": fit.slope,
                    "intercept": fit.intercept,
                    "r_squared": fit.r_squared,
                    "n_points": fit.n_points,
                }
            except MRTraceError as exc:
                out[label] = {"skipped": str(exc)}
        return out

    def _access_vs_size(self, files: da.FileTable, side: str) -> dict:
        jobs_cdf, bytes_cdf = da.access_vs_size_curves(files, side)
        fig = "fig3" if side == "input" else "fig4"
        self.plots[f"{fig}_{side}_jobs.tsv"] = _plot_columns(jobs_cdf.values, jobs_cdf.fractions)
        self.plots[f"{fig}_{side}_bytes.tsv"] = _plot_columns(bytes_cdf.values, bytes_cdf.fractions)
        return {
            "operation": "access_vs_size_curves",
            "side": side,
            "jobs": cdf_summary(jobs_cdf),
            "stored_bytes": cdf_summary(bytes_cdf),
        }

    def _eighty_x(self, files: da.FileTable, side: str) -> dict:
        x = da.eighty_x_rule(files, side)
        return {"operation": "eighty_x_rule", "side": side,
                "access_quantile": da.EIGHTY_X_QUANTILE, "x_percent_of_bytes": x}

    def _reaccess(self, files: da.FileTable) -> dict:
        stats = da.reaccess_intervals(files)
        gaps = stats.interval_cdf
        self.plots["fig5_reaccess_intervals.tsv"] = _plot_columns(gaps.values, gaps.fractions)
        self.plots["fig6_preexisting_input.tsv"] = ([self.trace.label], [stats.reaccess_job_fraction])
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
        if dim not in self._series_cache:
            self._series_cache[dim] = ts.dimension_series(self.trace, dim, self.bucket_width)
        return self._series_cache[dim]

    def _series_section(self, dim: str) -> dict:
        series = self._series(dim)
        self.plots[f"fig7_{dim}.tsv"] = series_columns(series)
        operation = "occupancy_series" if dim == "occupancy_slots" else "bucket_time_series"
        out = {"operation": operation, "dimension": dim}
        out.update(_series_stats(series))
        return out

    def _burstiness(self) -> dict:
        out = {"operation": "burstiness_curve", "percentile_grid": "1..100",
               "bucket_width": self.bucket_width}
        curves = {}
        for dim in ts.SUM_DIMENSIONS:
            try:
                curve = ts.burstiness_curve(self._series(dim))
                curves[dim] = curve
                p50, p90, p99, peak = curve.ratios[[49, 89, 98, 99]]  # the grid is 1..100
                out[dim] = {
                    "median": curve.median,
                    "p50_ratio": p50,
                    "p90_ratio": p90,
                    "p99_ratio": p99,
                    "peak_to_median": peak,
                }
            except MRTraceError as exc:
                out[dim] = {"skipped": f"{type(exc).__name__}: {exc}"}
        if not curves:
            raise MRTraceError("no dimension supports a burstiness curve")
        if "compute_time_task_seconds" in curves:
            curve = curves["compute_time_task_seconds"]
            self.plots["fig8_tasktime.tsv"] = (curve.ratios, curve.percentiles)
        buckets = max(24, len(self._series("jobs_submitted")))
        for kind, tag in (("range_equals_mean", "sine_mean"), ("range_equals_tenth_of_mean", "sine_tenth")):
            curve = ts.burstiness_curve(ts.sine_reference(kind, buckets))
            self.plots[f"fig8_{tag}.tsv"] = (curve.ratios, curve.percentiles)
        return out

    def _correlations(self) -> dict:
        corr = ts.series_correlations(*map(self._series, ts.SUM_DIMENSIONS))
        pairs = ("jobs_vs_data", "jobs_vs_compute", "data_vs_compute")
        rs = (corr.r_jobs_data, corr.r_jobs_compute, corr.r_data_compute)
        self.plots["fig9_correlations.tsv"] = (pairs, rs)
        return {"operation": "dimension_correlations", "bucket_width": self.bucket_width} \
            | dict(zip(pairs, rs)) | {"n_buckets": corr.n_buckets}

    def _periodogram(self) -> dict:
        out = {"operation": "periodogram", "top_k": ts.PERIODOGRAM_TOP_K,
               "bucket_width": self.bucket_width}
        ran_any = False
        last_exc: Optional[MRTraceError] = None
        for dim in ts.SUM_DIMENSIONS:
            try:
                peaks = ts.periodogram(self._series(dim))
                out[dim] = {
                    "diurnal": peaks.diurnal,
                    "top_components": Records(period_hours=peaks.periods / 3600.0,
                                              power_fraction=peaks.fractions),
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
            self.plots[f"fig10_{weighting}.tsv"] = name_columns(breakdown)
            out[weighting] = {
                "top": Records(word=breakdown.words[:10], fraction=breakdown.fractions[:10]),
                "other_fraction": breakdown.other_fraction,
            }
        return out

    def _start_clusters(self, pool: ThreadPoolExecutor) -> tuple[Future, Optional[int], Optional[int]]:
        """Draw the sample on this thread and submit the elbow fit over it to
        pool. Returns the future model, which holds an MRTraceError from the
        sampling, and cp.cluster_sample's k_max and sampled_from."""
        try:
            matrix, k_max, sampled_from = cp.cluster_sample(self.trace, self.seed, self.k_max)
        except MRTraceError as exc:
            failed = Future()
            failed.set_exception(exc)
            return failed, None, None
        return pool.submit(cp.elbow_fit, matrix, k_max, seed=self.seed), k_max, sampled_from

    def _clusters(self, model: cp.ClusterModel, k_max: int, sampled_from: Optional[int]) -> dict:
        section, self.cluster_table = cluster_section(model, self.seed, k_max, sampled_from)
        return section


def cluster_section(model: cp.ClusterModel, seed: int, k_max: int,
                    sampled_from: Optional[int]) -> tuple[dict, str]:
    """The clusters section of `analyze`, which `mrtrace cluster` prints,
    and its text table. Each cluster's JSON object holds its job count, its
    medians by dimension, its suggested label, and a label left "" for the
    analyst."""
    matrix = model.matrix
    counts, medians, labels = cp.summarize_clusters(model)
    section = {
        "operation": "job_feature_vectors + elbow_fit",
        "seed": seed,
        "k": model.k,
        "k_max": k_max,
        "residual_variance": model.residual_variance,
        "clustered_jobs": len(matrix),
        "excluded_jobs": matrix.excluded_count,
        "sampled_from": sampled_from,
        "clusters": Records(job_count=counts,
                            medians=[dict(zip(cp.FEATURE_NAMES, row)) for row in medians.tolist()],
                            suggested_label=labels, label=[""] * len(labels)),
    }
    return section, render_cluster_table(counts, medians, labels)


def cdf_summary(cdf: da.EmpiricalCDF) -> dict:
    return {
        "points": int(cdf.values.size),
        "min": float(cdf.values[0]),
        "max": float(cdf.values[-1]),
    }


def _series_stats(series: ts.TimeSeries) -> dict:
    v = series.values
    starts, lengths = ts.zero_runs(series)
    return {
        "buckets": len(series),
        "bucket_width": series.bucket_width,
        "total": float(v.sum()),
        "mean": float(v.mean()),
        "peak": float(v.max()),
        "suspected_logging_gaps": Records(start_bucket=starts, length=lengths),
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


def render_cluster_table(counts: np.ndarray, medians: np.ndarray, labels: list[str]) -> str:
    """Aligned-column text table of cp.summarize_clusters' columns: cluster
    sizes, median jobs, and suggested labels."""
    header = ("# Jobs", "Input", "Shuffle", "Output", "Duration", "Map time", "Reduce time", "Label")
    rows = [header]
    # The medians come in cp.FEATURE_NAMES order.
    for count, (inp, shuffle, out, duration, map_s, reduce_s), label in zip(
            counts.tolist(), medians.tolist(), labels):
        rows.append((str(count), _human_bytes(inp), _human_bytes(shuffle), _human_bytes(out),
                     _human_duration(duration), f"{map_s:,.0f}", f"{reduce_s:,.0f}", label))
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"

