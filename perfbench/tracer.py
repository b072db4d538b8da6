"""Outside-in tracer: run ``mrtrace.cli.main`` with every public function
of every ``mrtrace`` module wrapped in a span.

Run as ``python3 perfbench/tracer.py SRC_DIR SPANS_JSON -- <mrtrace argv>``.
It writes the spans, GC totals and CPU time to SPANS_JSON and exits with
the CLI's own status. Spans are (name, start, end, parent, counts) and stay
in memory until the run ends; ``layer_metrics`` turns them into the
per-layer figures.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import json
import resource
import sys
import time

MODULES = ("trace", "columns", "data_access", "temporal", "compute_patterns",
           "report", "synthesis", "replay_sim", "cache_sim", "cli")

# Called once per job, so a span each would cost more than the work it
# measures; their time stays in the caller's self time.
PER_ITEM = frozenset({"trace.hash_path"})


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Work counts read off a layer's return value at its boundary:
# span name -> (count name, attribute holding the items, or None for the
# value itself).
_COUNTS = {
    "trace.parse_trace": ("rows", "records"),
    "synthesis.synthesize": ("jobs", "jobs"),
    "replay_sim.simulate": ("tasks", "task_intervals"),
    "cache_sim.access_stream": ("events", None),
}


def _counts(name: str, result) -> dict:
    """The boundary count for ``name``; empty when the result no longer has
    the expected shape, so a data-model change loses the count, not the run."""
    if name not in _COUNTS:
        return {}
    key, attr = _COUNTS[name]
    try:
        return {key: len(result if attr is None else getattr(result, attr))}
    except (AttributeError, TypeError):
        return {}


class Tracer:
    """Span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, counts]
        self._stack: list[int] = []
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rss0 = _maxrss_mb() if name == "trace.parse_trace" else 0.0
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            counts = _counts(name, result)
            if name == "trace.parse_trace":
                counts["rss_mb"] = _maxrss_mb() - rss0
            rec[4] = counts or None
            return result

        return traced

    def on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    def install(self, package) -> None:
        """Wrap each public module-level function and ReportBuilder.build,
        rebinding every name that refers to the original, including names
        taken with ``from … import``."""
        mods = [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
        wrapped = {}
        for short, mod in zip(MODULES, mods):
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in PER_ITEM or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapped[id(obj)] = self.wrap(name, obj)
        for mod in [package] + mods:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
        report_cls = mods[MODULES.index("report")].ReportBuilder
        report_cls.build = self.wrap("report.build", report_cls.build)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest strictly, so the children's intervals never
    overlap and subtracting their lengths removes exactly the covered part.
    """
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def inclusive_time(spans, name: str) -> float:
    """Busy time of ``name``: spans nested inside another span of the same
    name are already covered by it and are not counted twice."""
    total = 0.0
    for s in spans:
        if s[0] != name:
            continue
        p = s[3]
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total += s[2] - s[1]
    return total


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer totals from one run's spans: ``<fn>.s``, ``<fn>.calls``,
    ``<module>.self_s``, ``<fn>.self_s`` and the counts recorded at the
    boundaries, summed over calls."""
    out: dict[str, float] = {}
    selfs = self_times(spans)
    for s, own in zip(spans, selfs):
        name = s[0]
        module = name.split(".", 1)[0]
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + own
        out[f"{module}.self_s"] = out.get(f"{module}.self_s", 0.0) + own
        for key, value in (s[4] or {}).items():
            out[f"{name}.{key}"] = out.get(f"{name}.{key}", 0) + value
    for name in {s[0] for s in spans}:
        out[f"{name}.s"] = inclusive_time(spans, name)
    return out


def main(argv: list[str]) -> int:
    src, spans_path, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SRC_DIR SPANS_JSON -- <mrtrace argv>")
    sys.path.insert(0, src)
    import mrtrace
    import mrtrace.cli

    tracer = Tracer()
    tracer.install(mrtrace)
    gc.callbacks.append(tracer.on_gc)
    cpu0 = time.process_time()
    try:
        rc = mrtrace.cli.main(cli_argv)
    finally:
        cpu = time.process_time() - cpu0
        gc.callbacks.remove(tracer.on_gc)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "gc_s": tracer.gc_s,
                   "gc_collections": tracer.gc_collections, "cpu_s": cpu}, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
