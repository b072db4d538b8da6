"""Per-bucket loops that ``mrtrace.temporal`` replaced with array code,
kept as oracles for the differential tests in ``test_temporal.py``.

zero_runs_per_bucket is ``temporal.zero_runs`` as it was before it worked
over the zero mask: one Python iteration per bucket.
"""

from __future__ import annotations

from mrtrace.temporal import TimeSeries


def zero_runs_per_bucket(series: TimeSeries, min_len: int = 24) -> list[tuple[int, int]]:
    runs = []
    run_start = None
    for i, v in enumerate(series.values):
        if v == 0:
            if run_start is None:
                run_start = i
        else:
            if run_start is not None and i - run_start >= min_len:
                runs.append((run_start, i - run_start))
            run_start = None
    if run_start is not None and len(series) - run_start >= min_len:
        runs.append((run_start, len(series) - run_start))
    return runs
