"""The byte stack distance shortcut for admit-all LRU against the
event-by-event replay, the list-based ``NaiveCache`` and a brute-force
stack distance: equal reports where the shortcut is exact, and a named
reason plus the replay everywhere else."""

import importlib.util
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrtrace import CacheConfig, UnsortedStream, access_stream, parse_trace, simulate_cache
from mrtrace import cache_sim
from mrtrace.cache_sim import shortcut_blocker
from mrtrace.cli import main
from cache_oracle import READ, WRITE, AccessEvent, FenwickLRUStack, simulate_events, stream_of
from test_cache_sim import NaiveCache


def naive_distances(stream):
    """Each event's byte stack distance by rescanning the stream: its size
    plus the sizes of the distinct files touched since its file's last
    touch; None for a first touch."""
    out = []
    for i, e in enumerate(stream):
        prev = [j for j in range(i) if stream[j].file_digest == e.file_digest]
        if not prev:
            out.append(None)
            continue
        between = {stream[j].file_digest: stream[j].file_size for j in range(prev[-1] + 1, i)}
        out.append(e.file_size + sum(between.values()))
    return out


def naive_report(stream, config):
    ref = NaiveCache(config)
    for e in stream:
        ref.step(e)
    return ref.report()


def fields(report):
    return (report.accesses, report.hits, report.hit_rate_by_accesses, report.hit_rate_by_bytes,
            report.evictions, report.peak_resident_bytes)


def run_spied(stream, config):
    """simulate_cache, and whether it fell back to the replay."""
    with mock.patch.object(cache_sim, "_replay", wraps=cache_sim._replay) as replay:
        report = simulate_cache(stream, config)
    return report, replay.called


@st.composite
def event_streams(draw, max_len=24):
    """Sorted streams over a few files, some of zero bytes, with repeated
    digests, reads and writes and equal timestamps; sometimes a digest
    changes size."""
    n_files = draw(st.integers(1, 5))
    sizes = draw(st.lists(st.integers(0, 12), min_size=n_files, max_size=n_files))
    n = draw(st.integers(0, max_len))
    resize = draw(st.dictionaries(st.integers(0, max(n - 1, 0)), st.integers(0, 12), max_size=2))
    stream = []
    t = 0
    for i in range(n):
        t += draw(st.sampled_from([0, 0, 1, 3]))
        f = draw(st.integers(0, n_files - 1))
        kind = draw(st.sampled_from([READ, READ, WRITE]))
        stream.append(AccessEvent(t, f, resize.get(i, sizes[f]), kind))
    return stream


def capacities_around(stream, distances):
    """Every finite distance and one below it, the largest file and one
    below it, and all distinct bytes."""
    caps = {d + k for d in distances if d is not None for k in (-1, 0)}
    if stream:
        largest = max(e.file_size for e in stream)
        caps |= {largest - 1, largest, sum({e.file_digest: e.file_size for e in stream}.values())}
    return sorted(c for c in caps if c > 0) or [1]


@settings(max_examples=300, deadline=None)
@given(stream=event_streams())
def test_shortcut_matches_replay_and_oracle(stream):
    arrays = stream_of(stream)
    distances = naive_distances(stream)
    one_size = all(e.file_size == next(x.file_size for x in stream if x.file_digest == e.file_digest)
                   for e in stream)
    for cap in capacities_around(stream, distances):
        config = CacheConfig(capacity_bytes=cap)
        fits = all(e.file_size <= cap for e in stream)
        blocker = shortcut_blocker(arrays, config)
        if not fits:
            assert blocker == "a file is larger than the capacity"
        elif not one_size:
            assert blocker == "a digest changes size"
        else:
            assert blocker is None
        got, replayed = run_spied(arrays, config)
        assert replayed == (blocker is not None)
        assert got == cache_sim._replay(arrays, config)
        assert fields(got) == naive_report(stream, config)
        if blocker is None:
            assert got.hits == sum(1 for e, d in zip(stream, distances)
                                   if e.kind == READ and d is not None and d <= cap)


@settings(max_examples=100, deadline=None)
@given(stream=event_streams(), threshold=st.integers(1, 12), ttl=st.integers(1, 4))
def test_other_policies_name_their_condition_and_replay(stream, threshold, ttl):
    arrays = stream_of(stream)
    for config, reason in [
        (CacheConfig(capacity_bytes=30, admission="size_at_most", size_threshold=threshold),
         "admission is not all"),
        (CacheConfig(capacity_bytes=30, eviction="idle_ttl", idle_ttl=ttl), "eviction is not lru"),
    ]:
        assert shortcut_blocker(arrays, config) == reason
        got, replayed = run_spied(arrays, config)
        assert replayed
        assert fields(got) == naive_report(stream, config)


@settings(max_examples=100, deadline=None)
@given(stream=event_streams(), data=st.data())
def test_unsorted_stream_raises_on_both_paths(stream, data):
    if len({e.time for e in stream}) < 2:
        return
    i = data.draw(st.integers(1, len(stream) - 1))
    j = data.draw(st.integers(0, i - 1))
    if stream[i].time == stream[j].time:
        return
    shuffled = list(stream)
    shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
    largest = max(e.file_size for e in stream)
    for config in (CacheConfig(capacity_bytes=largest + 100),
                   CacheConfig(capacity_bytes=largest + 100, eviction="idle_ttl", idle_ttl=2)):
        with pytest.raises(UnsortedStream):
            simulate_events(shuffled, config)


def ev(t, digest, size, kind=READ):
    return AccessEvent(t, digest, size, kind)


BASE = [ev(0, 1, 4), ev(1, 2, 6), ev(1, 1, 4, WRITE), ev(2, 3, 5), ev(3, 1, 4), ev(4, 2, 6)]

# case -> (stream, config, named condition or None)
CONDITIONS = {
    "all hold": (BASE, CacheConfig(capacity_bytes=10), None),
    "admission": (BASE, CacheConfig(capacity_bytes=10, admission="size_at_most", size_threshold=5),
                  "admission is not all"),
    "eviction": (BASE, CacheConfig(capacity_bytes=10, eviction="idle_ttl", idle_ttl=2),
                 "eviction is not lru"),
    "file size": (BASE, CacheConfig(capacity_bytes=5), "a file is larger than the capacity"),
    "one size per digest": (BASE[:4] + [ev(3, 1, 2)] + BASE[5:], CacheConfig(capacity_bytes=10),
                            "a digest changes size"),
    # 3 * 2**62 bytes, which an int64 sum wraps to a negative number.
    "event bytes": ([ev(0, 1, 2**62), ev(1, 2, 2**62), ev(2, 1, 2**62)], CacheConfig(capacity_bytes=2**63),
                    "the event bytes reach 2**63"),
}


@pytest.mark.parametrize("case", list(CONDITIONS))
def test_each_exactness_condition(case):
    stream, config, reason = CONDITIONS[case]
    arrays = stream_of(stream)
    assert shortcut_blocker(arrays, config) == reason
    got, replayed = run_spied(arrays, config)
    assert replayed == (reason is not None)
    assert fields(got) == naive_report(stream, config)


def near_int64_stream(last):
    """Files of 2**61 and 2**60 bytes touched twice each, then a third
    file of ``last`` bytes; the event bytes total 2**63 - 2**61 + last."""
    return [ev(0, 1, 2**61), ev(1, 2, 2**60), ev(2, 1, 2**61, WRITE), ev(3, 2, 2**60), ev(4, 3, last)]


@pytest.mark.parametrize("last, total, reason", [
    (2**61 - 1, 2**63 - 1, None),
    (2**61, 2**63, "the event bytes reach 2**63"),
], ids=["2**63 - 1 takes the shortcut", "2**63 replays"])
def test_event_bytes_at_the_int64_boundary(last, total, reason):
    stream = near_int64_stream(last)
    arrays = stream_of(stream)
    assert arrays._total_bytes == total
    fid, file_size, _ = arrays._files
    oracle = FenwickLRUStack(fid.tolist(), file_size.tolist(), arrays.is_write.tolist())
    # The largest file, the re-read's distance and one below it, all
    # distinct bytes, and a capacity past int64.
    for cap in (2**61, 2**61 + 2**60 - 1, 2**61 + 2**60, 2**62 + 2**60, 2**64):
        config = CacheConfig(capacity_bytes=cap)
        assert shortcut_blocker(arrays, config) == reason
        got, replayed = run_spied(arrays, config)
        assert replayed == (reason is not None)
        assert got == oracle.report(cap)
        assert got == cache_sim._replay(arrays, config)
        assert fields(got) == naive_report(stream, config)


def test_a_stream_computes_its_distances_once():
    arrays = stream_of(BASE)
    with mock.patch.object(cache_sim, "_LRUStack", wraps=cache_sim._LRUStack) as build:
        reports = [simulate_cache(arrays, CacheConfig(capacity_bytes=c)) for c in (6, 10, 15, 100)]
    assert build.call_count == 1
    # Re-reads of file 1 at distance 4 + 5 and of file 2 at 6 + 4 + 5.
    assert [r.hits for r in reports] == [0, 1, 2, 2]


def _cache_trace_generator():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.cache_trace


def test_benchmark_shaped_sweep_takes_the_shortcut(tmp_path):
    path = tmp_path / "cache.jsonl"
    facts = _cache_trace_generator()(path, 3, n_jobs=2000, n_files=300)
    stream = access_stream(parse_trace(path, "jsonl"))
    for cap in facts["capacities"]:
        config = CacheConfig(capacity_bytes=cap)
        assert shortcut_blocker(stream, config) is None
        got, replayed = run_spied(stream, config)
        assert not replayed
        assert got == cache_sim._replay(stream, config)


def test_sweep_never_scans_for_the_peak(tmp_path):
    path = tmp_path / "cache.jsonl"
    caps = _cache_trace_generator()(path, 3, n_jobs=2000, n_files=300)["capacities"]
    sweep = ["cachesim", "--trace", str(path), "--capacity", str(caps[0]), "--sweep", ",".join(map(str, caps))]
    assert main([*sweep, "--out", str(tmp_path / "plain.tsv")]) == 0
    scan = mock.patch.object(cache_sim._LRUStack, "_peak", side_effect=AssertionError("peak scanned"))
    with scan:
        assert main([*sweep, "--out", str(tmp_path / "patched.tsv")]) == 0
    assert (tmp_path / "patched.tsv").read_bytes() == (tmp_path / "plain.tsv").read_bytes()
    # The single-capacity report prints the peak, so it does scan.
    with scan, pytest.raises(AssertionError, match="peak scanned"):
        main(["cachesim", "--trace", str(path), "--capacity", str(caps[0]), "--out", str(tmp_path / "one.json")])


def test_a_report_scans_for_its_peak_once_and_only_when_read():
    arrays = stream_of(BASE)
    config = CacheConfig(capacity_bytes=10)
    with mock.patch.object(cache_sim._LRUStack, "_peak", autospec=True,
                           side_effect=cache_sim._LRUStack._peak) as scan:
        report = simulate_cache(arrays, config)
        assert (report.hits, scan.call_count) == (1, 0)
        assert [report.peak_resident_bytes, report.peak_resident_bytes] == [10, 10]
        assert scan.call_count == 1
    assert report == cache_sim._replay(arrays, config)
    assert report != cache_sim.CacheReport(report.accesses, report.hits, report.hit_rate_by_accesses,
                                           report.hit_rate_by_bytes, report.evictions, 9)
