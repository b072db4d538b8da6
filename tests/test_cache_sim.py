import itertools
import random

import pytest

import numpy as np

from mrtrace import (
    AccessStream,
    CacheConfig,
    NoData,
    UnsortedStream,
    WriteTimeOverflow,
    access_stream,
    simulate_cache,
)
from mrtrace.cache_sim import READ, WRITE, AccessEvent
from mrtrace.cli import main
from conftest import make_trace, rec, trace_to_jsonl


def ev(t, digest, size, kind=READ):
    return AccessEvent(time=t, file_digest=digest, file_size=size, kind=kind)


class NaiveCache:
    """List-based reference simulator; same policies, independent bookkeeping."""

    def __init__(self, config):
        self.config = config
        self.entries = []  # [digest, size, last_access], order = recency (front oldest)
        self.hits = 0
        self.reads = 0
        self.hit_bytes = 0
        self.read_bytes = 0
        self.evictions = 0
        self.peak = 0

    def _find(self, digest):
        for i, e in enumerate(self.entries):
            if e[0] == digest:
                return i
        return None

    def _bytes(self):
        return sum(e[1] for e in self.entries)

    def _admissible(self, size):
        if size > self.config.capacity_bytes:
            return False
        if self.config.admission == "size_at_most":
            return size <= self.config.size_threshold
        return True

    def step(self, event):
        c = self.config
        if c.eviction == "idle_ttl":
            keep = []
            for e in self.entries:
                if event.time - e[2] > c.idle_ttl:
                    self.evictions += 1
                else:
                    keep.append(e)
            self.entries = keep

        pos = self._find(event.file_digest)
        if event.kind == READ:
            self.reads += 1
            self.read_bytes += event.file_size
            if pos is not None:
                self.hits += 1
                self.hit_bytes += event.file_size

        if pos is not None:
            entry = self.entries.pop(pos)
            entry[1] = event.file_size
            entry[2] = event.time
            if event.file_size > c.capacity_bytes:
                self.evictions += 1
            else:
                while self._bytes() + event.file_size > c.capacity_bytes:
                    self.entries.pop(0)
                    self.evictions += 1
                self.entries.append(entry)
        elif self._admissible(event.file_size):
            while self._bytes() + event.file_size > c.capacity_bytes:
                self.entries.pop(0)
                self.evictions += 1
            self.entries.append([event.file_digest, event.file_size, event.time])
        self.peak = max(self.peak, self._bytes())

    def report(self):
        return (
            self.reads,
            self.hits,
            self.hits / self.reads if self.reads else 0.0,
            self.hit_bytes / self.read_bytes if self.read_bytes else 0.0,
            self.evictions,
            self.peak,
        )


def run_both(stream, config):
    got = simulate_cache(stream, config)
    ref = NaiveCache(config)
    for e in stream:
        ref.step(e)
    want = ref.report()
    assert (got.accesses, got.hits, got.hit_rate_by_accesses, got.hit_rate_by_bytes,
            got.evictions, got.peak_resident_bytes) == want
    return got


def reference_access_stream(trace):
    """The per-row build: one AccessEvent per usable side, tuple-sorted on
    (time, row, read before write)."""
    cols = trace.columns
    events = []
    in_ok = cols.input_hash_present & ~np.isnan(cols.input_bytes)
    out_ok = cols.output_hash_present & ~np.isnan(cols.output_bytes)
    duration = np.where(np.isnan(cols.duration), 0.0, cols.duration)
    for i in np.nonzero(in_ok)[0]:
        t = int(cols.submit_time[i])
        events.append((t, int(i), 0, AccessEvent(t, int(cols.input_path_hash[i]), int(cols.input_bytes[i]), READ)))
    for i in np.nonzero(out_ok)[0]:
        t = int(cols.submit_time[i] + duration[i])
        events.append((t, int(i), 1, AccessEvent(t, int(cols.output_path_hash[i]), int(cols.output_bytes[i]), WRITE)))
    events.sort(key=lambda e: e[:3])
    return [e[3] for e in events]


def stream_rows(stream):
    return list(zip(stream.time.tolist(), stream.digest.tolist(), stream.size.tolist(),
                    stream.is_write.tolist()))


class TestAccessStream:
    def test_two_reads_of_same_file(self):
        t = make_trace([
            rec(0, 0, input_path_hash=5, input_bytes=10),
            rec(1, 100, input_path_hash=5, input_bytes=10),
        ])
        s = access_stream(t)
        assert list(zip(s.time.tolist(), s.digest.tolist(), s.is_write.tolist())) == [
            (0, 5, False), (100, 5, False),
        ]

    def test_write_lands_at_completion(self):
        t = make_trace([rec(0, 0, duration=50, output_path_hash=7, output_bytes=3)])
        s = access_stream(t)
        assert list(zip(s.time.tolist(), s.is_write.tolist())) == [(50, True)]

    def test_event_count_matches_side_presence(self):
        rng = random.Random(50)
        records = []
        with_input = with_output = 0
        for i in range(100):
            kw = {}
            if rng.random() < 0.7:
                kw.update(input_path_hash=rng.randrange(10), input_bytes=rng.randrange(1, 100))
                with_input += 1
            if rng.random() < 0.5:
                kw.update(output_path_hash=rng.randrange(10), output_bytes=rng.randrange(1, 100),
                          duration=rng.randrange(100))
                with_output += 1
            records.append(rec(i, i * 10, **kw))
        if with_input == 0 and with_output == 0:
            return
        s = access_stream(make_trace(records))
        assert len(s) == with_input + with_output
        assert int((~s.is_write).sum()) == with_input

    def test_sorted_with_read_before_write_on_ties(self):
        t = make_trace([rec(0, 0, duration=0, input_path_hash=1, input_bytes=5,
                            output_path_hash=2, output_bytes=6)])
        s = access_stream(t)
        assert s.is_write.tolist() == [False, True]

    def test_no_usable_events(self):
        t = make_trace([rec(0, 0, input_path_hash=5)])  # hash but no size
        with pytest.raises(NoData):
            access_stream(t)

    def test_arrays_match_per_row_build(self):
        rng = random.Random(54)
        for _ in range(40):
            records = []
            for i in range(rng.randrange(1, 40)):
                kw = {}
                if rng.random() < 0.8:
                    kw.update(input_path_hash=rng.randrange(6), input_bytes=rng.randrange(0, 50))
                if rng.random() < 0.6:
                    kw.update(output_path_hash=rng.randrange(6), output_bytes=rng.randrange(0, 50))
                if rng.random() < 0.7:
                    kw.update(duration=rng.choice([0, 1, 7, 2**40 + 1]))
                # Equal submit times, and times past 2**53 where the write
                # time rounds through float64.
                base = rng.choice([0, 2**60 + 3])
                records.append(rec(i, base + rng.randrange(0, 5), **kw))
            trace = make_trace(records)
            if not any(r.input_path_hash is not None or r.output_path_hash is not None for r in records):
                continue
            want = AccessStream.from_events(reference_access_stream(trace))
            assert stream_rows(access_stream(trace)) == stream_rows(want)

    def test_write_time_past_int64_names_the_job(self, tmp_path):
        # Every field is within what a trace file may hold; only the sum is not.
        t = make_trace([rec(0, 0, input_path_hash=1, input_bytes=5),
                        rec(41, 2**63 - 2**52, duration=2**53, output_path_hash=2, output_bytes=6)])
        with pytest.raises(WriteTimeOverflow, match=r"^job 41: write time .* = "
                                                    f"{2**63 + 2**52} does not fit"):
            access_stream(t)
        path = trace_to_jsonl(t, tmp_path / "late.jsonl")
        assert main(["cachesim", "--trace", str(path), "--capacity", "10"]) == 2


class TestSimulateExamples:
    def test_infinite_capacity_compulsory_misses_only(self):
        stream = [ev(0, 1, 4), ev(1, 2, 6), ev(2, 1, 4), ev(3, 2, 6), ev(4, 1, 4)]
        report = run_both(stream, CacheConfig(capacity_bytes=100))
        assert report.hits == 3  # every re-read hits, 2 first-touch misses
        assert report.evictions == 0

    def test_lru_thrash_hand_replay(self):
        stream = [ev(0, 1, 6), ev(1, 2, 6), ev(2, 1, 6)]
        report = run_both(stream, CacheConfig(capacity_bytes=10))
        assert report.hits == 0
        assert report.evictions == 2  # B evicts A, A evicts B

    def test_size_threshold_admits_nothing(self):
        stream = [ev(0, 1, 6), ev(1, 2, 6), ev(2, 1, 6)]
        report = run_both(stream, CacheConfig(capacity_bytes=10, admission="size_at_most",
                                              size_threshold=5))
        assert report.hits == 0
        assert report.evictions == 0
        assert report.peak_resident_bytes == 0

    def test_write_installs_for_later_read(self):
        stream = [ev(0, 1, 4, WRITE), ev(1, 1, 4, READ)]
        report = run_both(stream, CacheConfig(capacity_bytes=10))
        assert report.accesses == 1  # the write is not an access
        assert report.hits == 1

    def test_idle_ttl_expires_files(self):
        stream = [ev(0, 1, 4), ev(100, 1, 4)]
        cold = run_both(stream, CacheConfig(capacity_bytes=10, eviction="idle_ttl", idle_ttl=50))
        assert cold.hits == 0
        warm = run_both(stream, CacheConfig(capacity_bytes=10, eviction="idle_ttl", idle_ttl=200))
        assert warm.hits == 1

    def test_oversized_file_never_admitted(self):
        stream = [ev(0, 1, 50), ev(1, 1, 50)]
        report = run_both(stream, CacheConfig(capacity_bytes=10))
        assert report.hits == 0
        assert report.peak_resident_bytes == 0

    def test_unsorted_stream_rejected(self):
        with pytest.raises(UnsortedStream):
            simulate_cache([ev(5, 1, 1), ev(0, 1, 1)], CacheConfig(capacity_bytes=10))


SIZES = {0: 3, 1: 5, 2: 2, 3: 7}


def configs_under_test():
    return [
        CacheConfig(capacity_bytes=5),
        CacheConfig(capacity_bytes=10),
        CacheConfig(capacity_bytes=100),
        CacheConfig(capacity_bytes=10, admission="size_at_most", size_threshold=4),
        CacheConfig(capacity_bytes=10, eviction="idle_ttl", idle_ttl=2),
        CacheConfig(capacity_bytes=7, eviction="idle_ttl", idle_ttl=1),
    ]


class TestOracleEquivalence:
    def test_exhaustive_short_streams(self):
        # Every (kind, file) sequence up to length 4 over 3 files, unit
        # time steps; both policies and several capacities.
        alphabet = [(k, f) for k in (READ, WRITE) for f in range(3)]
        for length in range(1, 5):
            for combo in itertools.product(alphabet, repeat=length):
                stream = [ev(t, f, SIZES[f], k) for t, (k, f) in enumerate(combo)]
                for config in configs_under_test():
                    run_both(stream, config)

    def test_random_twenty_event_streams(self):
        rng = random.Random(51)
        for _ in range(300):
            stream = []
            t = 0
            for _ in range(20):
                t += rng.randrange(0, 4)
                f = rng.randrange(4)
                kind = READ if rng.random() < 0.7 else WRITE
                size = SIZES[f] + (rng.randrange(-1, 2) if rng.random() < 0.3 else 0)
                stream.append(ev(t, f, max(1, size), kind))
            for config in configs_under_test():
                run_both(stream, config)

    def test_lru_hits_monotone_in_capacity(self):
        rng = random.Random(52)
        stream = []
        t = 0
        for _ in range(200):
            t += rng.randrange(0, 3)
            f = rng.randrange(6)
            stream.append(ev(t, f, f + 2, READ))
        hits = [
            simulate_cache(stream, CacheConfig(capacity_bytes=cap)).hits
            for cap in range(2, 40, 3)
        ]
        assert hits == sorted(hits)

    def test_compulsory_miss_law_at_full_capacity(self):
        rng = random.Random(53)
        for _ in range(30):
            stream = []
            t = 0
            for _ in range(50):
                t += rng.randrange(0, 3)
                f = rng.randrange(5)
                kind = READ if rng.random() < 0.6 else WRITE
                stream.append(ev(t, f, SIZES.get(f, 4), kind))
            capacity = sum({e.file_digest: e.file_size for e in stream}.values())
            report = simulate_cache(stream, CacheConfig(capacity_bytes=capacity))
            # compulsory misses = files whose first-ever event is a read
            seen = set()
            d = 0
            for e in stream:
                if e.file_digest not in seen:
                    seen.add(e.file_digest)
                    if e.kind == READ:
                        d += 1
            assert report.hits == report.accesses - d
