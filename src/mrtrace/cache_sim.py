"""Trace-driven whole-file cache simulation.

Policies under test follow the access-pattern findings: size-threshold
admission (small files carry most accesses) and recency eviction (most
re-accesses happen within hours). Caching is whole-file; byte ranges and
replication are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import NoData, UnsortedStream
from .trace import Trace

READ = "input_read"
WRITE = "output_write"


@dataclass(frozen=True, slots=True)
class AccessEvent:
    time: int
    file_digest: int
    file_size: int
    kind: str  # input_read | output_write


@dataclass(frozen=True)
class CacheConfig:
    capacity_bytes: int
    admission: str = "all"  # all | size_at_most
    size_threshold: Optional[int] = None
    eviction: str = "lru"  # lru | idle_ttl
    idle_ttl: Optional[int] = None

    def __post_init__(self):
        if self.capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if self.admission not in ("all", "size_at_most"):
            raise ValueError(f"unknown admission policy {self.admission!r}")
        if self.admission == "size_at_most" and (self.size_threshold is None or self.size_threshold <= 0):
            raise ValueError("size_at_most admission needs a positive size_threshold")
        if self.eviction not in ("lru", "idle_ttl"):
            raise ValueError(f"unknown eviction policy {self.eviction!r}")
        if self.eviction == "idle_ttl" and (self.idle_ttl is None or self.idle_ttl <= 0):
            raise ValueError("idle_ttl eviction needs a positive idle_ttl")


@dataclass
class CacheReport:
    accesses: int  # reads seen by the cache
    hits: int
    hit_rate_by_accesses: float
    hit_rate_by_bytes: float
    evictions: int
    peak_resident_bytes: int


def access_stream(trace: Trace) -> list[AccessEvent]:
    """One read per job at submit and one write at submit+duration.

    Jobs must carry both the path hash and the byte count on a side to
    emit the event for that side. Events are time-sorted with a stable
    tie-break on job order, reads before writes.
    """
    cols = trace.columns
    events: list[tuple[int, int, int, AccessEvent]] = []

    in_ok = cols.input_hash_present & ~np.isnan(cols.input_bytes)
    out_ok = cols.output_hash_present & ~np.isnan(cols.output_bytes)
    if not in_ok.any() and not out_ok.any():
        raise NoData("no record carries a usable path hash + size pair")

    duration = np.where(np.isnan(cols.duration), 0.0, cols.duration)
    for i in np.nonzero(in_ok)[0]:
        t = int(cols.submit_time[i])
        events.append((t, int(i), 0, AccessEvent(t, int(cols.input_path_hash[i]), int(cols.input_bytes[i]), READ)))
    for i in np.nonzero(out_ok)[0]:
        t = int(cols.submit_time[i] + duration[i])
        events.append((t, int(i), 1, AccessEvent(t, int(cols.output_path_hash[i]), int(cols.output_bytes[i]), WRITE)))

    events.sort(key=lambda e: e[:3])
    return [e[3] for e in events]


class _LRUState:
    """Resident set with recency order; python dict order is the LRU list."""

    def __init__(self):
        self.sizes: dict[int, int] = {}  # front = least recently used
        self.last_access: dict[int, int] = {}
        self.resident_bytes = 0

    def touch(self, digest: int, t: int):
        self.sizes[digest] = self.sizes.pop(digest)
        self.last_access[digest] = t

    def insert(self, digest: int, size: int, t: int):
        self.sizes[digest] = size
        self.last_access[digest] = t
        self.resident_bytes += size

    def evict(self, digest: int):
        self.resident_bytes -= self.sizes.pop(digest)
        del self.last_access[digest]

    def lru_order(self):
        return iter(self.sizes)


def simulate_cache(stream: Iterable[AccessEvent], config: CacheConfig) -> CacheReport:
    """Replay an access stream through the configured cache.

    A read hits iff the file is resident. Writes install or update the
    file (write-allocate) and refresh recency but are not counted as
    accesses. Files larger than the capacity are never admitted.
    """
    state = _LRUState()
    hits = 0
    reads = 0
    hit_bytes = 0
    read_bytes = 0
    evictions = 0
    peak = 0
    prev_t = None

    def expire_idle(now: int):
        nonlocal evictions
        while True:
            digest = next(state.lru_order(), None)
            if digest is None or now - state.last_access[digest] <= config.idle_ttl:
                return
            state.evict(digest)
            evictions += 1

    def evict_until_fits(size: int, skip: int):
        nonlocal evictions
        while state.resident_bytes + size > config.capacity_bytes:
            victim = next(d for d in state.lru_order() if d != skip)
            state.evict(victim)
            evictions += 1

    def admit_ok(size: int) -> bool:
        if size > config.capacity_bytes:
            return False
        if config.admission == "size_at_most":
            return size <= config.size_threshold
        return True

    for ev in stream:
        if prev_t is not None and ev.time < prev_t:
            raise UnsortedStream(f"event at t={ev.time} after t={prev_t}")
        prev_t = ev.time

        if config.eviction == "idle_ttl":
            expire_idle(ev.time)

        resident = ev.file_digest in state.sizes
        if ev.kind == READ:
            reads += 1
            read_bytes += ev.file_size
            if resident:
                hits += 1
                hit_bytes += ev.file_size

        if resident:
            # Update to the size seen at this event; a grown file must be
            # re-fitted and is dropped if it no longer fits at all.
            old = state.sizes[ev.file_digest]
            if ev.file_size != old:
                state.resident_bytes += ev.file_size - old
                state.sizes[ev.file_digest] = ev.file_size
                if ev.file_size > config.capacity_bytes:
                    state.evict(ev.file_digest)
                    evictions += 1
                elif state.resident_bytes > config.capacity_bytes:
                    evict_until_fits(0, skip=ev.file_digest)
            if ev.file_digest in state.sizes:
                state.touch(ev.file_digest, ev.time)
        elif admit_ok(ev.file_size):
            evict_until_fits(ev.file_size, skip=-1)
            state.insert(ev.file_digest, ev.file_size, ev.time)

        peak = max(peak, state.resident_bytes)

    return CacheReport(
        accesses=reads,
        hits=hits,
        hit_rate_by_accesses=hits / reads if reads else 0.0,
        hit_rate_by_bytes=hit_bytes / read_bytes if read_bytes else 0.0,
        evictions=evictions,
        peak_resident_bytes=peak,
    )
