"""Trace-driven whole-file cache simulation.

Policies under test follow the access-pattern findings: size-threshold
admission (small files carry most accesses) and recency eviction (most
re-accesses happen within hours). Caching is whole-file; byte ranges and
replication are out of scope.

Admit-all LRU has a shortcut (Mattson, Gecsei, Slutz, Traiger,
"Evaluation techniques for storage hierarchies", 1970). Order every file
ever touched by its last touch, most recent first. When every file fits
the cache and no file changes size, the resident set is always the
longest front of that order whose sizes sum to at most the capacity. So
an access hits at capacity C exactly when its byte stack distance, its
own size plus the sizes of the distinct files touched since its file's
last touch, is at most C; a first touch has infinite distance. One
O(N log N) pass computes every distance and is kept with the stream;
each capacity then costs a few linear scans, with no per-event dict
work. ``simulate_cache`` takes the shortcut only when all of these hold,
and otherwise replays the stream event by event:

- admission is ``all`` (a size threshold keeps files out of the stack);
- eviction is ``lru`` (idle expiry evicts files the order would keep);
- every event's size is at most the capacity (a larger file is never
  admitted, yet would still sit in the order);
- every digest keeps one size over the whole stream (a resident file
  that shrinks frees bytes that LRU does not refill, and one that grows
  evicts others).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, compress
from typing import Iterable, Optional, Union

import numpy as np

from .errors import NoData, UnsortedStream, WriteTimeOverflow
from .trace import Trace

READ = "input_read"
WRITE = "output_write"


@dataclass(frozen=True, slots=True)
class AccessEvent:
    time: int
    file_digest: int
    file_size: int
    kind: str  # input_read | output_write


@dataclass(frozen=True, eq=False)
class AccessStream:
    """Access events as parallel arrays, in stream order."""

    time: np.ndarray  # int64
    digest: np.ndarray  # path digest; only equality matters
    size: np.ndarray  # int64 bytes
    is_write: np.ndarray  # bool; False = read

    def __len__(self) -> int:
        return len(self.time)

    @classmethod
    def from_events(cls, events: Iterable[AccessEvent]) -> "AccessStream":
        events = list(events)
        return cls(
            time=np.array([e.time for e in events], dtype=np.int64),
            digest=np.array([e.file_digest for e in events]),
            size=np.array([e.file_size for e in events], dtype=np.int64),
            is_write=np.array([e.kind != READ for e in events], dtype=bool),
        )

    @cached_property
    def _files(self) -> tuple[np.ndarray, np.ndarray, bool]:
        """Dense file ids per event, each file's size at its first event,
        and whether every digest keeps that one size."""
        _, first, fid = np.unique(self.digest, return_index=True, return_inverse=True)
        file_size = self.size[first]
        return fid, file_size, bool(np.array_equal(file_size[fid], self.size))

    @cached_property
    def _lru_stack(self) -> "_LRUStack":
        fid, file_size, _ = self._files
        return _LRUStack(fid.tolist(), file_size.tolist(), self.is_write.tolist())


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


def access_stream(trace: Trace) -> AccessStream:
    """One read per job at submit and one write at submit+duration.

    Jobs must carry both the path hash and the byte count on a side to
    emit the event for that side. Events are time-sorted with a stable
    tie-break on job order, reads before writes.
    """
    cols = trace.columns
    in_ok = cols.input_hash_present & ~np.isnan(cols.input_bytes)
    out_ok = cols.output_hash_present & ~np.isnan(cols.output_bytes)
    if not in_ok.any() and not out_ok.any():
        raise NoData("no record carries a usable path hash + size pair")

    reads = np.flatnonzero(in_ok)
    writes = np.flatnonzero(out_ok)
    duration = np.where(np.isnan(cols.duration), 0.0, cols.duration)
    write_time = cols.submit_time[writes] + duration[writes]  # a float64 sum, truncated below
    late = write_time >= 2.0**63
    if late.any():
        job = writes[late.argmax()]
        raise WriteTimeOverflow(
            f"job {cols.job_id[job]}: write time submit_time + duration = "
            f"{int(cols.submit_time[job]) + int(duration[job])} does not fit a 64-bit integer"
        )

    time = np.concatenate([cols.submit_time[reads], write_time.astype(np.int64)])
    row = np.concatenate([reads, writes])
    is_write = np.concatenate([np.zeros(len(reads), dtype=bool), np.ones(len(writes), dtype=bool)])
    order = np.lexsort((is_write, row, time))
    digest = np.concatenate([cols.input_path_hash[reads], cols.output_path_hash[writes]])
    size = np.concatenate([cols.input_bytes[reads], cols.output_bytes[writes]]).astype(np.int64)
    return AccessStream(time=time[order], digest=digest[order], size=size[order], is_write=is_write[order])


def shortcut_blocker(stream: AccessStream, config: CacheConfig) -> Optional[str]:
    """None when byte stack distances answer ``config`` exactly on
    ``stream``; otherwise the first exactness condition that fails."""
    if config.admission != "all":
        return "admission is not all"
    if config.eviction != "lru":
        return "eviction is not lru"
    if len(stream) and int(stream.size.max()) > config.capacity_bytes:
        return "a file is larger than the capacity"
    if not stream._files[2]:
        return "a digest changes size"
    return None


def simulate_cache(stream: Union[AccessStream, Iterable[AccessEvent]], config: CacheConfig) -> CacheReport:
    """Replay an access stream through the configured cache.

    A read hits iff the file is resident. Writes install or update the
    file (write-allocate) and refresh recency but are not counted as
    accesses. Files larger than the capacity are never admitted.

    Admit-all LRU is answered from the stream's byte stack distances,
    which an ``AccessStream`` computes once and keeps for later calls;
    see the module docstring for when that is exact.
    """
    if not isinstance(stream, AccessStream):
        stream = AccessStream.from_events(stream)
    back = np.flatnonzero(stream.time[1:] < stream.time[:-1])
    if len(back):
        i = back[0] + 1
        raise UnsortedStream(f"event at t={stream.time[i]} after t={stream.time[i - 1]}")
    if shortcut_blocker(stream, config) is None:
        return stream._lru_stack.report(config.capacity_bytes)
    return _replay(stream, config)


class _LRUStack:
    """Byte LRU stack distances of one stream.

    The distance of a re-touch at position p, whose file was last touched
    at q, is its size plus the bytes of the events strictly between q and
    p, less those of the events in between whose file was touched again
    before p. A Fenwick tree over positions holds the sizes of the events
    already touched again, so each re-touch costs one query and one update.
    """

    def __init__(self, fid: list[int], file_size: list[int], is_write: list[bool]):
        n = len(fid)
        tree = [0] * (n + 1)
        last = [0] * len(file_size)  # 1-based position of each file's latest event
        through = [0] * (n + 1)  # bytes of the events up to each position
        seen = 0  # bytes of the events so far
        again = 0  # bytes of the events whose file was touched again
        distances = []  # distance of each re-touch, in stream order
        retouches = []  # its 0-based position
        for p, f in enumerate(fid, 1):
            s = file_size[f]
            q = last[f]
            last[f] = p
            if q:
                again_to_q = 0
                i = q
                while i:
                    again_to_q += tree[i]
                    i &= i - 1
                distances.append(s + seen - through[q] - (again - again_to_q))
                retouches.append(p - 1)
                again += s
                i = q
                while i <= n:
                    tree[i] += s
                    i += i & -i
            seen += s
            through[p] = seen
        sizes = [file_size[f] for f in fid]
        reads = [not w for w in is_write]
        rereads = [reads[k] for k in retouches]
        self.reads = sum(reads)
        self.read_bytes = sum(compress(sizes, reads))
        self.events = n
        self.read_distances = list(compress(distances, rereads))
        self.read_sizes = [sizes[k] for k in compress(retouches, rereads)]
        self.distances = distances
        # Every file is touched; its depth in the final recency order,
        # most recent first, in bytes.
        recency = np.argsort(np.array(last, dtype=np.int64))[::-1].tolist()
        self.final_depths = list(accumulate(map(file_size.__getitem__, recency)))
        self.total = self.final_depths[-1] if recency else 0
        self.fid = fid
        self.file_size = file_size

    def report(self, capacity: int) -> CacheReport:
        hit = list(map(capacity.__ge__, self.read_distances))
        hits = sum(hit)
        hit_bytes = sum(compress(self.read_sizes, hit))
        # Every miss installs its file; a file leaves only by eviction.
        installs = self.events - sum(map(capacity.__ge__, self.distances))
        evictions = installs - bisect_right(self.final_depths, capacity)
        return CacheReport(
            accesses=self.reads,
            hits=hits,
            hit_rate_by_accesses=hits / self.reads if self.reads else 0.0,
            hit_rate_by_bytes=hit_bytes / self.read_bytes if self.read_bytes else 0.0,
            evictions=evictions,
            peak_resident_bytes=self.total if capacity >= self.total else self._peak(capacity),
        )

    def _peak(self, capacity: int) -> int:
        """Largest resident byte count. After each event the resident set
        is the longest run of latest events whose distinct files fit, so
        two pointers over the events track it."""
        fid, file_size = self.fid, self.file_size
        count = [0] * len(file_size)  # events of each file in the window
        lo = 0
        window = 0
        peak = 0
        for f in fid:
            if not count[f]:
                window += file_size[f]
            count[f] += 1
            while window > capacity:
                g = fid[lo]
                lo += 1
                count[g] -= 1
                if not count[g]:
                    window -= file_size[g]
            if window > peak:
                peak = window
        return peak


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


def _replay(stream: AccessStream, config: CacheConfig) -> CacheReport:
    """Event-by-event simulation of any configuration; the stream is
    already checked to be sorted."""
    state = _LRUState()
    hits = 0
    reads = 0
    hit_bytes = 0
    read_bytes = 0
    evictions = 0
    peak = 0

    def expire_idle(now: int):
        nonlocal evictions
        while True:
            digest = next(state.lru_order(), None)
            if digest is None or now - state.last_access[digest] <= config.idle_ttl:
                return
            state.evict(digest)
            evictions += 1

    def evict_until_fits(size: int, skip):
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

    events = zip(stream.time.tolist(), stream.digest.tolist(), stream.size.tolist(),
                 stream.is_write.tolist())
    for time, digest, size, is_write in events:
        if config.eviction == "idle_ttl":
            expire_idle(time)

        resident = digest in state.sizes
        if not is_write:
            reads += 1
            read_bytes += size
            if resident:
                hits += 1
                hit_bytes += size

        if resident:
            # Update to the size seen at this event; a grown file must be
            # re-fitted and is dropped if it no longer fits at all.
            old = state.sizes[digest]
            if size != old:
                state.resident_bytes += size - old
                state.sizes[digest] = size
                if size > config.capacity_bytes:
                    state.evict(digest)
                    evictions += 1
                elif state.resident_bytes > config.capacity_bytes:
                    evict_until_fits(0, skip=digest)
            if digest in state.sizes:
                state.touch(digest, time)
        elif admit_ok(size):
            evict_until_fits(size, skip=None)
            state.insert(digest, size, time)

        peak = max(peak, state.resident_bytes)

    return CacheReport(
        accesses=reads,
        hits=hits,
        hit_rate_by_accesses=hits / reads if reads else 0.0,
        hit_rate_by_bytes=hit_bytes / read_bytes if read_bytes else 0.0,
        evictions=evictions,
        peak_resident_bytes=peak,
    )
