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
last touch, is at most C; a first touch has infinite distance. One pass
of numpy array operations, down the levels of a wavelet matrix, computes
every distance, and the sorted distances are kept with the stream. Each
capacity then costs a few binary searches. The peak resident byte count
needs a scan over the events, so it runs only when a caller reads
``CacheReport.peak_resident_bytes``. ``simulate_cache`` takes the
shortcut only when all of these hold, and otherwise replays the stream
event by event:

- admission is ``all`` (a size threshold keeps files out of the stack);
- eviction is ``lru`` (idle expiry evicts files the order would keep);
- every event's size is at most the capacity (a larger file is never
  admitted, yet would still sit in the order);
- every digest keeps one size over the whole stream (a resident file
  that shrinks frees bytes that LRU does not refill, and one that grows
  evicts others);
- the event sizes sum to less than 2**63 (the pass sums bytes in int64,
  where the replay's Python ints cannot overflow).

The replay is one loop over a dict of the resident files in recency
order, least recently used first, and under an idle TTL a dict of their
touch times in the same order. A touched or admitted file goes to the
back before any eviction from the front. It fits on its own, so it
leaves only if it is the last file left, when the bytes already fit:
the victims are those of evicting before the insert.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Optional, Union

import numpy as np

from .errors import NoData, UnsortedStream, WriteTimeOverflow
from .trace import Trace


@dataclass(frozen=True, eq=False)
class AccessStream:
    """Access events as parallel arrays, in stream order."""

    time: np.ndarray  # int64
    digest: np.ndarray  # path digest; only equality matters
    size: np.ndarray  # int64 bytes, never negative
    is_write: np.ndarray  # bool; False = read

    def __len__(self) -> int:
        return len(self.time)

    @cached_property
    def _file_index(self) -> tuple[np.ndarray, np.ndarray, bool, np.ndarray]:
        """What one stable sort of the digests gives: dense file ids per
        event, in digest order; each file's size at its first event;
        whether every digest keeps that one size; and each event's
        previous touch of its file."""
        order = np.argsort(self.digest, kind="stable")
        digest = self.digest[order]
        starts = np.ones(len(digest), dtype=bool)
        np.not_equal(digest[1:], digest[:-1], out=starts[1:])
        fid = np.empty(len(digest), dtype=np.intp)
        fid[order] = np.cumsum(starts) - 1
        file_size = self.size[order[starts]]
        same_size = bool(np.array_equal(file_size[fid], self.size))
        return fid, file_size, same_size, _previous_touch(fid, order)

    @cached_property
    def _total_bytes(self) -> int:
        """The exact sum of the event sizes. The high and low 32 bits are
        summed apart; neither sum overflows int64 below 2**31 events."""
        return (int((self.size >> 32).sum()) << 32) + int((self.size & 0xFFFFFFFF).sum())

    @cached_property
    def _lru_stack(self) -> "_LRUStack":
        fid, file_size, _, prev = self._file_index
        return _LRUStack(fid, file_size, self.is_write, prev)


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


class CacheReport:
    """What one run of the cache counted.

    ``peak_resident_bytes`` may be given as a function of no arguments,
    which is called the first time the field is read, so a caller that
    never reads it never pays for it. Reports are equal when all six
    fields are.
    """

    _FIELDS = ("accesses", "hits", "hit_rate_by_accesses", "hit_rate_by_bytes", "evictions",
               "peak_resident_bytes")
    __slots__ = ("accesses", "hits", "hit_rate_by_accesses", "hit_rate_by_bytes", "evictions", "_peak")

    def __init__(self, accesses: int, hits: int, hit_rate_by_accesses: float, hit_rate_by_bytes: float,
                 evictions: int, peak_resident_bytes: Union[int, Callable[[], int]]):
        self.accesses = accesses  # reads seen by the cache
        self.hits = hits
        self.hit_rate_by_accesses = hit_rate_by_accesses
        self.hit_rate_by_bytes = hit_rate_by_bytes
        self.evictions = evictions
        self._peak = peak_resident_bytes

    @property
    def peak_resident_bytes(self) -> int:
        if callable(self._peak):
            self._peak = self._peak()
        return self._peak

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other):
        if not isinstance(other, CacheReport):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={value!r}" for name, value in zip(self._FIELDS, self._values()))
        return f"CacheReport({args})"


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
    if not stream._file_index[2]:
        return "a digest changes size"
    if stream._total_bytes >= 2**63:
        return "the event bytes reach 2**63"
    return None


def simulate_cache(stream: AccessStream, config: CacheConfig) -> CacheReport:
    """Replay an access stream through the configured cache.

    A read hits iff the file is resident. Writes install or update the
    file (write-allocate) and refresh recency but are not counted as
    accesses. Files larger than the capacity are never admitted.

    Admit-all LRU is answered from the stream's byte stack distances,
    which an ``AccessStream`` computes once and keeps for later calls;
    see the module docstring for when that is exact. On that path the
    report's ``peak_resident_bytes`` is computed when first read.
    """
    back = np.flatnonzero(stream.time[1:] < stream.time[:-1])
    if len(back):
        i = back[0] + 1
        raise UnsortedStream(f"event at t={stream.time[i]} after t={stream.time[i - 1]}")
    if shortcut_blocker(stream, config) is None:
        return stream._lru_stack.report(config.capacity_bytes)
    return _replay(stream, config)


def _previous_touch(fid: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Each event's position of the previous event of its file, or -1.
    ``order`` is the stable argsort of ``fid``."""
    same = fid[order[1:]] == fid[order[:-1]]
    prev = np.full(len(fid), -1, dtype=np.int64)
    prev[order[1:][same]] = order[:-1][same]
    return prev


def _stack_distances(prev: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The byte stack distance of each re-touch, in stream order.

    A re-touch at p of the file last touched at q = prev[p] has distance
    size[q + 1 .. p], less the bytes of the events in (q, p) whose file
    was touched again before p. Each of those is prev[k] of exactly one
    re-touch k < p with prev[k] > q, of the same size, and each such k has
    one; so the bytes to take off are those of the earlier re-touches with
    a larger prev.
    """
    p = np.flatnonzero(prev >= 0)
    q = prev[p]
    through = np.cumsum(size)  # bytes of the events up to each position
    return through[p] - through[q] - _larger_before(q, size[p])


def _larger_before(value: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """For each position p, the sum of weight[k] over the positions k < p
    with value[k] > value[p]; values are non-negative.

    A wavelet matrix over ``value`` (Claude, Navarro, Ordonez, "The
    wavelet matrix", SPIRE 2012), with every position as its own query.
    Each level, most significant bit first, stably moves the values whose
    bit is 0 ahead of those whose bit is 1. So at each level the values
    that agree on all higher bits sit together in stream order, and a
    value whose bit is 0 is below the earlier ones in its group whose bit
    is 1: their weight is added from a prefix sum.
    """
    n = len(value)
    pos = np.arange(n)  # stream position of each entry at this level
    total = np.zeros(n, dtype=np.int64)
    ones_weight = np.zeros(n + 1, dtype=np.int64)  # weight of the 1 bits before each entry
    group_start = np.ones(n, dtype=bool)
    for b in reversed(range(int(value.max(initial=0)).bit_length())):
        bit = ((value >> b) & 1).astype(bool)
        higher = value >> (b + 1)
        np.not_equal(higher[1:], higher[:-1], out=group_start[1:])
        np.cumsum(weight * bit, out=ones_weight[1:])
        starts = np.flatnonzero(group_start)
        above = ones_weight[:-1] - np.repeat(ones_weight[starts], np.diff(starts, append=n))
        above[bit] = 0
        total += above
        order = np.concatenate((np.flatnonzero(~bit), np.flatnonzero(bit)))
        value, weight, total, pos = value[order], weight[order], total[order], pos[order]
    out = np.empty(n, dtype=np.int64)
    out[pos] = total
    return out


class _LRUStack:
    """Byte LRU stack distances of one stream, sorted so that each
    capacity is answered by binary searches."""

    def __init__(self, fid: np.ndarray, file_size: np.ndarray, is_write: np.ndarray,
                 prev: np.ndarray):
        size = file_size[fid]
        retouch = np.flatnonzero(prev >= 0)
        distances = _stack_distances(prev, size)
        reread = ~is_write[retouch]
        read_distances = distances[reread]
        by_distance = np.argsort(read_distances)
        self.read_distances = read_distances[by_distance]
        # Bytes of the re-reads at the i smallest distances.
        self.read_bytes_within = np.concatenate(([0], np.cumsum(size[retouch[reread]][by_distance])))
        self.distances = np.sort(distances)
        self.reads = int(np.count_nonzero(~is_write))
        self.read_bytes = int(size[~is_write].sum())
        self.events = len(fid)
        # Every file is touched; its depth in the final recency order,
        # most recent first, in bytes. The last touches are the events
        # that are no re-touch's previous touch.
        last = np.ones(len(fid), dtype=bool)
        last[prev[retouch]] = False
        self.final_depths = np.cumsum(size[np.flatnonzero(last)[::-1]])
        self.total = int(self.final_depths[-1]) if len(self.final_depths) else 0
        self.fid = fid
        self.file_size = file_size

    def report(self, capacity: int) -> CacheReport:
        # No distance or depth exceeds the total, and the total fits int64.
        c = min(capacity, self.total)
        hits = int(np.searchsorted(self.read_distances, c, side="right"))
        hit_bytes = int(self.read_bytes_within[hits])
        # Every miss installs its file; a file leaves only by eviction.
        installs = self.events - int(np.searchsorted(self.distances, c, side="right"))
        evictions = installs - int(np.searchsorted(self.final_depths, c, side="right"))
        return CacheReport(
            accesses=self.reads,
            hits=hits,
            hit_rate_by_accesses=hits / self.reads if self.reads else 0.0,
            hit_rate_by_bytes=hit_bytes / self.read_bytes if self.read_bytes else 0.0,
            evictions=evictions,
            peak_resident_bytes=self.total if capacity >= self.total else partial(self._peak, capacity),
        )

    def _peak(self, capacity: int) -> int:
        """Largest resident byte count. After each event the resident set
        is the longest run of latest events whose distinct files fit, so
        two pointers over the events track it."""
        fid, file_size = self.fid.tolist(), self.file_size.tolist()
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


def _replay(stream: AccessStream, config: CacheConfig) -> CacheReport:
    """Event-by-event simulation of any configuration, on a sorted
    stream. Each event expires idle files from the front, counts its read
    and moves its file to the back: a resident file at its new size,
    unless that is past the capacity, and a missing file if it may be
    admitted. Files then leave from the front until the bytes fit."""
    capacity = config.capacity_bytes
    admit = min(capacity, config.size_threshold) if config.admission == "size_at_most" else capacity
    ttl = config.idle_ttl if config.eviction == "idle_ttl" else None
    sizes: dict[int, int] = {}  # the resident files, least recently used first
    touched: dict[int, int] = {}  # their touch times in the same order, only under a TTL
    resident = hits = reads = hit_bytes = read_bytes = evictions = peak = 0
    for time, digest, size, is_write in zip(stream.time.tolist(), stream.digest.tolist(),
                                            stream.size.tolist(), stream.is_write.tolist()):
        while touched and time - touched[front := next(iter(touched))] > ttl:
            del touched[front]
            resident -= sizes.pop(front)
            evictions += 1
        old = sizes.pop(digest, None)
        if not is_write:
            reads += 1
            read_bytes += size
            if old is not None:
                hits += 1
                hit_bytes += size
        if old is not None:
            resident -= old
            touched.pop(digest, None)
            if size > capacity:  # it grew past the capacity, and leaves
                evictions += 1
                continue
        elif size > admit:
            continue
        sizes[digest] = size
        resident += size
        if ttl is not None:
            touched[digest] = time
        while resident > capacity:
            front = next(iter(sizes))
            resident -= sizes.pop(front)
            touched.pop(front, None)
            evictions += 1
        if resident > peak:
            peak = resident

    return CacheReport(
        accesses=reads,
        hits=hits,
        hit_rate_by_accesses=hits / reads if reads else 0.0,
        hit_rate_by_bytes=hit_bytes / read_bytes if read_bytes else 0.0,
        evictions=evictions,
        peak_resident_bytes=peak,
    )
