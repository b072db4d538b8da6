"""Test-side cache API and the Fenwick stack-distance oracle.

``AccessEvent`` lists are how the tests write small streams by hand;
``stream_of`` turns one into the ``AccessStream`` arrays that
``simulate_cache`` takes, and ``simulate_events`` runs either form.

``FenwickLRUStack`` is the byte stack-distance pass that ``cache_sim``
used before its wavelet-matrix pass: one Python loop over the events
with a Fenwick tree, list scans per capacity and the two-pointer peak
scan. It is kept unchanged as the oracle for the array pass.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress
from typing import Iterable, Union

import numpy as np

from mrtrace.cache_sim import AccessStream, CacheConfig, CacheReport, simulate_cache

READ = "input_read"
WRITE = "output_write"


@dataclass(frozen=True, slots=True)
class AccessEvent:
    time: int
    file_digest: int
    file_size: int
    kind: str  # input_read | output_write


def stream_of(events: Iterable[AccessEvent]) -> AccessStream:
    events = list(events)
    return AccessStream(
        time=np.array([e.time for e in events], dtype=np.int64),
        digest=np.array([e.file_digest for e in events]),
        size=np.array([e.file_size for e in events], dtype=np.int64),
        is_write=np.array([e.kind != READ for e in events], dtype=bool),
    )


def simulate_events(stream: Union[AccessStream, Iterable[AccessEvent]], config: CacheConfig) -> CacheReport:
    if not isinstance(stream, AccessStream):
        stream = stream_of(stream)
    return simulate_cache(stream, config)


class FenwickLRUStack:
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
