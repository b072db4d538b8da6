"""The wavelet-matrix stack-distance pass of ``cache_sim`` against the
Fenwick pass it replaced (``cache_oracle.FenwickLRUStack``): the same
distances, element for element, and the same report at every distance
and one byte below it."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrtrace import AccessStream, CacheConfig, cache_sim, simulate_cache
from mrtrace.cache_sim import shortcut_blocker
from cache_oracle import FenwickLRUStack

SIZES = st.one_of(st.just(0), st.integers(1, 20), st.integers(2**53 - 2, 2**53 + 2))


def make_stream(fids, file_sizes, writes):
    """Events in stream order at unit steps; digest i has size file_sizes[i]."""
    fids = np.asarray(fids, dtype=np.int64)
    return AccessStream(time=np.arange(len(fids), dtype=np.int64), digest=fids * 7919 + 3,
                        size=np.asarray(file_sizes, dtype=np.int64)[fids],
                        is_write=np.asarray(writes, dtype=bool))


@st.composite
def streams(draw):
    """Up to 2000 events, skewed over a few files, all distinct or all one
    file, with zero-byte files and sizes near 2**53."""
    shape = draw(st.sampled_from(["skewed", "distinct", "one file"]))
    n = draw(st.integers(0, 2000))
    pool = draw(st.lists(SIZES, min_size=1, max_size=4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if shape == "skewed":
        n_files = draw(st.integers(1, 12))
        fids = [min(int(rng.paretovariate(1.0)), n_files) - 1 for _ in range(n)]
    elif shape == "distinct":
        n_files = max(n, 1)
        fids = list(range(n))
    else:
        n_files = 1
        fids = [0] * n
    write_share = draw(st.sampled_from([0.0, 0.3, 1.0]))
    return make_stream(fids, [rng.choice(pool) for _ in range(n_files)],
                       [rng.random() < write_share for _ in range(n)])


def oracle_of(stream):
    fid, file_size, _ = stream._files
    return FenwickLRUStack(fid.tolist(), file_size.tolist(), stream.is_write.tolist())


def capacities(oracle):
    """Every distance and one below it, one byte, the distinct bytes and
    one past them, and a capacity past int64."""
    caps = {d + k for d in oracle.distances for k in (-1, 0)}
    caps |= {1, oracle.total, oracle.total + 1, 2**64}
    return sorted(c for c in caps if c > 0)


def check_against_oracle(stream):
    oracle = oracle_of(stream)
    fid, file_size, _ = stream._files
    prev = cache_sim._previous_touch(fid)
    assert cache_sim._stack_distances(prev, file_size[fid]).tolist() == oracle.distances
    got = stream._lru_stack
    for cap in capacities(oracle):
        assert got.report(cap) == oracle.report(cap), cap


@settings(max_examples=300, deadline=None)
@given(stream=streams())
def test_distances_and_reports_match_the_fenwick_pass(stream):
    if stream._total_bytes < 2**63:
        check_against_oracle(stream)
        return
    # Too many bytes for the int64 pass: every capacity that all files fit
    # must replay, and the replay must agree with the oracle.
    oracle = oracle_of(stream)
    for cap in (int(stream.size.max()) or 1, oracle.total, 2**64):
        config = CacheConfig(capacity_bytes=cap)
        assert shortcut_blocker(stream, config) == "the event bytes reach 2**63"
        assert simulate_cache(stream, config) == oracle.report(cap)


@pytest.mark.parametrize("fids, sizes", [
    ([], [1]),
    ([0], [5]),
    ([0], [0]),
    ([0, 1, 2, 3], [3, 0, 9, 2]),
    ([0] * 50, [7]),
    ([0] * 50, [0]),
    ([0, 1, 0, 1, 2, 0], [0, 0, 4]),
    ([0, 1, 2, 0, 1, 2, 1, 0], [2**53 + 1, 2**53 - 1, 2**53]),
], ids=["empty", "single event", "single zero-byte event", "all distinct", "one file repeated",
        "one zero-byte file", "zero-byte files", "near 2**53"])
def test_named_shapes_match_the_fenwick_pass(fids, sizes):
    for writes in ([False] * len(fids), [i % 2 == 1 for i in range(len(fids))]):
        check_against_oracle(make_stream(fids, sizes, writes))


@settings(max_examples=200, deadline=None)
@given(value=st.lists(st.integers(0, 40), max_size=60), data=st.data())
def test_larger_before_matches_a_double_loop(value, data):
    weight = data.draw(st.lists(st.integers(0, 2**40), min_size=len(value), max_size=len(value)))
    got = cache_sim._larger_before(np.array(value, dtype=np.int64), np.array(weight, dtype=np.int64))
    assert got.tolist() == [sum(weight[k] for k in range(p) if value[k] > value[p]) for p in range(len(value))]
