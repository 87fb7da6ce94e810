"""Unit + property tests for the L1 cache and prefetch buffer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.l1cache import L1Cache
from repro.arch.prefetch import PrefetchBuffer
from repro.config import MemoryConfig, SramConfig


class TestL1Cache:
    def test_miss_then_hit(self):
        l1 = L1Cache(4096, 4)
        assert not l1.lookup(42)
        l1.insert(42)
        assert l1.lookup(42)
        assert l1.stats.hits == 1 and l1.stats.misses == 1

    def test_lru_eviction_order(self):
        l1 = L1Cache(4 * 64, 4, 64)  # one set, 4 ways
        for line in [0, 1, 2, 3]:
            l1.insert(line)
        l1.lookup(0)  # refresh 0: LRU is now 1
        victim = l1.insert(4)
        assert victim == 1
        assert l1.contains(0) and not l1.contains(1)

    def test_set_isolation(self):
        l1 = L1Cache(2 * 4 * 64, 4, 64)  # two sets
        even = [0, 2, 4, 6, 8]   # all map to set 0
        for line in even:
            l1.insert(line)
        # set 1 lines unaffected
        l1.insert(1)
        assert l1.contains(1)

    def test_reinsert_is_not_eviction(self):
        l1 = L1Cache(4 * 64, 4, 64)
        l1.insert(7)
        assert l1.insert(7) is None
        assert l1.occupancy() == 1

    def test_invalidate_all(self):
        l1 = L1Cache(4096, 4)
        for line in range(10):
            l1.insert(line)
        l1.invalidate_all()
        assert l1.occupancy() == 0
        assert not l1.contains(0)

    def test_contains_does_not_mutate_stats(self):
        l1 = L1Cache(4096, 4)
        l1.insert(5)
        before = (l1.stats.hits, l1.stats.misses)
        l1.contains(5)
        l1.contains(6)
        assert (l1.stats.hits, l1.stats.misses) == before

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            L1Cache(100, 4, 64)

    def test_from_config(self):
        l1 = L1Cache.from_config(SramConfig(), MemoryConfig())
        assert l1.num_sets == 64 * 1024 // (4 * 64)

    def test_victim_order_follows_lru_refresh(self):
        """A hit moves its line to the MRU end; a miss on a full set
        evicts the front.  The set's contents read LRU first."""
        l1 = L1Cache(4 * 64, 4, 64)  # one set, 4 ways
        for line in [0, 1, 2, 3]:
            assert l1.insert(line) is None
        assert l1.lookup(1) and l1.lookup(0)
        assert list(l1._sets[0]) == [2, 3, 1, 0]
        assert l1.lookup(0)  # already MRU: order unchanged
        assert list(l1._sets[0]) == [2, 3, 1, 0]
        assert [l1.insert(line) for line in [4, 5, 6]] == [2, 3, 1]
        assert list(l1._sets[0]) == [0, 4, 5, 6]
        assert l1.insert(4) is None  # a resident line moves to MRU
        assert list(l1._sets[0]) == [0, 5, 6, 4]
        assert l1.insert(7) == 0

    def test_sets_keep_their_own_lru_order(self):
        l1 = L1Cache(2 * 2 * 64, 2, 64)  # two sets, 2 ways
        for line in [0, 1, 2, 3]:
            l1.insert(line)
        assert l1.lookup(0)
        assert l1.insert(4) == 2   # set 0: [0, 2] -> LRU is 2
        assert l1.insert(5) == 1   # set 1: [1, 3] -> LRU is 1
        assert {i: list(s) for i, s in sorted(l1._sets.items())} == {
            0: [0, 4], 1: [3, 5]}

    def test_hit_rate(self):
        l1 = L1Cache(4096, 4)
        l1.lookup(1)
        l1.insert(1)
        l1.lookup(1)
        assert l1.stats.hit_rate == pytest.approx(0.5)


class TestPrefetchBuffer:
    def test_fifo_eviction(self):
        buf = PrefetchBuffer(4 * 64, 64)  # 4 lines
        for line in [10, 11, 12, 13]:
            buf.insert(line)
        buf.insert(14)  # evicts 10 (oldest)
        assert not buf.contains(10)
        assert buf.contains(14)
        assert buf.stats.evictions == 1

    def test_lookup_does_not_refresh_fifo_order(self):
        buf = PrefetchBuffer(2 * 64, 64)
        buf.insert(1)
        buf.insert(2)
        assert buf.lookup(1)       # a hit...
        buf.insert(3)              # ...but 1 is still the oldest
        assert not buf.contains(1)

    def test_victim_order_is_insertion_order(self):
        """Oldest insert leaves first; hits and duplicate inserts leave
        the order alone and a duplicate is not issued again."""
        buf = PrefetchBuffer(3 * 64, 64)
        for line in [1, 2, 3]:
            buf.insert(line)
        assert buf.lookup(1) and not buf.lookup(9)
        buf.insert(2)
        assert list(buf._fifo) == [1, 2, 3]
        buf.insert(4)
        assert list(buf._fifo) == [2, 3, 4]
        buf.insert(5)
        buf.insert(1)
        assert list(buf._fifo) == [4, 5, 1]
        assert (buf.stats.issued, buf.stats.evictions,
                buf.stats.buffer_hits) == (6, 3, 1)

    def test_duplicate_insert_is_noop(self):
        buf = PrefetchBuffer(4 * 64, 64)
        buf.insert(9)
        buf.insert(9)
        assert buf.occupancy() == 1
        assert buf.stats.issued == 1

    def test_invalidate_all(self):
        buf = PrefetchBuffer(4 * 64, 64)
        buf.insert(1)
        buf.invalidate_all()
        assert buf.occupancy() == 0

    def test_minimum_one_line(self):
        buf = PrefetchBuffer(1, 64)
        buf.insert(5)
        assert buf.contains(5)

    def test_hit_counting(self):
        buf = PrefetchBuffer(256, 64)
        buf.insert(3)
        buf.lookup(3)
        buf.lookup(4)
        assert buf.stats.buffer_hits == 1


@settings(max_examples=30, deadline=None)
@given(
    lines=st.lists(st.integers(0, 1000), min_size=1, max_size=200),
    assoc=st.sampled_from([1, 2, 4]),
    sets=st.sampled_from([2, 8, 32]),
)
def test_property_l1_occupancy_bounded(lines, assoc, sets):
    """Occupancy never exceeds capacity; a just-inserted line is present."""
    l1 = L1Cache(sets * assoc * 64, assoc, 64)
    for line in lines:
        if not l1.lookup(line):
            l1.insert(line)
        assert l1.contains(line)
        assert l1.occupancy() <= sets * assoc


@settings(max_examples=30, deadline=None)
@given(lines=st.lists(st.integers(0, 100), min_size=1, max_size=100))
def test_property_prefetch_buffer_capacity_invariant(lines):
    buf = PrefetchBuffer(8 * 64, 64)
    for line in lines:
        buf.insert(line)
        assert buf.occupancy() <= 8
        assert buf.contains(line)
