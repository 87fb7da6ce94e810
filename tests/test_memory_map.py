"""Unit + property tests for address mapping and the allocator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.memory_map import Allocator, DataRegion, MemoryMap
from repro.arch.topology import Topology
from repro.config import MemoryConfig, TopologyConfig


@pytest.fixture
def memmap() -> MemoryMap:
    topo = Topology(TopologyConfig(2, 2, 8), num_groups=4)  # 32 units
    return MemoryMap(topo, MemoryConfig())


class TestMemoryMap:
    def test_home_unit_boundaries(self, memmap):
        cap = memmap.unit_capacity
        assert memmap.home_unit(0) == 0
        assert memmap.home_unit(cap - 1) == 0
        assert memmap.home_unit(cap) == 1
        assert memmap.home_unit(memmap.total_capacity - 1) == 31

    def test_out_of_range_address_raises(self, memmap):
        with pytest.raises(ValueError):
            memmap.home_unit(memmap.total_capacity)
        with pytest.raises(ValueError):
            memmap.home_unit(-1)

    def test_line_arithmetic(self, memmap):
        assert memmap.line_of(0) == 0
        assert memmap.line_of(63) == 0
        assert memmap.line_of(64) == 1
        assert memmap.line_addr(100) == 64

    def test_vectorised_matches_scalar(self, memmap):
        addrs = np.array([0, 64, memmap.unit_capacity + 7])
        homes = memmap.home_units(addrs)
        assert homes.tolist() == [memmap.home_unit(int(a)) for a in addrs]
        lines = memmap.lines(addrs)
        assert lines.tolist() == [memmap.line_of(int(a)) for a in addrs]

    def test_unique_lines_deduplicates(self, memmap):
        addrs = np.array([0, 8, 16, 64, 72])
        assert memmap.unique_lines(addrs).tolist() == [0, 1]

    def test_home_of_line_consistent(self, memmap):
        line = memmap.line_of(memmap.unit_capacity + 128)
        assert memmap.home_of_line(line) == 1

    def test_scalar_home_of_line_matches_vectorised(self, memmap):
        """The access kernel's line memo takes homes from the scalar
        helper, the scheduler from the array one: they must agree,
        up to the top line of the address space."""
        top = memmap.line_of(memmap.total_capacity - 1)
        rng = np.random.default_rng(11)
        lines = np.append(rng.integers(0, top + 1, size=500), [0, top])
        assert memmap.homes_of_lines(lines).tolist() == [
            memmap.home_of_line(int(ln)) for ln in lines]
        assert memmap.home_of_line(top) == memmap.topology.num_units - 1


class TestAllocator:
    def test_round_robin_spreads_elements(self, memmap):
        alloc = Allocator(memmap)
        region = alloc.alloc("a", 64, elem_bytes=64)
        homes = memmap.home_units(region.addresses)
        # 64 elements over 32 units -> each unit exactly twice
        assert np.bincount(homes, minlength=32).tolist() == [2] * 32

    def test_blocked_gives_contiguous_ranges(self, memmap):
        alloc = Allocator(memmap)
        region = alloc.alloc("b", 64, elem_bytes=64, layout="blocked")
        homes = memmap.home_units(region.addresses)
        # non-decreasing home ids, two per unit
        assert (np.diff(homes) >= 0).all()
        assert np.bincount(homes, minlength=32).tolist() == [2] * 32

    def test_pinned_lands_in_one_unit(self, memmap):
        alloc = Allocator(memmap)
        region = alloc.alloc("c", 10, elem_bytes=64, layout="pinned", unit=7)
        assert set(memmap.home_units(region.addresses).tolist()) == {7}

    def test_addresses_unique_and_aligned(self, memmap):
        alloc = Allocator(memmap)
        r1 = alloc.alloc("x", 100, elem_bytes=64)
        r2 = alloc.alloc("y", 100, elem_bytes=64, layout="blocked")
        all_addrs = np.concatenate([r1.addresses, r2.addresses])
        assert len(np.unique(all_addrs)) == 200
        assert (all_addrs % 64 == 0).all()

    def test_duplicate_name_rejected(self, memmap):
        alloc = Allocator(memmap)
        alloc.alloc("dup", 4)
        with pytest.raises(ValueError):
            alloc.alloc("dup", 4)

    def test_bad_layout_rejected(self, memmap):
        with pytest.raises(ValueError):
            Allocator(memmap).alloc("z", 4, layout="diagonal")

    def test_out_of_memory(self, memmap):
        alloc = Allocator(memmap, reserve_top_fraction=0.999999)
        with pytest.raises(MemoryError):
            alloc.alloc("big", 10_000, elem_bytes=64, layout="pinned")

    def test_reserved_fraction_shrinks_usable_space(self, memmap):
        plain = Allocator(memmap)
        reserved = Allocator(memmap, reserve_top_fraction=0.5)
        assert reserved._usable_per_unit < plain._usable_per_unit

    def test_region_accessors(self, memmap):
        region = Allocator(memmap).alloc("r", 8, elem_bytes=64)
        assert region.count == 8
        assert region.addr(3) == int(region.addresses[3])
        assert region.addrs([1, 2]).tolist() == region.addresses[1:3].tolist()
        assert region.footprint_bytes == 8 * 64


@settings(max_examples=30, deadline=None)
@given(
    count=st.integers(1, 500),
    elem_bytes=st.sampled_from([8, 16, 32, 64, 128]),
    layout=st.sampled_from(["round_robin", "blocked"]),
)
def test_property_allocations_stay_in_home_regions(count, elem_bytes, layout):
    """Every element's bytes stay inside exactly one unit's region."""
    topo = Topology(TopologyConfig(2, 2, 4), num_groups=1)
    memmap = MemoryMap(topo, MemoryConfig())
    region = Allocator(memmap).alloc("p", count, elem_bytes, layout)
    start_units = memmap.home_units(region.addresses)
    end_units = memmap.home_units(region.addresses + elem_bytes - 1)
    assert (start_units == end_units).all()
    assert (region.addresses >= 0).all()
    assert (region.addresses + elem_bytes <= memmap.total_capacity).all()
