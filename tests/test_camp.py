"""Unit + property tests for camp-location mapping (Section 4.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.memory_map import MemoryMap
from repro.arch.noc import Interconnect
from repro.arch.topology import Topology
from repro.config import (
    CacheConfig,
    CampMapping,
    MemoryConfig,
    NocConfig,
    TopologyConfig,
)
from repro.core.cache.camp import CampMapper


def make_mapper(camp_mapping=CampMapping.SKEWED, num_camps=3,
                topo_cfg=None) -> CampMapper:
    topo_cfg = topo_cfg or TopologyConfig()
    cache = CacheConfig(num_camps=num_camps, camp_mapping=camp_mapping)
    topo = Topology(topo_cfg, num_groups=cache.num_groups())
    memmap = MemoryMap(topo, MemoryConfig())
    return CampMapper(topo, memmap, cache)


@pytest.fixture
def mapper() -> CampMapper:
    return make_mapper()


class TestLocations:
    def test_one_location_per_group(self, mapper):
        locs = mapper.locations(12345)
        assert len(locs) == 4
        groups = [mapper.topology.group_of(int(u)) for u in locs]
        assert groups == [0, 1, 2, 3]

    def test_home_group_contributes_the_home(self, mapper):
        line = 999
        home = mapper.home_unit(line)
        hg = mapper.topology.group_of(home)
        assert mapper.locations(line)[hg] == home
        assert mapper.camp_in_group(line, hg) == home

    def test_camps_exclude_home(self, mapper):
        line = 4321
        camps = mapper.camp_locations(line)
        assert len(camps) == 3
        assert mapper.home_unit(line) not in camps

    def test_deterministic(self, mapper):
        a = mapper.locations(777)
        b = mapper.locations(777)
        assert np.array_equal(a, b)
        other = make_mapper()
        assert np.array_equal(other.locations(777), a)

    def test_locations_read_only(self, mapper):
        with pytest.raises(ValueError):
            mapper.locations(5)[0] = 3

    def test_vectorised_matches_scalar(self, mapper):
        lines = np.array([1, 2, 3, 1000, 54321])
        mat = mapper.locations_for_lines(lines)
        for i, line in enumerate(lines):
            assert np.array_equal(mat[i], mapper.locations(int(line)))


class TestSkewVsIdentical:
    def test_skewed_mappings_differ_across_groups(self):
        mapper = make_mapper(CampMapping.SKEWED)
        upg = mapper.units_per_group
        differs = 0
        for line in range(100, 200):
            offsets = [int(u) % upg for u in mapper.locations(line)]
            if len(set(offsets)) > 1:
                differs += 1
        assert differs > 80  # almost all lines map differently per group

    def test_identical_mapping_uses_same_offset_everywhere(self):
        mapper = make_mapper(CampMapping.IDENTICAL)
        upg = mapper.units_per_group
        for line in range(100, 200):
            home = mapper.home_unit(line)
            hg = mapper.topology.group_of(home)
            offsets = {
                int(u) % upg
                for g, u in enumerate(mapper.locations(line)) if g != hg
            }
            assert len(offsets) == 1

    def test_skewed_spreads_camps_within_group(self):
        """Camps of many lines cover many units of each group."""
        mapper = make_mapper(CampMapping.SKEWED)
        used = set()
        # sample lines homed across the whole machine, not just unit 0
        step = mapper.memory_map.total_capacity // 64 // 997
        for line in range(0, mapper.memory_map.total_capacity // 64, step):
            for u in mapper.camp_locations(line):
                used.add(int(u))
        # nearly every unit should be a camp for something
        assert len(used) > 100


class TestSetAndTags:
    def test_set_index_uses_low_bits(self, mapper):
        assert mapper.set_index(0) == 0
        assert mapper.set_index(mapper.num_sets) == 0
        assert mapper.set_index(mapper.num_sets + 5) == 5

    def test_tag_bits_match_section_4_3(self, mapper):
        # log2(64GB)=36, minus 6 offset, 15 set, 5 unit-in-group = 10.
        assert mapper.tag_bits_per_block() == 10

    def test_tag_storage_is_about_160kb(self, mapper):
        size = mapper.tag_storage_bytes()
        assert 150_000 < size < 170_000  # paper: 160 kB

    def test_tag_size_constant_when_scaling_units(self):
        """Section 4.3: more stacks with C unchanged -> same tag size."""
        small = make_mapper(topo_cfg=TopologyConfig(2, 2, 8))
        large = make_mapper(topo_cfg=TopologyConfig(8, 8, 8))
        # units-per-group bits grow, but total-capacity bits grow the
        # same amount; the per-block tag stays constant.
        assert small.tag_bits_per_block() == large.tag_bits_per_block()


class TestNearestLocation:
    def test_nearest_is_argmin_of_cost(self, mapper):
        noc = Interconnect(mapper.topology, NocConfig(), MemoryConfig())
        cost = noc.cost_matrix
        for line in [3, 77, 100_000]:
            for requester in [0, 31, 127]:
                unit, is_home = mapper.nearest_location(line, requester, cost)
                locs = mapper.locations(line)
                best = locs[int(np.argmin(cost[requester, locs]))]
                assert unit == best
                assert is_home == (unit == mapper.home_unit(line))

    @pytest.mark.parametrize("mapping", list(CampMapping))
    def test_prime_lines_matches_scalar_tables(self, mapping):
        """The batch fill stores exactly the per-line tables, ties
        included (the NoC cost matrix is full of equal distances)."""
        primed, scalar = make_mapper(mapping), make_mapper(mapping)
        cost = Interconnect(primed.topology, NocConfig(),
                            MemoryConfig()).cost_matrix
        lines = list(range(0, 20_000, 7)) + [123_456_789, 42]
        primed.prime_lines(lines, cost)
        stacks = primed.topology.num_stacks
        for line in lines:
            got = primed._nearest_cache[line]
            want = scalar._nearest_tables(line, cost)
            # The home, the location tuple and the per-stack nearest
            # list the access kernel shares, flattened per block by the
            # batch fill and per line by the scalar path.
            assert got[:3] == want[:3]
            assert [type(x) for x in got] == [int, tuple, list, int]
            assert got[0] == scalar.home_unit(line)
            assert got[1] == tuple(scalar.locations(line).tolist())
            assert not primed.locations(line).flags.writeable
            assert len(got[2]) == stacks
            # The distance row behind the slot, bit for bit.
            for store in ("_slot_dist", "_slot_locs"):
                a = getattr(primed, store)[got[3]]
                b = getattr(scalar, store)[want[3]]
                assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_prime_lines_stores_repeated_lines_once(self):
        """A batch that names a line twice fills one slot row for it:
        the same entries and slot count as the batch without the
        repeat."""
        repeated, unique = make_mapper(), make_mapper()
        cost = Interconnect(repeated.topology, NocConfig(),
                            MemoryConfig()).cost_matrix
        repeated.prime_lines([5, 42, 42, 7], cost)
        unique.prime_lines([5, 42, 7], cost)
        assert repeated._slots_used == unique._slots_used == 3
        assert repeated._nearest_cache == unique._nearest_cache

    def test_requester_in_home_group_gets_home(self, mapper):
        """Within the home's group the only allowed location is the
        home, so nearby requesters usually go straight there."""
        line = 42
        home = mapper.home_unit(line)
        noc = Interconnect(mapper.topology, NocConfig(), MemoryConfig())
        unit, is_home = mapper.nearest_location(line, home, noc.cost_matrix)
        assert unit == home and is_home


def _slow_crossbar() -> NocConfig:
    """A mesh hop cheaper than a crossbar hop: a location's stack-mates
    may then prefer a location in the next stack to it."""
    return NocConfig(intra_hop_ns=1.5, inter_hop_ns=1.0)


class TestStackTables:
    """The per-stack tables, read through :meth:`nearest_location` and
    :meth:`distance_rows`, give every unit the first-minimum argmin of
    its own cost row over the line's locations."""

    @staticmethod
    def check(mapper, cost) -> int:
        """Compare every (line, requester) pair for two lines homed at
        each unit; return how many requesters that are not a location
        sit in a stack with one and still pick another location."""
        topo = mapper.topology
        stack_of = topo.stack_of_unit
        per_unit = mapper.memory_map.unit_capacity // 64
        lines = [u * per_unit + k for u in range(topo.num_units)
                 for k in (3, 9_001)]
        rows = mapper.distance_rows(lines, cost)
        assert rows.shape == (len(lines), topo.num_units)
        others = 0
        for i, line in enumerate(lines):
            locs = [int(u) for u in mapper.locations(line) if u >= 0]
            home = mapper.home_unit(line)
            loc_stacks = {int(stack_of[u]) for u in locs}
            for u in range(topo.num_units):
                want = locs[int(np.argmin(cost[u, locs]))]
                assert mapper.nearest_location(line, u, cost) == (
                    want, want == home)
                assert rows[i, u] == cost[u, want]
                if (u not in locs and int(stack_of[u]) in loc_stacks
                        and int(stack_of[want]) != int(stack_of[u])):
                    others += 1
        return others

    @pytest.mark.parametrize("shape", [(2, 2, 8), (3, 5, 8), (4, 4, 8),
                                       (4, 4, 1)])
    def test_per_unit_view_is_unit_wide_argmin(self, shape):
        mapper = make_mapper(topo_cfg=TopologyConfig(*shape))
        noc = Interconnect(mapper.topology, NocConfig(), MemoryConfig())
        self.check(mapper, noc.cost_matrix)

        alive = np.ones(mapper.topology.num_units, dtype=bool)
        alive[[1, 2, mapper.topology.num_units - 1]] = False
        mapper.set_alive_mask(alive)
        self.check(mapper, noc.cost_matrix)

        # A cut-off stack 0 and a slow link: unreachable locations cost
        # inf and the rerouted ones more, under the same alive mask.
        noc.set_link_faults([(0, 1)] + ([(0, shape[1])]
                                        if shape[0] > 1 else []),
                            {(1, 2): 3.0} if shape[1] > 2 else {})
        mapper.set_alive_mask(alive)  # the fault controller's remap
        self.check(mapper, noc.cost_matrix)
        mapper.set_alive_mask(None)
        self.check(mapper, noc.cost_matrix)

    @pytest.mark.parametrize("shape", [(2, 2, 8), (3, 5, 8)])
    def test_slow_crossbar_splits_a_stack(self, shape):
        """With inter_hop_ns below intra_hop_ns a location reads itself
        while its stack-mates pick a location in another stack."""
        mapper = make_mapper(topo_cfg=TopologyConfig(*shape))
        noc = Interconnect(mapper.topology, _slow_crossbar(), MemoryConfig())
        assert self.check(mapper, noc.cost_matrix) > 0

    def test_stack_cost_table_built_once_per_epoch(self, mapper):
        cost = Interconnect(mapper.topology, NocConfig(),
                            MemoryConfig()).cost_matrix
        table = mapper._stack_cost_table(cost)
        assert table.shape == (mapper.topology.num_units,
                               mapper.topology.num_stacks)
        assert table.flags.c_contiguous
        mapper.prime_lines(range(500), cost)
        assert mapper._stack_cost_table(cost.view()) is table
        mapper.clear_cache()
        assert mapper._stack_cost_table(cost) is not table


class TestValidation:
    def test_group_mismatch_rejected(self):
        topo = Topology(TopologyConfig(), num_groups=2)
        memmap = MemoryMap(topo, MemoryConfig())
        with pytest.raises(ValueError):
            CampMapper(topo, memmap, CacheConfig(num_camps=3))

    def test_clear_cache(self, mapper):
        mapper.locations(5)
        assert mapper._loc_cache
        mapper.clear_cache()
        assert not mapper._loc_cache


@settings(max_examples=40, deadline=None)
@given(line=st.integers(0, (1 << 30) - 1),
       camps=st.sampled_from([1, 3, 7]))
def test_property_locations_well_formed(line, camps):
    mapper = make_mapper(num_camps=camps)
    locs = mapper.locations(line)
    assert len(locs) == camps + 1
    assert len(set(int(u) for u in locs)) == camps + 1  # distinct units
    for g, u in enumerate(locs):
        assert mapper.topology.group_of(int(u)) == g
