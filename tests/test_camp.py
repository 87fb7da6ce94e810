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
from tests import camp_reference
from tests.cost_reference import unit_cost_matrix


def make_mapper(camp_mapping=CampMapping.SKEWED, num_camps=3,
                topo_cfg=None, noc=None) -> CampMapper:
    topo_cfg = topo_cfg or TopologyConfig()
    cache = CacheConfig(num_camps=num_camps, camp_mapping=camp_mapping)
    topo = Topology(topo_cfg, num_groups=cache.num_groups())
    memmap = MemoryMap(topo, MemoryConfig())
    interconnect = Interconnect(topo, noc or NocConfig(), MemoryConfig())
    return CampMapper(interconnect, memmap, cache)


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
        cost = unit_cost_matrix(mapper.interconnect)
        for line in [3, 77, 100_000]:
            for requester in [0, 31, 127]:
                unit, is_home = mapper.nearest_location(line, requester)
                locs = mapper.locations(line)
                best = locs[int(np.argmin(cost[requester, locs]))]
                assert unit == best
                assert is_home == (unit == mapper.home_unit(line))

    def test_prime_lines_stores_repeated_lines_once(self):
        """A batch that names a line twice fills one slot row for it:
        the same entries and slot count as the batch without the
        repeat."""
        repeated, unique = make_mapper(), make_mapper()
        repeated.prime_lines([5, 42, 42, 7])
        unique.prime_lines([5, 42, 7])
        assert repeated._slots_used == unique._slots_used == 3
        assert repeated._nearest_cache == unique._nearest_cache

    def test_requester_in_home_group_gets_home(self, mapper):
        """Within the home's group the only allowed location is the
        home, so nearby requesters usually go straight there."""
        line = 42
        home = mapper.home_unit(line)
        unit, is_home = mapper.nearest_location(line, home)
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
    def check(mapper) -> int:
        """Compare every (line, requester) pair for two lines homed at
        each unit; return how many requesters that are not a location
        sit in a stack with one and still pick another location."""
        topo = mapper.topology
        cost = unit_cost_matrix(mapper.interconnect)
        stack_of = topo.stack_of_unit
        per_unit = mapper.memory_map.unit_capacity // 64
        lines = [u * per_unit + k for u in range(topo.num_units)
                 for k in (3, 9_001)]
        rows = mapper.distance_rows(lines)
        assert rows.shape == (len(lines), topo.num_units)
        others = 0
        for i, line in enumerate(lines):
            locs = [int(u) for u in mapper.locations(line) if u >= 0]
            home = mapper.home_unit(line)
            loc_stacks = {int(stack_of[u]) for u in locs}
            for u in range(topo.num_units):
                want = locs[int(np.argmin(cost[u, locs]))]
                assert mapper.nearest_location(line, u) == (
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
        noc = mapper.interconnect
        self.check(mapper)

        alive = np.ones(mapper.topology.num_units, dtype=bool)
        alive[[1, 2, mapper.topology.num_units - 1]] = False
        mapper.set_alive_mask(alive)
        self.check(mapper)

        # A cut-off stack 0 and a slow link: unreachable locations cost
        # inf and the rerouted ones more, under the same alive mask.
        noc.set_link_faults([(0, 1)] + ([(0, shape[1])]
                                        if shape[0] > 1 else []),
                            {(1, 2): 3.0} if shape[1] > 2 else {})
        mapper.set_alive_mask(alive)  # the fault controller's remap
        self.check(mapper)
        mapper.set_alive_mask(None)
        self.check(mapper)

    @pytest.mark.parametrize("shape", [(2, 2, 8), (3, 5, 8)])
    def test_slow_crossbar_splits_a_stack(self, shape):
        """With inter_hop_ns below intra_hop_ns a location reads itself
        while its stack-mates pick a location in another stack."""
        mapper = make_mapper(topo_cfg=TopologyConfig(*shape),
                             noc=_slow_crossbar())
        assert self.check(mapper) > 0


class TestCampReference:
    """:meth:`CampMapper.prime_lines` stores, for every line, exactly
    the entry and slot rows of the per-line reference
    (``tests/camp_reference.py``), bit for bit, on healthy and faulted
    machines: dead units (each one a dead home for some lines), a fully
    dead non-home group, a dead group 0, link faults and a cut-off
    stack 0 (where every location outside it costs inf from it)."""

    @staticmethod
    def states(topo) -> dict:
        """``name -> (alive mask, dead links, degraded links)``."""
        n, upg = topo.num_units, topo.units_per_group
        cols = topo.config.mesh_cols
        cut = [(0, 1)] + ([(0, cols)] if topo.config.mesh_rows > 1 else [])

        def dead(units):
            alive = np.ones(n, dtype=bool)
            alive[list(units)] = False
            return alive

        return {
            "healthy": (None, [], {}),
            "dead units": (dead([1, 2, n - 1]), [], {}),
            "dead last group": (dead(range(n - upg, n)), [], {}),
            "dead group 0": (dead(range(upg)), [], {}),
            "link faults": (None, [(0, 1)],
                            {(1, 2): 3.0} if cols > 2 else {}),
            "partition": (dead([1, 2, n - 1]), cut, {}),
            "partition, dead group 0": (dead(range(upg)), cut, {}),
        }

    @pytest.mark.parametrize("mapping", list(CampMapping))
    @pytest.mark.parametrize("shape", [(2, 2, 8), (3, 5, 8), (4, 4, 8),
                                       (4, 4, 1)])
    def test_prime_lines_matches_reference(self, shape, mapping):
        mapper = make_mapper(mapping, topo_cfg=TopologyConfig(*shape))
        topo = mapper.topology
        noc = mapper.interconnect
        per_unit = mapper.memory_map.unit_capacity // 64
        rng = np.random.default_rng(11)
        lines = [u * per_unit + k for u in range(topo.num_units)
                 for k in (3, 9_001)]
        lines += rng.integers(0, topo.num_units * per_unit, 200).tolist()
        for name, (alive, dead_links, degraded) in \
                self.states(topo).items():
            # The fault controller's order: links first, then the remap.
            noc.set_link_faults(dead_links, degraded)
            mapper.set_alive_mask(alive)
            cost = unit_cost_matrix(noc)
            mapper.prime_lines(lines)
            for line in lines:
                got = mapper._nearest_cache[line]
                home, locs, nearest, dist, slot_locs = \
                    camp_reference.nearest_tables(mapper, line, cost)
                assert got[:3] == (home, locs, nearest), (name, line)
                assert [type(x) for x in got] == [int, tuple, list, int]
                assert (mapper._slot_dist[got[3]].tobytes()
                        == dist.tobytes()), (name, line)
                assert (mapper._slot_locs[got[3]].tobytes()
                        == slot_locs.tobytes()), (name, line)


class TestValidation:
    def test_group_mismatch_rejected(self):
        topo = Topology(TopologyConfig(), num_groups=2)
        memmap = MemoryMap(topo, MemoryConfig())
        noc = Interconnect(topo, NocConfig(), MemoryConfig())
        with pytest.raises(ValueError):
            CampMapper(noc, memmap, CacheConfig(num_camps=3))

    def test_remap_refills_the_memo_in_one_batch(self, mapper,
                                                 monkeypatch):
        """set_alive_mask refills every memoized line under the new
        mask in one array fill, so later readers find them all."""
        lines = list(range(3, 3 + 7 * 2048, 7))
        mapper.prime_lines(lines)
        fills = []
        fill = mapper._prime_missing
        monkeypatch.setattr(mapper, "_prime_missing",
                            lambda missing: (fills.append(len(missing)),
                                             fill(missing))[1])
        alive = np.ones(mapper.topology.num_units, dtype=bool)
        alive[[1, 9, 70]] = False
        assert mapper.set_alive_mask(alive) == len(lines)
        assert fills == [len(lines)]
        assert list(mapper._nearest_cache) == lines
        mapper.prime_lines(lines)  # a reader after the remap
        assert fills == [len(lines)]
        fresh = make_mapper()
        fresh.set_alive_mask(alive)
        fresh.prime_lines(lines)
        for ln in lines:
            assert mapper._nearest_cache[ln][:3] == \
                fresh._nearest_cache[ln][:3]

    def test_clear_cache(self, mapper):
        mapper.locations(5)
        assert mapper._nearest_cache
        epoch = mapper.epoch
        mapper.clear_cache()
        assert not mapper._nearest_cache
        assert mapper.epoch == epoch + 1


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
