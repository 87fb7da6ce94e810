"""Unit + property tests for the topology: numbering, groups, distances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.topology import Topology, _morton_key
from repro.config import TopologyConfig


@pytest.fixture
def topo() -> Topology:
    return Topology(TopologyConfig(), num_groups=4)


class TestMortonKey:
    def test_origin_is_zero(self):
        assert _morton_key(0, 0) == 0

    def test_interleaving(self):
        # row bits land at odd positions, col bits at even ones.
        assert _morton_key(0, 1) == 1
        assert _morton_key(1, 0) == 2
        assert _morton_key(1, 1) == 3
        assert _morton_key(2, 0) == 8

    def test_unique_within_grid(self):
        keys = {_morton_key(r, c) for r in range(8) for c in range(8)}
        assert len(keys) == 64


class TestNumbering:
    def test_counts(self, topo):
        assert topo.num_units == 128
        assert topo.units_per_group == 32

    def test_every_unit_has_a_stack(self, topo):
        stacks = [topo.stack_of(u) for u in range(topo.num_units)]
        assert sorted(set(stacks)) == list(range(16))
        for s in range(16):
            assert stacks.count(s) == 8

    def test_units_numbered_stack_contiguous(self, topo):
        """Units are numbered first within each stack (Section 4.2)."""
        for base in range(0, topo.num_units, topo.units_per_stack):
            stacks = {topo.stack_of(u)
                      for u in range(base, base + topo.units_per_stack)}
            assert len(stacks) == 1

    def test_groups_are_contiguous_id_ranges(self, topo):
        for g in range(4):
            units = topo.units_in_group(g)
            assert np.array_equal(units, np.arange(units[0], units[-1] + 1))
            assert all(topo.group_of(int(u)) == g for u in units)

    def test_groups_are_localized_quadrants(self, topo):
        """For the 4x4 mesh with 4 groups, each group is a 2x2-stack
        quadrant (Figure 5)."""
        for g in range(4):
            stacks = {topo.stack_of(int(u)) for u in topo.units_in_group(g)}
            coords = [topo.stack_coords(s) for s in stacks]
            rows = {r for r, _ in coords}
            cols = {c for _, c in coords}
            assert len(stacks) == 4
            assert len(rows) == 2 and len(cols) == 2
            # contiguous quadrant, not scattered
            assert max(rows) - min(rows) == 1
            assert max(cols) - min(cols) == 1

    def test_group_out_of_range_raises(self, topo):
        with pytest.raises(IndexError):
            topo.units_in_group(4)


class TestDistances:
    def test_hops_zero_within_stack(self, topo):
        units = topo.units_in_stack(3)
        for a in units:
            for b in units:
                assert topo.hops_between(int(a), int(b)) == 0

    def test_hops_symmetry(self, topo):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b = rng.integers(0, 128, 2)
            assert topo.hops_between(int(a), int(b)) == topo.hops_between(int(b), int(a))

    def test_max_hops_is_diameter(self, topo):
        assert topo.mesh_hops.max() == topo.diameter == 6

    def test_hop_matrix_matches_manhattan(self, topo):
        a, b = 0, 127
        ra, ca = topo.stack_coords(topo.stack_of(a))
        rb, cb = topo.stack_coords(topo.stack_of(b))
        assert topo.hops_between(a, b) == abs(ra - rb) + abs(ca - cb)

    def test_classification_helpers(self, topo):
        assert topo.is_local(5, 5)
        same_stack = topo.units_in_stack(topo.stack_of(0))
        other = int(same_stack[1]) if same_stack[0] == 0 else int(same_stack[0])
        assert topo.is_intra_stack(0, other)
        assert not topo.is_intra_stack(0, 0)

    def test_matrices_read_only(self, topo):
        with pytest.raises(ValueError):
            topo.mesh_hops[0, 0] = 99


class TestGroupValidation:
    def test_indivisible_group_count_rejected(self):
        with pytest.raises(ValueError):
            Topology(TopologyConfig(), num_groups=3)

    def test_single_group_always_fine(self):
        t = Topology(TopologyConfig(), num_groups=1)
        assert t.units_per_group == 128

    def test_describe_contains_groups(self):
        text = Topology(TopologyConfig(), num_groups=4).describe()
        assert "group 0" in text and "group 3" in text


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    ups=st.sampled_from([2, 4, 8]),
)
def test_property_hop_matrix_is_a_metric(rows, cols, ups):
    """Triangle inequality and identity hold on arbitrary meshes, unit
    by unit (the stack table expanded over the unit-to-stack map)."""
    topo = Topology(TopologyConfig(rows, cols, ups), num_groups=1)
    sou = topo.stack_of_unit
    hops = topo.mesh_hops[np.ix_(sou, sou)]
    n = topo.num_units
    assert (np.diag(hops) == 0).all()
    assert (hops == hops.T).all()
    rng = np.random.default_rng(0)
    for _ in range(10):
        a, b, c = rng.integers(0, n, 3)
        assert hops[a, c] <= hops[a, b] + hops[b, c]


@settings(max_examples=20, deadline=None)
@given(groups=st.sampled_from([1, 2, 4, 8, 16]))
def test_property_groups_partition_units(groups):
    topo = Topology(TopologyConfig(), num_groups=groups)
    seen = np.concatenate([topo.units_in_group(g) for g in range(groups)])
    assert sorted(seen.tolist()) == list(range(topo.num_units))
