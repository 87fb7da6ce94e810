"""Unit tests for the interconnect model: costs, latency, traffic, energy."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.arch.memory_map import MemoryMap
from repro.arch.noc import AccessClass, Interconnect, TrafficMeter
from repro.arch.topology import Topology
from repro.config import MemoryConfig, NocConfig, TopologyConfig
from repro.core.scheduler.base import SchedulerContext
from repro.runtime.task import Task, TaskHint
from repro.runtime.workload_exchange import WorkloadExchange
from tests.cost_reference import unit_cost_matrix


@pytest.fixture
def noc() -> Interconnect:
    topo = Topology(TopologyConfig(), num_groups=4)
    return Interconnect(topo, NocConfig(), MemoryConfig())


def _pick_pairs(noc):
    """(local, intra-stack, inter-stack) unit pairs."""
    topo = noc.topology
    local = (0, 0)
    stack_units = topo.units_in_stack(topo.stack_of(0))
    intra = (0, int(stack_units[1]))
    inter = (0, 127)
    assert topo.hops_between(*inter) > 0
    return local, intra, inter


class TestClassification:
    def test_three_classes(self, noc):
        local, intra, inter = _pick_pairs(noc)
        assert noc.classify(*local) is AccessClass.LOCAL
        assert noc.classify(*intra) is AccessClass.INTRA_STACK
        assert noc.classify(*inter) is AccessClass.INTER_STACK


class TestCostMatrix:
    def test_cost_values_per_class(self, noc):
        local, intra, inter = _pick_pairs(noc)
        cfg = noc.noc
        assert noc.distance_cost(*local) == cfg.d_local
        assert noc.distance_cost(*intra) == cfg.d_intra
        hops = noc.topology.hops_between(*inter)
        assert noc.distance_cost(*inter) == cfg.d_inter * hops

    def test_cost_matrix_symmetry(self, noc):
        """The all-pairs costs (the accessor's (N, N) broadcast) are
        symmetric on a healthy mesh and match the textbook matrix."""
        units = np.arange(noc.topology.num_units)
        m = noc.unit_costs(units[:, None], units[None, :])
        assert np.allclose(m, m.T)
        assert np.array_equal(m, unit_cost_matrix(noc))

    def test_read_only(self, noc):
        with pytest.raises(ValueError):
            noc.unit_stack_costs[0, 0] = 1.0


class TestLatency:
    def test_local_latency_zero(self, noc):
        assert noc.one_way_latency_ns(3, 3) == 0.0

    def test_intra_latency_is_one_crossbar_hop(self, noc):
        _, intra, _ = _pick_pairs(noc)
        assert noc.one_way_latency_ns(*intra) == 1.5

    def test_inter_latency_includes_both_crossbars(self, noc):
        _, _, inter = _pick_pairs(noc)
        hops = noc.topology.hops_between(*inter)
        expected = 2 * 1.5 + hops * 10.0
        assert noc.one_way_latency_ns(*inter) == pytest.approx(expected)

    def test_round_trip_is_twice_one_way(self, noc):
        _, _, inter = _pick_pairs(noc)
        assert noc.round_trip_latency_ns(*inter) == pytest.approx(
            2 * noc.one_way_latency_ns(*inter)
        )


class TestTrafficAccounting:
    def test_local_transfer_moves_no_bits(self, noc):
        meter = TrafficMeter()
        noc.record_transfer(meter, 5, 5)
        assert meter.local_accesses == 1
        assert meter.inter_bits == 0 and meter.intra_bits == 0

    def test_intra_transfer(self, noc):
        meter = TrafficMeter()
        _, intra, _ = _pick_pairs(noc)
        noc.record_transfer(meter, *intra)
        assert meter.intra_transfers == 1
        assert meter.intra_bits == 512
        assert meter.inter_hops == 0

    def test_inter_transfer_counts_hops_times_bits(self, noc):
        meter = TrafficMeter()
        _, _, inter = _pick_pairs(noc)
        hops = noc.topology.hops_between(*inter)
        noc.record_transfer(meter, *inter)
        assert meter.inter_hops == hops
        assert meter.inter_bits == 512 * hops
        # endpoints also cross the two stack crossbars
        assert meter.intra_transfers == 2

    def test_round_trip_counts_request_and_response(self, noc):
        meter = TrafficMeter()
        _, _, inter = _pick_pairs(noc)
        hops = noc.topology.hops_between(*inter)
        noc.record_round_trip(meter, *inter, request_bits=128)
        assert meter.inter_hops == 2 * hops
        assert meter.inter_bits == (128 + 512) * hops
        assert meter.messages == 2

    def test_meter_merge_and_reset(self, noc):
        a, b = TrafficMeter(), TrafficMeter()
        _, _, inter = _pick_pairs(noc)
        noc.record_transfer(a, *inter)
        noc.record_transfer(b, *inter)
        a.merge(b)
        assert a.inter_hops == 2 * noc.topology.hops_between(*inter)
        a.reset()
        assert a.inter_hops == 0 and a.messages == 0


class TestEnergy:
    def test_energy_formula(self, noc):
        meter = TrafficMeter()
        _, _, inter = _pick_pairs(noc)
        noc.record_transfer(meter, *inter)
        expected = meter.inter_bits * 4.0 + meter.intra_bits * 0.4
        assert noc.energy_pj(meter) == pytest.approx(expected)

    def test_no_traffic_no_energy(self, noc):
        assert noc.energy_pj(TrafficMeter()) == 0.0


class TestLinkFaults:
    """Fault-injection: rerouting, unreachability, metering, recovery."""

    def _stack_units(self, noc, stack):
        return [int(u) for u in noc.topology.units_in_stack(stack)]

    def test_healthy_mesh_reports_no_faults(self, noc):
        assert not noc.has_link_faults
        assert noc.is_reachable(0, 127)
        assert noc.effective_hops(0, 127) == noc.topology.hops_between(0, 127)

    def test_dead_link_forces_a_detour(self, noc):
        u0 = self._stack_units(noc, 0)[0]
        u1 = self._stack_units(noc, 1)[0]
        healthy = noc.effective_hops(u0, u1)
        assert healthy == 1
        noc.set_link_faults([(0, 1)])
        assert noc.has_link_faults
        assert noc.is_reachable(u0, u1)          # detour exists
        assert noc.effective_hops(u0, u1) == 3   # e.g. 0 -> 4 -> 5 -> 1
        route = noc.route_stacks(0, 1)
        assert route[0] == 0 and route[-1] == 1
        assert (0, 1) not in set(zip(route, route[1:]))
        assert noc.one_way_latency_ns(u0, u1) == pytest.approx(
            2 * noc.noc.intra_hop_ns + 3 * noc.noc.inter_hop_ns
        )

    def test_unit_stack_table_follows_link_faults(self, noc):
        """``set_link_faults`` rebuilds the (N, S) table: off its own
        stack a unit's entry is the cost from any unit of the stack, on
        it the crossbar's; clearing the faults restores the healthy
        table."""
        topo = noc.topology
        healthy = noc.unit_stack_costs.copy()
        assert healthy.shape == (topo.num_units, topo.num_stacks)
        noc.set_link_faults([(0, 1)], {(1, 5): 2.0})
        table = noc.unit_stack_costs
        assert table.flags.c_contiguous
        assert not np.array_equal(table, healthy)
        cost = unit_cost_matrix(noc)
        for s in range(topo.num_stacks):
            unit = int(topo.units_in_stack(s)[0])
            off_stack = topo.stack_of_unit != s
            assert np.array_equal(table[off_stack, s],
                                  cost[unit][off_stack])
            assert np.all(table[~off_stack, s] == noc.noc.d_intra)
        noc.clear_link_faults()
        assert np.array_equal(noc.unit_stack_costs, healthy)

    def test_earlier_context_scores_new_distances(self, noc):
        """A scheduler context built on the healthy mesh scores with the
        current link faults' distances after the fault controller's
        epoch bump, and with the healthy ones again once they clear:
        in ``nearest_alive``, a home-based ``task_workload`` miss and
        ``mem_cost_vector``."""
        topo = noc.topology
        ctx = SchedulerContext(memory_map=MemoryMap(topo, MemoryConfig()),
                               interconnect=noc,
                               exchange=WorkloadExchange(topo, 250))
        stack0 = self._stack_units(noc, 0)
        u0 = stack0[0]
        home = self._stack_units(noc, 1)[0]
        ctx.alive_mask = np.ones(topo.num_units, dtype=bool)
        ctx.alive_mask[stack0] = False
        task = Task(func=lambda c: None, timestamp=0, compute_cycles=10.0,
                    hint=TaskHint(addresses=np.array(
                        [home * ctx.memory_map.unit_capacity])),
                    spawner_unit=u0)

        def scores():
            cost = unit_cost_matrix(noc)
            stall = ((cost[u0, home] + ctx.dram_latency_ns)
                     * ctx.frequency_ghz * (1.0 - ctx.prefetch_hide_fraction))
            assert ctx.task_workload(task, u0) == 10.0 + stall
            assert np.array_equal(ctx.mem_cost_vector(task, False),
                                  cost[:, home])
            return ctx.nearest_alive(u0)

        healthy = scores()
        assert topo.stack_of(healthy) == 1
        for faults in ([(0, 1)], []):
            noc.set_link_faults(faults)
            ctx.cost_epoch += 1
            assert topo.stack_of(scores()) == (
                topo.config.mesh_cols if faults else 1)
        assert scores() == healthy

    def test_isolated_stack_is_unreachable(self, noc):
        # stack 0 (corner) only connects through (0, 1) and (0, 4).
        noc.set_link_faults([(0, 1), (0, 4)])
        u0 = self._stack_units(noc, 0)[0]
        far = self._stack_units(noc, 5)[0]
        assert not noc.is_reachable(u0, far)
        assert noc.effective_hops(u0, far) == -1
        assert noc.one_way_latency_ns(u0, far) == float("inf")
        assert noc.route_stacks(0, 5) is None
        # units inside the isolated stack still talk to each other
        u0b = self._stack_units(noc, 0)[1]
        assert noc.is_reachable(u0, u0b)
        assert noc.one_way_latency_ns(u0, u0b) == noc.noc.intra_hop_ns

    def test_unreachable_transfer_moves_no_mesh_bits(self, noc):
        from repro.arch.noc import TrafficMeter

        noc.set_link_faults([(0, 1), (0, 4)])
        meter = TrafficMeter()
        u0 = self._stack_units(noc, 0)[0]
        far = self._stack_units(noc, 5)[0]
        noc.record_transfer(meter, u0, far, bits=1024)
        assert meter.messages == 1
        assert meter.inter_hops == 0 and meter.inter_bits == 0
        assert meter.intra_bits == 0

    def test_degraded_link_costs_more_or_detours(self, noc):
        u0 = self._stack_units(noc, 0)[0]
        u1 = self._stack_units(noc, 1)[0]
        healthy = noc.one_way_latency_ns(u0, u1)
        noc.set_link_faults([], degraded={(0, 1): 4.0})
        slow = noc.one_way_latency_ns(u0, u1)
        assert slow > healthy
        # never worse than the best detour around the slow link (3 hops)
        assert slow <= 2 * noc.noc.intra_hop_ns + 3 * noc.noc.inter_hop_ns

    def test_link_meter_attributes_around_dead_links(self, noc):
        meter = noc.enable_link_metering()
        u0 = self._stack_units(noc, 0)[0]
        u1 = self._stack_units(noc, 1)[0]
        noc.set_link_faults([(0, 1)])
        from repro.arch.noc import TrafficMeter

        tm = TrafficMeter()
        noc.record_transfer(tm, u0, u1, bits=128)
        assert meter.link_flits, "rerouted traffic was attributed"
        for (a, b) in meter.link_flits:
            assert {a, b} != {0, 1}, "dead link accumulated flits"
        assert meter.total_link_flits() == 3  # one flit over each detour hop

    def test_clear_restores_healthy_mesh(self, noc):
        u0 = self._stack_units(noc, 0)[0]
        u1 = self._stack_units(noc, 1)[0]
        healthy_latency = noc.one_way_latency_ns(u0, u1)
        noc.set_link_faults([(0, 1)], degraded={(1, 2): 2.0})
        noc.clear_link_faults()
        assert not noc.has_link_faults
        assert noc.one_way_latency_ns(u0, u1) == healthy_latency
        assert noc.effective_hops(u0, u1) == 1
        if noc.link_meter is not None:
            assert noc.link_meter.router is None

    def test_all_one_multipliers_mean_no_faults(self, noc):
        noc.set_link_faults([], degraded={(0, 1): 1.0})
        assert not noc.has_link_faults


#: the scalar NoC API pinned pair by pair: mesh -> its stack rows/cols.
PINNED_MESHES = {"2x2": (2, 2), "3x5": (3, 5), "4x4": (4, 4)}
NOC_GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "exact_digests.json").read_text()
)


def _noc_states(noc):
    """Yield ``(state name, noc)`` through five link-fault states:
    healthy, link (0, 1) dead, link (0, 1) degraded 3x, stack 0 cut off
    from the mesh, and healthy again after ``clear_link_faults``."""
    cols = noc.topology.config.mesh_cols
    yield "healthy", noc
    noc.set_link_faults([(0, 1)])
    yield "dead", noc
    noc.set_link_faults([], degraded={(0, 1): 3.0})
    yield "degraded", noc
    noc.set_link_faults([(0, 1), (0, cols)])
    yield "isolated", noc
    noc.clear_link_faults()
    yield "cleared", noc


def _scalar_api_digest(noc) -> str:
    """SHA-256 over every unit pair's one-way latency, effective hops
    and reachability, then the bytes of the all-pairs cost matrix that
    ``unit_costs`` broadcasts to."""
    n = noc.topology.num_units
    pairs = [(a, b) for a in range(n) for b in range(n)]
    h = hashlib.sha256()
    h.update(np.array([noc.one_way_latency_ns(a, b) for a, b in pairs],
                      dtype=np.float64).tobytes())
    h.update(np.array([noc.effective_hops(a, b) for a, b in pairs],
                      dtype=np.int64).tobytes())
    h.update(np.array([noc.is_reachable(a, b) for a, b in pairs],
                      dtype=bool).tobytes())
    units = np.arange(n)
    h.update(noc.unit_costs(units[:, None], units[None, :]).tobytes())
    return h.hexdigest()


def noc_api_digests(mesh: str) -> dict:
    """``{"noc/<mesh>/<state>": digest}`` for one mesh shape."""
    rows, cols = PINNED_MESHES[mesh]
    noc = Interconnect(Topology(TopologyConfig(rows, cols), num_groups=1),
                       NocConfig(), MemoryConfig())
    return {f"noc/{mesh}/{state}": _scalar_api_digest(noc)
            for state, noc in _noc_states(noc)}


@pytest.mark.parametrize("mesh", sorted(PINNED_MESHES))
def test_scalar_api_pinned_pair_by_pair(mesh):
    """Every unit pair's ``one_way_latency_ns``, ``effective_hops`` and
    ``is_reachable``, and ``unit_costs``, match frozen digests in each
    link-fault state — a wrong table entry fails here even when no
    simulated point reads it."""
    digests = noc_api_digests(mesh)
    assert digests == {k: NOC_GOLDEN[k] for k in digests}
