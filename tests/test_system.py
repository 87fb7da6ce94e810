"""System-level tests: design assembly, energy integration, host model,
and the public simulate API."""

import dataclasses

import numpy as np
import pytest

import repro
from repro.arch.energy import EnergyBreakdown
from repro.config import (
    CacheStyle,
    SchedulingPolicy,
    default_config,
    experiment_config,
)
from repro.core.host import HostConfig, HostModel
from repro.core.system import DESIGN_POINTS, NdpSystem, build_system
from repro.faults import FaultEvent, FaultKind, FaultSchedule


class TestBuildSystem:
    def test_unknown_design_rejected(self):
        with pytest.raises(KeyError):
            build_system("Z")

    def test_design_overrides_config(self):
        cfg = default_config()  # default policy HYBRID + TRAVELLER
        system = build_system("B", cfg)
        assert system.config.scheduler.policy is SchedulingPolicy.COLOCATE
        assert system.config.cache.style is CacheStyle.NONE

    def test_cacheless_design_has_no_camp_mapper(self):
        system = build_system("Sm")
        assert system.camp_mapper is None
        assert all(c is None for c in system.memory_system.caches)

    def test_cached_design_reserves_allocator_space(self):
        cached = build_system("O").allocator()
        plain = build_system("B").allocator()
        assert cached._usable_per_unit < plain._usable_per_unit

    def test_unit_count_matches_topology(self):
        system = build_system("O", experiment_config().scaled(2, 2))
        assert len(system.units) == 32

    def test_no_unit_pair_tables_after_a_run(self):
        """After pr runs on a 4x4 mesh (O, Sl, and O with a dead and a
        degraded link), no attribute of the topology, the interconnect,
        the memory system, the scheduler, its context or the camp
        mapper is an (N, N) array or an N-long list of N-long lists:
        every unit pair is priced through ``Interconnect.unit_costs``."""
        link_faults = FaultSchedule(events=(
            FaultEvent(FaultKind.LINK_FAIL, link=(0, 1), at_timestamp=1),
            FaultEvent(FaultKind.LINK_DEGRADE, link=(1, 2), at_timestamp=1,
                       factor=3.0),
        ))
        config = experiment_config().scaled(4, 4)
        n = config.num_units

        def unit_pair_table(value) -> bool:
            if isinstance(value, tuple):
                return any(unit_pair_table(v) for v in value)
            if isinstance(value, np.ndarray):
                return value.shape == (n, n)
            return (isinstance(value, list) and len(value) == n
                    and all(isinstance(row, list) and len(row) == n
                            for row in value))

        for design, schedule in (("O", None), ("Sl", None),
                                 ("O", link_faults)):
            system = build_system(design, config, fault_schedule=schedule)
            system.run(repro.make_workload("pr"))
            assert system.interconnect.has_link_faults == bool(schedule)
            for obj in (system.topology, system.interconnect,
                        system.memory_system, system.scheduler,
                        system.scheduler.context, system.camp_mapper):
                if obj is None:
                    continue
                tables = [name for name, value in vars(obj).items()
                          if unit_pair_table(value)]
                assert tables == [], (design, type(obj).__name__)


class TestEnergyIntegration:
    def test_components_all_positive_for_real_run(self):
        r = repro.simulate("O", "pr", num_vertices=256, iterations=2)
        e = r.energy
        assert e.core_sram_pj > 0
        assert e.dram_pj > 0
        assert e.interconnect_pj > 0
        assert e.static_pj > 0

    def test_static_energy_scales_with_makespan(self):
        cfg = experiment_config()
        sys1 = build_system("B", cfg)
        e_short = sys1.energy_model.integrate(
            0, sys1.memory_system.traffic, sys1.memory_system.dram_stats,
            sys1.memory_system.sram_stats, makespan_cycles=1000.0,
        )
        e_long = sys1.energy_model.integrate(
            0, sys1.memory_system.traffic, sys1.memory_system.dram_stats,
            sys1.memory_system.sram_stats, makespan_cycles=2000.0,
        )
        assert e_long.static_pj == pytest.approx(2 * e_short.static_pj)

    def test_core_energy_is_instructions_times_371pj(self):
        sys1 = build_system("B")
        e = sys1.energy_model.integrate(
            instructions=1000.0,
            traffic=sys1.memory_system.traffic,
            dram_stats=sys1.memory_system.dram_stats,
            sram_stats=sys1.memory_system.sram_stats,
            makespan_cycles=0.0,
        )
        assert e.core_sram_pj == pytest.approx(371_000.0)


class TestHostModel:
    def test_roofline_is_max_of_compute_and_memory(self):
        host = HostModel(HostConfig(parallel_efficiency=1.0))
        compute_bound = host.makespan_ns(instructions=1e9, line_accesses=1)
        memory_bound = host.makespan_ns(instructions=1, line_accesses=1e9)
        assert compute_bound > 0 and memory_bound > 0
        # doubling the binding resource doubles the time
        assert host.makespan_ns(2e9, 1) == pytest.approx(2 * compute_bound)

    def test_ndp_beats_host_on_pagerank(self):
        # Full default-size run: the host comparison is scale-sensitive
        # (short runs are dominated by NDP barrier overhead).
        base = repro.simulate("B", "pr")
        speedup = HostModel().speedup_of(base)
        assert speedup > 2.0  # paper: 3.70x at full scale


class TestSimulateApi:
    def test_simulate_by_name_with_kwargs(self):
        r = repro.simulate("B", "kmeans", num_points=256, iterations=1)
        assert r.tasks_executed == 256

    def test_compare_designs_shares_dataset(self):
        res = repro.compare_designs(
            ["B", "O"], "pr", num_vertices=256, iterations=2
        )
        assert res["B"].tasks_executed == res["O"].tasks_executed

    def test_all_designs_constant(self):
        assert repro.ALL_DESIGNS == ("B", "Sm", "Sl", "Sh", "C", "O")
        assert set(repro.ALL_DESIGNS) == set(DESIGN_POINTS)


class TestDesignBehaviourEndToEnd:
    """The paper's core claims on a fast knn instance."""

    @pytest.fixture(scope="class")
    def results(self):
        # Default-size knn: the design contrasts need the full query
        # skew to show (smaller instances wash them out).
        return repro.compare_designs(repro.ALL_DESIGNS,
                                     repro.make_workload("knn"))

    def test_cache_cuts_remote_hops(self, results):
        assert results["C"].inter_hops < results["B"].inter_hops
        assert results["O"].inter_hops < results["B"].inter_hops

    def test_balancing_designs_flatten_load(self, results):
        for d in ("Sl", "Sh", "O"):
            assert (results[d].load_imbalance()
                    < results["Sm"].load_imbalance()), d

    def test_abndp_is_fastest(self, results):
        base = results["B"]
        speeds = {d: r.speedup_over(base) for d, r in results.items()}
        assert speeds["O"] == max(speeds.values())
        assert speeds["O"] > 1.2

    def test_traveller_hits_something(self, results):
        assert results["O"].cache.hit_rate > 0.3
