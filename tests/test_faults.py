"""Tests for the fault-injection & resilience subsystem (repro.faults)."""

import numpy as np
import pytest

import repro
from repro.arch.memory_map import MemoryMap
from repro.arch.noc import Interconnect
from repro.arch.topology import Topology
from repro.config import (
    CacheConfig,
    MemoryConfig,
    NocConfig,
    TopologyConfig,
    experiment_config,
)
from repro.core.cache.camp import CampMapper
from repro.core.system import build_system
from repro.faults import (
    FaultEvent,
    FaultKind,
    FaultSchedule,
    ResilienceStats,
    make_random_schedule,
)
from repro.sweep.keys import run_key
from repro.sweep.serialize import result_from_dict, result_to_dict


def small_cfg():
    """2x2 stacks (32 units) keeps faulted end-to-end runs fast."""
    return experiment_config().scaled(2, 2)


def small_workload():
    return repro.make_workload("pr", num_vertices=256, iterations=2)


# ----------------------------------------------------------------------
# schedule declaration & serialization
# ----------------------------------------------------------------------
class TestFaultEvent:
    def test_requires_exactly_one_trigger(self):
        with pytest.raises(ValueError, match="exactly one trigger"):
            FaultEvent(FaultKind.UNIT_FAIL, unit=3).validate()
        with pytest.raises(ValueError, match="exactly one trigger"):
            FaultEvent(FaultKind.UNIT_FAIL, unit=3, at_timestamp=1,
                       probability=0.5).validate()

    def test_kind_needs_matching_target(self):
        with pytest.raises(ValueError, match="needs a unit"):
            FaultEvent(FaultKind.UNIT_FAIL, at_timestamp=1).validate()
        with pytest.raises(ValueError, match="needs a .*link"):
            FaultEvent(FaultKind.LINK_FAIL, at_timestamp=1).validate()

    def test_degradations_need_factor_above_one(self):
        with pytest.raises(ValueError, match="factor > 1"):
            FaultEvent(FaultKind.VAULT_SLOW, unit=0, at_timestamp=1,
                       factor=1.0).validate()
        with pytest.raises(ValueError, match="factor > 1"):
            FaultEvent(FaultKind.LINK_DEGRADE, link=(0, 1), at_timestamp=1,
                       factor=0.5).validate()

    def test_dict_round_trip(self):
        ev = FaultEvent(FaultKind.LINK_DEGRADE, link=(2, 3), at_timestamp=4,
                        duration_phases=2, factor=3.0)
        assert FaultEvent.from_dict(ev.to_dict()) == ev

    def test_transient_duration_must_be_positive(self):
        with pytest.raises(ValueError, match="duration_phases"):
            FaultEvent(FaultKind.UNIT_FAIL, unit=0, at_timestamp=1,
                       duration_phases=0).validate()


class TestFaultSchedule:
    def test_empty_schedule_is_falsy(self):
        assert not FaultSchedule()
        assert len(FaultSchedule()) == 0
        sched = FaultSchedule.unit_failures([1, 2])
        assert sched and len(sched) == 2

    def test_json_file_round_trip(self, tmp_path):
        sched = FaultSchedule((
            FaultEvent(FaultKind.UNIT_FAIL, unit=7, at_timestamp=1),
            FaultEvent(FaultKind.LINK_FAIL, link=(0, 1), probability=0.25),
            FaultEvent(FaultKind.VAULT_SLOW, unit=3, at_timestamp=2,
                       factor=4.0, duration_phases=5),
        ))
        path = tmp_path / "sched.json"
        sched.dump(str(path))
        assert FaultSchedule.load(str(path)) == sched

    def test_random_schedule_is_seed_deterministic(self):
        topo = Topology(TopologyConfig(), num_groups=4)
        links = topo.mesh_links()
        a = make_random_schedule(topo.num_units, links, unit_fails=4,
                                 link_fails=2, vault_slowdowns=1, seed=7)
        b = make_random_schedule(topo.num_units, links, unit_fails=4,
                                 link_fails=2, vault_slowdowns=1, seed=7)
        c = make_random_schedule(topo.num_units, links, unit_fails=4,
                                 link_fails=2, vault_slowdowns=1, seed=8)
        assert a == b
        assert a != c
        kinds = [ev.kind for ev in a.events]
        assert kinds.count(FaultKind.UNIT_FAIL) == 4
        assert kinds.count(FaultKind.LINK_FAIL) == 2
        assert kinds.count(FaultKind.VAULT_SLOW) == 1
        a.validate()

    def test_random_schedule_rejects_killing_every_unit(self):
        topo = Topology(TopologyConfig(), num_groups=4)
        with pytest.raises(ValueError, match="every unit"):
            make_random_schedule(topo.num_units, topo.mesh_links(),
                                 unit_fails=topo.num_units)


# ----------------------------------------------------------------------
# cache-key and serialization compatibility
# ----------------------------------------------------------------------
class TestKeyCompatibility:
    def test_fault_free_key_is_unchanged_by_subsystem(self):
        cfg = small_cfg()
        wl = small_workload()
        # a schedule must change the key; its absence must not.
        base = run_key("O", wl, cfg)
        assert base == run_key("O", wl, cfg, faults=None)
        assert base == run_key("O", wl, cfg, faults=FaultSchedule())
        sched = FaultSchedule.unit_failures([1])
        assert run_key("O", wl, cfg, faults=sched) != base

    def test_different_schedules_get_different_keys(self):
        cfg = small_cfg()
        wl = small_workload()
        k1 = run_key("O", wl, cfg,
                     faults=FaultSchedule.unit_failures([1]))
        k2 = run_key("O", wl, cfg,
                     faults=FaultSchedule.unit_failures([2]))
        assert k1 != k2

    def test_faulted_key_is_pinned(self):
        # cached faulted entries were stored under this key; the key
        # payload must not move when the fault part is built elsewhere.
        cfg = experiment_config().scaled(2, 2)
        sched = FaultSchedule.unit_failures([1])
        assert run_key("O", "pr", cfg, faults=sched) == (
            "3292e5eed39518b2210f8f33029fcaaa"
            "6702025a7956e5393ca4258cde349a07")

    def test_fault_free_result_serializes_without_resilience(self):
        r = repro.simulate("B", small_workload(), small_cfg())
        d = result_to_dict(r)
        assert "resilience" not in d
        assert result_from_dict(d).resilience is None

    def test_resilience_stats_round_trip(self):
        stats = ResilienceStats(unit_failures=2, tasks_reexecuted=9,
                                recovery_cycles=2100.0,
                                unreachable_accesses=17)
        assert ResilienceStats.from_dict(stats.to_dict()) == stats


# ----------------------------------------------------------------------
# camp remapping around dead units
# ----------------------------------------------------------------------
class TestCampRemap:
    def _mapper(self):
        cfg = small_cfg()
        cache = CacheConfig(num_camps=3)
        topo = Topology(cfg.topology, num_groups=cache.num_groups())
        memmap = MemoryMap(topo, MemoryConfig())
        noc = Interconnect(topo, NocConfig(), MemoryConfig())
        return topo, CampMapper(noc, memmap, cache)

    def test_all_alive_mask_is_identity(self):
        topo, mapper = self._mapper()
        line = 12345
        healthy = mapper.camp_locations(line)
        dropped = mapper.set_alive_mask(np.ones(topo.num_units, dtype=bool))
        assert dropped == 1  # the memoized table for `line`
        assert mapper._alive is None  # all-True normalizes to healthy
        assert mapper.camp_locations(line) == healthy

    def test_dead_unit_never_hosts_a_camp(self):
        topo, mapper = self._mapper()
        line = 777
        home = mapper.home_unit(line)
        healthy = mapper.camp_locations(line)
        victim = next(u for u in healthy if u != home)
        alive = np.ones(topo.num_units, dtype=bool)
        alive[victim] = False
        mapper.set_alive_mask(alive)
        locs = mapper.camp_locations(line)
        assert victim not in locs
        assert len(locs) == len(healthy)  # a replacement camp was elected
        # the home group always keeps the home unit itself
        home_group = topo.group_of(home)
        assert mapper.locations(line)[home_group] == home
        # surviving camps are alive and stay inside the victim's group
        for u in locs:
            assert alive[u]
        assert any(topo.group_of(u) == topo.group_of(victim) for u in locs)

    def test_fully_dead_group_drops_its_camp(self):
        topo, mapper = self._mapper()
        line = 777
        home = mapper.home_unit(line)
        healthy = mapper.camp_locations(line)
        victim = next(u for u in healthy if u != home)
        group = topo.group_of(victim)
        alive = np.ones(topo.num_units, dtype=bool)
        alive[topo.units_in_group(group)] = False
        mapper.set_alive_mask(alive)
        locs = mapper.camp_locations(line)
        assert all(topo.group_of(u) != group for u in locs)
        assert len(locs) == len(healthy) - 1  # the -1 sentinel dropped

    def test_restoring_liveness_restores_mapping(self):
        topo, mapper = self._mapper()
        line = 424242
        healthy = mapper.camp_locations(line)
        home = mapper.home_unit(line)
        victim = next(u for u in healthy if u != home)
        alive = np.ones(topo.num_units, dtype=bool)
        alive[victim] = False
        mapper.set_alive_mask(alive)
        assert mapper.camp_locations(line) != healthy
        mapper.set_alive_mask(None)
        assert mapper.camp_locations(line) == healthy


# ----------------------------------------------------------------------
# the controller on a live machine
# ----------------------------------------------------------------------
class TestFaultController:
    def test_never_kills_the_last_unit(self):
        cfg = small_cfg()
        sched = FaultSchedule.unit_failures(range(cfg.topology.num_units))
        system = build_system("O", cfg, fault_schedule=sched)
        result = system.run(small_workload())
        ctl = system.fault_controller
        assert int(ctl.alive.sum()) == 1
        assert ctl.stats.unit_failures == cfg.topology.num_units - 1
        assert result.tasks_executed > 0

    def test_transient_fault_recovers(self):
        cfg = small_cfg()
        sched = FaultSchedule.unit_failures([5], at_timestamp=1,
                                            duration_phases=2)
        system = build_system("O", cfg, fault_schedule=sched)
        # enough phases that the recovery timestamp is actually reached
        system.run(repro.make_workload("pr", num_vertices=256, iterations=6))
        ctl = system.fault_controller
        assert ctl.stats.unit_failures == 1
        assert ctl.stats.unit_recoveries == 1
        assert bool(ctl.alive.all())

    def test_double_fault_is_ignored(self):
        cfg = small_cfg()
        sched = FaultSchedule((
            FaultEvent(FaultKind.UNIT_FAIL, unit=3, at_timestamp=1),
            FaultEvent(FaultKind.UNIT_FAIL, unit=3, at_timestamp=2),
        ))
        system = build_system("O", cfg, fault_schedule=sched)
        system.run(small_workload())
        assert system.fault_controller.stats.unit_failures == 1

    def test_rejects_unknown_targets(self):
        cfg = small_cfg()
        with pytest.raises(ValueError, match="unknown unit"):
            build_system("O", cfg,
                         fault_schedule=FaultSchedule.unit_failures([999]))
        bad_link = FaultSchedule((FaultEvent(
            FaultKind.LINK_FAIL, link=(0, 3), at_timestamp=1),))
        with pytest.raises(ValueError, match="non-adjacent"):
            build_system("O", cfg, fault_schedule=bad_link)

    def test_probabilistic_trigger_is_reproducible(self):
        cfg = small_cfg()
        sched = FaultSchedule((FaultEvent(
            FaultKind.UNIT_FAIL, unit=9, probability=0.3),))
        wl = small_workload()
        runs = [build_system("O", cfg, fault_schedule=sched).run(wl)
                for _ in range(2)]
        assert (runs[0].makespan_cycles == runs[1].makespan_cycles)
        assert (runs[0].resilience.to_dict()
                == runs[1].resilience.to_dict())


# ----------------------------------------------------------------------
# end-to-end campaigns: the zero-lost-tasks guarantee
# ----------------------------------------------------------------------
class TestCampaign:
    """A healthy reference plus one faulted point on a ``faults`` axis,
    through the campaign executor every grid command uses."""

    @staticmethod
    def run():
        from repro.campaign import CampaignSpec, run_campaign

        campaign = CampaignSpec.from_dict({
            "name": "faults",
            "base": {"design": "O", "workload": "pr", "mesh": "2x2",
                     "workload_kwargs": {"num_vertices": 256,
                                         "iterations": 2}},
            "axes": {"faults": [None, {"random": {
                "unit_fails": 4, "link_fails": 2,
                "timestamp_spread": 1,  # the small run has few phases
            }}]},
        })
        report = run_campaign(campaign, campaign.expand(), cache=False,
                              jobs=1)
        assert not report.failures
        return [o.result for o in report.outcomes]

    @pytest.fixture(scope="class")
    def campaign(self):
        return self.run()

    def test_no_tasks_are_lost(self, campaign):
        healthy, faulted = campaign
        assert healthy.tasks_executed - faulted.tasks_executed == 0

    def test_recovery_metrics_reported(self, campaign):
        res = campaign[1].resilience
        assert res is not None
        assert res.unit_failures == 4
        assert res.link_failures == 2
        assert res.recovery_cycles > 0

    def test_faults_cost_time_not_work(self, campaign):
        healthy, faulted = campaign
        assert faulted.makespan_cycles / healthy.makespan_cycles > 1.0
        assert faulted.tasks_executed == healthy.tasks_executed

    def test_healthy_reference_has_no_resilience(self, campaign):
        assert campaign[0].resilience is None

    def test_empty_schedule_rejected(self, tmp_path, capsys):
        """Expansion alone would run an empty schedule as a healthy
        point; ``repro faults`` refuses it before running anything."""
        from repro.cli import main

        path = tmp_path / "empty.json"
        FaultSchedule().dump(str(path))
        assert main(["faults", "O", "pr", "--schedule", str(path)]) == 2
        assert "empty" in capsys.readouterr().err

    def test_same_seed_campaign_is_bit_identical(self, campaign):
        a, b = campaign[1], self.run()[1]
        assert a.makespan_cycles == b.makespan_cycles
        assert a.tasks_executed == b.tasks_executed
        assert a.inter_hops == b.inter_hops
        assert a.resilience.to_dict() == b.resilience.to_dict()


# ----------------------------------------------------------------------
# DRAM vault latency scaling
# ----------------------------------------------------------------------
class TestVaultSlowdown:
    def test_access_latency_scales_per_unit(self):
        from repro.arch.dram import DramChannel

        dram = DramChannel(MemoryConfig())
        base = dram.access_latency_ns
        assert dram.access_latency_at(0) == base
        assert dram.unit_latencies(32) == [base] * 32
        scale = np.ones(32)
        scale[7] = 4.0
        dram.set_unit_latency_scale(scale)
        assert dram.access_latency_at(7) == pytest.approx(4.0 * base)
        assert dram.access_latency_at(0) == pytest.approx(base)
        # the kernel's per-unit list follows every change of scale
        assert dram.unit_latencies(32) == [
            dram.access_latency_at(u) for u in range(32)]
        # all-ones normalizes back to the fast healthy path
        dram.set_unit_latency_scale(np.ones(32))
        assert dram._latency_scale is None
        assert dram.unit_latencies(32) == [base] * 32

    def test_vault_slow_run_is_slower(self):
        cfg = small_cfg()
        wl = small_workload()
        healthy = repro.simulate("O", wl, cfg)
        sched = FaultSchedule((FaultEvent(
            FaultKind.VAULT_SLOW, unit=0, at_timestamp=1, factor=8.0),))
        slow = repro.simulate("O", wl, cfg, fault_schedule=sched)
        assert slow.resilience.vault_slowdowns == 1
        assert slow.makespan_cycles > healthy.makespan_cycles
        assert slow.tasks_executed == healthy.tasks_executed
