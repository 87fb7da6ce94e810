"""Unit tests for the end-to-end memory access flow (Section 4.4)."""

import dataclasses

import numpy as np
import pytest

from repro.config import CacheStyle, MemoryConfig, ReplacementPolicy, default_config
from repro.core.system import NdpSystem, build_system


def make_system(design="O", mesh=(2, 2), service_ns=0.0) -> NdpSystem:
    cfg = default_config().scaled(*mesh)
    cfg = cfg.with_(memory=dataclasses.replace(cfg.memory,
                                               service_ns=service_ns))
    return build_system(design, cfg)


def line_in_unit(system, unit: int, index: int = 0) -> int:
    addr = unit * system.memory_map.unit_capacity + index * 64
    return system.memory_map.line_of(addr)


class TestCachelessAccess:
    def test_local_access_costs_dram_only(self):
        system = make_system("B")
        ms = system.memory_system
        line = line_in_unit(system, 5)
        latency = ms.access(5, line)
        assert latency == pytest.approx(34.0)
        assert ms.dram_stats.reads == 1

    def test_remote_access_adds_round_trip(self):
        system = make_system("B")
        ms = system.memory_system
        line = line_in_unit(system, 31)
        latency = ms.access(0, line)
        rt = system.interconnect.round_trip_latency_ns(0, 31)
        assert latency == pytest.approx(rt + 34.0)
        assert ms.traffic.inter_hops > 0

    def test_repeat_access_hits_l1(self):
        system = make_system("B")
        ms = system.memory_system
        line = line_in_unit(system, 31)
        first = ms.access(0, line)
        second = ms.access(0, line)
        assert second < first
        assert second == pytest.approx(system.sram.l1_hit_ns)
        assert ms.dram_stats.reads == 1  # no second DRAM read


class TestTravellerAccess:
    def test_home_nearest_goes_direct(self):
        system = make_system("O")
        ms = system.memory_system
        line = line_in_unit(system, 7)
        ms.access(7, line)  # requester == home
        stats = ms.cache_stats()
        assert stats.home_direct == 1
        assert stats.probes == 0

    def test_camp_miss_then_hit(self):
        system = make_system("O")
        cfg = system.config
        # Force insertion (no bypass) for determinism.
        for cache in ms_caches(system):
            cache._insertion.bypass_probability = 0.0
        ms = system.memory_system
        mapper = system.camp_mapper
        # Find a (line, requester) pair whose nearest location is a camp.
        line, requester, camp = _find_camp_probe(system)
        lat_miss = ms.access(requester, line)
        assert ms.cache_stats().misses == 1
        assert ms.caches[camp].contains(line)
        # A second requester near the same camp now hits.
        system.units[requester].l1.invalidate_all()
        system.units[requester].prefetch.invalidate_all()
        lat_hit = ms.access(requester, line)
        assert ms.cache_stats().hits == 1
        assert lat_hit < lat_miss

    def test_miss_pays_more_than_cacheless_direct(self):
        """The probe detour costs extra on a miss."""
        system = make_system("O")
        for cache in ms_caches(system):
            cache._insertion.bypass_probability = 1.0  # never insert
        line, requester, _ = _find_camp_probe(system)
        lat = system.memory_system.access(requester, line)
        home = system.memory_map.home_of_line(line)
        direct = (system.interconnect.round_trip_latency_ns(requester, home)
                  + 34.0)
        assert lat > direct - 1e-9

    def test_writes_bypass_cache_and_cost_nothing(self):
        system = make_system("O")
        ms = system.memory_system
        line = line_in_unit(system, 9)
        assert ms.write(0, line) == 0.0
        assert ms.dram_stats.writes == 1
        assert ms.cache_stats().probes == 0

    def test_end_timestamp_invalidates_all(self):
        system = make_system("O")
        for cache in ms_caches(system):
            cache._insertion.bypass_probability = 0.0
        line, requester, camp = _find_camp_probe(system)
        ms = system.memory_system
        ms.access(requester, line)
        assert ms.caches[camp].occupancy() == 1
        ms.end_timestamp()
        assert ms.caches[camp].occupancy() == 0
        assert system.units[requester].l1.occupancy() == 0


class TestDramContention:
    def test_queue_delay_when_channel_busy(self):
        system = make_system("B", service_ns=5.0)
        ms = system.memory_system
        line = line_in_unit(system, 3)
        lines = [line_in_unit(system, 3, i) for i in range(10)]
        # Ten accesses arriving at the same instant serialize.
        total = sum(ms.access(0, ln, now_ns=0.0) for ln in lines)
        assert ms.total_queue_delay_ns > 0

    def test_no_contention_when_disabled(self):
        system = make_system("B", service_ns=0.0)
        ms = system.memory_system
        lines = [line_in_unit(system, 3, i) for i in range(10)]
        for ln in lines:
            ms.access(0, ln, now_ns=0.0)
        assert ms.total_queue_delay_ns == 0.0

    def test_writes_do_not_block_reads(self):
        system = make_system("B", service_ns=5.0)
        ms = system.memory_system
        for i in range(20):
            ms.write(0, line_in_unit(system, 3, i), now_ns=0.0)
        delay_before = ms.total_queue_delay_ns
        ms.access(0, line_in_unit(system, 3, 99), now_ns=0.0)
        assert ms.total_queue_delay_ns == delay_before


class TestDramTagStyle:
    def test_probe_pays_dram_tag_access(self):
        system = make_system("O")
        cfg = system.config.with_(
            cache=dataclasses.replace(system.config.cache,
                                      style=CacheStyle.DRAM_TAG)
        )
        system2 = NdpSystem(cfg, design_name="O")
        line, requester, _ = _find_camp_probe(system2)
        system2.memory_system.access(requester, line)
        assert system2.memory_system.dram_stats.tag_accesses_in_dram >= 1


class TestSramStyle:
    def test_hit_avoids_dram(self):
        system = make_system("O")
        cfg = system.config.with_(
            cache=dataclasses.replace(system.config.cache,
                                      style=CacheStyle.SRAM,
                                      bypass_probability=0.0)
        )
        system2 = NdpSystem(cfg, design_name="O")
        ms = system2.memory_system
        line, requester, camp = _find_camp_probe(system2)
        ms.access(requester, line)   # miss + SRAM fill
        fills_dram = ms.dram_stats.cache_fills
        assert fills_dram == 0       # fill went to SRAM, not DRAM
        system2.units[requester].l1.invalidate_all()
        system2.units[requester].prefetch.invalidate_all()
        reads_before = ms.dram_stats.cache_reads
        ms.access(requester, line)   # hit served from SRAM
        assert ms.dram_stats.cache_reads == reads_before


# ----------------------------------------------------------------------
def ms_caches(system):
    return [c for c in system.memory_system.caches if c is not None]


def _find_camp_probe(system):
    """A (line, requester, camp) where the nearest location is a camp."""
    mapper = system.camp_mapper
    cost = system.interconnect.cost_matrix
    for unit in range(system.config.num_units):
        for idx in range(64):
            addr = unit * system.memory_map.unit_capacity + idx * 64
            line = system.memory_map.line_of(addr)
            for requester in range(system.config.num_units):
                nearest, is_home = mapper.nearest_location(
                    line, requester, cost
                )
                if not is_home:
                    return line, requester, nearest
    raise AssertionError("no camp-probing pair found")


class TestFusedKernelOracle:
    """``access_many`` against a loop of per-line ``access()`` calls.

    Two identical healthy machines with the same seed see the same
    random hint batches — one through the fused kernel, one line by
    line with the same issue spread — and must end in the same state:
    totals, every traffic/DRAM/SRAM/cache counter, the DRAM channel
    clocks and the RNG.  The per-line flow is the reference the kernel
    reproduces, so this pins the kernel at unit scope.
    """

    @staticmethod
    def machine(design, replacement):
        cfg = default_config().scaled(2, 2)
        cfg = cfg.with_(cache=dataclasses.replace(cfg.cache,
                                                  replacement=replacement))
        return build_system(design, cfg)

    @staticmethod
    def state(system):
        ms = system.memory_system
        return {
            "traffic": dataclasses.asdict(ms.traffic),
            "dram": dataclasses.asdict(ms.dram_stats),
            "sram": dataclasses.asdict(ms.sram_stats),
            "cache": dataclasses.asdict(ms.cache_stats()),
            "queue_delay_ns": ms.total_queue_delay_ns,
            "dram_free_ns": list(ms._dram_free_ns),
            "rng": system.rng.bit_generator.state,
        }

    @pytest.mark.parametrize("replacement", list(ReplacementPolicy))
    @pytest.mark.parametrize("design", ["C", "O"])
    def test_access_many_equals_access_loop(self, design, replacement):
        fused = self.machine(design, replacement)
        oracle = self.machine(design, replacement)
        units = fused.config.num_units
        # A small line pool spread over every unit, so batches repeat
        # lines (L1, prefetch and camp hits), plus lines that all map
        # to camp set 0, so full sets evict.
        sets = fused.memory_system.caches[0].num_sets
        pool = [line_in_unit(fused, u, i)
                for u in range(units) for i in range(24)]
        pool += [line_in_unit(fused, u, i * sets)
                 for u in range(units) for i in range(1, 4)]
        rng = np.random.default_rng(11)
        now = 0.0
        for step in range(160):
            requester = int(rng.integers(units))
            batch = [pool[i] for i in rng.integers(
                len(pool), size=int(rng.integers(1, 40)))]
            spacing = float(rng.choice([0.0, 0.5, 2.0]))
            cap = float(rng.choice([0.0, 8.0, 1e9]))
            total = fused.memory_system.access_many(
                requester, batch, now, spacing, cap)
            expected = 0.0
            for i, line in enumerate(batch):
                expected += oracle.memory_system.access(
                    requester, line, now + min(i * spacing, cap))
            assert total == expected
            now += float(rng.integers(1, 200))
            if step % 40 == 39:
                fused.memory_system.end_timestamp()
                oracle.memory_system.end_timestamp()
        stats = fused.memory_system.cache_stats()
        assert stats.hits > 0 and stats.evictions > 0
        assert self.state(fused) == self.state(oracle)
