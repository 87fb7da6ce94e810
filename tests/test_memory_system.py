"""Unit tests for the end-to-end memory access flow (Section 4.4)."""

import dataclasses

import numpy as np
import pytest

from repro.config import (CacheStyle, MemoryConfig, ReplacementPolicy,
                          default_config, experiment_config)
from repro.core.system import NdpSystem, build_system
from repro.faults import FaultEvent, FaultKind, FaultSchedule, ResilienceStats
from repro.runtime.task import TaskHint
from tests import access_reference as reference
from tests import camp_reference
from tests.access_reference import PARTITION
from tests.cost_reference import unit_cost_matrix


def slow_crossbar_config():
    """Table 1 with a mesh hop (1 ns) cheaper than a crossbar hop."""
    cfg = default_config()
    return cfg.with_(noc=dataclasses.replace(cfg.noc, inter_hop_ns=1.0))


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
        latency = ms.access_many(5, [line], 0.0)
        assert latency == pytest.approx(34.0)
        assert ms.dram_stats.reads == 1

    def test_remote_access_adds_round_trip(self):
        system = make_system("B")
        ms = system.memory_system
        line = line_in_unit(system, 31)
        latency = ms.access_many(0, [line], 0.0)
        rt = system.interconnect.round_trip_latency_ns(0, 31)
        assert latency == pytest.approx(rt + 34.0)
        assert ms.traffic.inter_hops > 0

    def test_repeat_access_hits_l1(self):
        system = make_system("B")
        ms = system.memory_system
        line = line_in_unit(system, 31)
        first = ms.access_many(0, [line], 0.0)
        second = ms.access_many(0, [line], 0.0)
        assert second < first
        assert second == pytest.approx(system.sram.l1_hit_ns)
        assert ms.dram_stats.reads == 1  # no second DRAM read


class TestTravellerAccess:
    def test_home_nearest_goes_direct(self):
        system = make_system("O")
        ms = system.memory_system
        line = line_in_unit(system, 7)
        ms.access_many(7, [line], 0.0)  # requester == home
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
        lat_miss = ms.access_many(requester, [line], 0.0)
        assert ms.cache_stats().misses == 1
        assert ms.caches[camp].contains(line)
        # A second requester near the same camp now hits.
        system.units[requester].l1.invalidate_all()
        system.units[requester].prefetch.invalidate_all()
        lat_hit = ms.access_many(requester, [line], 0.0)
        assert ms.cache_stats().hits == 1
        assert lat_hit < lat_miss

    def test_miss_pays_more_than_cacheless_direct(self):
        """The probe detour costs extra on a miss."""
        system = make_system("O")
        for cache in ms_caches(system):
            cache._insertion.bypass_probability = 1.0  # never insert
        line, requester, _ = _find_camp_probe(system)
        lat = system.memory_system.access_many(requester, [line], 0.0)
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
        ms.access_many(requester, [line], 0.0)
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
        total = sum(ms.access_many(0, [ln], 0.0) for ln in lines)
        assert ms.total_queue_delay_ns > 0

    def test_no_contention_when_disabled(self):
        system = make_system("B", service_ns=0.0)
        ms = system.memory_system
        lines = [line_in_unit(system, 3, i) for i in range(10)]
        for ln in lines:
            ms.access_many(0, [ln], 0.0)
        assert ms.total_queue_delay_ns == 0.0

    def test_writes_do_not_block_reads(self):
        system = make_system("B", service_ns=5.0)
        ms = system.memory_system
        for i in range(20):
            ms.write(0, line_in_unit(system, 3, i), now_ns=0.0)
        delay_before = ms.total_queue_delay_ns
        ms.access_many(0, [line_in_unit(system, 3, 99)], 0.0)
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
        system2.memory_system.access_many(requester, [line], 0.0)
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
        ms.access_many(requester, [line], 0.0)   # miss + SRAM fill
        fills_dram = ms.dram_stats.cache_fills
        assert fills_dram == 0       # fill went to SRAM, not DRAM
        system2.units[requester].l1.invalidate_all()
        system2.units[requester].prefetch.invalidate_all()
        reads_before = ms.dram_stats.cache_reads
        ms.access_many(requester, [line], 0.0)   # hit served from SRAM
        assert ms.dram_stats.cache_reads == reads_before


# ----------------------------------------------------------------------
def ms_caches(system):
    return [c for c in system.memory_system.caches if c is not None]


def _find_camp_probe(system):
    """A (line, requester, camp) where the nearest location is a camp."""
    mapper = system.camp_mapper
    for unit in range(system.config.num_units):
        for idx in range(64):
            addr = unit * system.memory_map.unit_capacity + idx * 64
            line = system.memory_map.line_of(addr)
            for requester in range(system.config.num_units):
                nearest, is_home = mapper.nearest_location(line, requester)
                if not is_home:
                    return line, requester, nearest
    raise AssertionError("no camp-probing pair found")


class TestFaultState:
    def test_set_fault_state_applies_to_next_batch(self):
        """A dead home times out from the next batch on and serves
        again once the mask is cleared: no kernel table outlives
        ``set_fault_state``."""
        system = make_system("B")
        ms = system.memory_system
        stats = ResilienceStats()
        ms.set_fault_state(None, stats)
        line = line_in_unit(system, 3)
        ms.access_many(0, [line_in_unit(system, 3, 1)], 0.0)
        alive = np.ones(system.config.num_units, dtype=bool)
        alive[3] = False
        ms.set_fault_state(alive, stats)
        assert ms.access_many(0, [line], 0.0) == \
            ms._unreachable_penalty_ns()
        assert ms.write(0, line) == 0.0
        assert stats.unreachable_accesses == 2
        assert ms.dram_stats.reads == 1 and ms.dram_stats.writes == 0
        ms.set_fault_state(None, stats)
        latency = ms.access_many(0, [line], 0.0)
        rt = system.interconnect.round_trip_latency_ns(0, 3)
        assert latency == pytest.approx(rt + 34.0)
        assert stats.unreachable_accesses == 2
        assert ms.dram_stats.reads == 2


class TestLineMemo:
    """Every access-kernel line memo entry is ``(home, location tuple,
    nearest list, row slot)`` with one nearest location per requester
    stack; with a cache the memo is the camp mapper's own dict, shared
    rather than copied."""

    @staticmethod
    def _lines(system, count=300):
        rng = np.random.default_rng(5)
        units = rng.integers(system.config.num_units, size=count)
        offsets = rng.integers(4096, size=count)
        return sorted({line_in_unit(system, int(u), int(i))
                       for u, i in zip(units, offsets)})

    @staticmethod
    def _check(system, lines) -> dict:
        memo = system.memory_system._line_memo
        cm = system.camp_mapper
        assert memo is cm._nearest_cache
        cost = unit_cost_matrix(system.interconnect)
        home_of_line = system.memory_map.home_of_line
        stacks = system.topology.num_stacks
        assert set(lines) <= memo.keys()
        for ln, entry in memo.items():
            assert entry[:3] == camp_reference.nearest_tables(
                cm, ln, cost)[:3]
            assert entry[0] == home_of_line(ln)
            assert len(entry[2]) == stacks
        return dict(memo)

    @pytest.mark.parametrize("design", ["C", "O"])
    def test_entries_are_the_camp_tables(self, design):
        system = make_system(design)
        ms, cm = system.memory_system, system.camp_mapper
        lines = self._lines(system)
        # Small batches (a few missing lines each), then one block.
        for start in range(0, 40, 4):
            ms.access_many(start % 7, lines[start:start + 4], 0.0)
        ms.access_many(5, lines, 0.0)
        healthy = self._check(system, lines)

        cm.clear_cache()  # epoch bump: the memo starts over
        ms.access_many(3, lines[::2], 0.0)
        assert ms._line_memo.keys() == set(lines[::2])
        self._check(system, lines[::2])

        alive = np.ones(system.config.num_units, dtype=bool)
        alive[[1, 9]] = False
        cm.set_alive_mask(alive)  # the remapped array fill
        ms.access_many(2, lines, 0.0)
        masked = self._check(system, lines)
        assert masked != healthy
        assert all(1 not in entry[i] and 9 not in entry[i]
                   or entry[0] in (1, 9)
                   for entry in masked.values() for i in (1, 2))

    def test_cacheless_kernel_reads_homes_from_addresses(self):
        """Without a cache there is no line memo: every line reads its
        home straight from its address."""
        system = make_system("B")
        ms = system.memory_system
        assert ms._line_memo is None
        lines = self._lines(system)
        for requester in (0, 7):
            ms.access_many(requester, lines, 0.0)
        homes = [system.memory_map.home_of_line(ln) for ln in lines]
        remote = sum(2 for h in homes if h != 0) + sum(
            2 for h in homes if h != 7)
        assert ms.dram_stats.reads == 2 * len(lines)
        assert ms.traffic.messages == 4 * len(lines)
        assert ms.traffic.messages - ms.traffic.local_accesses == remote

    @pytest.mark.parametrize("design", ["C", "O"])
    def test_stamped_hint_is_reprimed_after_clear_cache(self, design):
        """A hint carries the camp memo's (token, epoch) stamp once its
        lines are in the memo.  After clear_cache, or on another
        machine, the stamp no longer matches, so the kernel fills the
        lines again instead of reading a memo that lacks them."""
        system = make_system(design)
        ms, cm = system.memory_system, system.camp_mapper
        lines = self._lines(system, 40)
        hint = TaskHint(addresses=[ln * 64 for ln in lines])
        ms.access_many(0, lines, 0.0, hint=hint)
        assert hint._mstamp == cm.stamp
        stale = cm.stamp
        cm.clear_cache()
        assert not ms._line_memo and cm.stamp != stale
        ms.access_many(1, lines, 0.0, hint=hint)
        assert set(lines) <= ms._line_memo.keys()
        assert hint._mstamp == cm.stamp
        self._check(system, lines)

        other = make_system(design)
        assert other.camp_mapper.stamp != cm.stamp
        other.memory_system.access_many(2, lines, 0.0, hint=hint)
        assert set(lines) <= other.memory_system._line_memo.keys()
        assert hint._mstamp == other.camp_mapper.stamp


#: :data:`PARTITION` plus a dead unit and a slow vault outside the
#: cut-off stack 0, where camps stay reachable, so the camp remap and
#: the slow vault shape camp probes and camp hits as well as home reads.
ORACLE_FAULTS = FaultSchedule(events=PARTITION.events + (
    FaultEvent(FaultKind.UNIT_FAIL, unit=13, at_timestamp=2),
    FaultEvent(FaultKind.VAULT_SLOW, unit=22, at_timestamp=1, factor=4.0),
))


class TestFusedKernelOracle:
    """``access_many``, with its output write, against the per-line
    reference.

    Two identical machines with the same seed see the same random hint
    batches — one through the fused kernel, one line by line with the
    same issue spread — and must end in the same state: totals, every
    traffic/DRAM/SRAM/cache counter, the DRAM channel clocks and the
    RNG.  The per-line flow (``tests/access_reference.py``) is the
    reference the kernel reproduces, so this pins the kernel at unit
    scope, healthy and faulted.
    """

    @staticmethod
    def machine(design, replacement, base=default_config, mesh=(2, 2)):
        cfg = base().scaled(*mesh)
        cfg = cfg.with_(cache=dataclasses.replace(cfg.cache,
                                                  replacement=replacement))
        return build_system(design, cfg)

    @staticmethod
    def faulted_machine(style, replacement):
        """An O machine with link metering that will run
        :data:`ORACLE_FAULTS`, on every cache style."""
        cfg = default_config().scaled(2, 2)
        cfg = cfg.with_(cache=dataclasses.replace(
            cfg.cache, style=style, replacement=replacement))
        system = NdpSystem(cfg, design_name="O",
                           fault_schedule=ORACLE_FAULTS)
        system.interconnect.enable_link_metering()
        return system

    @staticmethod
    def state(system):
        ms = system.memory_system
        state = {
            "traffic": dataclasses.asdict(ms.traffic),
            "dram": dataclasses.asdict(ms.dram_stats),
            "sram": dataclasses.asdict(ms.sram_stats),
            "cache": dataclasses.asdict(ms.cache_stats()),
            "queue_delay_ns": ms.total_queue_delay_ns,
            "dram_free_ns": list(ms._dram_free_ns),
            "rng": system.rng.bit_generator.state,
            "l1_prefetch": [
                (dataclasses.asdict(u.l1.stats),
                 dataclasses.asdict(u.prefetch.stats))
                for u in system.units
            ],
            # Replacement state: each L1 set LRU first, each FIFO
            # oldest first.
            "l1_sets": [
                {i: list(s) for i, s in sorted(u.l1._sets.items()) if s}
                for u in system.units
            ],
            "fifo": [list(u.prefetch._fifo) for u in system.units],
        }
        if system.fault_controller is not None:
            state["unreachable"] = (
                system.fault_controller.stats.unreachable_accesses)
        meter = system.interconnect.link_meter
        if meter is not None:
            state["unit_matrix"] = meter.unit_matrix.tolist()
            state["unit_bits"] = meter.unit_bits.tolist()
            state["link_flits"] = list(meter.link_flits.items())
        return state

    @classmethod
    def drive(cls, fused, oracle, writes=False, phases=()):
        """160 random batches on both machines.  Every 40th step is a
        barrier, except the last, so the final state still holds live
        L1 sets and FIFOs; ``phases`` maps a step to the fault
        timestamp whose events fire there.  The states must match after
        every call, so each call flushes all of its counters."""
        units = fused.config.num_units
        # A small line pool spread over every unit, so batches repeat
        # lines (L1, prefetch and camp hits), plus lines that all map
        # to camp set 0, so full sets evict.
        sets = next((c.num_sets for c in fused.memory_system.caches
                     if c is not None), 1)
        pool = [line_in_unit(fused, u, i)
                for u in range(units) for i in range(24)]
        pool += [line_in_unit(fused, u, i * sets)
                 for u in range(units) for i in range(1, 4)]
        rng = np.random.default_rng(11)
        now = 0.0
        for step in range(160):
            if step in phases:
                for system in (fused, oracle):
                    system.fault_controller.on_phase_start(
                        phases[step], 0.0, lambda dead: 0)
            requester = int(rng.integers(units))
            batch = [pool[i] for i in rng.integers(
                len(pool), size=int(rng.integers(1, 40)))]
            spacing = float(rng.choice([0.0, 0.5, 2.0]))
            cap = float(rng.choice([0.0, 8.0, 1e9]))
            out = -1
            if writes:
                # A store in the same call: one of the batch's lines
                # (as the executor's main line is) or any pool line.
                out = pool[int(rng.integers(len(pool)))]
                if step % 2:
                    out = batch[0]
            total = fused.memory_system.access_many(
                requester, batch, now, spacing, cap, out)
            expected = 0.0
            for i, line in enumerate(batch):
                expected += reference.access(
                    oracle.memory_system, requester, line,
                    now + min(i * spacing, cap))
            if writes:
                expected += reference.write(oracle.memory_system,
                                            requester, out, now)
            assert total == expected
            assert cls.state(fused) == cls.state(oracle), step
            now += float(rng.integers(1, 200))
            if step % 40 == 39 and step < 159:
                fused.memory_system.end_timestamp()
                oracle.memory_system.end_timestamp()

    def check_healthy(self, design, replacement, base):
        fused = self.machine(design, replacement, base)
        oracle = self.machine(design, replacement, base)
        self.drive(fused, oracle)
        stats = fused.memory_system.cache_stats()
        assert stats.hits > 0 and stats.evictions > 0
        assert self.state(fused) == self.state(oracle)

    @pytest.mark.parametrize("replacement", list(ReplacementPolicy))
    @pytest.mark.parametrize("design", ["C", "O"])
    def test_access_many_equals_access_loop(self, design, replacement):
        """Table 1 sizes: a 256-set L1 and a 64-line FIFO."""
        self.check_healthy(design, replacement, default_config)

    @pytest.mark.parametrize("replacement", list(ReplacementPolicy))
    @pytest.mark.parametrize("design", ["C", "O"])
    def test_experiment_sizes_equal_access_loop(self, design, replacement):
        """The figures' regime: an 8-set 4-way L1 and a 4-line FIFO."""
        self.check_healthy(design, replacement, experiment_config)

    @pytest.mark.parametrize("replacement", list(ReplacementPolicy))
    @pytest.mark.parametrize("design", ["C", "O"])
    @pytest.mark.parametrize("mesh, base", [
        ((3, 5), default_config),
        ((2, 2), slow_crossbar_config),
        ((3, 5), slow_crossbar_config),
    ], ids=["3x5", "2x2-slow-crossbar", "3x5-slow-crossbar"])
    def test_mesh_shapes_equal_access_loop(self, design, replacement,
                                           mesh, base):
        """A non-square mesh, whose camp groups of 30 units split
        stacks, and a mesh hop cheaper than a crossbar hop, where a
        camp location reads itself while its stack-mates read another
        location.  On 3x5 the line pool spreads over 120 units' camps,
        so no camp set fills; evictions are the other tests' part."""
        fused = self.machine(design, replacement, base, mesh)
        oracle = self.machine(design, replacement, base, mesh)
        self.drive(fused, oracle)
        stats = fused.memory_system.cache_stats()
        assert stats.hits > 0 and stats.home_direct > 0
        assert self.state(fused) == self.state(oracle)

    @pytest.mark.parametrize("replacement", list(ReplacementPolicy))
    @pytest.mark.parametrize("style", list(CacheStyle))
    def test_faulted_access_many_equals_access_loop(self, style,
                                                    replacement):
        """A partitioned, metered machine: stack 0 cut off at step 40
        (with a degraded link and two slow vaults), units 5 and 13 dead
        from step 80 on, stores interleaved.  Unreachable homes,
        rerouted and degraded hops, camp remaps, the slow vaults and the
        per-link meter all reach the kernel."""
        fused = self.faulted_machine(style, replacement)
        oracle = self.faulted_machine(style, replacement)
        self.drive(fused, oracle, writes=True, phases={40: 1, 80: 2})
        state = self.state(fused)
        assert state["unreachable"] > 0
        assert state["dram"]["reads"] > 0
        assert state["link_flits"]
        if style is not CacheStyle.NONE:
            assert state["cache"]["hits"] > 0
        assert state == self.state(oracle)


@pytest.mark.parametrize("design", ["B", "O"])
def test_prefetch_buffer_hit_is_reachable(design):
    """With the figures' 4-line FIFO and 4-way L1 a FIFO hit still
    happens: L1 hits refresh LRU order, so a line can leave its set
    while it is still among the last 4 inserts."""
    system = build_system(design, experiment_config().scaled(2, 2))
    unit = system.units[0]
    stride = unit.l1.num_sets
    assert (stride, unit.l1.associativity, unit.prefetch.capacity_lines) \
        == (8, 4, 4)
    ms = system.memory_system
    for batch in ([0, 1, 2, 3], [0, 1, 2], [4], [3]):
        ms.access_many(0, [k * stride for k in batch], 0.0)
    # [4S] evicted 3S from the set (LRU after the [0, S, 2S] hits)
    # and 0 from the FIFO; 3S is still in the FIFO.
    assert unit.prefetch.stats.buffer_hits == 1
    assert (unit.l1.stats.hits, unit.l1.stats.misses) == (3, 6)
    assert ms.sram_stats.prefetch_accesses == 6


@pytest.mark.parametrize("design", ["C", "O"])
def test_reachable_home_has_reachable_nearest_camp(design):
    """Why a camp detour is never cut off: under :data:`PARTITION`,
    whenever a requester can reach a line's living home, it can also
    reach the line's nearest camp, and so can the home.  Reachability
    is an equivalence over undirected links and an unreachable camp
    costs infinity, so the argmin location always lies in the
    requester's component."""
    system = build_system(design, default_config().scaled(2, 2),
                          fault_schedule=PARTITION)
    system.fault_controller.on_phase_start(2, 0.0, lambda dead: 0)
    noc = system.interconnect
    alive = system.fault_controller.alive
    units = system.config.num_units
    probes = cut_off = 0
    for home_unit in range(units):
        for i in range(64):
            line = line_in_unit(system, home_unit, i)
            home = system.memory_map.home_of_line(line)
            for requester in range(units):
                if not (alive[home] and noc.is_reachable(requester, home)):
                    cut_off += 1
                    continue
                nearest, is_home = system.camp_mapper.nearest_location(
                    line, requester)
                if is_home:
                    continue
                probes += 1
                assert noc.is_reachable(requester, nearest)
                assert noc.is_reachable(nearest, home)
    assert probes > 0 and cut_off > 0
