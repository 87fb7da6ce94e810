"""Design points (Table 2) and the simulated-machine driver.

:class:`DesignPoint` names one row of Table 2 — a scheduling policy
paired with a cache style.  :func:`build_system` assembles the full
machine for a design point, and :class:`NdpSystem.run` executes a
workload on it, returning a :class:`~repro.analysis.metrics.RunResult`
with every metric the paper's figures consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.analysis.metrics import RunResult
from repro.arch.dram import DramChannel
from repro.arch.energy import EnergyModel
from repro.arch.memory_map import Allocator, MemoryMap
from repro.arch.ndp_unit import build_units
from repro.arch.noc import Interconnect
from repro.arch.sram import SramModel
from repro.arch.topology import Topology
from repro.config import (
    CacheStyle,
    SchedulingPolicy,
    SystemConfig,
    default_config,
)
from repro.core.cache.camp import CampMapper
from repro.core.memory_system import MemorySystem
from repro.core.scheduler.base import Scheduler, SchedulerContext
from repro.core.scheduler.colocate import ColocateScheduler
from repro.core.scheduler.hybrid import HybridScheduler
from repro.core.scheduler.lowest_distance import LowestDistanceScheduler
from repro.core.scheduler.work_stealing import WorkStealingScheduler
from repro.runtime.executor import BulkSyncExecutor, ExecutionTrace
from repro.telemetry import Telemetry, resolve_telemetry


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated system design (a row of Table 2)."""

    name: str
    policy: SchedulingPolicy
    cache: CacheStyle
    description: str = ""


#: The paper's design matrix (Table 2).  ``H`` (host CPU) is analytic
#: and lives in :mod:`repro.core.host`.
DESIGN_POINTS: Dict[str, DesignPoint] = {
    "B": DesignPoint(
        "B", SchedulingPolicy.COLOCATE, CacheStyle.NONE,
        "Co-locating with one data element; no DRAM cache",
    ),
    "Sm": DesignPoint(
        "Sm", SchedulingPolicy.LOWEST_DISTANCE, CacheStyle.NONE,
        "Lowest-distance mapping; no DRAM cache",
    ),
    "Sl": DesignPoint(
        "Sl", SchedulingPolicy.WORK_STEALING, CacheStyle.NONE,
        "Lowest-distance + work stealing; no DRAM cache",
    ),
    "Sh": DesignPoint(
        "Sh", SchedulingPolicy.HYBRID, CacheStyle.NONE,
        "Hybrid scheduling (ours); no DRAM cache",
    ),
    "C": DesignPoint(
        "C", SchedulingPolicy.LOWEST_DISTANCE, CacheStyle.TRAVELLER,
        "Lowest-distance mapping; Traveller Cache (ours)",
    ),
    "O": DesignPoint(
        "O", SchedulingPolicy.HYBRID, CacheStyle.TRAVELLER,
        "Hybrid scheduling + Traveller Cache (full ABNDP)",
    ),
}


def _apply_design(config: SystemConfig, design: DesignPoint) -> SystemConfig:
    """Overlay a design point onto a base configuration.

    The design point decides the scheduling policy and *whether* the
    machine carries a remote-data cache.  Which cache implementation
    (Traveller / pure SRAM / DRAM-tag — the Figure 13 styles) remains
    the base configuration's choice, so cache-style studies can reuse
    the cached design points.
    """
    import dataclasses

    cfg = config
    if cfg.scheduler.policy is not design.policy:
        cfg = cfg.with_(
            scheduler=dataclasses.replace(cfg.scheduler, policy=design.policy)
        )
    if design.cache is CacheStyle.NONE:
        wanted = CacheStyle.NONE
    elif cfg.cache.style is CacheStyle.NONE:
        wanted = design.cache
    else:
        wanted = cfg.cache.style  # keep the configured cached style
    if cfg.cache.style is not wanted:
        cfg = cfg.with_(
            cache=dataclasses.replace(cfg.cache, style=wanted)
        )
    return cfg.validate()


class NdpSystem:
    """A fully assembled simulated NDP machine."""

    def __init__(
        self,
        config: SystemConfig,
        design_name: str = "O",
        telemetry: Optional[Telemetry] = None,
        fault_schedule=None,
    ):
        config.validate()
        self.config = config
        self.design_name = design_name
        self.telemetry = resolve_telemetry(telemetry)
        self.rng = np.random.default_rng(config.seed)

        has_cache = config.cache.style is not CacheStyle.NONE
        num_groups = config.cache.num_groups() if has_cache else 1
        self.topology = Topology(config.topology, num_groups=num_groups)
        self.interconnect = Interconnect(self.topology, config.noc, config.memory)
        self.dram = DramChannel(config.memory)
        self.memory_map = MemoryMap(self.topology, config.memory)

        self.camp_mapper: Optional[CampMapper] = None
        tag_bytes = 0
        data_cache_bytes = 0
        if has_cache:
            self.camp_mapper = CampMapper(
                self.interconnect, self.memory_map, config.cache
            )
            tag_bytes = self.camp_mapper.tag_storage_bytes()
            if config.cache.style is CacheStyle.SRAM:
                data_cache_bytes = config.cache.cache_bytes(config.memory)
        self.sram = SramModel(config.sram, tag_array_bytes=tag_bytes,
                              data_cache_bytes=data_cache_bytes)

        self.units = build_units(config)
        self.memory_system = MemorySystem(
            config=config,
            interconnect=self.interconnect,
            dram=self.dram,
            sram=self.sram,
            memory_map=self.memory_map,
            units=self.units,
            camp_mapper=self.camp_mapper,
            rng=self.rng,
        )

        from repro.runtime.workload_exchange import WorkloadExchange

        self.exchange = WorkloadExchange(
            self.topology, config.scheduler.exchange_interval_cycles
        )

        context = SchedulerContext(
            memory_map=self.memory_map,
            interconnect=self.interconnect,
            exchange=self.exchange,
            camp_mapper=self.camp_mapper,
            hybrid_weight=config.scheduler.hybrid_weight(
                config.topology, config.noc
            ),
            frequency_ghz=config.core.frequency_ghz,
            dram_latency_ns=config.memory.access_latency_ns,
            prefetch_hide_fraction=config.scheduler.prefetch_hide_fraction,
            tie_tolerance_ns=config.scheduler.tie_tolerance_ns,
            load_deadband=config.scheduler.load_deadband,
            load_floor_cycles=config.scheduler.load_floor_cycles,
        )
        self.scheduler = self._build_scheduler(context, has_cache)
        self.executor = BulkSyncExecutor(
            config, self.units, self.scheduler, self.memory_system, self.exchange
        )
        self.energy_model = EnergyModel(
            config, self.interconnect, self.dram, self.sram
        )

        # Fault-injection subsystem: only a non-empty schedule pays any
        # cost — without one the machine is byte-identical to a build
        # that never heard of faults.
        self.fault_controller = None
        if fault_schedule:
            from repro.faults.controller import FaultController

            self.fault_controller = FaultController(
                schedule=fault_schedule,
                seed=config.seed,
                num_units=config.num_units,
                interconnect=self.interconnect,
                dram=self.dram,
                memory_system=self.memory_system,
                context=context,
                camp_mapper=self.camp_mapper,
                telemetry=self.telemetry,
            )
            self.executor.faults = self.fault_controller

        if self.telemetry.enabled:
            self._register_telemetry()

    # ------------------------------------------------------------------
    def _register_telemetry(self) -> None:
        """Bind every probe of the machine to the telemetry object.

        All counter-style metrics are *pull* bindings onto the stat
        structs the simulator maintains anyway (the traffic meter,
        DRAM/SRAM/cache stats), evaluated only at sample points — so
        the telemetry totals are the RunResult aggregates by
        construction and the hot paths stay untouched.
        """
        import dataclasses as _dc

        tel = self.telemetry
        tel.bind(
            self.config.core.frequency_ghz,
            design=self.design_name,
            num_units=self.config.num_units,
            policy=self.config.scheduler.policy.value,
            cache_style=self.config.cache.style.value,
        )
        tel.link_meter = self.interconnect.enable_link_metering()
        self.executor.telemetry = tel
        self.scheduler.telemetry = tel
        reg = tel.registry

        def bind_fields(scope_name, obj):
            scope = reg.scope(scope_name)
            for f in _dc.fields(obj):
                scope.register_pull(
                    f.name, lambda o=obj, n=f.name: getattr(o, n)
                )

        ms = self.memory_system
        bind_fields("noc", ms.traffic)
        bind_fields("dram", ms.dram_stats)
        bind_fields("sram", ms.sram_stats)

        # System-wide Traveller totals (zero-valued for cacheless
        # designs, so the counter names exist on every machine).
        trav = reg.scope("traveller")
        for name in ("hits", "misses", "insertions", "bypasses",
                     "evictions", "home_direct"):
            trav.register_pull(
                name, lambda n=name: getattr(ms.cache_stats(), n)
            )
        trav.register_pull("hit_rate", lambda: ms.cache_stats().hit_rate)

        # Per-unit scopes: traveller arrays, task/activity counters.
        for uid, unit in enumerate(self.units):
            scope = reg.scope(f"unit.{uid}")
            scope.register_pull(
                "tasks_executed", lambda u=unit: u.tasks_executed
            )
            scope.register_pull(
                "active_cycles", lambda u=unit: u.active_cycles
            )
            cache = ms.caches[uid]
            if cache is not None:
                tscope = scope.scope("traveller")
                tscope.register_pull(
                    "hits", lambda c=cache: c.stats.hits
                )
                tscope.register_pull(
                    "misses", lambda c=cache: c.stats.misses
                )
                tscope.register_pull(
                    "occupancy", lambda c=cache: c.occupancy()
                )
            tel.timeline.name_thread(0, uid, f"unit {uid}")

        ex = reg.scope("exchange")
        for name in ("rounds", "intra_messages", "inter_messages"):
            ex.register_pull(
                name, lambda n=name: getattr(self.exchange.stats, n)
            )
        if self.camp_mapper is not None:
            camp = reg.scope("camp")
            camp.register_pull(
                "memo_lines", lambda: self.camp_mapper.memo_entries
            )
        if self.fault_controller is not None:
            import dataclasses as _dc2

            fc = self.fault_controller
            faults = reg.scope("faults")
            for f in _dc2.fields(fc.stats):
                faults.register_pull(
                    f.name, lambda n=f.name: getattr(fc.stats, n)
                )
            faults.register_pull(
                "alive_units", lambda: int(fc.alive.sum())
            )

        # Time-series probes, sampled at timestamp barriers.
        s = tel.sampler
        s.add_probe("traveller.hits", lambda: ms.cache_stats().hits)
        s.add_probe("traveller.misses", lambda: ms.cache_stats().misses)
        s.add_probe("traveller.hit_rate", lambda: ms.cache_stats().hit_rate)
        s.add_probe("noc.inter_hops", lambda: ms.traffic.inter_hops)
        s.add_probe("noc.messages", lambda: ms.traffic.messages)
        s.add_probe("dram.reads", lambda: ms.dram_stats.reads)
        s.add_probe("exchange.skew", self.exchange.skew)
        s.add_probe(
            "exchange.w_mean",
            lambda: float(self.exchange.true_workloads.mean()),
        )

    # ------------------------------------------------------------------
    def _build_scheduler(self, context: SchedulerContext, has_cache: bool) -> Scheduler:
        policy = self.config.scheduler.policy
        if policy is SchedulingPolicy.COLOCATE:
            return ColocateScheduler(context)
        if policy is SchedulingPolicy.LOWEST_DISTANCE:
            return LowestDistanceScheduler(context)
        if policy is SchedulingPolicy.WORK_STEALING:
            return WorkStealingScheduler(context)
        if policy is SchedulingPolicy.HYBRID:
            return HybridScheduler(context, use_camps=has_cache)
        raise ValueError(f"unknown policy {policy!r}")

    def allocator(self) -> Allocator:
        """A fresh primary-data allocator for this machine.

        The Traveller Cache region is carved out of the top of each
        unit's local DRAM, so it is excluded from allocation.
        """
        reserve = 0.0
        if self.config.cache.style is not CacheStyle.NONE:
            reserve = 1.0 / self.config.cache.capacity_ratio
        return Allocator(self.memory_map, reserve_top_fraction=reserve)

    # ------------------------------------------------------------------
    def run(self, workload, max_timestamps: Optional[int] = None,
            verify: bool = False) -> RunResult:
        """Execute ``workload`` on this machine and collect every metric.

        ``workload`` follows the protocol of
        :class:`repro.workloads.base.Workload`.  With ``verify=True``
        the workload's final answer is checked against its independent
        reference implementation (raises AssertionError on mismatch).
        """
        if self.telemetry.enabled:
            self.telemetry.timeline.metadata["workload"] = workload.name
        state = workload.setup(self)
        roots = workload.root_tasks(state)
        trace: ExecutionTrace = self.executor.run(
            roots,
            state=state,
            max_timestamps=max_timestamps,
            on_barrier=workload.on_barrier,
        )
        result = self._collect(workload.name, trace)
        if verify:
            workload.verify(state)
        return result

    def _collect(self, workload_name: str, trace: ExecutionTrace) -> RunResult:
        per_core = np.concatenate([u.core_active for u in self.units])
        energy = self.energy_model.integrate(
            instructions=trace.instructions,
            traffic=self.memory_system.traffic,
            dram_stats=self.memory_system.dram_stats,
            sram_stats=self.memory_system.sram_stats,
            makespan_cycles=trace.makespan_cycles,
        )
        telemetry = None
        if self.telemetry.enabled:
            telemetry = self.telemetry.summary()
        return RunResult(
            design=self.design_name,
            workload=workload_name,
            makespan_cycles=trace.makespan_cycles,
            active_cycles_per_core=per_core,
            traffic=self.memory_system.traffic,
            dram=self.memory_system.dram_stats,
            sram=self.memory_system.sram_stats,
            cache=self.memory_system.cache_stats(),
            energy=energy,
            tasks_executed=trace.tasks_executed,
            timestamps_executed=trace.timestamps_executed,
            steals=trace.steals,
            instructions=trace.instructions,
            telemetry=telemetry,
            resilience=(
                self.fault_controller.stats
                if self.fault_controller is not None else None
            ),
        )


def build_system(
    design: str = "O",
    config: Optional[SystemConfig] = None,
    telemetry: Optional[Telemetry] = None,
    fault_schedule=None,
) -> NdpSystem:
    """Assemble the machine for one Table 2 design point.

    ``config`` defaults to the paper's Table 1 system; the design's
    policy and cache style override the corresponding config fields.
    Pass a :class:`~repro.telemetry.Telemetry` to instrument the run
    (omitted = the zero-overhead null sink), and/or a
    :class:`~repro.faults.FaultSchedule` to exercise the machine under
    failures.
    """
    if design not in DESIGN_POINTS:
        raise KeyError(
            f"unknown design {design!r}; expected one of {sorted(DESIGN_POINTS)}"
        )
    base = config if config is not None else default_config()
    cfg = _apply_design(base, DESIGN_POINTS[design])
    return NdpSystem(cfg, design_name=design, telemetry=telemetry,
                     fault_schedule=fault_schedule)
