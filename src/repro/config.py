"""System configuration for the ABNDP reproduction.

Every scalar in this module comes from Table 1 of the paper (ASPLOS'23),
or is a named design knob studied in Section 7.2.  Configurations are
immutable dataclasses so that a run is fully described by a single
:class:`SystemConfig` value plus a random seed.

The unit conventions used throughout the code base:

* time        -- nanoseconds (``ns``) for latencies, cycles for core time
* energy      -- picojoules (``pJ``)
* power       -- microwatts (``uW``)
* capacity    -- bytes
* frequency   -- GHz (cycles per ns)
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


class SchedulingPolicy(enum.Enum):
    """Task-to-unit mapping policies (Table 2 of the paper).

    ``COLOCATE``         -- design **B**: run the task where its first (main)
                            hint element lives.
    ``LOWEST_DISTANCE``  -- design **Sm**: minimise the mean distance to all
                            hint elements.
    ``WORK_STEALING``    -- design **Sl**: ``LOWEST_DISTANCE`` placement plus
                            dynamic work stealing at run time.
    ``HYBRID``           -- designs **Sh**/**O**: score-based policy combining
                            the memory-distance and load-imbalance terms
                            (Section 5.2, Equation 1).
    """

    COLOCATE = "colocate"
    LOWEST_DISTANCE = "lowest_distance"
    WORK_STEALING = "work_stealing"
    HYBRID = "hybrid"


class CacheStyle(enum.Enum):
    """Which remote-data cache each NDP unit carries (Figure 13)."""

    NONE = "none"
    TRAVELLER = "traveller"       # DRAM data, SRAM tags (the paper's design)
    SRAM = "sram"                 # pure on-die SRAM data cache
    DRAM_TAG = "dram_tag"         # DRAM data, tags stored in DRAM


class ReplacementPolicy(enum.Enum):
    """Victim selection inside a cache set (Section 4.4)."""

    RANDOM = "random"
    LRU = "lru"


class CampMapping(enum.Enum):
    """How the camp-location unit IDs are derived per group (Section 4.2)."""

    SKEWED = "skewed"        # a different address hash per group (default)
    IDENTICAL = "identical"  # the same hash for every group (Figure 11 foil)


@dataclass(frozen=True)
class TopologyConfig:
    """Shape of the memory network (Figure 1 / Table 1).

    ``mesh_rows x mesh_cols`` memory stacks connected in a 2D mesh, each
    stack holding ``units_per_stack`` NDP units behind an intra-stack
    crossbar.
    """

    mesh_rows: int = 4
    mesh_cols: int = 4
    units_per_stack: int = 8

    @property
    def num_stacks(self) -> int:
        return self.mesh_rows * self.mesh_cols

    @property
    def num_units(self) -> int:
        return self.num_stacks * self.units_per_stack

    @property
    def diameter(self) -> int:
        """Hop diameter of the inter-stack mesh."""
        return (self.mesh_rows - 1) + (self.mesh_cols - 1)

    def validate(self) -> None:
        if self.mesh_rows < 1 or self.mesh_cols < 1:
            raise ValueError("mesh dimensions must be positive")
        if self.units_per_stack < 1:
            raise ValueError("units_per_stack must be positive")


@dataclass(frozen=True)
class CoreConfig:
    """NDP logic-die cores (Table 1; energy numbers follow [89])."""

    frequency_ghz: float = 2.0
    cores_per_unit: int = 2
    idle_power_uw: float = 163.0
    energy_per_instr_pj: float = 371.0

    @property
    def cycle_ns(self) -> float:
        """Duration of one core cycle in nanoseconds."""
        return 1.0 / self.frequency_ghz

    def cycles(self, ns: float) -> float:
        """Convert a latency in nanoseconds into core cycles."""
        return ns * self.frequency_ghz

    def validate(self) -> None:
        if self.frequency_ghz <= 0:
            raise ValueError("frequency must be positive")
        if self.cores_per_unit < 1:
            raise ValueError("cores_per_unit must be positive")


@dataclass(frozen=True)
class MemoryConfig:
    """Per-unit local DRAM channel (HBM-like timing, Table 1)."""

    capacity_per_unit: int = 512 * MB
    cacheline_bytes: int = 64
    channel_bits: int = 128
    t_cas_ns: float = 17.0
    t_rcd_ns: float = 17.0
    t_rp_ns: float = 17.0
    rdwr_pj_per_bit: float = 5.0
    act_pre_pj: float = 535.8
    # Fraction of accesses that open a new row (charged one ACT/PRE pair).
    row_miss_fraction: float = 0.5
    # Mean channel occupancy of one random cacheline access: data burst
    # plus the amortised bank-timing (tRC across the channel's banks).
    # This bounds a unit's DRAM *service rate*; accesses beyond it queue.
    # Hot home units saturating this rate is the contention that the
    # Traveller Cache's extra caching locations relieve.
    service_ns: float = 3.0

    @property
    def access_latency_ns(self) -> float:
        """Latency of one random DRAM access (row activate + column read)."""
        return self.t_rcd_ns + self.t_cas_ns

    @property
    def line_transfer_ns(self) -> float:
        """Time to stream one cacheline over the channel.

        A 64 B line over a 128-bit DDR channel takes ``64*8/128`` beats;
        we approximate one beat per core-equivalent nanosecond fraction and
        fold it into the access latency, so this is informational.
        """
        return (self.cacheline_bytes * 8) / self.channel_bits * 0.5

    @property
    def line_bits(self) -> int:
        return self.cacheline_bytes * 8

    def access_energy_pj(self) -> float:
        """Dynamic energy of one cacheline access (read or write)."""
        return (
            self.line_bits * self.rdwr_pj_per_bit
            + self.row_miss_fraction * self.act_pre_pj
        )

    def validate(self) -> None:
        if self.cacheline_bytes & (self.cacheline_bytes - 1):
            raise ValueError("cacheline_bytes must be a power of two")
        if self.capacity_per_unit % self.cacheline_bytes:
            raise ValueError("capacity must be a multiple of the cacheline")


#: Engine names that old ledger and bench records may carry: both were
#: exact access engines, since merged into one kernel.
_EXACT_ENGINES = ("scalar", "batched")


def engine_tier(engine: Optional[str]) -> str:
    """The equivalence tier of a recorded ``engine`` name.

    Records without an engine field (every new one) and records of
    the old ``"scalar"``/``"batched"`` engines are the ``"exact"`` tier.
    Any other name is its own tier: records of the statistical
    ``"vector"`` engine, since removed, must never read as exact-tier
    results.
    """
    return "exact" if engine in _EXACT_ENGINES or not engine else engine


@dataclass(frozen=True)
class NocConfig:
    """Interconnect cost model (Table 1).

    The intra-stack network is a crossbar (a single hop regardless of the
    pair of units), the inter-stack network a 2D mesh with per-hop latency
    and energy.  ``d_local/d_intra/d_inter`` are the *relative* distance
    costs used by the schedulers (Section 5.2); they are set directly from
    the hardware latencies and need no tuning.
    """

    intra_hop_ns: float = 1.5
    intra_pj_per_bit: float = 0.4
    inter_hop_ns: float = 10.0
    inter_pj_per_bit: float = 4.0
    inter_bw_gbps: float = 32.0

    @property
    def d_local(self) -> float:
        """Scheduling cost of a unit-local access."""
        return 0.0

    @property
    def d_intra(self) -> float:
        """Scheduling cost of an intra-stack (crossbar) access."""
        return self.intra_hop_ns

    @property
    def d_inter(self) -> float:
        """Scheduling cost of one inter-stack mesh hop."""
        return self.inter_hop_ns

    def validate(self) -> None:
        if self.inter_hop_ns <= 0 or self.intra_hop_ns <= 0:
            raise ValueError("hop latencies must be positive")


@dataclass(frozen=True)
class SramConfig:
    """On-die SRAM structures of one NDP unit (Table 1)."""

    l1d_bytes: int = 64 * KB
    l1d_assoc: int = 4
    l1i_bytes: int = 32 * KB
    l1i_assoc: int = 2
    prefetch_buffer_bytes: int = 4 * KB
    l1_hit_ns: float = 0.5
    # Analytic per-access energies (CACTI-7-flavoured; see arch.sram).
    l1_access_pj: float = 20.0
    tag_access_pj: float = 5.0
    prefetch_access_pj: float = 8.0

    def validate(self) -> None:
        if self.l1d_bytes <= 0 or self.prefetch_buffer_bytes <= 0:
            raise ValueError("SRAM sizes must be positive")


@dataclass(frozen=True)
class CacheConfig:
    """Traveller Cache configuration (Sections 4.2-4.4, Table 1)."""

    style: CacheStyle = CacheStyle.TRAVELLER
    # The cache occupies 1/capacity_ratio of the unit's local DRAM.
    capacity_ratio: int = 64
    associativity: int = 4
    num_camps: int = 3
    bypass_probability: float = 0.4
    replacement: ReplacementPolicy = ReplacementPolicy.RANDOM
    camp_mapping: CampMapping = CampMapping.SKEWED
    # Extra DRAM round trip paid per probe when tags live in DRAM (Fig 13).
    dram_tag_penalty_accesses: int = 1

    def cache_bytes(self, memory: MemoryConfig) -> int:
        """Data capacity of the per-unit cache region."""
        return memory.capacity_per_unit // self.capacity_ratio

    def num_sets(self, memory: MemoryConfig) -> int:
        sets = self.cache_bytes(memory) // memory.cacheline_bytes // self.associativity
        if sets < 1:
            raise ValueError("cache too small for the requested associativity")
        return sets

    def num_groups(self) -> int:
        """Camp groups = number of camps + one home group (Section 4.2)."""
        return self.num_camps + 1

    def validate(self) -> None:
        if not 0.0 <= self.bypass_probability <= 1.0:
            raise ValueError("bypass_probability must be in [0, 1]")
        if self.associativity < 1:
            raise ValueError("associativity must be >= 1")
        if self.num_camps < 0:
            raise ValueError("num_camps must be >= 0")
        if self.capacity_ratio < 1:
            raise ValueError("capacity_ratio must be >= 1")


@dataclass(frozen=True)
class SchedulerConfig:
    """Task scheduler configuration (Sections 3.2 and 5)."""

    policy: SchedulingPolicy = SchedulingPolicy.HYBRID
    # Hybrid weight B = hybrid_alpha * D_inter.  ``None`` selects the
    # paper's default alpha = d/2 (half the mesh diameter).
    hybrid_alpha: Optional[float] = None
    exchange_interval_cycles: int = 100_000
    # Figure 4's window sizes.  No code reads them: the executor keeps
    # plain per-unit task lists.  They stay because run keys hash every
    # config field (canonical_dict), so dropping them would move every
    # key; do that only with a deliberate SIMULATOR_VERSION salt bump.
    scheduling_window: int = 16
    prefetch_window: int = 8
    # Fraction of a task's memory stall hidden by hint-exact prefetching.
    prefetch_hide_fraction: float = 0.6
    # Fixed per-steal overhead charged to the thief (queue probing etc.).
    steal_overhead_cycles: float = 200.0
    # Hybrid-policy stability knobs (see HybridScheduler's docstrings):
    # near-tie dispersion window, load-signal deadband, and the mean-W
    # floor below which the load term is ignored.
    tie_tolerance_ns: float = 5.0
    load_deadband: float = 0.25
    load_floor_cycles: float = 1000.0

    def resolved_alpha(self, topology: TopologyConfig) -> float:
        if self.hybrid_alpha is not None:
            return self.hybrid_alpha
        return topology.diameter / 2.0

    def hybrid_weight(self, topology: TopologyConfig, noc: NocConfig) -> float:
        """The weight B in Equation 1: ``B = alpha * D_inter``."""
        return self.resolved_alpha(topology) * noc.d_inter

    def validate(self) -> None:
        if self.exchange_interval_cycles <= 0:
            raise ValueError("exchange interval must be positive")
        if not 0.0 <= self.prefetch_hide_fraction <= 1.0:
            raise ValueError("prefetch_hide_fraction must be in [0, 1]")


@dataclass(frozen=True)
class SystemConfig:
    """Complete description of one simulated NDP system (Table 1)."""

    topology: TopologyConfig = field(default_factory=TopologyConfig)
    core: CoreConfig = field(default_factory=CoreConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    noc: NocConfig = field(default_factory=NocConfig)
    sram: SramConfig = field(default_factory=SramConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    seed: int = 2023

    @property
    def num_units(self) -> int:
        return self.topology.num_units

    @property
    def total_capacity(self) -> int:
        return self.num_units * self.memory.capacity_per_unit

    def validate(self) -> "SystemConfig":
        """Check cross-field invariants; returns self for chaining."""
        self.topology.validate()
        self.core.validate()
        self.memory.validate()
        self.noc.validate()
        self.sram.validate()
        self.cache.validate()
        self.scheduler.validate()
        if self.cache.style is not CacheStyle.NONE:
            groups = self.cache.num_groups()
            if self.num_units % groups:
                raise ValueError(
                    f"{self.num_units} units cannot be split into "
                    f"{groups} equal camp groups"
                )
        return self

    def with_(self, **kwargs) -> "SystemConfig":
        """Return a copy with top-level sections replaced."""
        return replace(self, **kwargs)

    def canonical_dict(self) -> dict:
        """Deterministic plain-data form of the full configuration.

        Every field is reduced to JSON scalars (enums by value, nested
        sections as dicts in declaration order), so two equal configs
        always serialize identically — this is the stable form the
        sweep engine hashes into run keys (see ``repro.sweep.keys``).
        """
        return _canonical_value(self)

    def canonical_json(self) -> str:
        """Compact sorted-key JSON of :meth:`canonical_dict`."""
        import json

        return json.dumps(
            self.canonical_dict(), sort_keys=True, separators=(",", ":")
        )

    def scaled(self, mesh_rows: int, mesh_cols: int) -> "SystemConfig":
        """Return a copy with a different mesh size (Figure 10)."""
        return replace(
            self, topology=replace(
                self.topology, mesh_rows=mesh_rows, mesh_cols=mesh_cols
            )
        )


def _canonical_value(value):
    """Reduce a config field to deterministic plain data (recursive)."""
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical_value(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (list, tuple)):
        return [_canonical_value(v) for v in value]
    return value


def default_config(**overrides) -> SystemConfig:
    """The paper's Table 1 configuration, optionally overridden.

    Keyword arguments replace top-level sections, e.g.::

        cfg = default_config(cache=CacheConfig(style=CacheStyle.NONE))
    """
    return SystemConfig(**overrides).validate()


#: Exchange interval used by the reduced-scale experiments.
#:
#: The paper's 100,000-cycle interval corresponds to "thousands of tasks
#: per unit" between exchanges on its full-size datasets.  The datasets
#: in this reproduction are hundreds of times smaller (so the whole run
#: fits a Python simulator), so the interval is scaled by a similar
#: factor to preserve the paper's exchanges-per-phase cadence.  Figure
#: 18's sweep is scaled identically (see EXPERIMENTS.md).
SIM_EXCHANGE_INTERVAL_CYCLES = 250

#: L1-D / prefetch-buffer sizes for the reduced-scale experiments.
#:
#: At paper scale, a unit's per-phase working set is ~500x its L1, so
#: on-die SRAM retains only the hottest few lines.  Our per-phase
#: working sets are ~1000x smaller; full-size SRAM structures would
#: retain *everything* and hide the remote-access behaviour the paper
#: studies.  The experiment machine scales them to keep the SRAM /
#: working-set ratio in the paper's regime.
SIM_L1D_BYTES = 2 * KB
SIM_PREFETCH_BYTES = 256


def experiment_config(**overrides) -> SystemConfig:
    """Table 1 configuration with the scale-dependent knobs (exchange
    interval, on-die SRAM capacities, DRAM service-contention model)
    re-scaled to the reduced dataset sizes used throughout this
    reproduction's experiments.  Accepts the same section overrides as
    :func:`default_config`; an explicit override of a section wins over
    the rescaling.
    """
    cfg = SystemConfig(**overrides)
    if "scheduler" not in overrides:
        cfg = replace(
            cfg,
            scheduler=replace(
                cfg.scheduler,
                exchange_interval_cycles=SIM_EXCHANGE_INTERVAL_CYCLES,
            ),
        )
    if "sram" not in overrides:
        cfg = replace(
            cfg,
            sram=replace(
                cfg.sram,
                l1d_bytes=SIM_L1D_BYTES,
                prefetch_buffer_bytes=SIM_PREFETCH_BYTES,
            ),
        )
    if "memory" not in overrides:
        # The service-contention model needs paper-scale sustained
        # rates to behave; at reduced scale its synchronized-wave
        # bursts dominate, so the experiments run with it disabled
        # (see EXPERIMENTS.md, "model fidelity").
        cfg = replace(cfg, memory=replace(cfg.memory, service_ns=0.0))
    return cfg.validate()


def _fmt_capacity(nbytes: int) -> str:
    """Human-readable capacity ("64 kB", "256 B")."""
    if nbytes >= KB and nbytes % KB == 0:
        return f"{nbytes // KB} kB"
    return f"{nbytes} B"


def describe_config(cfg: SystemConfig) -> str:
    """Render a Table-1-style textual summary of a configuration."""
    topo, mem, core, noc, cache, sched = (
        cfg.topology, cfg.memory, cfg.core, cfg.noc, cfg.cache, cfg.scheduler
    )
    lines = [
        "System configuration (cf. Table 1)",
        "-" * 60,
        f"NDP system     : {topo.mesh_rows}x{topo.mesh_cols} stacks in mesh, "
        f"{topo.units_per_stack} NDP units per stack",
        f"                 {cfg.total_capacity / GB:.0f} GB in total, "
        f"{mem.capacity_per_unit / MB:.0f} MB per unit",
        f"NDP core       : {core.frequency_ghz:.1f} GHz, "
        f"{core.cores_per_unit} cores per unit "
        f"({topo.num_units * core.cores_per_unit} in total)",
        f"L1-D cache     : {_fmt_capacity(cfg.sram.l1d_bytes)}, "
        f"{cfg.sram.l1d_assoc}-way, {mem.cacheline_bytes} B cachelines, LRU",
        f"L1-I cache     : {_fmt_capacity(cfg.sram.l1i_bytes)}, "
        f"{cfg.sram.l1i_assoc}-way, {mem.cacheline_bytes} B cachelines, LRU",
        f"Prefetch buffer: {_fmt_capacity(cfg.sram.prefetch_buffer_bytes)}, "
        f"{mem.cacheline_bytes} B blocks, FIFO",
        f"DRAM channel   : {mem.channel_bits} bits; tCAS=tRCD=tRP="
        f"{mem.t_cas_ns:.0f} ns; {mem.rdwr_pj_per_bit} pJ/bit RD/WR, "
        f"{mem.act_pre_pj} pJ ACT/PRE",
        f"Intra-stack net: {noc.intra_hop_ns} ns/hop; "
        f"{noc.intra_pj_per_bit} pJ/bit",
        f"Inter-stack net: {noc.inter_bw_gbps:.0f} GB/s per direction; "
        f"{noc.inter_hop_ns:.0f} ns/hop; {noc.inter_pj_per_bit} pJ/bit",
        f"Traveller Cache: 1/{cache.capacity_ratio} of local mem. capacity, "
        f"{cache.associativity}-way; C={cache.num_camps} camp loc.; "
        f"{cache.replacement.value} repl., "
        f"{cache.bypass_probability:.0%} bypass",
        f"Scheduler      : {sched.exchange_interval_cycles:,}-cycle workload "
        f"exchange interval; hybrid weight B = "
        f"{sched.resolved_alpha(topo):.0f} x D_inter",
    ]
    return "\n".join(lines)
