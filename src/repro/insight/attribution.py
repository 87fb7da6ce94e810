"""Per-run bottleneck attribution (DAMOV-style classification).

Given the flat metric row every run already exports
(:func:`repro.analysis.export.result_row`), optionally refined by a
telemetry-summary sidecar and the per-unit active-cycle vector from the
cached result, this module attributes the run's makespan to the five
resources the paper argues about and emits a deterministic
:class:`BottleneckProfile`:

``compute``
    task-body cycles: the mean per-core utilization net of the *charged*
    memory-stall time.  The executor charges ``stall_ns * freq *
    (1 - prefetch_hide_fraction)`` of every access's latency into task
    durations (the prefetch path hides the rest), so the netting
    mirrors that exact model — raw serial latency times the configured
    hide-keep factor, spread over ``num_units x cores_per_unit`` lanes;
``dram``
    vault channel service: every DRAM access (reads + writes +
    traveller fills) occupies its home vault's channel for
    ``service_ns`` (or the data-burst ``line_transfer_ns`` when the
    experiment config disables the service-contention model), averaged
    over the per-unit vaults;
``noc``
    inter-stack link serialization.  With a telemetry sidecar the
    unit-pair message matrix is routed over the mesh (XY, columns
    first — the same dimension order :class:`~repro.arch.noc.LinkMeter`
    uses) and the *hottest* directed link's occupancy is charged;
    without one, the aggregate hop count is spread over all mesh links
    (mean-link utilization, a lower bound).  The simulated NoC is
    latency-only (links never backpressure), so values above 1.0 are
    meaningful: they are the oversubscription ratio a
    bandwidth-accurate mesh would have to serialize;
``camp``
    intra-stack crossbar occupancy: crossbar transfers (which already
    include traveller-camp round trips) at one ``intra_hop_ns`` each,
    plus L1 hit time when the sidecar carries ``sram.l1_accesses``;
``imbalance``
    the load-skew tail ``(p95 - mean) / makespan`` over the per-core
    active-cycle vector: the critical-path fraction the tail cores add
    over a perfectly balanced run (degrades to ``(busiest - mean) /
    makespan`` when only headline metrics are available).

Every fraction is an *occupancy* — resource busy time over available
time (``lanes x makespan`` for cores, ``num_units x makespan`` for
vaults and crossbars, ``makespan`` for the single hottest link).  The
primary class is the arg-max with a fixed tie order, ``confidence`` is
the relative margin over the runner-up, and the DAMOV two-axis
placement is (memory intensity = charged stall share of busy time) x
(imbalance = p95/mean active-cycle skew, falling back to the row's
max/mean ratio).

Attribution is read-only and deterministic: same inputs, same profile,
byte-identical JSON.  Nothing here touches run keys or simulation
semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.arch.topology import xy_route
from repro.config import SystemConfig, experiment_config

#: classification order — also the deterministic tie-break: on equal
#: scores the earlier class wins.
BOTTLENECK_CLASSES = ("compute", "dram", "noc", "camp", "imbalance")

#: memory-intensity threshold between the DAMOV "compute" and "memory"
#: half-planes.
MEMORY_AXIS_THRESHOLD = 0.5

#: active-cycle skew (p95/mean) above which a run sits in the
#: "imbalanced" half-plane: the tail cores carry 50% more work than
#: the average core.
SKEW_THRESHOLD = 1.5

_ROUND = 6


@dataclass
class BottleneckProfile:
    """The deterministic attribution verdict for one run."""

    primary: str
    confidence: float
    occupancy: Dict[str, float] = field(default_factory=dict)
    memory_intensity: float = 0.0
    imbalance: float = 1.0
    quadrant: str = "compute/balanced"
    hottest_link: Optional[str] = None
    inputs: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "primary": self.primary,
            "confidence": self.confidence,
            "occupancy": {k: self.occupancy.get(k, 0.0)
                          for k in BOTTLENECK_CLASSES},
            "memory_intensity": self.memory_intensity,
            "imbalance": self.imbalance,
            "quadrant": self.quadrant,
            "hottest_link": self.hottest_link,
            "inputs": list(self.inputs),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BottleneckProfile":
        return cls(
            primary=str(data.get("primary", "compute")),
            confidence=float(data.get("confidence", 0.0)),
            occupancy=dict(data.get("occupancy", {})),
            memory_intensity=float(data.get("memory_intensity", 0.0)),
            imbalance=float(data.get("imbalance", 1.0)),
            quadrant=str(data.get("quadrant", "compute/balanced")),
            hottest_link=data.get("hottest_link"),
            inputs=list(data.get("inputs", [])),
        )

    def describe(self) -> str:
        """One human line: class, margin, placement, hottest link."""
        parts = [f"{self.primary}-bound "
                 f"({self.confidence:.0%} margin, {self.quadrant})"]
        if self.hottest_link:
            parts.append(f"hottest link {self.hottest_link}")
        return ", ".join(parts)


# ----------------------------------------------------------------------
# mesh-link accounting (matches LinkMeter's XY dimension order)
# ----------------------------------------------------------------------
def mesh_link_count(rows: int, cols: int) -> int:
    """Directed adjacent-link count of a ``rows x cols`` mesh."""
    if rows < 1 or cols < 1:
        return 0
    return 2 * (rows * (cols - 1) + cols * (rows - 1))


def link_loads_from_unit_matrix(
    matrix: Sequence[Sequence[float]], units_per_stack: int,
    mesh_rows: int, mesh_cols: int,
) -> Dict[Tuple[int, int], float]:
    """Per-directed-link message loads from a unit-pair message matrix.

    Aggregates the ``(num_units, num_units)`` telemetry ``link_matrix``
    to stack pairs and walks each pair's XY route, attributing the
    pair's message count to every link it traverses — the software
    mirror of :meth:`repro.arch.noc.LinkMeter.record` for summaries
    that only persisted the unit matrix.
    """
    loads: Dict[Tuple[int, int], float] = {}
    per = max(1, units_per_stack)
    stack_pair: Dict[Tuple[int, int], float] = {}
    for src, row in enumerate(matrix):
        s_src = src // per
        for dst, count in enumerate(row):
            if not count:
                continue
            s_dst = dst // per
            if s_src == s_dst:
                continue
            pair = (s_src, s_dst)
            stack_pair[pair] = stack_pair.get(pair, 0.0) + float(count)
    for (s_src, s_dst), count in stack_pair.items():
        for link in xy_route(s_src, s_dst, mesh_cols):
            loads[link] = loads.get(link, 0.0) + count
    return loads


# ----------------------------------------------------------------------
# attribution
# ----------------------------------------------------------------------
def _get(metrics: Mapping[str, Any], name: str, default: float = 0.0) -> float:
    value = metrics.get(name, default)
    try:
        value = float(value)
    except (TypeError, ValueError):
        return default
    return value if math.isfinite(value) else default


def _percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile without numpy (deterministic)."""
    ordered = sorted(float(v) for v in values)
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def attribute_point(
    metrics: Mapping[str, Any],
    telemetry: Optional[Mapping[str, Any]] = None,
    config: Optional[SystemConfig] = None,
    active_cycles: Optional[Sequence[float]] = None,
) -> BottleneckProfile:
    """Attribute one run's makespan to resource occupancy fractions.

    ``metrics`` is a :func:`~repro.analysis.export.result_row`-style
    mapping (missing keys degrade gracefully — a ledger record's
    headline subset still classifies, with the degraded signals noted
    in ``profile.inputs``).  ``telemetry`` is a TelemetrySummary dict
    (the ``<key>.telemetry.json`` sidecar); ``active_cycles`` the
    per-core busy-cycle vector from the cached result.  ``config``
    supplies timing constants and topology; defaults to the paper's
    :func:`~repro.config.experiment_config`.
    """
    cfg = config if config is not None else experiment_config()
    inputs = ["row"]

    makespan = _get(metrics, "makespan_cycles")
    if makespan <= 0.0:
        return BottleneckProfile(
            primary="compute", confidence=0.0,
            occupancy={k: 0.0 for k in BOTTLENECK_CLASSES},
            inputs=inputs + ["empty"],
        )

    freq = cfg.core.frequency_ghz
    units = cfg.num_units
    tel_counters: Mapping[str, Any] = {}
    tel_matrix: Optional[Sequence[Sequence[float]]] = None
    if telemetry:
        meta = telemetry.get("meta") or {}
        tel_units = meta.get("num_units")
        if tel_units:
            units = int(tel_units)
        tel_counters = telemetry.get("counters") or {}
        tel_matrix = telemetry.get("link_matrix")
        inputs.append("telemetry")
    units = max(1, units)
    lanes = units * max(1, cfg.core.cores_per_unit)
    hide_keep = 1.0 - cfg.scheduler.prefetch_hide_fraction

    # -- raw traffic counts --------------------------------------------
    dram_accesses = (_get(metrics, "dram_reads")
                     + _get(metrics, "dram_writes")
                     + _get(metrics, "cache_fills"))
    inter_hops = _get(metrics, "inter_hops")
    intra_transfers = _get(metrics, "intra_transfers")
    if intra_transfers <= 0.0:
        # Headline-only rows: camp round trips ride the crossbar twice.
        intra_transfers = 2.0 * _get(metrics, "cache_hits")
    l1_accesses = _get(tel_counters, "sram.l1_accesses")

    # -- charged stall cycles: the executor's duration model -----------
    # Tasks pay compute_cycles + stall_ns * freq * (1 - hide); the
    # stall latency of an access is its DRAM row access plus its NoC
    # hops plus its crossbar traversals, so charging the same raw
    # latencies times hide_keep reconstructs what actually landed in
    # the per-core busy time.
    dram_charge = dram_accesses * cfg.memory.access_latency_ns * freq
    noc_charge = inter_hops * cfg.noc.inter_hop_ns * freq
    camp_busy = (intra_transfers * cfg.noc.intra_hop_ns * freq
                 + l1_accesses * cfg.sram.l1_hit_ns * freq)
    capacity = lanes * makespan
    stall_occ = ((dram_charge + noc_charge + camp_busy)
                 * hide_keep / capacity)

    # -- DRAM: vault channel service occupancy -------------------------
    service_ns = cfg.memory.service_ns or cfg.memory.line_transfer_ns
    dram_occ = dram_accesses * service_ns * freq / (units * makespan)

    # -- camp / L1: per-unit crossbar occupancy ------------------------
    camp_occ = camp_busy / (units * makespan)

    # -- NoC: hottest-link serialization (telemetry) or mean link ------
    topo = cfg.topology
    hop_cycles = cfg.noc.inter_hop_ns * freq
    links = mesh_link_count(topo.mesh_rows, topo.mesh_cols)
    hottest_link: Optional[str] = None
    noc_occ = 0.0
    if links:
        matrix_units = len(tel_matrix) if tel_matrix else 0
        if tel_matrix and matrix_units == topo.num_units:
            loads = link_loads_from_unit_matrix(
                tel_matrix, topo.units_per_stack,
                topo.mesh_rows, topo.mesh_cols,
            )
            if loads:
                (a, b), load = max(
                    loads.items(), key=lambda kv: (kv[1], (-kv[0][0],
                                                           -kv[0][1])))
                noc_occ = load * hop_cycles / makespan
                hottest_link = f"s{a}->s{b}"
                inputs.append("link_matrix")
        if noc_occ == 0.0:
            noc_occ = inter_hops * hop_cycles / (links * makespan)

    # -- compute: busy time net of the charged memory stalls -----------
    mean_core = _get(metrics, "mean_core_cycles")
    busiest = _get(metrics, "busiest_core_cycles")
    row_skew = _get(metrics, "load_imbalance", 1.0)
    if mean_core <= 0.0 and row_skew > 0.0:
        # Ledger-degraded path: the busiest unit tracks the makespan on
        # a barrier-synchronized run, so mean ~= makespan / (max/mean).
        mean_core = makespan / row_skew
        busiest = makespan
        inputs.append("approx_cycles")
    util = mean_core / makespan
    compute_occ = max(0.0, util - stall_occ)

    # -- imbalance: the critical-path tail above the mean --------------
    cycle_vector: Optional[List[float]] = None
    if active_cycles is not None and len(active_cycles) > 0:
        cycle_vector = [float(v) for v in active_cycles]
        inputs.append("active_cycles")
    elif tel_counters:
        unit_cycles = [
            float(v) for k, v in sorted(tel_counters.items())
            if k.startswith("unit.") and k.endswith(".active_cycles")
        ]
        if unit_cycles:
            cycle_vector = unit_cycles
            inputs.append("unit_cycles")
    if cycle_vector:
        mean_ac = sum(cycle_vector) / len(cycle_vector)
        p95 = _percentile(cycle_vector, 0.95)
        skew = p95 / mean_ac if mean_ac > 0 else 1.0
        # Normalize to the row's core-level mean so the tail fraction
        # stays consistent when the vector is per *unit* (telemetry).
        imbalance_occ = max(0.0, (skew - 1.0) * mean_core / makespan)
    else:
        if busiest <= 0.0:
            busiest = mean_core * max(1.0, row_skew)
        skew = max(1.0, row_skew)
        imbalance_occ = max(0.0, (busiest - mean_core) / makespan)
        inputs.append("approx_skew")

    occupancy = {
        "compute": round(compute_occ, _ROUND),
        "dram": round(dram_occ, _ROUND),
        "noc": round(noc_occ, _ROUND),
        "camp": round(camp_occ, _ROUND),
        "imbalance": round(imbalance_occ, _ROUND),
    }
    ranked = sorted(
        occupancy.items(),
        key=lambda kv: (-kv[1], BOTTLENECK_CLASSES.index(kv[0])),
    )
    top_name, top = ranked[0]
    second = ranked[1][1]
    confidence = (top - second) / top if top > 0 else 0.0

    memory_intensity = min(1.0, stall_occ / util) if util > 0 else 0.0
    half = ("memory" if memory_intensity >= MEMORY_AXIS_THRESHOLD
            else "compute")
    balance = "imbalanced" if skew >= SKEW_THRESHOLD else "balanced"

    return BottleneckProfile(
        primary=top_name,
        confidence=round(confidence, _ROUND),
        occupancy=occupancy,
        memory_intensity=round(memory_intensity, _ROUND),
        imbalance=round(skew, _ROUND),
        quadrant=f"{half}/{balance}",
        hottest_link=hottest_link,
        inputs=inputs,
    )
