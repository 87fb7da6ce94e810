"""Per-unit DRAM channel model (HBM-like timing and energy, Table 1).

Each NDP unit owns one independent DRAM channel.  The model is analytic:
a random access costs ``tRCD + tCAS`` (row activation plus column
access), and energy is charged per bit moved plus an ACT/PRE pair for
the fraction of accesses that open a new row.  This is the same level of
abstraction the paper consumes from its DRAM model — scalar per-event
latencies and energies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.config import MemoryConfig


@dataclass
class DramStats:
    """Access counters for one simulation run (per system, not per unit)."""

    reads: int = 0
    writes: int = 0
    cache_fills: int = 0        # Traveller-cache insertions (extra writes)
    cache_reads: int = 0        # hits served from a DRAM cache region
    tag_accesses_in_dram: int = 0  # only for the DRAM-tag design (Fig 13)

    @property
    def total_accesses(self) -> int:
        return (
            self.reads + self.writes + self.cache_fills
            + self.cache_reads + self.tag_accesses_in_dram
        )

    def merge(self, other: "DramStats") -> None:
        self.reads += other.reads
        self.writes += other.writes
        self.cache_fills += other.cache_fills
        self.cache_reads += other.cache_reads
        self.tag_accesses_in_dram += other.tag_accesses_in_dram

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0
        self.cache_fills = 0
        self.cache_reads = 0
        self.tag_accesses_in_dram = 0


class DramChannel:
    """Analytic timing/energy model shared by all units.

    Stateless on the healthy path; the fault subsystem can attach a
    per-unit latency multiplier (vault latency spikes) via
    :meth:`set_unit_latency_scale`.
    """

    def __init__(self, config: MemoryConfig):
        config.validate()
        self.config = config
        #: per-unit latency multiplier while vault faults are active.
        self._latency_scale: Optional[np.ndarray] = None
        self._unit_latencies: Optional[List[float]] = None
        #: bumped by every :meth:`set_unit_latency_scale`, so holders of
        #: :meth:`unit_latencies` know to fetch it again.
        self.epoch: int = 0

    # ------------------------------------------------------------------
    # timing
    # ------------------------------------------------------------------
    @property
    def access_latency_ns(self) -> float:
        """Latency of one random cacheline access (healthy vault)."""
        return self.config.access_latency_ns

    def set_unit_latency_scale(self, scale: Optional[np.ndarray]) -> None:
        """Attach (or clear, with ``None``) per-unit latency multipliers.

        ``scale[u]`` scales every access served by unit ``u``'s channel;
        a vector of ones is treated as healthy and dropped.
        """
        if scale is not None and np.all(scale == 1.0):
            scale = None
        self._latency_scale = scale
        self._unit_latencies = None
        self.epoch += 1

    def access_latency_at(self, unit: int) -> float:
        """Latency of one random access served by ``unit``'s channel."""
        if self._latency_scale is None:
            return self.config.access_latency_ns
        return self.config.access_latency_ns * float(self._latency_scale[unit])

    def unit_latencies(self, num_units: int) -> List[float]:
        """:meth:`access_latency_at` of every unit, as a list the fused
        access kernel indexes per DRAM event; cached until the next
        :meth:`set_unit_latency_scale`."""
        if self._unit_latencies is None:
            self._unit_latencies = [
                self.access_latency_at(u) for u in range(num_units)
            ]
        return self._unit_latencies

    @property
    def row_hit_latency_ns(self) -> float:
        """Latency when the row is already open (column access only)."""
        return self.config.t_cas_ns

    # ------------------------------------------------------------------
    # energy
    # ------------------------------------------------------------------
    def access_energy_pj(self) -> float:
        """Expected dynamic energy of one cacheline access."""
        return self.config.access_energy_pj()

    def energy_pj(self, stats: DramStats) -> float:
        """Total DRAM dynamic energy for the accumulated counters."""
        return stats.total_accesses * self.access_energy_pj()
