"""Analytic SRAM model (mini CACTI-7 stand-in).

The paper uses CACTI 7 to size/energize the L1 caches, the prefetch
buffer and the Traveller Cache tag array, and quotes two headline area
numbers in Section 7.2: an 8 MB SRAM data cache needs ~16.12 mm^2 per
unit, while the Traveller tag array needs ~0.32 mm^2.  We replace CACTI
with a small analytic model calibrated to exactly those two points:
area grows slightly super-linearly with capacity, access energy with
sqrt(capacity), which is the familiar first-order CACTI behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.config import KB, MB, SramConfig

# Calibration anchors from Section 7.2 of the paper.
_AREA_ANCHOR_BYTES = 8 * MB
_AREA_ANCHOR_MM2 = 16.12
_AREA_EXPONENT = 1.05  # mild super-linearity from peripheral overhead

_ENERGY_ANCHOR_BYTES = 64 * KB
_ENERGY_ANCHOR_PJ = 20.0  # 64 kB L1-D access


def sram_area_mm2(capacity_bytes: int, bits_per_entry_overhead: float = 0.0) -> float:
    """Estimated die area of an SRAM array of the given data capacity.

    ``bits_per_entry_overhead`` inflates the array for per-line metadata
    (valid bits etc.) expressed as a fraction of the data bits.
    """
    if capacity_bytes <= 0:
        return 0.0
    effective = capacity_bytes * (1.0 + bits_per_entry_overhead)
    scale = (effective / _AREA_ANCHOR_BYTES) ** _AREA_EXPONENT
    return _AREA_ANCHOR_MM2 * scale


def sram_access_energy_pj(capacity_bytes: int) -> float:
    """Estimated per-access dynamic energy of an SRAM array."""
    if capacity_bytes <= 0:
        return 0.0
    return _ENERGY_ANCHOR_PJ * math.sqrt(capacity_bytes / _ENERGY_ANCHOR_BYTES)


@dataclass
class SramStats:
    """SRAM access counters for one run."""

    l1_accesses: int = 0
    prefetch_accesses: int = 0
    tag_accesses: int = 0
    # Accesses to the (large) SRAM data-cache array of the Figure 13
    # pure-SRAM foil; priced per its own capacity, not the L1's.
    data_cache_accesses: int = 0

    def merge(self, other: "SramStats") -> None:
        self.l1_accesses += other.l1_accesses
        self.prefetch_accesses += other.prefetch_accesses
        self.tag_accesses += other.tag_accesses
        self.data_cache_accesses += other.data_cache_accesses

    def reset(self) -> None:
        self.l1_accesses = 0
        self.prefetch_accesses = 0
        self.tag_accesses = 0
        self.data_cache_accesses = 0


class SramModel:
    """Per-unit SRAM structures: latency, energy, and area reporting."""

    def __init__(self, config: SramConfig, tag_array_bytes: int = 0,
                 data_cache_bytes: int = 0):
        config.validate()
        self.config = config
        self.tag_array_bytes = tag_array_bytes
        self.data_cache_bytes = data_cache_bytes
        self.data_cache_access_pj = sram_access_energy_pj(data_cache_bytes)

    # ------------------------------------------------------------------
    # latency
    # ------------------------------------------------------------------
    @property
    def l1_hit_ns(self) -> float:
        return self.config.l1_hit_ns

    @property
    def tag_lookup_ns(self) -> float:
        """Traveller tag check at a camp location; SRAM -> sub-ns, round
        up to the L1 hit latency for conservatism."""
        return self.config.l1_hit_ns

    # ------------------------------------------------------------------
    # energy
    # ------------------------------------------------------------------
    def energy_pj(self, stats: SramStats) -> float:
        cfg = self.config
        return (
            stats.l1_accesses * cfg.l1_access_pj
            + stats.prefetch_accesses * cfg.prefetch_access_pj
            + stats.tag_accesses * cfg.tag_access_pj
            + stats.data_cache_accesses * self.data_cache_access_pj
        )

    # ------------------------------------------------------------------
    # area
    # ------------------------------------------------------------------
    def total_area_mm2(self) -> float:
        """Logic-die SRAM area of one NDP unit (L1s + buffers + tags)."""
        cfg = self.config
        return (
            sram_area_mm2(cfg.l1d_bytes)
            + sram_area_mm2(cfg.l1i_bytes)
            + sram_area_mm2(cfg.prefetch_buffer_bytes)
            + sram_area_mm2(self.tag_array_bytes)
        )

    def tag_area_mm2(self) -> float:
        return sram_area_mm2(self.tag_array_bytes)
