"""Physical address space, home mapping, and primary-data allocation.

The NDP system exposes a single flat physical address space.  Each NDP
unit owns a contiguous 512 MB slice of it (its *home* memory region);
the unit id of an address is therefore ``addr // capacity_per_unit``.

Applications allocate their *primary data* (Section 3.1) through the
:class:`Allocator`, which implements the paper's baseline data
distribution: "evenly distributes all data elements among the NDP
units" — element ``i`` of a round-robin array lands in unit
``i % num_units``.  A :class:`DataRegion` remembers the address of every
element so that workloads can build exact task hints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.arch.topology import Topology
from repro.config import MemoryConfig


class MemoryMap:
    """Address arithmetic for the flat NDP physical address space."""

    def __init__(self, topology: Topology, memory: MemoryConfig):
        memory.validate()
        self.topology = topology
        self.memory = memory
        self.unit_capacity = memory.capacity_per_unit
        self.total_capacity = topology.num_units * self.unit_capacity
        self.line_bytes = memory.cacheline_bytes
        self._line_shift = self.line_bytes.bit_length() - 1
        #: whole lines per unit (validate() requires a multiple), so a
        #: line's home is ``line // lines_per_unit``: the address's home
        #: without shifting the line back to a (multi-digit) address.
        self.lines_per_unit = self.unit_capacity // self.line_bytes

    # ------------------------------------------------------------------
    # scalar helpers
    # ------------------------------------------------------------------
    def home_unit(self, addr: int) -> int:
        """NDP unit whose local DRAM stores ``addr``."""
        if not 0 <= addr < self.total_capacity:
            raise ValueError(f"address {addr:#x} outside physical memory")
        return addr // self.unit_capacity

    def line_of(self, addr: int) -> int:
        """Cacheline index (address >> log2(line))."""
        return addr >> self._line_shift

    def line_addr(self, addr: int) -> int:
        """Address of the cacheline containing ``addr``."""
        return (addr >> self._line_shift) << self._line_shift

    # ------------------------------------------------------------------
    # vectorised helpers
    # ------------------------------------------------------------------
    def home_units(self, addrs: np.ndarray) -> np.ndarray:
        return (addrs // self.unit_capacity).astype(np.int64)

    def lines(self, addrs: np.ndarray) -> np.ndarray:
        return (addrs >> self._line_shift).astype(np.int64)

    def unique_lines(self, addrs: np.ndarray) -> np.ndarray:
        """Distinct cachelines touched by a set of addresses."""
        lines = self.lines(np.asarray(addrs, dtype=np.int64))
        if lines.size <= 256:
            # Hint-sized inputs: a Python set + sort beats np.unique's
            # sort machinery several-fold and returns the same sorted
            # distinct values.
            return np.array(sorted(set(lines.tolist())), dtype=np.int64)
        return np.unique(lines)

    def home_of_line(self, line: int) -> int:
        return line // self.lines_per_unit

    def homes_of_lines(self, lines: np.ndarray) -> np.ndarray:
        return ((lines.astype(np.int64) << self._line_shift)
                // self.unit_capacity).astype(np.int64)


@dataclass
class DataRegion:
    """One named primary-data array and where its elements live.

    ``addresses[i]`` is the physical byte address of element ``i``.
    """

    name: str
    elem_bytes: int
    addresses: np.ndarray  # (count,) int64

    @property
    def count(self) -> int:
        return len(self.addresses)

    def addr(self, index: int) -> int:
        return int(self.addresses[index])

    def addrs(self, indices) -> np.ndarray:
        return self.addresses[np.asarray(indices, dtype=np.int64)]

    @property
    def footprint_bytes(self) -> int:
        return self.count * self.elem_bytes


class Allocator:
    """Allocates primary-data arrays into the units' home regions.

    Layouts
    -------
    ``round_robin``:
        element ``i`` -> unit ``i % N`` (the paper's baseline placement).
    ``blocked``:
        contiguous chunks of ``ceil(count / N)`` elements per unit.
    ``pinned``:
        the whole array in one unit (for small shared structures).
    """

    def __init__(self, memory_map: MemoryMap, reserve_top_fraction: float = 0.0):
        """``reserve_top_fraction`` keeps the top slice of every unit's
        memory free (the Traveller Cache data region)."""
        self.memory_map = memory_map
        n = memory_map.topology.num_units
        self._cursor = np.zeros(n, dtype=np.int64)
        usable = int(memory_map.unit_capacity * (1.0 - reserve_top_fraction))
        self._usable_per_unit = usable
        self.regions: Dict[str, DataRegion] = {}

    @property
    def num_units(self) -> int:
        return len(self._cursor)

    def _take(self, unit: int, nbytes: int, align: int = 64) -> int:
        """Reserve ``nbytes`` in ``unit``; returns the physical address.

        The cursor is rounded up to ``align`` first so that elements of
        differently-sized regions never straddle cachelines.
        """
        offset = int(self._cursor[unit])
        offset = (offset + align - 1) // align * align
        if offset + nbytes > self._usable_per_unit:
            raise MemoryError(
                f"unit {unit} out of usable home memory "
                f"({offset + nbytes} > {self._usable_per_unit})"
            )
        self._cursor[unit] = offset + nbytes
        return unit * self.memory_map.unit_capacity + offset

    def alloc(
        self,
        name: str,
        count: int,
        elem_bytes: int = 64,
        layout: str = "round_robin",
        unit: int = 0,
    ) -> DataRegion:
        """Allocate ``count`` elements of ``elem_bytes`` each.

        Element addresses are aligned to ``elem_bytes`` when it is a
        power of two <= a cacheline, so elements never straddle lines.
        """
        if name in self.regions:
            raise ValueError(f"region {name!r} already allocated")
        if count <= 0:
            raise ValueError("count must be positive")
        if elem_bytes <= 0:
            raise ValueError("elem_bytes must be positive")

        n = self.num_units
        addrs = np.empty(count, dtype=np.int64)
        if layout == "round_robin":
            for u in range(n):
                idx = np.arange(u, count, n)
                if len(idx) == 0:
                    continue
                base = self._take(u, len(idx) * elem_bytes)
                addrs[idx] = base + np.arange(len(idx)) * elem_bytes
        elif layout == "blocked":
            chunk = -(-count // n)  # ceil division
            for u in range(n):
                lo = u * chunk
                hi = min(count, lo + chunk)
                if lo >= hi:
                    break
                base = self._take(u, (hi - lo) * elem_bytes)
                addrs[lo:hi] = base + np.arange(hi - lo) * elem_bytes
        elif layout == "pinned":
            base = self._take(unit, count * elem_bytes)
            addrs[:] = base + np.arange(count) * elem_bytes
        else:
            raise ValueError(f"unknown layout {layout!r}")

        region = DataRegion(name=name, elem_bytes=elem_bytes, addresses=addrs)
        self.regions[name] = region
        return region
