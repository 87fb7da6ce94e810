"""Set-associative L1 data cache with LRU replacement (Table 1).

Each NDP core has a private L1; we model one L1 per *unit* (the two
cores of a unit drain a shared task queue, and the paper's primary data
are read-only within a timestamp, so a shared model is equivalent for
hit-rate purposes and halves the simulation state).

The cache maps 64 B cachelines.  It is intentionally simple — a dict
of sets, each a plain list in LRU order — because the simulator looks
lines up at task granularity, not per instruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.config import MemoryConfig, SramConfig


@dataclass
class L1Stats:
    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def merge(self, other: "L1Stats") -> None:
        self.hits += other.hits
        self.misses += other.misses


class L1Cache:
    """One unit's L1-D cache over cacheline indices."""

    def __init__(self, capacity_bytes: int, associativity: int,
                 line_bytes: int = 64):
        if capacity_bytes % (associativity * line_bytes):
            raise ValueError("capacity must be sets * ways * line size")
        self.num_sets = capacity_bytes // (associativity * line_bytes)
        if self.num_sets < 1:
            raise ValueError("cache too small")
        self.associativity = associativity
        self.line_bytes = line_bytes
        # set index -> list of lines, LRU at the front.  A list beats
        # an OrderedDict here: a set holds ``associativity`` lines.
        self._sets: Dict[int, List[int]] = {}
        self.stats = L1Stats()

    def _set_of(self, line: int) -> int:
        return line % self.num_sets

    def lookup(self, line: int) -> bool:
        """Probe the cache; refreshes LRU order on a hit."""
        s = self._sets.get(self._set_of(line))
        if s is not None and line in s:
            if s[-1] != line:
                s.remove(line)
                s.append(line)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def insert(self, line: int) -> Optional[int]:
        """Install a line; returns the evicted line, if any."""
        idx = self._set_of(line)
        s = self._sets.get(idx)
        if s is None:
            s = self._sets[idx] = []
        if line in s:
            if s[-1] != line:
                s.remove(line)
                s.append(line)
            return None
        victim = None
        if len(s) >= self.associativity:
            victim = s[0]
            del s[0]
        s.append(line)
        return victim

    def batch_state(self):
        """Internal state for the fused access kernel's probe loop:
        ``(sets dict of LRU-ordered lists, num_sets, associativity,
        stats)``.

        The kernel inlines :meth:`lookup`/:meth:`insert` per hint line
        (same hash, same LRU updates, same eviction choices) and flushes
        the hit/miss counts into ``stats`` once per batch.
        """
        return self._sets, self.num_sets, self.associativity, self.stats

    def contains(self, line: int) -> bool:
        """Non-mutating membership test (no stats, no LRU update)."""
        s = self._sets.get(self._set_of(line))
        return s is not None and line in s

    def invalidate_all(self) -> None:
        """Bulk invalidation at a timestamp barrier (Section 4.4)."""
        self._sets.clear()

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets.values())

    @classmethod
    def from_config(cls, sram: SramConfig, memory: MemoryConfig) -> "L1Cache":
        return cls(sram.l1d_bytes, sram.l1d_assoc, memory.cacheline_bytes)
