"""The Traveller Cache proper: one set-associative array per NDP unit.

Each unit reserves ``1/R`` of its local DRAM as a data region for
remote lines; the tags live in on-die SRAM (Section 4.3).  A line may
only be installed at the unit(s) the :class:`~repro.core.cache.camp.
CampMapper` designates, which is enforced by the memory system — this
class is the per-unit array: tags, insertion/replacement policies, and
the bulk invalidation at timestamp barriers.

All primary data cached here are read-only within a timestamp (bulk-
synchronous execution), so there are no dirty lines and invalidation is
a single tag-clear — exactly the coherence argument of Section 4.4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.config import CacheConfig, MemoryConfig
from repro.core.cache.policies import (
    ProbabilisticInsertion,
    VictimPolicy,
    make_replacement_policy,
)


@dataclass
class CacheStatsTotal:
    """System-wide Traveller Cache counters for one run."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    bypasses: int = 0
    evictions: int = 0
    home_direct: int = 0      # accesses whose nearest location was the home
    invalidation_rounds: int = 0

    @property
    def probes(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.probes if self.probes else 0.0

    def merge(self, other: "CacheStatsTotal") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.insertions += other.insertions
        self.bypasses += other.bypasses
        self.evictions += other.evictions
        self.home_direct += other.home_direct
        self.invalidation_rounds += other.invalidation_rounds


class TravellerCache:
    """One NDP unit's Traveller Cache array (DRAM data, SRAM tags)."""

    #: line id stored as its own tag; -1 marks an invalid way.
    INVALID = -1

    def __init__(
        self,
        config: CacheConfig,
        memory: MemoryConfig,
        rng: np.random.Generator,
    ):
        self.config = config
        self.num_sets = config.num_sets(memory)
        self.associativity = config.associativity
        # Sparse storage: only sets touched since the last bulk
        # invalidation hold a row of Python lists; a missing row means
        # all ways invalid (use stamps zero).  Barrier invalidation is
        # an O(touched) dict clear instead of an O(capacity) array wipe
        # per unit, and probes are plain list operations.
        self._tags: Dict[int, List[int]] = {}
        self._use_order: Dict[int, List[int]] = {}
        self._stamp = 0
        self._rng = rng
        self._insertion = ProbabilisticInsertion(config.bypass_probability)
        self._victims: VictimPolicy = make_replacement_policy(config.replacement)
        self.stats = CacheStatsTotal()

    # ------------------------------------------------------------------
    def _set_of(self, line: int) -> int:
        return line % self.num_sets

    def lookup(self, line: int) -> bool:
        """Probe the SRAM tags for ``line``."""
        s = line % self.num_sets
        ways = self._tags.get(s)
        if ways is not None:
            try:
                way = ways.index(line)
            except ValueError:
                pass
            else:
                self._stamp += 1
                self._victims.on_touch(self._use_order[s], way, self._stamp)
                self.stats.hits += 1
                return True
        self.stats.misses += 1
        return False

    def insert(self, line: int) -> bool:
        """Try to install ``line`` after a miss.

        Subject to the probabilistic bypass filter; returns True when
        the line was actually installed (the caller then charges the
        DRAM cache-fill write and the home->camp transfer).
        """
        if not self._insertion.should_insert(self._rng):
            self.stats.bypasses += 1
            return False
        s = self._set_of(line)
        ways = self._tags.get(s)
        if ways is None:
            ways = self._tags[s] = [self.INVALID] * self.associativity
            self._use_order[s] = [0] * self.associativity
        if line in ways:
            return False  # racing insert from a concurrent miss
        try:
            way = ways.index(self.INVALID)
        except ValueError:
            way = self._victims.choose_way(self._use_order[s], self._rng)
            self.stats.evictions += 1
        ways[way] = line
        self._stamp += 1
        self._victims.on_touch(self._use_order[s], way, self._stamp)
        self.stats.insertions += 1
        return True

    def contains(self, line: int) -> bool:
        """Stat-free membership test."""
        ways = self._tags.get(self._set_of(line))
        return ways is not None and line in ways

    def bulk_invalidate(self) -> None:
        """Clear all tags at the timestamp barrier (Section 4.4)."""
        self._tags.clear()
        self._use_order.clear()
        self.stats.invalidation_rounds += 1

    def occupancy(self) -> int:
        return sum(
            self.associativity - row.count(self.INVALID)
            for row in self._tags.values()
        )

    @property
    def capacity_lines(self) -> int:
        return self.num_sets * self.associativity
