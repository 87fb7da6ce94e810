"""Hint-driven exact prefetching into a per-unit SRAM FIFO buffer.

Section 3.2: a prefetch unit walks the tasks inside the *prefetch
window* at the front of the task queue and issues requests for their
hint addresses; fetched lines land in a small SRAM prefetch buffer
(4 kB FIFO).  Hits in the buffer bypass the L1.

In the simulator the prefetch is issued on the same path the demand
access would take (same hops, same DRAM events) — prefetching changes
*when* the data arrives, not *whether* it moves.  The executor accounts
the latency hiding; this module models buffer residency so repeated
lines within the window are fetched once and hit cheaply.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.config import MemoryConfig, SramConfig


@dataclass
class PrefetchStats:
    issued: int = 0
    buffer_hits: int = 0
    evictions: int = 0

    def merge(self, other: "PrefetchStats") -> None:
        self.issued += other.issued
        self.buffer_hits += other.buffer_hits
        self.evictions += other.evictions


class PrefetchBuffer:
    """FIFO buffer of cachelines (one per NDP unit)."""

    def __init__(self, capacity_bytes: int, line_bytes: int = 64):
        self.capacity_lines = max(1, capacity_bytes // line_bytes)
        # Oldest line at the front; a full deque drops it on append.
        self._fifo: deque = deque(maxlen=self.capacity_lines)
        self.stats = PrefetchStats()

    def lookup(self, line: int) -> bool:
        """Demand probe; FIFO order is *not* refreshed (it is a FIFO)."""
        if line in self._fifo:
            self.stats.buffer_hits += 1
            return True
        return False

    def insert(self, line: int) -> None:
        """Install a prefetched line, evicting the oldest if full."""
        if line in self._fifo:
            return
        if len(self._fifo) == self.capacity_lines:
            self.stats.evictions += 1
        self._fifo.append(line)
        self.stats.issued += 1

    def batch_state(self):
        """Internal state for the fused access kernel's probe loop:
        ``(fifo deque, capacity_lines, stats)``.  Same contract as
        :meth:`repro.arch.l1cache.L1Cache.batch_state`.
        """
        return self._fifo, self.capacity_lines, self.stats

    def contains(self, line: int) -> bool:
        return line in self._fifo

    def invalidate_all(self) -> None:
        self._fifo.clear()

    def occupancy(self) -> int:
        return len(self._fifo)

    @classmethod
    def from_config(cls, sram: SramConfig, memory: MemoryConfig) -> "PrefetchBuffer":
        return cls(sram.prefetch_buffer_bytes, memory.cacheline_bytes)
