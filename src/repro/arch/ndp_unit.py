"""Per-NDP-unit execution state: cores, clocks, and load counters.

An NDP unit (Section 3.2) couples one DRAM channel with a handful of
simple in-order cores, an L1, a prefetch buffer, and a task queue.  This
module holds the *dynamic* state the executor mutates while draining a
timestamp: per-core ready times, the active-cycle meter behind Figure 9,
and the workload counter ``W_u`` behind the load-imbalance score
(Equation 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.arch.l1cache import L1Cache
from repro.arch.prefetch import PrefetchBuffer
from repro.config import SystemConfig


@dataclass
class NdpUnit:
    """Dynamic state of one NDP unit during simulation."""

    unit_id: int
    num_cores: int
    l1: L1Cache
    prefetch: PrefetchBuffer
    # Absolute cycle at which each core becomes free within the current
    # timestamp phase.  Per-core state is a plain float list: it is read
    # item by item once per task, where list access beats ndarray.
    core_free_at: List[float] = field(default=None)  # type: ignore[assignment]
    # Cycles each core actually spent executing tasks (Figure 9 metric).
    active_cycles: float = 0.0
    core_active: List[float] = field(default=None)  # type: ignore[assignment]
    tasks_executed: int = 0

    def __post_init__(self) -> None:
        if self.core_free_at is None:
            self.core_free_at = [0.0] * self.num_cores
        if self.core_active is None:
            self.core_active = [0.0] * self.num_cores

    # ------------------------------------------------------------------
    def run_task(self, duration_cycles: float, start_floor: float = 0.0) -> float:
        """Execute one task on the earliest-free core.

        Returns the completion time of the task.  ``start_floor`` lower-
        bounds the start (e.g. the phase start after a barrier).
        """
        # index() finds the first minimum: np.argmin's pick on ties.
        free = self.core_free_at
        best = min(free)
        core = free.index(best)
        start = max(best, start_floor)
        finish = start + duration_cycles
        free[core] = finish
        self.active_cycles += duration_cycles
        self.core_active[core] += duration_cycles
        self.tasks_executed += 1
        return finish

    def busy_until(self) -> float:
        """Cycle at which the last core finishes its queued work."""
        return max(self.core_free_at)

    def earliest_free(self) -> float:
        return min(self.core_free_at)

    def reset_clocks(self, now: float = 0.0) -> None:
        """Re-align the cores at a barrier."""
        self.core_free_at[:] = [now] * self.num_cores

    def end_timestamp(self) -> None:
        """Bulk invalidation at the timestamp barrier (Section 4.4).

        Primary data are updated in bulk at the barrier, so both the L1
        and the prefetch buffer drop their (now stale) read-only copies.
        """
        self.l1.invalidate_all()
        self.prefetch.invalidate_all()


def build_units(config: SystemConfig) -> List[NdpUnit]:
    """Construct the dynamic state for every unit in the system."""
    units = []
    for uid in range(config.num_units):
        units.append(
            NdpUnit(
                unit_id=uid,
                num_cores=config.core.cores_per_unit,
                l1=L1Cache.from_config(config.sram, config.memory),
                prefetch=PrefetchBuffer.from_config(config.sram, config.memory),
            )
        )
    return units
