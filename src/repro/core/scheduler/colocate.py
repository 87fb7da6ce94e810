"""Design **B**: co-locate each task with its main data element.

The widely used baseline (Section 2.3): every task runs in the NDP
unit whose local memory stores the task's *first* hint element — in
Page Rank, the to-be-updated vertex.  Cheap and local, but blind to the
task's other accesses and to load imbalance.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.scheduler.base import Scheduler
from repro.runtime.task import Task


class ColocateScheduler(Scheduler):
    """Run the task at the home of its first hint address."""

    policy_name = "colocate"

    def choose_unit(self, task: Task) -> int:
        if task.hint.num_addresses == 0:
            unit = self._fallback_unit(task)
        else:
            main_addr = int(task.hint.addresses[0])
            # nearest_alive: the baseline has no placement freedom, so a
            # dead home simply redirects to the closest surviving unit.
            unit = self.context.nearest_alive(
                self.context.memory_map.home_unit(main_addr)
            )
        if self.telemetry.enabled:
            self._record_decision(task, unit)
        return unit

    def choose_units_batch(
            self, tasks: Sequence[Task]) -> Optional[List[int]]:
        """The main elements' homes; hint-less tasks stay at their
        spawner (every unit is alive whenever the batch path runs)."""
        if not self._can_batch():
            return None
        home_unit = self.context.memory_map.home_unit
        return [
            home_unit(int(task.hint.addresses[0]))
            if task.hint.addresses.size else task.spawner_unit
            for task in tasks
        ]
