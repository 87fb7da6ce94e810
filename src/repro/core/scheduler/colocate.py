"""Design **B**: co-locate each task with its main data element.

The widely used baseline (Section 2.3): every task runs in the NDP
unit whose local memory stores the task's *first* hint element — in
Page Rank, the to-be-updated vertex.  Cheap and local, but blind to the
task's other accesses and to load imbalance.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.scheduler.base import Scheduler
from repro.runtime.task import Task


class ColocateScheduler(Scheduler):
    """Run the task at the home of its first hint address."""

    policy_name = "colocate"

    def choose_units_batch(self, tasks: Sequence[Task]) -> List[int]:
        """The main elements' homes; hint-less tasks stay at their
        spawner."""
        ctx = self.context
        home_unit = ctx.memory_map.home_unit
        units = [
            home_unit(int(task.hint.addresses[0]))
            if task.hint.addresses.size else task.spawner_unit
            for task in tasks
        ]
        if ctx.alive_mask is not None:
            # The baseline has no placement freedom, so a dead home (or
            # spawner) simply redirects to the closest surviving unit.
            units = [ctx.nearest_alive(unit) for unit in units]
        if self.telemetry.enabled:
            self.decision_terms = [(0.0, 0.0, 0.0)] * len(units)
        return units
