"""Per-task reference placement for the scheduler tests.

The simulator decides placements only in batches
(``Scheduler.choose_units_batch``).  :func:`reference_decision` decides
one task at a time in the plain textbook form of each policy, alive
mask included, and the tests compare the batches against it.
"""

from typing import Tuple

import numpy as np

from repro.core.scheduler.colocate import ColocateScheduler
from repro.core.scheduler.hybrid import HybridScheduler
from repro.core.scheduler.lowest_distance import LowestDistanceScheduler
from tests.cost_reference import unit_cost_matrix

#: (cost_mem, cost_load, score) of a decision record
Terms = Tuple[float, float, float]


def place(scheduler, task) -> int:
    """The unit a one-task batch picks."""
    [unit] = scheduler.choose_units_batch([task])
    return unit


def reference_unit(scheduler, task) -> int:
    return reference_decision(scheduler, task)[0]


def reference_decision(scheduler, task) -> Tuple[int, Terms]:
    """The unit ``scheduler`` should pick for ``task`` alone, and the
    Equation 1 terms its telemetry record carries."""
    if isinstance(scheduler, HybridScheduler):
        return _hybrid(scheduler, task)
    if isinstance(scheduler, LowestDistanceScheduler):
        return _lowest_distance(scheduler, task)
    assert isinstance(scheduler, ColocateScheduler)
    return _colocate(scheduler, task)


def _colocate(scheduler, task):
    ctx = scheduler.context
    if task.hint.num_addresses == 0:
        return ctx.nearest_alive(task.spawner_unit), (0.0, 0.0, 0.0)
    home = ctx.memory_map.home_unit(int(task.hint.addresses[0]))
    return ctx.nearest_alive(home), (0.0, 0.0, 0.0)


def _lowest_distance(scheduler, task):
    ctx = scheduler.context
    if task.hint.num_addresses == 0:
        return ctx.nearest_alive(task.spawner_unit), (0.0, 0.0, 0.0)
    mm = ctx.memory_map
    homes = mm.homes_of_lines(mm.unique_lines(task.hint.addresses))
    candidates = np.unique(homes)
    if ctx.alive_mask is not None:
        candidates = candidates[ctx.alive_mask[candidates]]
        if candidates.size == 0:
            # Every data home is dead: the live unit with the lowest
            # mean distance to the hint set.
            candidates = ctx.alive_units()
    cost = unit_cost_matrix(ctx.interconnect)
    dists = cost[np.ix_(candidates, homes)].mean(axis=1)
    best = dists.min()
    tied = candidates[dists <= best + scheduler.tie_tolerance_ns]
    main_home = mm.home_unit(int(task.hint.addresses[0]))
    if main_home in tied:
        idx = int(np.nonzero(candidates == main_home)[0][0])
    else:
        idx = int(np.argmin(dists))
    cost = float(dists[idx])
    return int(candidates[idx]), (cost, 0.0, cost)


def _hybrid(scheduler, task):
    ctx = scheduler.context
    mem = ctx.mem_cost_vector(task, use_camps=scheduler.use_camps)
    load = scheduler.load_cost_vector(task.spawner_unit)
    scores = mem + ctx.hybrid_weight * load
    live = scores
    if ctx.alive_mask is not None:
        live = np.where(ctx.alive_mask, scores, np.inf)
    best = live.min()
    if not np.isfinite(best):
        unit = ctx.nearest_alive(task.spawner_unit)
    else:
        near = np.nonzero(live <= best + scheduler.tie_tolerance_ns)[0]
        cost = unit_cost_matrix(ctx.interconnect)
        from_spawner = cost[task.spawner_unit, near]
        unit = int(near[int(np.argmin(from_spawner))])
    return unit, (float(mem[unit]), float(load[unit]), float(scores[unit]))
