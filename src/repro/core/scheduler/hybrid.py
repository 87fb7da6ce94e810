"""Designs **Sh**/**O**: the hybrid score-based policy (Section 5.2).

For a task ``t`` every unit ``u`` is scored

    score(t, u) = cost_mem(t, u) + B * cost_load(t, u)        (Eq. 1)

* ``cost_mem`` — mean distance from ``u`` to the nearest allowed
  location (camp or home) of each hint element (Eq. 2).  Without a
  Traveller Cache (design Sh) the only allowed location is the home;
  with it (design O) the camps participate, which both spreads hot-data
  tasks across the camps *and* exploits the skewed mapping to find a
  group where a task's multiple elements sit close together.
* ``cost_load`` — ``W_u / W_mean - 1`` (Eq. 3) from the periodically
  exchanged workload counters (the last exchanged snapshot, with a
  deadband and an idle-system floor against counter-quantization
  noise).
* ``B = alpha * D_inter`` with ``alpha = d/2`` by default — an idle
  unit may be up to half the mesh diameter further from the data and
  still win.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.scheduler.base import Scheduler
from repro.runtime.task import Task

#: the largest finite distance
_FAR = np.finfo(np.float64).max


class HybridScheduler(Scheduler):
    """argmin of Equation 1 over all units.

    Near-ties break toward the unit *closest to the spawner*: when
    several units score within ``tie_tolerance_ns`` of the minimum, the
    task stays near where it was created.  All 128 distributed
    schedulers share the same stale snapshot between exchanges, so a
    strict global argmin would send every concurrently scheduled task
    with a flat score surface to the same momentarily-idle unit (a
    thundering-herd limit cycle); breaking ties toward the spawner
    disperses the herd — spawners are spread across the machine — while
    also preserving locality (a task's spawner usually sits next to its
    data) and keeping the forwarding message short.
    """

    policy_name = "hybrid"

    reads_load_snapshot = True

    @property
    def uses_window_rescheduling(self):
        """The scheduling-window re-forwarding is part of the load-
        balancing machinery: with B = 0 the policy degenerates to pure
        distance scheduling (the alpha = 0 point of Figure 17), so the
        re-forwarding is disabled along with the load term."""
        return self.context.hybrid_weight > 0.0

    def __init__(self, context, use_camps: bool = False):
        super().__init__(context)
        self.use_camps = use_camps and context.camp_mapper is not None
        # Stability knobs, taken from the configuration (see
        # SchedulerConfig): the near-tie dispersion window; the
        # |cost_load| deadband below which counter-quantization noise
        # is treated as balance; and the mean-W floor under which the
        # machine is draining as fast as it fills (queue occupancies
        # are then 0-or-1 noise, not a load signal — e.g. K-means —
        # and the policy falls back to pure distance scheduling).
        self.tie_tolerance_ns = context.tie_tolerance_ns
        self.load_deadband = context.load_deadband
        self.load_floor_cycles = context.load_floor_cycles
        # (exchange generation, vector) memo: the visible snapshot only
        # changes at exchange boundaries, and it is the same for every
        # observer, so between exchanges every task sees one load
        # vector.
        self._load_cache = None
        # (exchange generation, hybrid_weight * load vector) memo.
        self._wload_cache = None

    def load_cost_vector(self, spawner_unit: int) -> np.ndarray:
        """cost_load(u) for every unit (Equation 3).

        All counters come from the last exchanged snapshot — every
        entry at the same staleness, so the comparison is unbiased
        (see WorkloadExchange.visible_workloads).
        """
        ctx = self.context
        cached = self._load_cache
        if cached is not None and cached[0] == ctx.exchange.generation:
            return cached[1]
        w = ctx.exchange.visible_workloads(spawner_unit)
        mean = w.mean()
        if mean <= self.load_floor_cycles:
            load = np.zeros_like(w)
        else:
            load = w / mean - 1.0
            load[np.abs(load) < self.load_deadband] = 0.0
        self._load_cache = (ctx.exchange.generation, load)
        return load

    def _weighted_load(self, spawner_unit: int) -> np.ndarray:
        """B * cost_load: the same product for every task between
        exchanges, so it is cached beside the load vector."""
        generation = self.context.exchange.generation
        cached = self._wload_cache
        if cached is None or cached[0] != generation:
            wload = self.context.hybrid_weight * self.load_cost_vector(
                spawner_unit
            )
            self._wload_cache = cached = (generation, wload)
        return cached[1]

    def choose_units_batch(self, tasks: Sequence[Task]) -> List[int]:
        """argmin of Equation 1 for each task, against the current
        snapshot.

        B * cost_load is one vector per exchange generation, so the
        batch stacks the tasks' memoized cost_mem rows (zeros for
        hint-less tasks, which then balance load alone) and adds the
        load term once.  Dead units score infinity.  Among the scores
        within the tolerance of the minimum, the unit closest to the
        spawner wins, lower unit id on equal distance (the lowest near
        id when the spawner is cut off from all of them).  A task with
        no finite score — every unit dead, or its data across a mesh
        partition from every live unit — stays by the spawner.
        """
        ctx = self.context
        mem_cost_vector = ctx.mem_cost_vector
        mem = np.array([mem_cost_vector(t, use_camps=self.use_camps)
                        for t in tasks])
        wload = self._weighted_load(tasks[0].spawner_unit)
        scores = mem + wload
        alive = ctx.alive_mask
        live = scores if alive is None else np.where(alive, scores, np.inf)
        # Raw ufunc reductions and methods: the wrappers cost more than
        # the arithmetic on a batch of one.
        best = np.minimum.reduce(live, axis=1, keepdims=True)
        near = live <= best + self.tie_tolerance_ns
        # Only near units are priced; capped, one cut off from the
        # spawner by a mesh partition still ranks before every unit
        # that is not near.
        rows, cols = near.nonzero()
        spawners = np.array([t.spawner_unit for t in tasks])
        from_spawner = np.empty(near.shape)
        from_spawner.fill(np.inf)
        from_spawner[rows, cols] = np.minimum(
            ctx.interconnect.unit_costs(spawners.take(rows), cols), _FAR)
        units = from_spawner.argmin(axis=1).tolist()
        if alive is not None:
            for j in np.flatnonzero(~np.isfinite(best)).tolist():
                units[j] = ctx.nearest_alive(tasks[j].spawner_unit)
        if self.telemetry.enabled:
            load = self.load_cost_vector(tasks[0].spawner_unit)
            rows = np.arange(len(tasks))
            # A hint-less score is the load term alone, as B * cost_load.
            self.decision_terms = [
                (m, float(load[u]),
                 s if t.hint.num_addresses else float(wload[u]))
                for t, u, m, s in zip(
                    tasks, units, mem[rows, units].tolist(),
                    scores[rows, units].tolist())
            ]
        return units
