"""The FaultController: applies a schedule to a live machine.

One controller rides along with one :class:`~repro.core.system.
NdpSystem` run.  The executor calls :meth:`on_phase_start` at every
bulk-synchronous phase boundary; the controller

1. applies due *recoveries* (transient faults whose duration elapsed);
2. fires due *events* — timestamp triggers plus one probabilistic draw
   per pending event per phase, in schedule order, from a dedicated
   seeded stream (bit-reproducible, independent of the system RNG);
3. *synchronizes* the machine: scheduler alive mask, NoC link faults +
   rerouting + scheduling costs, DRAM vault multipliers, camp remapping,
   Traveller-cache invalidation of dead units, memory-system
   reachability state;
4. asks the executor to re-place every task stranded on a newly dead
   unit (the zero-lost-tasks guarantee);
5. charges a detection/reconfiguration overhead to the run clock and
   stamps fault/recovery instants on the telemetry timeline.

Faults apply only at phase boundaries — within a phase the alive set is
stable, which is exactly the invariant the bulk-synchronous execution
model gives the hardware (a mid-phase failure is observed at the next
barrier timeout).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.schedule import (
    FAULT_STREAM,
    FaultEvent,
    FaultKind,
    FaultSchedule,
    ResilienceStats,
)


class FaultController:
    """Deterministic fault application + recovery orchestration."""

    #: cycles to detect a fault and reconfigure routing/mapping tables.
    EVENT_OVERHEAD_CYCLES = 1000.0
    #: cycles to re-place one stranded task (scheduler + forward msg).
    RESCHEDULE_CYCLES_PER_TASK = 50.0

    def __init__(
        self,
        schedule: FaultSchedule,
        seed: int,
        num_units: int,
        interconnect,
        dram,
        memory_system,
        context,
        camp_mapper=None,
        telemetry=None,
    ):
        schedule.validate()
        self.schedule = schedule
        self.interconnect = interconnect
        self.dram = dram
        self.memory_system = memory_system
        self.context = context
        self.camp_mapper = camp_mapper
        from repro.telemetry import NULL_TELEMETRY

        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY

        self.num_units = num_units
        self.alive = np.ones(num_units, dtype=bool)
        self.stats = ResilienceStats()
        self._dead_links: set = set()
        self._degraded: Dict[Tuple[int, int], float] = {}
        self._vault_scale = np.ones(num_units, dtype=np.float64)
        self._rng = np.random.default_rng([int(seed), FAULT_STREAM])
        self._fired = [False] * len(schedule.events)
        #: (due_timestamp, event) transient faults awaiting recovery.
        self._recoveries: List[Tuple[int, FaultEvent]] = []
        # Reachability/penalty accounting starts with the first phase —
        # attaching up front keeps behavior identical whether the first
        # event fires at timestamp 0 or later.
        self.memory_system.set_fault_state(None, self.stats)

        self._validate_targets()

    def _validate_targets(self) -> None:
        links = {tuple(sorted(lk)) for lk in
                 self.interconnect.topology.mesh_links()}
        for ev in self.schedule.events:
            if ev.unit is not None and not 0 <= ev.unit < self.num_units:
                raise ValueError(f"fault targets unknown unit {ev.unit}")
            if ev.link is not None and tuple(sorted(ev.link)) not in links:
                raise ValueError(
                    f"fault targets non-adjacent link {ev.link}"
                )

    # ------------------------------------------------------------------
    def eligible_mask(self) -> Optional[np.ndarray]:
        """Units the rebalancers may use; None while all are alive."""
        if bool(self.alive.all()):
            return None
        return self.alive

    # ------------------------------------------------------------------
    def on_phase_start(
        self,
        timestamp: int,
        clock_cycles: float,
        reassign: Callable[[Sequence[int]], int],
    ) -> float:
        """Apply due recoveries and faults; returns overhead cycles."""
        changes = 0
        newly_dead: List[int] = []

        # 1. recoveries whose transient duration elapsed.
        due = [(ts, ev) for ts, ev in self._recoveries if ts <= timestamp]
        if due:
            self._recoveries = [
                (ts, ev) for ts, ev in self._recoveries if ts > timestamp
            ]
            for _, ev in due:
                self._recover(ev, clock_cycles)
                changes += 1

        # 2. newly firing events: timestamp triggers, then one
        #    probabilistic draw per pending event — always in schedule
        #    order so the stream consumption is deterministic.
        for i, ev in enumerate(self.schedule.events):
            if self._fired[i]:
                continue
            if ev.at_timestamp is not None:
                fire = ev.at_timestamp <= timestamp
            else:
                fire = bool(self._rng.random() < ev.probability)
            if not fire:
                continue
            self._fired[i] = True
            if self._apply(ev, clock_cycles, newly_dead):
                changes += 1
                if ev.duration_phases is not None:
                    self._recoveries.append(
                        (timestamp + ev.duration_phases, ev)
                    )

        if not changes:
            return 0.0

        # 3. propagate the new machine state everywhere at once.
        self._sync(newly_dead)

        # 4. re-place stranded tasks now that schedulers see the mask.
        moved = reassign(newly_dead) if newly_dead else 0
        self.stats.tasks_reexecuted += moved

        overhead = (
            changes * self.EVENT_OVERHEAD_CYCLES
            + moved * self.RESCHEDULE_CYCLES_PER_TASK
        )
        self.stats.recovery_cycles += overhead
        return overhead

    # ------------------------------------------------------------------
    def _apply(self, ev: FaultEvent, clock_cycles: float,
               newly_dead: List[int]) -> bool:
        """Mutate controller state for one firing event.

        Returns False when the event is skipped (e.g. it would kill the
        last living unit — the machine must keep executing).
        """
        if ev.kind is FaultKind.UNIT_FAIL:
            unit = int(ev.unit)
            if not self.alive[unit]:
                return False  # already dead (double fault)
            if self.alive.sum() <= 1:
                return False  # never kill the last unit
            self.alive[unit] = False
            newly_dead.append(unit)
            self.stats.unit_failures += 1
            self._instant("fault.unit_fail", clock_cycles, unit=unit)
        elif ev.kind is FaultKind.LINK_FAIL:
            link = tuple(sorted(int(x) for x in ev.link))
            if link in self._dead_links:
                return False
            self._dead_links.add(link)
            self._degraded.pop(link, None)
            self.stats.link_failures += 1
            self._instant("fault.link_fail", clock_cycles,
                          link=list(link))
        elif ev.kind is FaultKind.LINK_DEGRADE:
            link = tuple(sorted(int(x) for x in ev.link))
            if link in self._dead_links:
                return False
            self._degraded[link] = float(ev.factor)
            self.stats.link_degradations += 1
            self._instant("fault.link_degrade", clock_cycles,
                          link=list(link), factor=ev.factor)
        elif ev.kind is FaultKind.VAULT_SLOW:
            unit = int(ev.unit)
            self._vault_scale[unit] = float(ev.factor)
            self.stats.vault_slowdowns += 1
            self._instant("fault.vault_slow", clock_cycles,
                          unit=unit, factor=ev.factor)
        return True

    def _recover(self, ev: FaultEvent, clock_cycles: float) -> None:
        if ev.kind is FaultKind.UNIT_FAIL:
            self.alive[int(ev.unit)] = True
            self.stats.unit_recoveries += 1
            self._instant("recover.unit", clock_cycles, unit=int(ev.unit))
        elif ev.kind is FaultKind.LINK_FAIL:
            self._dead_links.discard(tuple(sorted(int(x) for x in ev.link)))
            self.stats.link_recoveries += 1
            self._instant("recover.link", clock_cycles, link=list(ev.link))
        elif ev.kind is FaultKind.LINK_DEGRADE:
            self._degraded.pop(tuple(sorted(int(x) for x in ev.link)), None)
            self.stats.link_recoveries += 1
            self._instant("recover.link", clock_cycles, link=list(ev.link))
        elif ev.kind is FaultKind.VAULT_SLOW:
            self._vault_scale[int(ev.unit)] = 1.0
            self.stats.vault_recoveries += 1
            self._instant("recover.vault", clock_cycles, unit=int(ev.unit))

    # ------------------------------------------------------------------
    def _sync(self, newly_dead: Sequence[int]) -> None:
        """Push the controller's state into every affected subsystem."""
        all_alive = bool(self.alive.all())
        mask = None if all_alive else self.alive

        # NoC: reroute + rebuild the stack tables and the unit cost
        # table that every scheduling read goes through.
        if self._dead_links or self._degraded:
            self.interconnect.set_link_faults(
                self._dead_links, self._degraded
            )
        else:
            self.interconnect.clear_link_faults()

        # DRAM: per-unit vault latency multipliers.
        self.dram.set_unit_latency_scale(
            None if bool(np.all(self._vault_scale == 1.0))
            else self._vault_scale.copy()
        )

        # Schedulers: candidate masking via the shared context.  The
        # epoch bump drops every scoring memo that baked in the old
        # distances or the old liveness state.
        self.context.alive_mask = mask
        self.context.cost_epoch += 1

        # Traveller camps: remap around dead units; a liveness *or*
        # distance change invalidates the memoized nearest tables.
        if self.camp_mapper is not None:
            self.camp_mapper.set_alive_mask(mask)
            self.stats.camp_remap_events += 1

        # Dead units take their cached lines with them.
        if newly_dead:
            self.stats.camp_lines_invalidated += (
                self.memory_system.invalidate_units(newly_dead)
            )

        # Memory system: reachability checks + penalty accounting.
        self.memory_system.set_fault_state(mask, self.stats)

    def _instant(self, name: str, clock_cycles: float, **kw) -> None:
        tel = self.telemetry
        if tel.enabled:
            tel.timeline.instant(name, tel.cycles_to_ns(clock_cycles), **kw)
