"""Bulk-synchronous task execution engine (Sections 3.1-3.2).

Each *timestamp* is one bulk-synchronous phase:

1. **Assignment** — root tasks are placed by the active scheduling
   policy before the first phase; every task spawned *during* a phase
   is scheduled immediately at its spawn point, exactly as the hardware
   scheduler drains its scheduling window while the cores execute.
   The workload-exchange snapshot refreshes whenever the simulated
   clock crosses an exchange boundary, so the hybrid policy sees
   progressively staler remote counters between refreshes.
2. **Stealing** (design Sl only) — before a phase executes, idle units
   steal queue tails from the busiest units.  Steal decisions are
   distance-blind (they balance hint workloads); the extra remote
   access cost and the per-steal overhead are paid at execution time.
3. **Execution** — units drain their queues on their cores in global
   time order (a heap over per-unit clocks interleaves the units, so
   cache insertions happen in an order close to real concurrency).
   Task functions run *for real*: they compute the workload's actual
   values and may ``enqueue_task`` children for later timestamps.
4. **Barrier** — the phase makespan is the slowest unit; Traveller
   caches, L1s and prefetch buffers are bulk-invalidated; primary-data
   updates become visible (the workload applies its double-buffer
   swap via the ``on_barrier`` hook).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.arch.ndp_unit import NdpUnit
from repro.config import SystemConfig
from repro.core.memory_system import MemorySystem
from repro.core.scheduler.base import Scheduler
from repro.core.scheduler.work_stealing import rebalance_by_stealing
from repro.runtime.task import Task, TaskContext
from repro.runtime.workload_exchange import WorkloadExchange


#: most tasks a clock-advancing batch places ahead of booking: a
#: snapshot refresh discards the unbooked picks, so the bound keeps the
#: re-scoring linear in the batch size however often refreshes land.
PLACEMENT_CHUNK = 64


def _interleave_by_spawner(tasks: Sequence[Task]) -> List[Task]:
    """Round-robin the tasks across their spawner units."""
    by_spawner: Dict[int, List[Task]] = {}
    for t in tasks:
        by_spawner.setdefault(t.spawner_unit, []).append(t)
    from collections import deque

    queues = [deque(q) for q in by_spawner.values()]
    out: List[Task] = []
    while queues:
        queues = [q for q in queues if q]
        for q in queues:
            if q:
                out.append(q.popleft())
    return out


@dataclass
class ExecutionTrace:
    """Aggregate outcome of one run (before energy integration)."""

    makespan_cycles: float = 0.0
    timestamps_executed: int = 0
    tasks_executed: int = 0
    steals: int = 0
    instructions: float = 0.0
    # Cycles spent detecting faults and re-placing stranded tasks
    # (included in makespan_cycles; zero on healthy runs).
    recovery_cycles: float = 0.0
    # Per-phase makespans, for inspection.
    phase_makespans: List[float] = field(default_factory=list)

    def record_phase(self, makespan: float) -> None:
        self.phase_makespans.append(makespan)
        self.makespan_cycles += makespan
        self.timestamps_executed += 1


class BulkSyncExecutor:
    """Drives tasks through assignment, stealing, execution, barrier."""

    #: fixed cost of the system-wide barrier between timestamps
    BARRIER_CYCLES = 500.0

    def __init__(
        self,
        config: SystemConfig,
        units: Sequence[NdpUnit],
        scheduler: Scheduler,
        memory_system: MemorySystem,
        exchange: WorkloadExchange,
    ):
        self.config = config
        self.units = units
        self.scheduler = scheduler
        self.memory_system = memory_system
        self.exchange = exchange
        self._freq = config.core.frequency_ghz
        self._hide = config.scheduler.prefetch_hide_fraction
        self._steal_overhead = config.scheduler.steal_overhead_cycles
        self._throughput = config.num_units * config.core.cores_per_unit
        # The prefetch unit issues a task's hint addresses back to back
        # at the channel service rate while the *previous* task
        # executes, so arrivals at the serving channels spread out
        # rather than bursting.  The spread is capped so that a huge
        # task cannot push arrivals far into the future (the service
        # clocks assume near-monotone arrivals).
        self._issue_spacing_ns = config.memory.service_ns
        self._issue_spread_cap_ns = 300.0
        # Fault controller (repro.faults), attached by NdpSystem when a
        # schedule is configured; None keeps the healthy fast path.
        self.faults = None
        # Telemetry sink; NdpSystem swaps in a live one when enabled.
        # Per-phase hooks guard on .enabled, so the disabled path costs
        # one attribute check per phase (and one local bool test per
        # task for the task spans).
        from repro.telemetry import NULL_TELEMETRY

        self.telemetry = NULL_TELEMETRY

    # ------------------------------------------------------------------
    def run(
        self,
        root_tasks: Sequence[Task],
        state: Any = None,
        max_timestamps: Optional[int] = None,
        on_barrier: Optional[
            Callable[[int, Any], Optional[Sequence[Task]]]
        ] = None,
    ) -> ExecutionTrace:
        """Execute a task graph to completion.

        ``on_barrier(timestamp, state)`` runs after each phase — the
        workload's bulk-update hook (e.g. Page Rank's rank swap).  It
        may return the next phase's tasks (wave-synchronous ports).
        """
        trace = ExecutionTrace()
        pending: Dict[int, List[Task]] = {}

        # The root batch is created by the application across all units
        # at once; each unit's scheduler drains its own window
        # concurrently, so the global booking order interleaves the
        # spawners rather than walking them one after another (a
        # sequential walk would make already-booked units look loaded
        # and push their remaining tasks away).
        clock = self._schedule_tasks(
            _interleave_by_spawner(root_tasks), pending, 0.0,
            advance_clock=True,
        )

        telemetry = self.telemetry
        last_ts = 0
        while pending:
            if (max_timestamps is not None
                    and trace.timestamps_executed >= max_timestamps):
                break
            ts = min(pending)
            last_ts = ts
            if self.faults is not None:
                # Faults strike at phase boundaries (bulk-synchronous
                # semantics): apply due events, re-place every task
                # stranded on a failed unit, and charge the detection +
                # reassignment overhead to the run clock.
                recovery = self.faults.on_phase_start(
                    ts, clock,
                    lambda dead: self._reassign_stranded(pending, dead),
                )
                if recovery:
                    clock += recovery
                    trace.makespan_cycles += recovery
                    trace.recovery_cycles += recovery
            tasks = pending.pop(ts)

            by_unit = self._group_by_unit(tasks)
            phase_steals = 0
            if self.scheduler.uses_work_stealing:
                phase_steals = self._steal_phase(by_unit)
            elif self.scheduler.uses_window_rescheduling:
                phase_steals = self._window_reschedule_phase(by_unit)
            trace.steals += phase_steals

            if telemetry.enabled:
                telemetry.phase_begin(
                    ts, clock, [len(q) for q in by_unit]
                )

            phase_makespan = self._execute_phase(
                by_unit, ts, state, clock, pending, trace
            )
            clock += phase_makespan + self.BARRIER_CYCLES
            trace.record_phase(phase_makespan + self.BARRIER_CYCLES)

            self.memory_system.end_timestamp()
            self.exchange.force_exchange(clock)
            if telemetry.enabled:
                telemetry.phase_end(ts, clock, len(tasks), phase_steals)
            if on_barrier is not None:
                # The bulk-update hook may emit the next phase's tasks
                # (wave-synchronous workloads build them from state
                # aggregated during the phase).
                new_tasks = on_barrier(ts, state)
                if new_tasks:
                    clock = self._schedule_tasks(
                        _interleave_by_spawner(new_tasks), pending, clock,
                        advance_clock=True,
                    )

        if telemetry.enabled:
            telemetry.run_end(clock, last_ts)
        return trace

    # ------------------------------------------------------------------
    # scheduling (root tasks up front, children at spawn time)
    # ------------------------------------------------------------------
    def _schedule_tasks(
        self,
        tasks: Sequence[Task],
        pending: Dict[int, List[Task]],
        clock: float,
        advance_clock: bool = False,
    ) -> float:
        """Place tasks on units and file them under their timestamp.

        With ``advance_clock`` (the up-front root batch, which has no
        execution clock to ride on), the clock advances by the
        system-wide service time of the work just placed so exchange
        boundaries fire at a realistic cadence.  Tasks scheduled at
        spawn time use the execution clock of their spawning task.

        A decision depends only on the hint, the spawner, the cost
        matrix, the camp tables, the alive mask and the exchange
        snapshot, and the snapshot changes only when ``advance``
        refreshes it: never during a spawn batch, and in a
        clock-advancing batch only between two booked tasks.  So one
        ``choose_units_batch`` call places a batch, except that a policy
        reading the snapshot places a clock-advancing batch
        :data:`PLACEMENT_CHUNK` tasks at a time, and a booking that
        refreshes the snapshot drops the unbooked picks to be scored
        again.  Booking is per task and in input order (W counters
        clamp at zero and float sums depend on order), and each booking
        emits the task's telemetry decision record, so a dropped pick
        never records one.
        """
        scheduler = self.scheduler
        ctx = scheduler.context
        telemetry = self.telemetry
        record = telemetry.enabled
        if record:
            # Stamp decision records with the clock of this batch.
            telemetry.now_ns = telemetry.cycles_to_ns(clock)
        exchange = self.exchange
        throughput = self._throughput
        ctx.prepare_hints(tasks)
        rescore = advance_clock and scheduler.reads_load_snapshot
        n = len(tasks)
        step = PLACEMENT_CHUNK if rescore else n
        interval = exchange.interval_cycles
        i = 0
        while i < n:
            start = i
            chunk = tasks[i:i + step]
            units = scheduler.choose_units_batch(chunk)
            terms = scheduler.decision_terms
            workloads = ctx.task_workloads(chunk, units)
            for task, unit, workload in zip(chunk, units, workloads):
                if record:
                    scheduler.record_decision(task, unit, *terms[i - start])
                i += 1
                task.assigned_unit = unit
                task.booked_workload = workload
                exchange.on_enqueue(unit, workload)
                pending.setdefault(task.timestamp, []).append(task)
                if advance_clock:
                    clock += workload / throughput
                    # advance()'s own boundary test, hoisted.
                    if clock - exchange._last_exchange >= interval:
                        exchange.advance(clock)
                        if rescore:
                            break
        return clock

    def _reassign_stranded(self, pending: Dict[int, List[Task]],
                           dead_units: Sequence[int]) -> int:
        """Re-place every queued task assigned to a newly dead unit.

        The scheduler (whose context already sees the updated alive
        mask) picks a surviving unit for all of them in one batch: the
        picks read the snapshot, not the W counters, so they do not
        depend on the moves.  The W counters then move with each task,
        in queue order.  Returns the number of tasks re-placed — this
        is the "no task is ever lost" guarantee.
        """
        dead = {int(u) for u in dead_units}
        stranded = [task for tasks in pending.values() for task in tasks
                    if task.assigned_unit in dead]
        if not stranded:
            return 0
        scheduler = self.scheduler
        ctx = scheduler.context
        units = scheduler.choose_units_batch(stranded)
        terms = scheduler.decision_terms
        for j, (task, unit) in enumerate(zip(stranded, units)):
            if task.booked_workload:
                self.exchange.on_dequeue(
                    task.assigned_unit, task.booked_workload
                )
            if self.telemetry.enabled:
                scheduler.record_decision(task, unit, *terms[j])
            task.assigned_unit = unit
            workload = ctx.task_workload(task, unit)
            task.booked_workload = workload
            self.exchange.on_enqueue(unit, workload)
        return len(stranded)

    def _group_by_unit(self, tasks: Sequence[Task]) -> List[List[Task]]:
        by_unit: List[List[Task]] = [[] for _ in range(self.config.num_units)]
        for task in tasks:
            by_unit[task.assigned_unit].append(task)
        return by_unit

    # ------------------------------------------------------------------
    # stealing (Sl)
    # ------------------------------------------------------------------
    def _steal_phase(self, by_unit: List[List[Task]]) -> int:
        def estimate(task: Task, unit: int) -> float:
            # Distance-blind: thieves balance on the queue entries'
            # booked workload values; the extra remote-access cost of
            # executing far from the data only shows up at run time.
            return task.booked_workload

        return rebalance_by_stealing(
            by_unit,
            estimate,
            self.config.core.cores_per_unit,
            steal_overhead=self._steal_overhead,
            on_move=self._account_move,
            eligible=self._eligible_units(),
        )

    def _eligible_units(self):
        """Units the rebalancing passes may trade tasks with (None when
        every unit is alive)."""
        if self.faults is None:
            return None
        return self.faults.eligible_mask()

    def _account_move(self, task: Task, victim: int, thief: int,
                      old_est: float, new_est: float) -> None:
        """Keep the W counters consistent when a queued task migrates."""
        self.exchange.on_dequeue(victim, task.booked_workload)
        new_booked = self.scheduler.context.task_workload(task, thief)
        task.booked_workload = new_booked
        self.exchange.on_enqueue(thief, new_booked)

    # ------------------------------------------------------------------
    # scheduling-window re-forwarding (hybrid designs, Figure 4)
    # ------------------------------------------------------------------
    def _window_reschedule_phase(self, by_unit: List[List[Task]]) -> int:
        """Re-target queued tasks before execution.

        The hybrid scheduler keeps examining the tasks inside the
        scheduling window of its queue and may forward them to a better
        unit.  Unlike Sl's distance-blind stealing, the re-forwarding
        uses the policy's distance-aware access-cost estimate, so a
        task only moves when the balance gain beats the extra remote
        cost it would pay at the receiving unit.
        """
        ctx = self.scheduler.context

        def estimate(task: Task, unit: int) -> float:
            # The value at the task's current unit is already booked.
            if unit == task.assigned_unit:
                return task.booked_workload
            return ctx.task_workload(task, unit)

        return rebalance_by_stealing(
            by_unit,
            estimate,
            self.config.core.cores_per_unit,
            steal_overhead=self._steal_overhead,
            on_move=self._account_move,
            eligible=self._eligible_units(),
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _execute_phase(
        self,
        by_unit: List[List[Task]],
        ts: int,
        state: Any,
        clock: float,
        pending: Dict[int, List[Task]],
        trace: ExecutionTrace,
    ) -> float:
        ctx = self.scheduler.context
        memsys = self.memory_system

        for unit in self.units:
            unit.reset_clocks(0.0)

        # Hot-loop locals: every name below is loop-invariant, and the
        # derived floats are computed once so each task reuses the very
        # same values the per-iteration expressions produced.
        units = self.units
        freq = self._freq
        hide_keep = 1.0 - self._hide
        spacing = self._issue_spacing_ns
        spread_cap = self._issue_spread_cap_ns
        steal_overhead = self._steal_overhead
        record = self.telemetry.enabled
        task_span = self.telemetry.task_span
        hint_lines_list = ctx.hint_lines_list
        hint_write_line = ctx.hint_write_line
        access_many = memsys.access_many
        on_dequeue = self.exchange.on_dequeue
        advance = self.exchange.advance
        heappop = heapq.heappop
        heappush = heapq.heappush

        # Heap of (next free core time, unit id, next task index):
        # interleaves units in global time order.
        heap = [(0.0, uid, 0) for uid, tasks in enumerate(by_unit) if tasks]
        heapq.heapify(heap)

        while heap:
            start, uid, idx = heappop(heap)
            # The heap pops in non-decreasing start order, so the pop
            # key is the phase's monotone time frontier.  (Task *finish*
            # times are not monotone — one long task would otherwise
            # freeze the exchange clock for the rest of the phase.)
            global_now = clock + start
            tasks = by_unit[uid]
            task = tasks[idx]
            unit = units[uid]

            # Resolve memory accesses (prefetch-path = demand-path).
            # The prefetch unit issues the hint addresses back to back,
            # so arrivals smear at the issue rate instead of forming a
            # single burst at the serving channels.  The task's output
            # write (the main element's record, one of the hint lines)
            # goes straight to the home, booked after the reads.
            now_ns = global_now / freq
            lines = hint_lines_list(task)
            stall_ns = access_many(
                uid, lines, now_ns, spacing, spread_cap,
                hint_write_line(task), task.hint,
            )

            stall_cycles = stall_ns * freq * hide_keep
            duration = task.compute_cycles + stall_cycles
            if task.stolen:
                duration += steal_overhead

            # Run the real task body; it may spawn children, which get
            # scheduled immediately (scheduling overlaps execution).
            tctx = TaskContext(uid, ts, state)
            task.func(tctx, *task.args)
            spawned = tctx.drain_spawned()

            unit.run_task(duration)
            if record:
                # The heap key is the task's start on its unit, so the
                # span sits at absolute time inside its phase's span.
                task_span(task.task_id, ts, uid, task.spawner_unit,
                          global_now, duration, stall_ns, len(lines),
                          task.stolen)
            trace.tasks_executed += 1
            trace.instructions += task.instructions
            on_dequeue(uid, task.booked_workload)
            advance(global_now)
            if spawned:
                self._schedule_tasks(spawned, pending, global_now)

            if idx + 1 < len(tasks):
                heappush(heap, (unit.earliest_free(), uid, idx + 1))

        return max((u.busy_until() for u in self.units), default=0.0)
