"""Scheduler interface and the shared scoring context.

Every policy answers one question: *on which NDP unit should this task
execute?*  Policies receive a :class:`SchedulerContext` bundling the
system-level information the paper's hardware scheduler has access to:
the interconnect, whose :meth:`~repro.arch.noc.Interconnect.unit_costs`
prices every unit pair (Equation 2), the address->home mapping, the
camp mapper (when a Traveller Cache is configured), and the stale
workload snapshot from the periodic exchange.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.memory_map import MemoryMap
from repro.arch.noc import Interconnect
from repro.core.cache.camp import CampMapper
from repro.runtime.task import Task, TaskHint
from repro.runtime.workload_exchange import WorkloadExchange


#: most elements one batched gather materializes: larger batches are
#: processed in slices, which bounds temporary memory, not results.
GATHER_ELEMENTS = 1 << 18


def gather_slices(count: int, per_item: int) -> Iterator[slice]:
    """Slices of ``range(count)`` whose items, ``per_item`` elements
    each, fit :data:`GATHER_ELEMENTS` (one item at least)."""
    step = max(1, GATHER_ELEMENTS // max(1, per_item))
    return map(slice, range(0, count, step), range(step, count + step, step))


@dataclass
class SchedulerContext:
    """Everything a scheduling policy may look at.

    Distances are read through ``interconnect.unit_costs`` on every
    use, so a context sees the interconnect's current link faults; the
    ``cost_epoch`` keys the memos that bake those distances in.
    """

    memory_map: MemoryMap
    interconnect: Interconnect
    exchange: WorkloadExchange
    camp_mapper: Optional[CampMapper] = None
    # Weight B of Equation 1; only the hybrid policy reads it.
    hybrid_weight: float = 0.0
    # Conversion constants for the access-cost workload estimate.
    frequency_ghz: float = 2.0
    dram_latency_ns: float = 34.0
    # Fraction of access latency hidden by prefetching; the workload
    # estimate discounts it so W tracks *core-visible* cycles.
    prefetch_hide_fraction: float = 0.6
    # Hybrid-policy stability knobs, mirrored from SchedulerConfig.
    tie_tolerance_ns: float = 5.0
    load_deadband: float = 0.25
    load_floor_cycles: float = 1000.0
    # Fault state: boolean per-unit liveness, None while every unit is
    # healthy.  Policies must never place a task on a dead unit.
    alive_mask: Optional[np.ndarray] = None
    # Bumped by the fault controller whenever the link faults (and so
    # the interconnect's distances) or the liveness state may have
    # changed; keys every scoring memo that bakes in distances.
    cost_epoch: int = 0

    @property
    def num_units(self) -> int:
        return self.interconnect.topology.num_units

    def is_alive(self, unit: int) -> bool:
        return self.alive_mask is None or bool(self.alive_mask[unit])

    def alive_units(self) -> np.ndarray:
        """Ids of the units currently able to execute tasks."""
        if self.alive_mask is None:
            return np.arange(self.num_units)
        return np.nonzero(self.alive_mask)[0]

    def nearest_alive(self, unit: int) -> int:
        """``unit`` itself when alive, else the cheapest live stand-in
        by distance cost.  Raises when the whole machine is dead."""
        if self.alive_mask is None or self.alive_mask[unit]:
            return unit
        costs = np.where(
            self.alive_mask,
            self.interconnect.unit_costs(unit, np.arange(self.num_units)),
            np.inf,
        )
        best = int(np.argmin(costs))
        if not np.isfinite(costs[best]):
            raise RuntimeError("no alive NDP unit left to run tasks")
        return best

    def task_workload(self, task: Task, unit: int) -> float:
        """The load value booked into W_u when ``task`` enqueues at
        ``unit`` (Section 3.1).

        Uses the programmer-provided ``hint.workload`` when present;
        otherwise falls back to the paper's estimate — the *total
        memory access cost* of the hint addresses, which is naturally
        distance-dependent at the executing unit — plus the compute
        estimate.  Booking distance-aware costs is what lets the
        load-balance term equalise real execution cycles rather than
        task counts.
        """
        if task.hint.workload is not None:
            return float(task.hint.workload)
        lines = self.hint_lines(task)
        if lines.size == 0:
            return float(task.compute_cycles)
        # Memoized per (hint, unit): the rebalancing passes probe the
        # same task at many candidate units.
        hint = task.hint
        if self.camp_mapper is not None:
            cm = self.camp_mapper
            key = cm.stamp
        else:
            key = self.cost_epoch
        cached = getattr(hint, "_wsum", None)
        if cached is None or cached[0] != key:
            hint._wsum = cached = (key, {})
        stall_cycles = cached[1].get(unit)
        if stall_cycles is None:
            if self.camp_mapper is not None:
                access_ns = float(self._camp_access_row(task)[unit])
            else:
                homes = self.hint_homes(task)
                access_ns = float(
                    self.interconnect.unit_costs(unit, homes).sum())
            access_ns += self.dram_latency_ns * len(lines)
            stall_cycles = (
                access_ns * self.frequency_ghz
                * (1.0 - self.prefetch_hide_fraction)
            )
            cached[1][unit] = stall_cycles
        return float(task.compute_cycles) + stall_cycles

    def task_workloads(self, tasks: Sequence[Task],
                       units: Sequence[int]) -> List[float]:
        """:meth:`task_workload` of each (task, unit) pair.

        Bit-identical to the per-task calls and sharing their memo.
        With camps an estimate is one element of the hint's summed row,
        so it is taken per task, as it is for a lone task (every
        single-task spawn), where the array set-up would cost more than
        it saves.  Home-based misses are bucketed by
        hint line count, so every home-row sum is still one contiguous
        length-L reduction (NumPy's pairwise summation depends on L);
        the stall arithmetic then runs elementwise in the per-task
        expression order.
        """
        if self.camp_mapper is not None or len(tasks) == 1:
            task_workload = self.task_workload
            return [task_workload(t, u) for t, u in zip(tasks, units)]
        key = self.cost_epoch
        out = [0.0] * len(tasks)
        misses: Dict[int, List[int]] = {}
        for i, (task, unit) in enumerate(zip(tasks, units)):
            hint = task.hint
            if hint.workload is not None:
                out[i] = float(hint.workload)
                continue
            size = self.hint_lines(task).size
            if size == 0:
                out[i] = float(task.compute_cycles)
                continue
            cached = getattr(hint, "_wsum", None)
            if cached is None or cached[0] != key:
                hint._wsum = cached = (key, {})
            stall_cycles = cached[1].get(unit)
            if stall_cycles is None:
                misses.setdefault(size, []).append(i)
            else:
                out[i] = float(task.compute_cycles) + stall_cycles
        for size, idx in misses.items():
            at = np.array([units[i] for i in idx], dtype=np.int64)
            homes = np.array([self.hint_homes(tasks[i]) for i in idx])
            access_ns = np.add.reduce(
                self.interconnect.unit_costs(at[:, None], homes), axis=1
            ) + self.dram_latency_ns * size
            stalls = (
                access_ns * self.frequency_ghz
                * (1.0 - self.prefetch_hide_fraction)
            )
            for i, stall_cycles in zip(idx, stalls.tolist()):
                task = tasks[i]
                task.hint._wsum[1][units[i]] = stall_cycles
                out[i] = float(task.compute_cycles) + stall_cycles
        return out

    def prepare_hints(self, tasks: Sequence[Task]) -> None:
        """Memoize a batch's first-touch hint data in a few array passes.

        Fills, for every hint the batch touches for the first time,
        exactly what :meth:`hint_lines`, :meth:`hint_lines_list` and
        :meth:`hint_homes` would memoize lazily (sorted distinct lines
        per hint, as ``MemoryMap.unique_lines`` returns them), then
        fills the camp tables of the batch in one ``prime_lines`` call
        and the summed camp rows of :meth:`_camp_access_row`, stamping
        each hint as the access kernel does once its lines are in the
        camp memo.  Pure memo warming: every value is the one the lazy
        path computes.
        A lone task has nothing to share, so it is left to the lazy
        path.
        """
        if len(tasks) < 2:
            return
        fresh = {}
        for task in tasks:
            hint = task.hint
            if getattr(hint, "_lines", None) is None:
                fresh[id(hint)] = hint
        if len(fresh) > 1:
            self._first_touch(list(fresh.values()))
        cm = self.camp_mapper
        if cm is None:
            return
        key = cm.stamp
        stale: Dict[int, dict] = {}
        for task in tasks:
            hint = task.hint
            cached = getattr(hint, "_crow", None)
            if cached is None or cached[0] != key:
                line_list = self.hint_lines_list(task)
                if line_list:
                    stale.setdefault(len(line_list), {})[id(hint)] = (
                        hint, line_list
                    )
        if not stale:
            return
        lines = set()
        for bucket in stale.values():
            for _, line_list in bucket.values():
                lines.update(line_list)
        cm.prime_lines(lines)
        n = self.num_units
        for size, bucket in stale.items():
            entries = list(bucket.values())
            for part in gather_slices(len(entries), size * n):
                group = entries[part]
                stacked = cm.distance_rows([
                    ln for _, line_list in group for ln in line_list
                ]).reshape(len(group), size, n)
                # Reducing the middle axis accumulates line by line, the
                # same elementwise order as the per-hint (L, N) reduction.
                rows = np.add.reduce(stacked, axis=1)
                for (hint, _), row in zip(group, rows):
                    hint._crow = (key, row)
                    # Its lines are in the camp memo under this stamp,
                    # so the access kernel skips its memo check.
                    hint._mstamp = key

    def _first_touch(self, hints: List[TaskHint]) -> None:
        """Distinct sorted lines and their homes for many hints at once:
        one sort over (hint, line) keys instead of one per hint; and
        each hint's write line (:meth:`hint_write_line`)."""
        counts = [hint.addresses.size for hint in hints]
        addrs = np.concatenate([hint.addresses for hint in hints])
        lines = self.memory_map.lines(addrs)
        if lines.size:
            sizes = np.array(counts)
            write_lines = np.where(
                sizes > 0,
                lines.take(np.cumsum(sizes) - sizes, mode="clip"), -1,
            ).tolist()
            low = int(lines.min())
            span = int(lines.max()) - low + 1
            if span * len(hints) >= 1 << 62:
                return  # keys would overflow; the lazy path copes
            seg = np.repeat(np.arange(len(hints), dtype=np.int64), counts)
            keys = np.sort(seg * span + (lines - low))
            keep = np.empty(keys.size, dtype=bool)
            keep[0] = True
            np.not_equal(keys[1:], keys[:-1], out=keep[1:])
            keys = keys[keep]
            seg = keys // span
            lines = keys - seg * span + low
            counts = np.bincount(seg, minlength=len(hints)).tolist()
        else:
            write_lines = [-1] * len(hints)
        homes = self.memory_map.homes_of_lines(lines)
        line_list = lines.tolist()
        start = 0
        for hint, count, write_line in zip(hints, counts, write_lines):
            end = start + count
            hint._lines = lines[start:end]
            hint._lines_list = line_list[start:end]
            hint._homes = homes[start:end]
            hint._wline = write_line
            start = end

    def hint_lines(self, task: Task) -> np.ndarray:
        """Distinct cachelines named by the task's hint (memoized on
        the hint — the scheduler, rebalancer and executor all need it).
        """
        cached = getattr(task.hint, "_lines", None)
        if cached is not None:
            return cached
        if task.hint.num_addresses == 0:
            lines = np.empty(0, dtype=np.int64)
        else:
            lines = self.memory_map.unique_lines(task.hint.addresses)
        task.hint._lines = lines
        return lines

    def hint_lines_list(self, task: Task) -> list:
        """:meth:`hint_lines` as a plain Python int list (memoized on
        the hint): the access engines iterate lines item by item, where
        list iteration beats ndarray iteration."""
        cached = getattr(task.hint, "_lines_list", None)
        if cached is not None:
            return cached
        out = self.hint_lines(task).tolist()
        task.hint._lines_list = out
        return out

    def hint_write_line(self, task: Task) -> int:
        """Line of the hint's first address, where the task's output
        write goes (``-1`` for an empty hint); memoized on the hint."""
        cached = getattr(task.hint, "_wline", None)
        if cached is not None:
            return cached
        addrs = task.hint.addresses
        out = self.memory_map.line_of(int(addrs[0])) if addrs.size else -1
        task.hint._wline = out
        return out

    def hint_homes(self, task: Task) -> np.ndarray:
        """Home units of the task's hint lines (memoized on the hint,
        like :meth:`hint_lines` — the mapping is static for a run)."""
        cached = getattr(task.hint, "_homes", None)
        if cached is not None:
            return cached
        homes = self.memory_map.homes_of_lines(self.hint_lines(task))
        task.hint._homes = homes
        return homes

    def mem_cost_vector(self, task: Task, use_camps: bool) -> np.ndarray:
        """cost_mem(t, u) for every unit u (Equation 2).

        For each hint line the distance is taken to the line's *nearest
        allowed location* from the candidate unit — the home only, or
        the home plus its camp locations when ``use_camps`` — then
        averaged over the lines.
        """
        lines = self.hint_lines(task)
        if lines.size == 0:
            return np.zeros(self.num_units, dtype=np.float64)
        if use_camps and self.camp_mapper is not None:
            return self._camp_access_row(task) / len(lines)
        # The window-rescheduling passes re-score the same hint
        # repeatedly between exchanges; store the result row on the hint.
        hint = task.hint
        key = self.cost_epoch
        cached = getattr(hint, "_hmean", None)
        if cached is not None and cached[0] == key:
            return cached[1]
        homes = self.hint_homes(task)
        # The (N, L) costs from every unit to each home; add.reduce/L
        # is the mean without the wrapper.
        row = np.add.reduce(self.interconnect.unit_costs(
            np.arange(self.num_units)[:, None], homes[None, :]), axis=1
        ) / homes.shape[0]
        hint._hmean = (key, row)
        return row

    def _camp_access_row(self, task: Task) -> np.ndarray:
        """Summed nearest-distance row of a hint over all units.

        ``row[u]`` is the sum over the hint lines, in hint-line order, of
        the distance from ``u`` to each line's nearest allowed location
        — the quantity both :meth:`task_workload` (one element) and
        :meth:`mem_cost_vector` (the row / len) need.  Memoized on the
        hint object, keyed by the camp mapper's (token, epoch): the
        token is process-unique per mapper, so a hint reused across
        designs or systems can never see a stale row; the epoch covers
        fault-driven remappings.  Callers must not mutate the returned
        array.
        """
        cm = self.camp_mapper
        key = cm.stamp
        cached = getattr(task.hint, "_crow", None)
        if cached is not None and cached[0] == key:
            return cached[1]
        # One C-level reduction over the stacked per-line distance rows.
        # np.add.reduce along the outer axis accumulates row by row in
        # order, which is bit-identical to an `acc += row` loop (all
        # rows are non-negative, so a 0.0 start cannot flip a -0.0).
        row = np.add.reduce(
            cm.distance_rows(self.hint_lines_list(task)),
            axis=0,
        )
        task.hint._crow = (key, row)
        return row


class Scheduler(abc.ABC):
    """A task-to-unit mapping policy."""

    #: the executor runs the stealing rebalancer after assignment
    uses_work_stealing: bool = False

    #: the executor runs the scheduling-window re-forwarding pass
    #: (Figure 4): queued tasks may be re-targeted before execution,
    #: using the policy's own distance-aware cost estimates.
    uses_window_rescheduling: bool = False

    #: placement decisions read the exchange snapshot, so a snapshot
    #: refresh invalidates batched picks not yet booked.
    reads_load_snapshot: bool = False

    #: short name stamped on telemetry decision records.
    policy_name: str = "scheduler"

    def __init__(self, context: SchedulerContext):
        self.context = context
        # Replaced with the machine's Telemetry by NdpSystem; the null
        # sink keeps every decision probe a single attribute check.
        from repro.telemetry import NULL_TELEMETRY

        self.telemetry = NULL_TELEMETRY
        #: (cost_mem, cost_load, score) of each pick of the last
        #: :meth:`choose_units_batch` call, filled while telemetry is
        #: enabled; the executor records them as it books each task.
        self.decision_terms: List[Tuple[float, float, float]] = []

    @abc.abstractmethod
    def choose_units_batch(self, tasks: Sequence[Task]) -> List[int]:
        """The unit that should execute each task, in task order.

        Every decision is scored against the current exchange snapshot
        and reads only the task's hint and spawner, the interconnect's
        unit costs, the camp tables and the alive mask, never the other
        tasks, so a batch of any size (one task included) decides each
        task as it would be decided alone.  No pick may be a dead unit.
        """

    def record_decision(self, task: Task, chosen: int, cost_mem: float,
                        cost_load: float, score: float) -> None:
        """Emit one placement-decision telemetry record (the executor
        calls it only while telemetry is enabled)."""
        self.telemetry.decision(
            self.policy_name, task.task_id, task.spawner_unit, chosen,
            cost_mem=cost_mem, cost_load=cost_load, score=score,
            weight=self.context.hybrid_weight,
        )
