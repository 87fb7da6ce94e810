"""Design **Sm** (and the mapping half of **C**): lowest-distance mapping.

Considers *all* data elements a task accesses and picks, among the
units that actually host one of them, the unit with the minimum average
distance to all of them (Section 2.3: "maximally co-locate the tasks
with their data").  Restricting the candidates to the data homes is
what makes this a *mapping* policy: the task lands next to some of its
data, rather than drifting to whichever unit happens to minimise mean
distance (which, for scattered access sets, is always the centre of the
mesh and would turn the central stacks into a global hotspot far beyond
what the paper's Figure 2 reports for LDM).

When a Traveller Cache is present (design C) the mapping still scores
against home locations only — C is "basic lowest-distance task mapping"
per Table 2; the cache shortens accesses at run time but does not
inform placement.

Near-ties (within a small distance tolerance) break toward the task's
main element's home: when several data homes offer essentially the same
total distance, the mapping keeps the task where the baseline would
have put it rather than drifting toward whichever candidate happens to
sit nearest the mesh centre — a drift that would otherwise concentrate
most of the machine's tasks on the central stacks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.scheduler.base import Scheduler, gather_slices
from repro.runtime.task import Task


class LowestDistanceScheduler(Scheduler):
    """argmin over data-hosting units of the mean home distance."""

    policy_name = "lowest_distance"

    #: candidates within this distance of the best are considered tied.
    tie_tolerance_ns: float = 5.0

    def choose_unit(self, task: Task) -> int:
        ctx = self.context
        if task.hint.num_addresses == 0:
            unit = self._fallback_unit(task)
            if self.telemetry.enabled:
                self._record_decision(task, unit)
            return unit
        lines = ctx.hint_lines(task)
        if ctx.alive_mask is None:
            # The alive-mask path's decision arithmetic (below) with
            # fewer numpy dispatches: the candidate set is built in
            # Python (sorted unique ints == np.unique), the gather uses
            # broadcast indexing (the same array np.ix_ produces), and
            # the min / tie / first-argmin logic runs on the float list
            # (list.index(min(..)) is the first minimum, exactly
            # np.argmin's tie-break).  The whole decision is a pure
            # function of the cost matrix and the hint, so it is
            # memoized on the hint per cost epoch (workloads reusing
            # hint objects then place each hint once per epoch).
            cached = getattr(task.hint, "_ldpick", None)
            if cached is not None and cached[0] == ctx.cost_epoch:
                unit = cached[1]
                if self.telemetry.enabled:
                    self._record_decision(
                        task, unit, cost_mem=cached[2], score=cached[2]
                    )
                return unit
            homes = ctx.hint_homes(task)
            candidates = np.array(
                sorted(set(homes.tolist())), dtype=np.int64
            )
            # add.reduce(..)/L is _mean's own computation without the
            # wrapper (same reduction, same true-divide).
            dists = np.add.reduce(
                ctx.cost_matrix[candidates[:, None], homes], axis=1
            ) / homes.shape[0]
            dl = dists.tolist()
            best_cost = min(dl)
            threshold = best_cost + self.tie_tolerance_ns
            main_home = ctx.memory_map.home_unit(int(task.hint.addresses[0]))
            cl = candidates.tolist()
            unit = cost = None
            for c, dv in zip(cl, dl):
                if c == main_home and dv <= threshold:
                    unit = main_home
                    cost = dv
                    break
            if unit is None:
                idx = dl.index(best_cost)
                unit = cl[idx]
                cost = best_cost
            task.hint._ldpick = (ctx.cost_epoch, unit, cost)
            if self.telemetry.enabled:
                self._record_decision(task, unit, cost_mem=cost, score=cost)
            return unit
        homes = ctx.memory_map.homes_of_lines(lines)
        candidates = np.unique(homes)
        if ctx.alive_mask is not None:
            candidates = candidates[ctx.alive_mask[candidates]]
            if candidates.size == 0:
                # Every data home is dead: fall back to the live unit
                # with the lowest mean distance to the hint set.
                candidates = ctx.alive_units()
        # Mean distance from each candidate to every hint element.
        dists = ctx.cost_matrix[np.ix_(candidates, homes)].mean(axis=1)
        best_cost = dists.min()
        tied = candidates[dists <= best_cost + self.tie_tolerance_ns]
        main_home = ctx.memory_map.home_unit(int(task.hint.addresses[0]))
        if main_home in tied:
            unit = main_home
            cost = float(dists[np.nonzero(candidates == main_home)[0][0]])
        else:
            idx = int(np.argmin(dists))
            unit = int(candidates[idx])
            cost = float(dists[idx])
        if self.telemetry.enabled:
            self._record_decision(task, unit, cost_mem=cost, score=cost)
        return unit

    def choose_units_batch(
            self, tasks: Sequence[Task]) -> Optional[List[int]]:
        """:meth:`choose_unit`'s healthy-machine decision for a batch:
        hints without a valid ``_ldpick`` memo are decided together,
        one line-count bucket at a time (:meth:`_decide`)."""
        if not self._can_batch():
            return None
        ctx = self.context
        epoch = ctx.cost_epoch
        out: List[int] = []
        misses: Dict[int, Dict[int, tuple]] = {}
        for i, task in enumerate(tasks):
            hint = task.hint
            if hint.addresses.size == 0:
                out.append(task.spawner_unit)
                continue
            cached = getattr(hint, "_ldpick", None)
            if cached is not None and cached[0] == epoch:
                out.append(cached[1])
                continue
            out.append(-1)
            homes = ctx.hint_homes(task)
            misses.setdefault(homes.size, {}).setdefault(
                id(hint), (hint, homes, []))[2].append(i)
        for size, bucket in misses.items():
            entries = list(bucket.values())
            cands = [sorted(set(homes.tolist())) for _, homes, _ in entries]
            width = max(len(c) for c in cands)
            for part in gather_slices(len(entries), width * size):
                self._decide(entries[part], cands[part], width, out)
        return out

    def _decide(self, entries: list, cands: list, width: int,
                out: List[int]) -> None:
        """Decide hints of one line count; fill ``out`` and the memos.

        Each hint's candidate list is padded with its first candidate
        (a repeat changes neither the minimum nor the tie rule), and
        every candidate's mean is the same contiguous length-L
        reduction the per-hint path computes.  The tie rule is the
        per-hint one: the main element's home when within the
        tolerance, else the lowest-id candidate at the minimum.
        """
        ctx = self.context
        size = entries[0][1].size
        homes = np.array([homes for _, homes, _ in entries])
        cands = np.array([c + c[:1] * (width - len(c)) for c in cands])
        dists = np.add.reduce(
            ctx.cost_matrix[cands[:, :, None], homes[:, None, :]], axis=2
        ) / size
        best = dists.min(axis=1)
        home_unit = ctx.memory_map.home_unit
        main = np.array([home_unit(int(hint.addresses[0]))
                         for hint, _, _ in entries])
        main_cost = np.where(
            cands == main[:, None], dists, np.inf
        ).min(axis=1)
        first_best = np.where(
            dists == best[:, None], cands, ctx.num_units
        ).min(axis=1)
        stay = main_cost <= best + self.tie_tolerance_ns
        units = np.where(stay, main, first_best).tolist()
        costs = np.where(stay, main_cost, best).tolist()
        for (hint, _, positions), unit, cost in zip(entries, units, costs):
            hint._ldpick = (ctx.cost_epoch, unit, cost)
            for i in positions:
                out[i] = unit
