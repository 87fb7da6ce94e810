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

from typing import Dict, List, Sequence

import numpy as np

from repro.core.scheduler.base import Scheduler, gather_slices
from repro.runtime.task import Task


class LowestDistanceScheduler(Scheduler):
    """argmin over data-hosting units of the mean home distance."""

    policy_name = "lowest_distance"

    #: candidates within this distance of the best are considered tied.
    tie_tolerance_ns: float = 5.0

    def choose_units_batch(self, tasks: Sequence[Task]) -> List[int]:
        """Hint-less tasks stay at their spawner; the others are decided
        together, one line-count bucket at a time (:meth:`_decide`).

        On a healthy machine a decision is a pure function of the unit
        costs and the hint, so it is memoized on the hint per cost
        epoch (workloads reusing hint objects then place each hint once
        per epoch).  Under an alive mask the candidates are the live
        data homes, or every live unit when all of them are dead, and
        nothing is memoized.
        """
        ctx = self.context
        alive = ctx.alive_mask
        epoch = ctx.cost_epoch
        # (epoch, unit, cost) per task: the memo entry itself on a hit.
        picks: List[tuple] = []
        misses: Dict[int, Dict[int, tuple]] = {}
        for i, task in enumerate(tasks):
            hint = task.hint
            if hint.addresses.size == 0:
                picks.append((epoch, ctx.nearest_alive(task.spawner_unit),
                              0.0))
                continue
            if alive is None:
                cached = getattr(hint, "_ldpick", None)
                if cached is not None and cached[0] == epoch:
                    picks.append(cached)
                    continue
            picks.append(None)
            homes = ctx.hint_homes(task)
            misses.setdefault(homes.size, {}).setdefault(
                id(hint), (hint, homes, []))[2].append(i)
        for size, bucket in misses.items():
            entries = list(bucket.values())
            cands = [sorted(set(homes.tolist())) for _, homes, _ in entries]
            if alive is not None:
                cands = [[c for c in cand if alive[c]]
                         or ctx.alive_units().tolist() for cand in cands]
            width = max(map(len, cands))
            for part in gather_slices(len(entries), width * size):
                self._decide(entries[part], cands[part], width, picks)
        if self.telemetry.enabled:
            self.decision_terms = [(cost, 0.0, cost) for _, _, cost in picks]
        return [unit for _, unit, _ in picks]

    def _decide(self, entries: list, cands: list, width: int,
                picks: List[tuple]) -> None:
        """Decide hints of one line count; fill ``picks`` (and the
        memos on a healthy machine).

        Every candidate's mean is one contiguous length-L reduction,
        gathered for the whole bucket at once.  Each hint's sorted
        candidate list is padded with its first candidate, which moves
        neither the minimum nor its first position.  Near-ties go to
        the main element's home when it is a candidate within the
        tolerance, else to the lowest-id candidate at the minimum.
        """
        ctx = self.context
        size = entries[0][1].size
        homes = np.array([homes for _, homes, _ in entries])
        padded = np.array([c + c[:1] * (width - len(c)) for c in cands])
        dists = np.add.reduce(ctx.interconnect.unit_costs(
            padded[:, :, None], homes[:, None, :]), axis=2) / size
        home_unit = ctx.memory_map.home_unit
        tolerance = self.tie_tolerance_ns
        memoize = ctx.alive_mask is None
        for (hint, _, positions), cand, row in zip(
                entries, cands, dists.tolist()):
            cost = min(row)
            unit = cand[row.index(cost)]
            main = home_unit(int(hint.addresses[0]))
            if main in cand:
                main_cost = row[cand.index(main)]
                if main_cost <= cost + tolerance:
                    unit, cost = main, main_cost
            pick = (ctx.cost_epoch, unit, cost)
            if memoize:
                hint._ldpick = pick
            for i in positions:
                picks[i] = pick
