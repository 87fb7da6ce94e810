"""Per-line reference for the camp mapper's tables (Section 4.2).

The simulator fills camp tables only array-at-a-time
(``CampMapper.prime_lines``).  The functions here are the plain
per-line form of the same mapping, kept as the oracle
``test_camp.py`` compares every filled entry and slot row with, bit
for bit:

* :func:`camp_in_group` hashes a line to one unit of a group and, under
  an alive mask, probes linearly within the group for a live unit
  (``-1``: the whole group is dead); the home's group contributes the
  home, dead or alive;
* :func:`locations` is the line's location per group;
* :func:`stack_cost_table` reads the ``(N, S)`` table of costs from each
  stack's non-location units to a unit off an ``(N, N)`` cost matrix;
* :func:`nearest_tables` takes, for each requester stack, the first
  minimum of that cost over the line's live locations (``np.argmin``),
  and returns the entry and slot rows the mapper stores.

Each function reads only the mapper's hash constants, unit liveness
and topology, never its memo, so the oracle stays independent of the
array fill.
"""

import numpy as np

_MASK64 = (1 << 64) - 1


def camp_in_group(cm, line: int, group: int) -> int:
    """The single unit in ``group`` allowed to cache ``line``."""
    home = cm.home_unit(line)
    if cm.topology.group_of(home) == group:
        return home
    h = ((line * cm._multipliers[group]) & _MASK64) >> 48
    base = group * cm.units_per_group
    slot = int(h % cm.units_per_group)
    if cm._alive is None:
        return base + slot
    for off in range(cm.units_per_group):
        unit = base + (slot + off) % cm.units_per_group
        if cm._alive[unit]:
            return unit
    return -1


def locations(cm, line: int) -> np.ndarray:
    """All allowed locations of ``line``: one unit per group."""
    locs = np.empty(cm.num_groups, dtype=np.int64)
    for g in range(cm.num_groups):
        locs[g] = camp_in_group(cm, line, g)
    return locs


def stack_cost_table(cm, cost: np.ndarray) -> np.ndarray:
    """``(N, S)``: ``[l, s]`` is the cost from every unit of stack ``s``
    other than ``l`` itself to unit ``l``: the cost row of the stack's
    first unit, with its own (diagonal) entry replaced by the cost from
    the stack's second unit (a stack's units are consecutive ids)."""
    topo = cm.topology
    ups = topo.units_per_stack
    first = np.empty(topo.num_stacks, dtype=np.int64)
    first[topo.stack_of_unit[::ups]] = np.arange(0, topo.num_units, ups)
    rows = cost[first]                           # (S, N)
    if ups > 1:
        rows[np.arange(first.size), first] = cost[first + 1, first]
    return np.ascontiguousarray(rows.T)


def nearest_tables(cm, line: int, cost: np.ndarray):
    """``(home, locations tuple, nearest list, distance row, location
    row)`` of ``line``: the first three are the mapper's memo entry
    without its slot, the last two the slot's ``_slot_dist`` and
    ``_slot_locs`` rows (a dead group's ``-1`` replaced by the home)."""
    locs = locations(cm, line)
    valid = locs
    if cm._alive is not None:
        valid = locs[locs >= 0]  # dead groups contribute no location
    costs = stack_cost_table(cm, cost)[valid]            # (G, S)
    idx = np.argmin(costs, axis=0)                       # (S,)
    home = cm.home_unit(line)
    return (home, tuple(locs.tolist()), valid[idx].tolist(),
            costs[idx, np.arange(idx.size)],
            np.where(locs >= 0, locs, home))
