"""Camp-location mapping (Section 4.2).

Every cacheline has one *home* (the NDP unit whose local DRAM stores
it) and ``C`` *camp locations* — the only other units allowed to cache
it.  The units are partitioned into ``C + 1`` spatially localized
groups; the group containing the home contributes the home itself, and
every other group contributes exactly one camp, chosen deterministically
from the line's address.

Skewed mapping
--------------
The paper derives each group's camp unit from a *different bit slice*
of the address (like a skewed-associative cache), so two lines that
conflict in one group usually diverge in another, and the camps of the
multiple lines used by one task are likely to be close together in at
least one group.  A literal bit-slice needs more address entropy than a small
synthetic footprint provides (the paper's slices reach bit 41), so we
realise the same property with per-group multiplicative hashes: group
``g`` maps line ``L`` to unit ``base(g) + (L * A_g mod 2^64) >> 48 mod
U``, with distinct odd multipliers ``A_g``.  The *identical* foil of
Figure 11 uses the same multiplier for every group, which reproduces the
failure mode the paper describes: conflicts and distances correlate
across all groups.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import List, Tuple

import numpy as np

from repro.arch.memory_map import MemoryMap
from repro.arch.topology import Topology
from repro.config import CacheConfig, CampMapping

_MASK64 = (1 << 64) - 1

# Distinct odd 64-bit multipliers (splitmix64-derived constants).
_SKEWED_MULTIPLIERS = (
    0x9E3779B97F4A7C15,
    0xBF58476D1CE4E5B9,
    0x94D049BB133111EB,
    0xD6E8FEB86659FD93,
    0xA5A3B1C9057F8E2B,
    0xC2B2AE3D27D4EB4F,
    0x165667B19E3779F9,
    0x27D4EB2F165667C5,
    0x9E3779B185EBCA87,
    0xC6A4A7935BD1E995,
    0xFF51AFD7ED558CCD,
    0xC4CEB9FE1A85EC53,
    0x2545F4914F6CDD1D,
    0x5851F42D4C957F2D,
    0x14057B7EF767814F,
    0xB5026F5AA96619E9,
)


#: process-unique tokens for CampMapper instances.  Consumers memoize
#: derived per-line data keyed on ``(mapper.token, mapper.epoch)``; a
#: counter (unlike ``id()``) is never reused after garbage collection,
#: so a memo attached to a shared object (e.g. a task hint reused
#: across designs) can never alias a new mapper.
_mapper_tokens = itertools.count()

#: most cost elements one :meth:`CampMapper.prime_lines` pass gathers.
_PRIME_ELEMENTS = 1 << 20


class CampMapper:
    """Deterministic line -> {camp unit} mapping for every group."""

    def __init__(
        self,
        topology: Topology,
        memory_map: MemoryMap,
        cache: CacheConfig,
    ):
        groups = cache.num_groups()
        if topology.num_groups != groups:
            raise ValueError(
                f"topology was built with {topology.num_groups} groups, "
                f"cache config wants {groups}"
            )
        self.topology = topology
        self.memory_map = memory_map
        self.cache = cache
        self.num_groups = groups
        self.units_per_group = topology.units_per_group
        self.num_sets = cache.num_sets(memory_map.memory)

        if cache.camp_mapping is CampMapping.SKEWED:
            self._multipliers = [
                _SKEWED_MULTIPLIERS[g % len(_SKEWED_MULTIPLIERS)]
                for g in range(groups)
            ]
        else:
            self._multipliers = [_SKEWED_MULTIPLIERS[0]] * groups

        # Per-line location cache of locations(): line -> int64 array
        # of C+1 unit ids.
        self._loc_cache: dict = {}
        # Per-line nearest-location memo (hot path: one lookup per
        # memory access and per scheduler scoring), one nearest
        # location per requester *stack* (see _nearest_tables):
        #   line -> (home unit, the line's locations as a tuple with -1
        #            for a dead group, nearest location per stack as a
        #            plain Python list, row slot)
        # The access kernel's line memo shares these entries as they
        # are, so callers must not mutate them.
        self._nearest_cache: dict = {}
        # Row store for distance_rows, indexed by an entry's slot:
        # _slot_dist[k, s] is the cost from stack s's non-location
        # units to their pick; _slot_locs[k] the line's locations with
        # a dead group's -1 replaced by the home.  Rows past
        # _slots_used are free.
        self._slot_dist = np.empty((0, topology.num_stacks))
        self._slot_locs = np.empty((0, groups), dtype=np.int64)
        self._slots_used = 0
        # (cost-matrix buffer, its (N, S) stack-cost table), dropped
        # with the memo (see _stack_cost_table).
        self._stack_costs: "tuple | None" = None
        # Unit liveness under faults; None while every unit is healthy.
        self._alive: "np.ndarray | None" = None
        #: identity/version pair for externally memoized derived data
        #: (see _mapper_tokens).  ``epoch`` bumps whenever the mapping
        #: changes (clear_cache / set_alive_mask).
        self.token: int = next(_mapper_tokens)
        self.epoch: int = 0

    # ------------------------------------------------------------------
    # scalar interface
    # ------------------------------------------------------------------
    @property
    def memo_entries(self) -> int:
        """Lines with memoized nearest tables (a telemetry gauge: the
        working-set footprint the camp mapper has resolved so far)."""
        return len(self._nearest_cache)

    def home_unit(self, line: int) -> int:
        return self.memory_map.home_of_line(line)

    def set_alive_mask(self, alive: "np.ndarray | None") -> int:
        """Remap camps around dead units (fault-injection subsystem).

        A group whose designated camp unit died re-elects the next unit
        of the same group by linear probing from the hash slot, keeping
        the choice deterministic; a fully dead group contributes no camp
        (sentinel ``-1`` in :meth:`locations`).  Drops every memoized
        table — the mapping changed.  Returns the number of memo entries
        dropped.  ``None`` (or an all-True mask) restores healthy
        mapping.
        """
        if alive is not None and bool(np.all(alive)):
            alive = None
        dropped = len(self._loc_cache.keys() | self._nearest_cache.keys())
        self._alive = alive
        self.clear_cache()
        return dropped

    def camp_in_group(self, line: int, group: int) -> int:
        """The single unit in ``group`` allowed to cache ``line``.

        If ``group`` is the home's group this *is* the home unit — the
        group contributes the memory location itself, not a cache copy.
        Under faults a dead camp is re-elected by probing within the
        group; ``-1`` means the whole group is dead.
        """
        home = self.home_unit(line)
        if self.topology.group_of(home) == group:
            return home
        h = ((line * self._multipliers[group]) & _MASK64) >> 48
        base = group * self.units_per_group
        slot = int(h % self.units_per_group)
        if self._alive is None:
            return base + slot
        for off in range(self.units_per_group):
            unit = base + (slot + off) % self.units_per_group
            if self._alive[unit]:
                return unit
        return -1

    def locations(self, line: int) -> np.ndarray:
        """All allowed locations of ``line``: one unit per group.

        Index ``g`` of the result is group ``g``'s location (camp, or
        the home for the home group).  Cached per line — workloads touch
        the same lines many times.
        """
        cached = self._loc_cache.get(line)
        if cached is not None:
            return cached
        locs = np.empty(self.num_groups, dtype=np.int64)
        for g in range(self.num_groups):
            locs[g] = self.camp_in_group(line, g)
        locs.flags.writeable = False
        self._loc_cache[line] = locs
        return locs

    def camp_locations(self, line: int) -> List[int]:
        """Only the C cache-capable camps (home excluded; dead groups'
        ``-1`` sentinels dropped)."""
        home = self.home_unit(line)
        home_group = self.topology.group_of(home)
        return [
            int(u) for g, u in enumerate(self.locations(line))
            if g != home_group and u >= 0
        ]

    def set_index(self, line: int) -> int:
        """Cache-set index: the low address bits, as in a normal cache."""
        return line % self.num_sets

    def _stack_cost_table(self, cost_matrix: np.ndarray) -> np.ndarray:
        """``(N, S)`` contiguous: ``[l, s]`` is the cost from every unit
        of stack ``s`` other than ``l`` itself to unit ``l``.

        The cost matrix is ``d_local`` on its diagonal, ``d_intra``
        between two units of one stack and a function of the stack pair
        otherwise, so all units of a stack that are not ``l`` see one
        cost to ``l``: row ``s`` is the cost row of the stack's first
        unit, with its own (diagonal) entry replaced by the cost from
        the stack's second unit (a stack's units are consecutive unit
        ids).  Built once per cost-matrix buffer and epoch: a fault
        transition rewrites the buffer in place and then clears the
        memo (:meth:`set_alive_mask`).
        """
        buf = cost_matrix
        while buf.base is not None:
            buf = buf.base
        cached = self._stack_costs
        if cached is not None and cached[0] is buf:
            return cached[1]
        topo = self.topology
        ups = topo.units_per_stack
        first = np.empty(topo.num_stacks, dtype=np.int64)
        first[topo.stack_of_unit[::ups]] = np.arange(0, topo.num_units, ups)
        rows = cost_matrix[first]                    # (S, N)
        if ups > 1:
            rows[np.arange(first.size), first] = cost_matrix[first + 1, first]
        table = np.ascontiguousarray(rows.T)
        self._stack_costs = (buf, table)
        return table

    def _nearest_tables(self, line: int, cost_matrix: np.ndarray):
        """Memoized per-line tables, one entry per requester stack.

        Returns ``(home, locations, nearest, slot)``: the home unit, the
        line's location tuple (``-1`` for a dead group), for a
        requester of each stack that is not itself one of the
        locations the nearest location (the first minimum of the cost
        over the locations in group order), and the line's row in the
        store :meth:`distance_rows` reads.  Every non-location unit of
        a stack sees the same costs (:meth:`_stack_cost_table`), so it
        makes the same pick.  A requester that *is* a location reads
        itself at ``d_local``, the unique minimum
        (:meth:`nearest_location`).  A pick is the home exactly when it
        equals ``home``.

        All inputs are run-static (the cost matrix is built once, the
        camp mapping is deterministic), so the tables are computed once
        per line and reused by every access and scheduling decision.
        """
        cached = self._nearest_cache.get(line)
        if cached is not None:
            return cached
        locs = self.locations(line)
        valid = locs
        if self._alive is not None:
            valid = locs[locs >= 0]  # dead groups contribute no location
        costs = self._stack_cost_table(cost_matrix)[valid]   # (G, S)
        idx = np.argmin(costs, axis=0)                       # (S,)
        home = self.home_unit(line)
        slot = self._store_rows(costs[idx, np.arange(idx.size)][None],
                                np.where(locs >= 0, locs, home)[None])
        tables = (home, tuple(locs.tolist()), valid[idx].tolist(), slot)
        self._nearest_cache[line] = tables
        return tables

    def _store_rows(self, dist: np.ndarray, locs: np.ndarray) -> int:
        """Append rows to the slot store (doubling it when full);
        return the first new slot."""
        start = self._slots_used
        end = start + dist.shape[0]
        if end > self._slot_dist.shape[0]:
            cap = max(end, 2 * self._slot_dist.shape[0], 1024)
            for name in ("_slot_dist", "_slot_locs"):
                old = getattr(self, name)
                grown = np.empty((cap, old.shape[1]), dtype=old.dtype)
                grown[:start] = old[:start]
                setattr(self, name, grown)
        self._slot_dist[start:end] = dist
        self._slot_locs[start:end] = locs
        self._slots_used = end
        return start

    def nearest_location(self, line: int, requester: int,
                         cost_matrix: np.ndarray) -> Tuple[int, bool]:
        """Closest allowed location to ``requester``.

        Returns ``(unit, is_home)``.  Traveller probes only this single
        nearest location (Section 4.3).
        """
        home, locs, nearest, _ = self._nearest_tables(line, cost_matrix)
        if requester not in locs:
            requester = nearest[self.topology.stack_of(requester)]
        return requester, requester == home

    def distance_rows(self, lines, cost_matrix: np.ndarray) -> np.ndarray:
        """``(len(lines), N)``: row ``i``, column ``u`` is the distance
        from unit ``u`` to the nearest location of ``lines[i]``.

        Expanded from the per-stack rows on every call (the rows are N
        wide, the memo is not): each unit reads its stack's distance,
        and a line's own locations read the cost matrix's diagonal.
        These are the very costs the argmin compared, so the values are
        exact.
        """
        tables = self._nearest_cache
        try:
            slots = [tables[ln][3] for ln in lines]
        except KeyError:
            self.prime_lines(lines, cost_matrix)
            slots = [tables[ln][3] for ln in lines]
        rows = self._slot_dist.take(slots, axis=0).take(
            self.topology.stack_of_unit, axis=1)             # (L, N)
        locs = self._slot_locs.take(slots, axis=0)           # (L, G)
        rows[np.arange(len(slots))[:, None], locs] = \
            cost_matrix.diagonal()[locs]
        return rows

    # ------------------------------------------------------------------
    # vectorised interface (scheduler scoring)
    # ------------------------------------------------------------------
    def locations_for_lines(self, lines: np.ndarray) -> np.ndarray:
        """(len(lines), num_groups) matrix of allowed location units."""
        lines = np.asarray(lines, dtype=np.int64)
        out = np.empty((len(lines), self.num_groups), dtype=np.int64)
        for i, line in enumerate(lines):
            out[i] = self.locations(int(line))
        return out

    def prime_lines(self, lines, cost_matrix: np.ndarray) -> None:
        """Fill the per-line memo tables for a whole batch at once.

        Array-at-a-time version of :meth:`_nearest_tables` for every
        not-yet-memoized line in ``lines`` (an iterable of Python
        ints).  The hash, the argmin tie-break (first minimum), and the
        stored values are exactly those of the per-line path — the
        tables land in the same memo dict, so per-line and batch
        consumers see identical data.
        Under an alive-mask the per-group probing makes vectorization
        awkward; that rare case falls back to the per-line fill.
        """
        cache = self._nearest_cache
        # In order, once each: a repeated line would fill a dead slot.
        missing = [ln for ln in dict.fromkeys(lines) if ln not in cache]
        if not missing:
            return
        if self._alive is not None:
            for ln in missing:
                self._nearest_tables(ln, cost_matrix)
            return
        by_unit = self._stack_cost_table(cost_matrix)
        # Slices of a few thousand lines bound the (groups, lines,
        # stacks) temporaries; the tables do not depend on the slicing.
        step = max(1, _PRIME_ELEMENTS // (self.num_groups
                                          * by_unit.shape[1]))
        for start in range(0, len(missing), step):
            self._prime_missing(missing[start:start + step], by_unit)

    def _prime_missing(self, missing: List[int],
                       by_unit: np.ndarray) -> None:
        """Compute and memoize the tables of not-yet-memoized lines."""
        cache = self._nearest_cache
        arr = np.asarray(missing, dtype=np.int64)
        batch = arr.size
        homes = self.memory_map.homes_of_lines(arr)
        home_groups = self.topology.group_of_unit[homes]
        upg = self.units_per_group
        u64 = arr.astype(np.uint64)
        locs = np.empty((batch, self.num_groups), dtype=np.int64)
        for g in range(self.num_groups):
            h = (u64 * np.uint64(self._multipliers[g])) >> np.uint64(48)
            locs[:, g] = g * upg + (h % np.uint64(upg)).astype(np.int64)
        # The home's group contributes the home itself, not a camp.
        locs[np.arange(batch), home_groups] = homes
        # costs[g, b, s] = by_unit[locs[b, g], s]: one contiguous
        # (line, stack) plane per group.  The first minimum over the
        # few groups is unrolled (np.argmin's tie rule: only a strictly
        # smaller cost moves the pick); argmin along a short axis would
        # pay per-row overhead.
        costs = by_unit[locs.T]                          # (G, B, S)
        dist = costs[0].copy()
        nearest = np.repeat(locs[:, :1], dist.shape[1], axis=1)
        for g in range(1, self.num_groups):
            better = costs[g] < dist
            nearest = np.where(better, locs[:, g:g + 1], nearest)
            np.minimum(dist, costs[g], out=dist)
        start = self._store_rows(dist, locs)
        # One flattening per block for the tuple and list forms.
        cache.update(zip(missing, zip(homes.tolist(),
                                      map(tuple, locs.tolist()),
                                      nearest.tolist(),
                                      range(start, start + batch))))

    # ------------------------------------------------------------------
    # metadata sizing (Section 4.3)
    # ------------------------------------------------------------------
    def tag_bits_per_block(self) -> int:
        """Tag width after removing offset, set, and unit-id bits.

        Reproduces the Section 4.3 arithmetic: for the default system,
        log2(64 GB) - 6 (offset) - 15 (set) - 5 (unit-in-group) = 10.

        Note: dropping the unit-in-group bits is valid for the paper's
        bit-slice camp mapping, where the camp's unit id *is* a slice
        of the address and can be reconstructed at probe time.  This
        reproduction's hash-based stand-in for the slices (see the
        module docstring) is not invertible, so a literal hardware
        implementation of it would need the full 15-bit tag; the
        metadata sizing deliberately follows the paper's scheme, since
        that is the design being reproduced.
        """
        total_bits = max(1, (self.memory_map.total_capacity - 1).bit_length())
        offset_bits = (self.memory_map.line_bytes - 1).bit_length()
        set_bits = max(0, (self.num_sets - 1).bit_length())
        unit_bits = max(0, (self.units_per_group - 1).bit_length())
        return max(1, total_bits - offset_bits - set_bits - unit_bits)

    def tag_storage_bytes(self) -> int:
        """SRAM tag-array size of one unit's Traveller Cache."""
        blocks = self.num_sets * self.cache.associativity
        return blocks * self.tag_bits_per_block() // 8

    def clear_cache(self) -> None:
        """Drop the memoized per-line location and nearest tables."""
        self._loc_cache.clear()
        self._nearest_cache.clear()
        self._slots_used = 0
        self._stack_costs = None
        self.epoch += 1
