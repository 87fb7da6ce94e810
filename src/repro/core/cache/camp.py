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
from typing import List, Tuple

import numpy as np

from repro.arch.memory_map import MemoryMap
from repro.arch.noc import Interconnect
from repro.config import CacheConfig, CampMapping

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
        interconnect: Interconnect,
        memory_map: MemoryMap,
        cache: CacheConfig,
    ):
        topology = interconnect.topology
        groups = cache.num_groups()
        if topology.num_groups != groups:
            raise ValueError(
                f"topology was built with {topology.num_groups} groups, "
                f"cache config wants {groups}"
            )
        self.interconnect = interconnect
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

        # Per-line memo (hot path: one lookup per memory access and per
        # scheduler scoring), one nearest location per requester
        # *stack* (see _prime_missing):
        #   line -> (home unit, the line's locations as a tuple with -1
        #            for a dead group, nearest location per stack as a
        #            plain Python list, row slot)
        # The access kernel reads this dict as its line memo, so callers
        # must not mutate it or its entries.
        self._nearest_cache: dict = {}
        # Row store for distance_rows, indexed by an entry's slot:
        # _slot_dist[k, s] is the cost from stack s's non-location
        # units to their pick; _slot_locs[k] the line's locations with
        # a dead group's -1 replaced by the home.  Rows past
        # _slots_used are free.
        self._slot_dist = np.empty((0, topology.num_stacks))
        self._slot_locs = np.empty((0, groups), dtype=np.int64)
        self._slots_used = 0
        # Unit liveness under faults; None while every unit is healthy.
        self._alive: "np.ndarray | None" = None
        # (G, units per group): the unit each group's hash slot elects
        # (see _camp_unit_table).
        self._camp_units = self._camp_unit_table()
        #: identity/version pair for externally memoized derived data
        #: (see _mapper_tokens).  ``epoch`` bumps whenever the mapping
        #: changes (clear_cache / set_alive_mask); ``stamp`` is the
        #: pair as one tuple.
        self.token: int = next(_mapper_tokens)
        self.epoch: int = 0
        self.stamp: Tuple[int, int] = (self.token, self.epoch)

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
        table — the mapping changed — re-reads the interconnect's
        distances, so the fault controller calls this after every link
        change too, and refills the dropped lines under the new mapping
        in one batch, in their old order.  Returns the number of lines
        remapped.  ``None`` (or an all-True mask) restores healthy
        mapping.
        """
        if alive is not None and bool(np.all(alive)):
            alive = None
        lines = list(self._nearest_cache)
        self._alive = alive
        self._camp_units = self._camp_unit_table()
        self.clear_cache()
        self.prime_lines(lines)
        return len(lines)

    def _camp_unit_table(self) -> np.ndarray:
        """``[g, slot]``: the unit group ``g`` contributes for hash slot
        ``slot`` — the first live unit at or after the slot, wrapping
        around within the group, or ``-1`` for a fully dead group (the
        linear probe, resolved once per liveness state)."""
        upg = self.units_per_group
        alive = self._alive
        if alive is None:
            alive = np.ones(self.topology.num_units, dtype=bool)
        live = alive.reshape(self.num_groups, upg)
        slots = np.arange(upg)
        # probe[s, k]: the k-th offset probed from slot s.
        probe = (slots[:, None] + slots) % upg
        offsets = (slots + live[:, probe].argmax(axis=2)) % upg
        units = np.arange(self.num_groups)[:, None] * upg + offsets
        units[~live.any(axis=1)] = -1
        return units

    def _entry(self, line: int) -> tuple:
        """The memo entry of ``line``, filling it if it is missing."""
        entry = self._nearest_cache.get(line)
        if entry is None:
            self.prime_lines((line,))
            entry = self._nearest_cache[line]
        return entry

    def locations(self, line: int) -> np.ndarray:
        """All allowed locations of ``line``: one unit per group.

        Index ``g`` of the result is group ``g``'s location (camp, or
        the home for the home group; ``-1`` for a dead group), as a
        read-only array of the memo entry's location tuple.
        """
        locs = np.array(self._entry(line)[1], dtype=np.int64)
        locs.flags.writeable = False
        return locs

    def camp_locations(self, line: int) -> List[int]:
        """Only the C cache-capable camps (home excluded; dead groups'
        ``-1`` sentinels dropped)."""
        home, locs = self._entry(line)[:2]
        home_group = self.topology.group_of(home)
        return [u for g, u in enumerate(locs)
                if g != home_group and u >= 0]

    def set_index(self, line: int) -> int:
        """Cache-set index: the low address bits, as in a normal cache."""
        return line % self.num_sets

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

    def nearest_location(self, line: int, requester: int) -> Tuple[int, bool]:
        """Closest allowed location to ``requester``.

        Returns ``(unit, is_home)``.  Traveller probes only this single
        nearest location (Section 4.3).  A requester that is itself one
        of the line's locations reads itself at ``d_local``, the unique
        minimum; every other unit of a stack sees the same costs, so it
        reads its stack's pick.
        """
        home, locs, nearest, _ = self._entry(line)
        if requester not in locs:
            requester = nearest[self.topology.stack_of(requester)]
        return requester, requester == home

    def distance_rows(self, lines) -> np.ndarray:
        """``(len(lines), N)``: row ``i``, column ``u`` is the distance
        from unit ``u`` to the nearest location of ``lines[i]``.

        Expanded from the per-stack rows on every call (the rows are N
        wide, the memo is not): each unit reads its stack's distance,
        and a line's own locations read ``d_local``.  These are the very
        costs the minimum compared, so the values are exact.
        """
        tables = self._nearest_cache
        try:
            slots = [tables[ln][3] for ln in lines]
        except KeyError:
            self.prime_lines(lines)
            slots = [tables[ln][3] for ln in lines]
        rows = self._slot_dist.take(slots, axis=0).take(
            self.topology.stack_of_unit, axis=1)             # (L, N)
        locs = self._slot_locs.take(slots, axis=0)           # (L, G)
        rows[np.arange(len(slots))[:, None], locs] = \
            self.interconnect.noc.d_local
        return rows

    # ------------------------------------------------------------------
    # array fill
    # ------------------------------------------------------------------
    def prime_lines(self, lines) -> None:
        """Fill the per-line memo tables for a whole batch at once.

        Every not-yet-memoized line in ``lines`` (an iterable of Python
        ints) is filled array-at-a-time, on healthy and faulted machines
        alike; every other reader (:meth:`locations`,
        :meth:`nearest_location`, :meth:`distance_rows`, the access
        kernel) reads the entries it stores.
        """
        cache = self._nearest_cache
        # In order, once each: a repeated line would fill a dead slot.
        missing = [ln for ln in dict.fromkeys(lines) if ln not in cache]
        if not missing:
            return
        # Slices of a few thousand lines bound the (groups, lines,
        # stacks) temporaries; the tables do not depend on the slicing.
        step = max(1, _PRIME_ELEMENTS // (self.num_groups
                                          * self.topology.num_stacks))
        for start in range(0, len(missing), step):
            self._prime_missing(missing[start:start + step])

    def _prime_missing(self, missing: List[int]) -> None:
        """Compute and memoize the tables of not-yet-memoized lines.

        Group ``g`` hashes a line to a slot and contributes the unit
        :meth:`_camp_unit_table` elects for it; the home's group
        contributes the home, dead or alive.  For each requester stack
        the pick is the first minimum, in group order, of the cost over
        the live locations (``np.argmin``'s rule); a line whose live
        locations all cost inf from a stack (cut off by link faults)
        picks its first live one.  The costs are the interconnect's
        current ``unit_stack_costs`` rows of the locations.
        """
        cache = self._nearest_cache
        arr = np.asarray(missing, dtype=np.int64)
        batch = arr.size
        rows = np.arange(batch)
        homes = self.memory_map.homes_of_lines(arr)
        home_groups = self.topology.group_of_unit[homes]
        upg = np.uint64(self.units_per_group)
        u64 = arr.astype(np.uint64)
        locs = np.empty((batch, self.num_groups), dtype=np.int64)
        for g, units in enumerate(self._camp_units):
            h = (u64 * np.uint64(self._multipliers[g])) >> np.uint64(48)
            locs[:, g] = units.take((h % upg).astype(np.int64))
        # The home's group contributes the home itself, not a camp.
        locs[rows, home_groups] = homes
        # costs[g, b, s] = unit_stack_costs[locs[b, g], s]: one
        # contiguous (line, stack) plane per group; a dead group's -1
        # would read unit N - 1's row, so it is set to +inf.  The first
        # minimum over the few groups is unrolled (np.argmin's tie rule:
        # only a strictly smaller cost moves the pick), starting from
        # the first live location; argmin along a short axis would pay
        # per-row overhead.
        live = locs >= 0
        costs = self.interconnect.unit_stack_costs[locs.T]  # (G, B, S)
        costs[~live.T] = np.inf
        dist = costs[0].copy()
        first = locs[rows, live.argmax(axis=1)]
        nearest = np.repeat(first[:, None], dist.shape[1], axis=1)
        for g in range(1, self.num_groups):
            better = costs[g] < dist
            nearest = np.where(better, locs[:, g:g + 1], nearest)
            np.minimum(dist, costs[g], out=dist)
        start = self._store_rows(dist, np.where(live, locs, homes[:, None]))
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
        """Drop the memoized per-line tables (in place: the access
        kernel holds the dict); lines filled afterwards read the
        interconnect's current distances."""
        self._nearest_cache.clear()
        self._slots_used = 0
        self.epoch += 1
        self.stamp = (self.token, self.epoch)
