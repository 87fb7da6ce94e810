"""End-to-end memory access flow (Section 4.4, "Overall access flow").

For every data access the simulator resolves:

1. the requester's L1 (hit -> done);
2. the requester's prefetch buffer (hit -> done, bypassing L1);
3. with a remote-data cache configured: the *nearest camp location* of
   the line — a tag probe there, then either a cache hit (data returned
   from the camp's cache region) or a continuation to the home memory,
   with a probabilistic insertion back into the probed camp;
4. without a cache: a direct round trip to the home memory.

:meth:`MemorySystem.access_many` resolves a task's whole hint batch in
one fused pass (and, after it, the task's output write), returns the
summed latency in nanoseconds and books every hop, DRAM event, and SRAM
event into the run's counters — those counters are precisely the
quantities behind Figures 7 and 8.

DRAM service contention
-----------------------
Each unit's DRAM channel has a finite random-access service rate
(``MemoryConfig.service_ns`` per cacheline).  Every DRAM event at a unit
advances that unit's service clock; accesses arriving while the channel
is busy queue behind it.  This is the first-order effect that makes hot
*data* a hot *spot*: the home of a power-law hub serves reads from the
whole machine and saturates, while Traveller camps split the same
traffic across ``C + 1`` channels.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.arch.dram import DramChannel, DramStats
from repro.arch.memory_map import MemoryMap
from repro.arch.ndp_unit import NdpUnit
from repro.arch.noc import Interconnect, TrafficMeter
from repro.arch.sram import SramModel, SramStats
from repro.config import CacheStyle, SystemConfig
from repro.core.cache.camp import CampMapper
from repro.core.cache.dram_tag_cache import DramTagCache
from repro.core.cache.policies import RandomReplacement
from repro.core.cache.sram_cache import SramDataCache
from repro.core.cache.traveller import CacheStatsTotal, TravellerCache

#: control-message payload (an address + command), in bits.
_REQUEST_BITS = 128


class MemorySystem:
    """Resolves accesses against L1s, prefetch buffers, caches, and DRAM."""

    def __init__(
        self,
        config: SystemConfig,
        interconnect: Interconnect,
        dram: DramChannel,
        sram: SramModel,
        memory_map: MemoryMap,
        units: Sequence[NdpUnit],
        camp_mapper: Optional[CampMapper],
        rng: np.random.Generator,
    ):
        self.config = config
        self.interconnect = interconnect
        self.dram = dram
        self.sram = sram
        self.memory_map = memory_map
        self.units = units
        self.camp_mapper = camp_mapper
        self.style = config.cache.style
        self._service_ns = config.memory.service_ns
        self.traffic = TrafficMeter()
        self.dram_stats = DramStats()
        self.sram_stats = SramStats()
        # Fault state, attached by the FaultController when active.
        self._alive: Optional[np.ndarray] = None
        self._resilience = None  # faults.ResilienceStats, duck-typed
        # [requester stack][home] unreachable flags (see _blocked_rows),
        # for one (set_fault_state call, link-fault epoch) pair.
        self._blocked: Optional[List[List[bool]]] = None
        self._blocked_epoch = -1
        # Per-unit DRAM channel service clock (absolute ns).  A plain
        # Python list: the clock is read/written once per DRAM event in
        # tight loops, where list indexing beats ndarray item access.
        self._dram_free_ns = [0.0] * config.num_units
        # Total queuing delay observed (diagnostics / tests).
        self.total_queue_delay_ns = 0.0
        if self.style is not CacheStyle.NONE and camp_mapper is None:
            raise ValueError("a camp mapper is required when caching is on")
        # Fused-kernel per-line memo: line -> (home unit, location
        # tuple, nearest location per requester stack, row slot).  With
        # a cache it is the camp mapper's own memo dict, cleared by the
        # mapper whenever the mapping or the distances change; without
        # one, (home, None, None, None) entries that never go stale
        # (homes never move).
        self._line_memo: dict = (
            {} if self.style is CacheStyle.NONE
            else camp_mapper._nearest_cache
        )
        # [source stack][destination stack] one-way inter-stack latency
        # and mesh hops, as nested lists (list indexing beats ndarray
        # item access in the kernel), for one link-fault epoch.
        self._stack_rows: tuple = ([], [])
        self._rows_epoch = -1
        self._stack_of_unit = interconnect.topology.stack_of_unit.tolist()
        # Per-requester (L1, prefetch) batch-state tuples, filled on
        # first use: the containers are cleared in place at barriers
        # (never recreated), so the references stay valid for the run.
        self._unit_state: List[Optional[tuple]] = [None] * config.num_units

        self.caches: List[Optional[TravellerCache]] = []
        if self.style is CacheStyle.NONE:
            self.caches = [None] * config.num_units
        else:
            cls = {
                CacheStyle.TRAVELLER: TravellerCache,
                CacheStyle.SRAM: SramDataCache,
                CacheStyle.DRAM_TAG: DramTagCache,
            }[self.style]
            self.caches = [
                cls(config.cache, config.memory, rng)
                for _ in range(config.num_units)
            ]
        # The fused kernel may inline the cache probe and
        # install when replacement is RANDOM: on_touch is then a no-op
        # and the use-stamps are never read, so the inlined flow keeps
        # the exact hit/miss outcomes and RNG draw order (one
        # rng.random() per install attempt, one rng.integers(assoc) per
        # eviction) of TravellerCache.lookup/insert.
        self._inline_cache = (
            self.style is not CacheStyle.NONE
            and isinstance(self.caches[0]._victims, RandomReplacement)
        )

    # ------------------------------------------------------------------
    # fault hooks
    # ------------------------------------------------------------------
    def set_fault_state(self, alive_mask: Optional[np.ndarray],
                        stats) -> None:
        """Attach the controller's alive mask and resilience counters.

        ``alive_mask=None`` restores healthy behavior; ``stats`` only
        needs an ``unreachable_accesses`` attribute (duck-typed so the
        arch layer stays ignorant of the faults package).
        """
        self._alive = alive_mask
        self._resilience = stats
        self._blocked = None

    def invalidate_units(self, units: Sequence[int]) -> int:
        """Bulk-invalidate the caches of failed units.

        A dead unit's cache region is gone with it: its lines are
        unreachable until the barrier would have cleared them anyway.
        Returns the number of lines dropped (for resilience metrics).
        """
        dropped = 0
        for u in units:
            cache = self.caches[u]
            if cache is not None:
                dropped += cache.occupancy()
                cache.bulk_invalidate()
                # Not a barrier round: don't let fault invalidations
                # skew the per-timestamp invalidation statistics.
                cache.stats.invalidation_rounds -= 1
        return dropped

    def _blocked_rows(self) -> List[List[bool]]:
        """``[requester stack][home]``: the home cannot serve a
        requester in that stack.

        A home is blocked while it is dead or partitioned away from the
        requester's stack, and only while fault state is attached.
        Rebuilt after :meth:`set_fault_state` and after link-fault
        transitions.
        """
        noc = self.interconnect
        if self._blocked is None or self._blocked_epoch != noc.fault_epoch:
            n = self.config.num_units
            topo = noc.topology
            if self._resilience is None or (
                    self._alive is None and not noc.has_link_faults):
                self._blocked = [[False] * n] * topo.num_stacks
            else:
                blocked = noc.stack_hops[:, topo.stack_of_unit] < 0
                if self._alive is not None:
                    blocked |= ~self._alive
                self._blocked = blocked.tolist()
            self._blocked_epoch = noc.fault_epoch
        return self._blocked

    def _unreachable_penalty_ns(self) -> float:
        """Latency charged for an access that cannot be served.

        Models a timeout/NACK detour: a worst-case round trip across
        the mesh diameter plus one wasted DRAM access window.  The line
        is *not* installed anywhere and no traffic or DRAM energy is
        booked — the data never moved.
        """
        mesh = self.interconnect.noc
        diameter_ns = 2.0 * mesh.intra_hop_ns + (
            self.interconnect.topology.diameter * mesh.inter_hop_ns
        )
        return 2.0 * diameter_ns + self.dram.access_latency_ns

    def _prime_line_memo(self, line_list: List[int]) -> None:
        """Ensure every line's (home, locations, nearest, slot) memo
        entry exists.

        With a cache the memo is the camp mapper's, filled
        array-at-a-time by :meth:`CampMapper.prime_lines`; without one,
        homes come from the scalar :meth:`MemoryMap.home_of_line` (a
        batch holds few missing lines, where an array round trip costs
        more).
        """
        memo = self._line_memo
        missing = [ln for ln in line_list if ln not in memo]
        if not missing:
            return
        if self.style is CacheStyle.NONE:
            home_of_line = self.memory_map.home_of_line
            for ln in missing:
                memo[ln] = (home_of_line(ln), None, None, None)
            return
        self.camp_mapper.prime_lines(missing)

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def access_many(
        self,
        requester: int,
        lines,
        now_ns: float,
        spacing_ns: float = 0.0,
        cap_ns: float = 0.0,
        write_line: int = -1,
    ) -> float:
        """Resolve a whole hint batch of reads; return the summed latency.

        Line ``i`` is issued at ``now_ns + min(i * spacing_ns, cap_ns)``
        — the executor's issue-spread model.  Each line walks the flow
        of Section 4.4: the requester's L1, its prefetch buffer, then
        either a direct round trip to the home or, when the line's
        nearest allowed location is a camp, a tag probe there that hits
        or continues to the home, with a probabilistic install back at
        the camp.  Camp resolution comes from the camp mapper's memo,
        NoC latencies from per-epoch stack rows, and stat counters
        flush once per batch, while every *stateful* step
        (L1/prefetch/camp-cache probes and inserts with their RNG
        draws, the per-unit DRAM service clocks, and all float
        additions) runs in per-line order.

        Faults enter through the same tables: a line whose home is dead
        or partitioned away times out (:meth:`_unreachable_penalty_ns`)
        and moves, reads and installs nothing; DRAM latency is read per
        serving unit (slow vaults); routes, link latencies and camp
        remaps are in the NoC tables and the line memo.  The memo holds
        one nearest location per requester stack: a requester that is
        itself one of the line's locations reads itself instead
        (:meth:`CampMapper.nearest_location`).  A camp detour
        is never cut off: a reachable home has finite cost, so the
        nearest location (the cost argmin) is reachable too.  An
        attached link meter records every message.

        ``write_line`` (``-1``: none) is the task's output write, booked
        after the reads with the same tables: one line-sized message to
        the home, no stall.  Stores retire through a write buffer into
        idle channel slots, so they neither stall the task nor delay
        demand reads, and move no service clock; their traffic and DRAM
        energy are still charged.  A store to an unreachable home is
        lost (counted, nothing moves).
        """
        if isinstance(lines, np.ndarray):
            line_list = lines.tolist()
        elif isinstance(lines, list):
            line_list = lines  # already plain ints; read-only below
        else:
            line_list = [int(x) for x in lines]
        if not line_list and write_line < 0:
            return 0.0
        noc = self.interconnect
        if self._rows_epoch != noc.fault_epoch:
            self._rows_epoch = noc.fault_epoch
            self._stack_rows = (
                (noc.stack_mesh_ns + 2 * noc.noc.intra_hop_ns).tolist(),
                noc.stack_hops.tolist(),
            )
        self._prime_line_memo(line_list)
        stack_of = self._stack_of_unit
        req_stack = stack_of[requester]
        blocked = self._blocked_rows()[req_stack]

        ustate = self._unit_state[requester]
        if ustate is None:
            unit = self.units[requester]
            ustate = self._unit_state[requester] = (
                unit.l1.batch_state() + unit.prefetch.batch_state()
            )
        l1_sets, l1_nsets, l1_assoc, l1_stats, pf_fifo, pf_cap, pf_stats = (
            ustate
        )
        hit_ns = self.sram.l1_hit_ns
        tag_ns = self.sram.tag_lookup_ns
        dram_ns = self.dram.unit_latencies(self.config.num_units)
        service = self._service_ns
        free = self._dram_free_ns
        # A message is inter-stack when the stacks differ (row entries
        # below), intra-stack when only the units differ (one crossbar
        # hop), local otherwise.
        ow, hops = self._stack_rows
        ow_req = ow[req_stack]
        hops_req = hops[req_stack]
        intra_ns = noc.noc.intra_hop_ns
        caches = self.caches
        memo = self._line_memo
        meter = noc.link_meter
        record = meter.record if meter is not None else None
        line_bits = self.config.memory.line_bits
        rt_bits = _REQUEST_BITS + line_bits
        no_cache = self.style is CacheStyle.NONE
        sram_style = self.style is CacheStyle.SRAM
        dram_tag = self.style is CacheStyle.DRAM_TAG
        inline_cache = self._inline_cache
        if inline_cache:
            c_nsets = caches[0].num_sets
            c_assoc = caches[0].associativity
            bp = caches[0]._insertion.bypass_probability

        # Batch-local accumulators, flushed once below.  Counters are
        # order-insensitive ints; the queue-delay float keeps its exact
        # per-line += order.
        l1_acc = l1_hits = pf_acc = pf_hits = pf_evicts = unreachable = 0
        tag_acc = data_acc = 0
        reads = fills = cache_reads = tag_dram = 0
        msgs = local = intra = intra_bits = inter_hops = inter_bits = 0
        tqd = self.total_queue_delay_ns

        stall = 0.0
        # Issue-spread: with zero spacing (the default service model)
        # every line issues at now_ns and the per-line min() collapses.
        spread = spacing_ns != 0.0 or cap_ns < 0.0
        now = now_ns
        i = 0
        for line in line_list:
            if spread:
                now = now_ns + min(i * spacing_ns, cap_ns)
                i += 1
            # Fused L1 + prefetch front-end (inlined lookup/insert with
            # identical hashing, LRU refresh, and FIFO eviction order).
            l1_acc += 1
            s_idx = line % l1_nsets
            l1_set = l1_sets.get(s_idx)
            if l1_set is not None and line in l1_set:
                if l1_set[-1] != line:
                    l1_set.remove(line)
                    l1_set.append(line)
                l1_hits += 1
                stall += hit_ns
                continue
            pf_acc += 1
            if line in pf_fifo:
                pf_hits += 1
                stall += hit_ns
                continue
            home, locs, near_row, _ = memo[line]
            if blocked[home]:
                # The home vault is dead or partitioned away: the access
                # times out.  Nothing is cached and no traffic moved.
                unreachable += 1
                stall += self._unreachable_penalty_ns()
                continue
            if no_cache:
                nearest = home
            elif requester in locs:
                nearest = requester
            else:
                nearest = near_row[req_stack]
            if nearest == home:
                if not no_cache:
                    caches[home].stats.home_direct += 1
                # Direct: request + response transfers, one DRAM read
                # at the home, round trip + queue + access.
                msgs += 2
                s_home = stack_of[home]
                if s_home != req_stack:
                    h = hops_req[s_home]
                    inter_hops += 2 * h
                    inter_bits += rt_bits * h
                    intra += 4
                    intra_bits += 2 * rt_bits
                    owv = ow_req[s_home]
                elif home != requester:
                    intra += 2
                    intra_bits += rt_bits
                    owv = intra_ns
                else:
                    local += 2
                    owv = 0.0
                reads += 1
                arrival = now + owv
                free_at = free[home]
                delay = free_at - arrival
                if delay < 0.0:
                    delay = 0.0
                free[home] = (
                    free_at if free_at > arrival else arrival
                ) + service
                tqd += delay
                lat = 2.0 * owv + delay + dram_ns[home]
                if record is not None:
                    record(requester, home, _REQUEST_BITS)
                    record(home, requester, line_bits)
            else:
                cache = caches[nearest]
                s_near = stack_of[nearest]
                # request travels requester -> nearest (tag probe); the
                # response takes the same class (0 local, 1 intra, 2
                # inter) back.
                msgs += 1
                if s_near != req_stack:
                    c_rn = 2
                    h_rn = hops_req[s_near]
                    ow_rn = ow_req[s_near]
                    inter_hops += h_rn
                    inter_bits += _REQUEST_BITS * h_rn
                    intra += 2
                    intra_bits += 2 * _REQUEST_BITS
                elif nearest != requester:
                    c_rn = 1
                    ow_rn = intra_ns
                    intra += 1
                    intra_bits += _REQUEST_BITS
                else:
                    c_rn = 0
                    ow_rn = 0.0
                    local += 1
                lat = ow_rn
                if dram_tag:
                    n = cache.tag_probe_dram_accesses()
                    tag_dram += n
                    base = now + lat
                    probe = 0.0
                    tag_lat = dram_ns[nearest]
                    for _ in range(n):
                        arrival = base + probe
                        free_at = free[nearest]
                        delay = free_at - arrival
                        if delay < 0.0:
                            delay = 0.0
                        free[nearest] = (
                            free_at if free_at > arrival else arrival
                        ) + service
                        tqd += delay
                        probe += delay
                        probe += tag_lat
                    lat += probe
                else:
                    tag_acc += 1
                    lat += tag_ns
                # Inlined sparse probe (random replacement: no touch
                # stamps to refresh, membership == first-match index).
                if inline_cache:
                    cstats = cache.stats
                    c_set = line % c_nsets
                    c_ways = cache._tags.get(c_set)
                    if c_ways is not None and line in c_ways:
                        cstats.hits += 1
                        cache_hit = True
                    else:
                        cstats.misses += 1
                        cache_hit = False
                else:
                    cache_hit = cache.lookup(line)
                if cache_hit:
                    if sram_style:
                        data_acc += 1
                        lat += hit_ns
                    elif not dram_tag:  # Traveller: data read in DRAM
                        cache_reads += 1
                        arrival = now + lat
                        free_at = free[nearest]
                        delay = free_at - arrival
                        if delay < 0.0:
                            delay = 0.0
                        free[nearest] = (
                            free_at if free_at > arrival else arrival
                        ) + service
                        tqd += delay
                        lat += delay + dram_ns[nearest]
                    # response nearest -> requester (one cacheline)
                    msgs += 1
                    if c_rn == 2:
                        inter_hops += h_rn
                        inter_bits += line_bits * h_rn
                        intra += 2
                        intra_bits += 2 * line_bits
                    elif c_rn == 1:
                        intra += 1
                        intra_bits += line_bits
                    else:
                        local += 1
                    lat += ow_rn
                    if record is not None:
                        record(requester, nearest, _REQUEST_BITS)
                        record(nearest, requester, line_bits)
                else:
                    # miss: continue nearest -> home, read, return home
                    # -> requester; maybe install at the probed camp.
                    # Neither hop is local: the nearest location is not
                    # the home here, and a requester that is the home
                    # reads itself on the direct path.
                    s_home = stack_of[home]
                    nh_inter = s_near != s_home
                    msgs += 1
                    if nh_inter:
                        h_nh = hops[s_near][s_home]
                        inter_hops += h_nh
                        inter_bits += _REQUEST_BITS * h_nh
                        intra += 2
                        intra_bits += 2 * _REQUEST_BITS
                        lat += ow[s_near][s_home]
                    else:
                        intra += 1
                        intra_bits += _REQUEST_BITS
                        lat += intra_ns
                    reads += 1
                    arrival = now + lat
                    free_at = free[home]
                    delay = free_at - arrival
                    if delay < 0.0:
                        delay = 0.0
                    free[home] = (
                        free_at if free_at > arrival else arrival
                    ) + service
                    tqd += delay
                    lat += delay
                    lat += dram_ns[home]
                    msgs += 1
                    if s_home != req_stack:  # home -> requester
                        h = hops_req[s_home]
                        inter_hops += h
                        inter_bits += line_bits * h
                        intra += 2
                        intra_bits += 2 * line_bits
                        lat += ow_req[s_home]
                    else:
                        intra += 1
                        intra_bits += line_bits
                        lat += intra_ns
                    # Inlined sparse install: the bypass draw comes
                    # first (as in insert()), then empty-way / random
                    # victim selection with the same RNG calls.
                    if inline_cache:
                        if bp >= 1.0 or (
                            bp > 0.0 and cache._rng.random() < bp
                        ):
                            cstats.bypasses += 1
                            installed = False
                        else:
                            if c_ways is None:
                                c_ways = cache._tags[c_set] = (
                                    [-1] * c_assoc
                                )
                                cache._use_order[c_set] = [0] * c_assoc
                            if line in c_ways:
                                installed = False
                            else:
                                try:
                                    way = c_ways.index(-1)
                                except ValueError:
                                    way = int(
                                        cache._rng.integers(c_assoc)
                                    )
                                    cstats.evictions += 1
                                c_ways[way] = line
                                cstats.insertions += 1
                                installed = True
                    else:
                        installed = cache.insert(line)
                    if installed:
                        # home -> nearest fill; the write itself is
                        # buffered (non-critical), so no clock advance.
                        msgs += 1
                        if nh_inter:
                            inter_hops += h_nh
                            inter_bits += line_bits * h_nh
                            intra += 2
                            intra_bits += 2 * line_bits
                        else:
                            intra += 1
                            intra_bits += line_bits
                        if sram_style:
                            data_acc += 1
                        else:
                            fills += 1
                    if record is not None:
                        record(requester, nearest, _REQUEST_BITS)
                        record(nearest, home, _REQUEST_BITS)
                        record(home, requester, line_bits)
                        if installed:
                            record(home, nearest, line_bits)
            # prefetch.insert: the line just missed the FIFO and nothing
            # above touched it, so the membership re-check is settled.
            # The deque's maxlen drops the oldest line on a full append.
            if len(pf_fifo) == pf_cap:
                pf_evicts += 1
            pf_fifo.append(line)
            # l1.insert: ditto for the set (evicted victim is unused).
            if l1_set is None:
                l1_set = l1_sets[s_idx] = []
            elif len(l1_set) >= l1_assoc:
                del l1_set[0]
            l1_set.append(line)
            stall += lat

        writes = lost_writes = 0
        if write_line >= 0:
            entry = memo.get(write_line)
            home = (entry[0] if entry is not None
                    else self.memory_map.home_of_line(write_line))
            if blocked[home]:
                # Lost store: the home cannot be written right now.
                # The write buffer absorbs it, so the task does not
                # stall.
                lost_writes = 1
            else:
                writes = 1
                msgs += 1
                s_home = stack_of[home]
                if s_home != req_stack:
                    h = hops_req[s_home]
                    inter_hops += h
                    inter_bits += line_bits * h
                    intra += 2
                    intra_bits += 2 * line_bits
                elif home != requester:
                    intra += 1
                    intra_bits += line_bits
                else:
                    local += 1
                if record is not None:
                    record(requester, home, line_bits)

        self.total_queue_delay_ns = tqd
        if unreachable or lost_writes:
            self._resilience.unreachable_accesses += (
                unreachable + lost_writes)
        l1_stats.hits += l1_hits
        l1_stats.misses += l1_acc - l1_hits
        pf_stats.buffer_hits += pf_hits
        pf_stats.evictions += pf_evicts
        pf_stats.issued += pf_acc - pf_hits - unreachable
        self.sram_stats.add_bulk(
            l1_accesses=l1_acc,
            prefetch_accesses=pf_acc,
            tag_accesses=tag_acc,
            data_cache_accesses=data_acc,
        )
        self.dram_stats.add_bulk(
            reads=reads,
            cache_fills=fills,
            cache_reads=cache_reads,
            tag_accesses_in_dram=tag_dram,
            writes=writes,
        )
        self.traffic.add_bulk(
            messages=msgs,
            local_accesses=local,
            intra_transfers=intra,
            intra_bits=intra_bits,
            inter_hops=inter_hops,
            inter_bits=inter_bits,
        )
        return stall

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def write(self, requester: int, line: int, now_ns: float = 0.0) -> float:
        """Write one line to its home (writes bypass the caches).

        The same booking as ``access_many``'s ``write_line`` with no
        reads; returns 0 (stores never stall).
        """
        return self.access_many(requester, (), now_ns, write_line=line)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def end_timestamp(self) -> None:
        """Barrier: bulk-invalidate every cache (Section 4.4)."""
        for cache in self.caches:
            if cache is not None:
                cache.bulk_invalidate()
        for unit in self.units:
            unit.end_timestamp()

    def cache_stats(self) -> CacheStatsTotal:
        total = CacheStatsTotal()
        for cache in self.caches:
            if cache is not None:
                total.merge(cache.stats)
        return total
