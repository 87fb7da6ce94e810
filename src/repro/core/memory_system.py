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
        # Per-unit DRAM channel service clock (absolute ns).  A plain
        # Python list: the clock is read/written once per DRAM event in
        # tight loops, where list indexing beats ndarray item access.
        self._dram_free_ns = [0.0] * config.num_units
        # Total queuing delay observed (diagnostics / tests).
        self.total_queue_delay_ns = 0.0
        if self.style is not CacheStyle.NONE and camp_mapper is None:
            raise ValueError("a camp mapper is required when caching is on")
        # Fused-kernel per-line memo with a cache: the camp mapper's own
        # memo dict, line -> (home unit, location tuple, nearest
        # location per requester stack, row slot), cleared by the
        # mapper whenever the mapping or the distances change.  Without
        # a cache the kernel computes homes from line addresses and
        # needs no memo.
        self._line_memo: Optional[dict] = (
            None if self.style is CacheStyle.NONE
            else camp_mapper._nearest_cache
        )
        # Kernel inputs (see _bind): the machine-wide rows, and one
        # tuple per requester, filled on first use.
        self._tables: Optional[tuple] = None
        self._bound: List[Optional[tuple]] = [None] * config.num_units

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
        self._tables = None
        self._bound = [None] * len(self._bound)

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
        """
        noc = self.interconnect
        topo = noc.topology
        if self._resilience is None or (
                self._alive is None and not noc.has_link_faults):
            return [[False] * self.config.num_units] * topo.num_stacks
        blocked = noc.stack_hops[:, topo.stack_of_unit] < 0
        if self._alive is not None:
            blocked |= ~self._alive
        return blocked.tolist()

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

    def _bind(self, requester: int) -> tuple:
        """The kernel's loop-invariant inputs for ``requester``.

        One tuple, unpacked once per call: the key it was built for
        (``noc.fault_epoch``, ``dram.epoch``, the link meter), then the
        line memo and its camp mapper, the requester's L1 and prefetch
        containers and stats, its stack's NoC rows and blocked-home
        row, and the machine's latencies, geometry and counters.  The
        kernel rebinds when the key no longer matches, and
        :meth:`set_fault_state` drops every bound tuple.  The containers
        are cleared in place at barriers (never recreated), so the
        references stay valid for the run.
        """
        noc = self.interconnect
        dram = self.dram
        key = (noc.fault_epoch, dram.epoch, noc.link_meter)
        tables = self._tables
        if tables is None or tables[:3] != key:
            # Machine-wide rows, shared by every requester bound under
            # the same key.
            tables = self._tables = key + (
                (noc.stack_mesh_ns + 2 * noc.noc.intra_hop_ns).tolist(),
                noc.stack_hops.tolist(),
                self._blocked_rows(),
                noc.topology.stack_of_unit.tolist(),
                dram.unit_latencies(self.config.num_units),
            )
        ow, hops, blocked_rows, stack_of, dram_ns = tables[3:]
        req_stack = stack_of[requester]
        unit = self.units[requester]
        no_cache = self.style is CacheStyle.NONE
        dram_tag = self.style is CacheStyle.DRAM_TAG
        # DRAM accesses one tag probe costs: a property of the shared
        # cache config, the same at every unit.
        tag_probes = (self.caches[0].tag_probe_dram_accesses()
                      if dram_tag else 0)
        c_nsets = c_assoc = bp = None
        if self._inline_cache:
            cache = self.caches[0]
            c_nsets = cache.num_sets
            c_assoc = cache.associativity
            bp = cache._insertion.bypass_probability
        meter = noc.link_meter
        line_bits = self.config.memory.line_bits
        bound = self._bound[requester] = key + (
            self._line_memo, None if no_cache else self.camp_mapper,
            self.memory_map.lines_per_unit,
            *unit.l1.batch_state(), *unit.prefetch.batch_state(),
            req_stack, blocked_rows[req_stack], ow, hops,
            ow[req_stack], hops[req_stack], stack_of,
            self.sram.l1_hit_ns, self.sram.tag_lookup_ns, dram_ns,
            self._service_ns, self._dram_free_ns, noc.noc.intra_hop_ns,
            self.caches, meter.record if meter is not None else None,
            line_bits, _REQUEST_BITS + line_bits, no_cache,
            self.style is CacheStyle.SRAM, dram_tag, tag_probes,
            self._inline_cache,
            c_nsets, c_assoc, bp, self._unreachable_penalty_ns(),
            self.sram_stats, self.dram_stats, self.traffic,
        )
        return bound

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
        hint=None,
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

        ``hint`` is the :class:`~repro.runtime.task.TaskHint` the lines
        came from, or ``None``.  A hint is stamped with the line memo's
        (token, epoch) once its lines are in the memo, and a later call
        with the stamp still current skips the memo check.
        """
        if type(lines) is not list:
            lines = (lines.tolist() if isinstance(lines, np.ndarray)
                     else [int(x) for x in lines])
        noc = self.interconnect
        bound = self._bound[requester]
        if (bound is None or bound[0] != noc.fault_epoch
                or bound[1] != self.dram.epoch
                or bound[2] is not noc.link_meter):
            bound = self._bind(requester)
        (_, _, _, memo, cm, lines_per_unit,
         l1_sets, l1_nsets, l1_assoc, l1_stats, pf_fifo, pf_cap, pf_stats,
         req_stack, blocked, ow, hops, ow_req, hops_req, stack_of,
         hit_ns, tag_ns, dram_ns, service, free, intra_ns,
         caches, record, line_bits, rt_bits, no_cache, sram_style, dram_tag,
         tag_probes, inline_cache, c_nsets, c_assoc, bp, penalty_ns,
         sram_stats, dram_stats, traffic) = bound
        # A message is inter-stack when the stacks differ (ow/hops row
        # entries), intra-stack when only the units differ (one
        # crossbar hop), local otherwise.
        if cm is not None:
            # A hint stamped with the memo's current (token, epoch) has
            # all of its lines in the memo: the memo only loses lines in
            # CampMapper.clear_cache, which moves the stamp on.
            stamp = cm.stamp
            if hint is None or getattr(hint, "_mstamp", None) != stamp:
                if not all(map(memo.__contains__, lines)):
                    cm.prime_lines(lines)
                if hint is not None:
                    hint._mstamp = stamp

        # Batch-local counters, flushed once below.  Counters are
        # order-insensitive ints; the queue-delay float keeps its exact
        # per-line += order.  Probe and DRAM counts are derived at the
        # flush from the branch counts (L1 and FIFO hits, unreachable
        # lines, camp hits, misses and installs).
        l1_hits = pf_hits = pf_evicts = unreachable = 0
        c_hits = c_misses = installs = local = 0
        msgs = intra = intra_bits = inter_hops = inter_bits = 0
        tqd = self.total_queue_delay_ns

        stall = 0.0
        # Issue-spread: with zero spacing (the default service model)
        # every line issues at now_ns and the per-line minimum
        # collapses.  ``cap_ns if cap_ns < off else off`` is
        # ``min(off, cap_ns)`` without the builtin call.
        spread = spacing_ns != 0.0 or cap_ns < 0.0
        now = now_ns
        i = 0
        for line in lines:
            if spread:
                off = i * spacing_ns
                now = now_ns + (cap_ns if cap_ns < off else off)
                i += 1
            # Fused L1 + prefetch front-end (inlined lookup/insert with
            # identical hashing, LRU refresh, and FIFO eviction order).
            s_idx = line % l1_nsets
            l1_set = l1_sets.get(s_idx)
            if l1_set is not None and line in l1_set:
                if l1_set[-1] != line:
                    l1_set.remove(line)
                    l1_set.append(line)
                l1_hits += 1
                stall += hit_ns
                continue
            if line in pf_fifo:
                pf_hits += 1
                stall += hit_ns
                continue
            if no_cache:
                home = nearest = line // lines_per_unit
            else:
                home, locs, near_row, _ = memo[line]
                nearest = (requester if requester in locs
                           else near_row[req_stack])
            if blocked[home]:
                # The home vault is dead or partitioned away: the access
                # times out.  Nothing is cached and no traffic moved.
                unreachable += 1
                stall += penalty_ns
                continue
            if nearest == home:
                if not no_cache:
                    caches[home].stats.home_direct += 1
                # Direct: request + response transfers, one DRAM read
                # at the home, round trip + queue + access.
                s_home = stack_of[home]
                msgs += 2
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
                    base = now + lat
                    probe = 0.0
                    tag_lat = dram_ns[nearest]
                    for _ in range(tag_probes):
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
                    c_hits += 1
                    if sram_style:
                        lat += hit_ns
                    elif not dram_tag:  # Traveller: data read in DRAM
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
                    c_misses += 1
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
                        installs += 1
                        msgs += 1
                        if nh_inter:
                            inter_hops += h_nh
                            inter_bits += line_bits * h_nh
                            intra += 2
                            intra_bits += 2 * line_bits
                        else:
                            intra += 1
                            intra_bits += line_bits
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
            home = write_line // lines_per_unit
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
        # Every line that got past the L1 probed the FIFO; every one
        # that got past the FIFO and reached its home read DRAM at the
        # home (a direct read or a camp miss) or hit its camp.
        count = len(lines)
        pf_acc = count - l1_hits
        issued = pf_acc - pf_hits - unreachable
        if l1_hits:
            l1_stats.hits += l1_hits
        l1_stats.misses += pf_acc
        if pf_hits:
            pf_stats.buffer_hits += pf_hits
        if pf_evicts:
            pf_stats.evictions += pf_evicts
        pf_stats.issued += issued
        sram_stats.l1_accesses += count
        sram_stats.prefetch_accesses += pf_acc
        dram_stats.reads += issued - c_hits
        dram_stats.writes += writes
        if c_hits or c_misses:
            if dram_tag:
                dram_stats.tag_accesses_in_dram += (
                    tag_probes * (c_hits + c_misses))
            else:
                sram_stats.tag_accesses += c_hits + c_misses
            if sram_style:
                sram_stats.data_cache_accesses += c_hits + installs
            else:
                dram_stats.cache_fills += installs
                if not dram_tag:
                    dram_stats.cache_reads += c_hits
        traffic.messages += msgs
        if local:
            traffic.local_accesses += local
        traffic.intra_transfers += intra
        traffic.intra_bits += intra_bits
        traffic.inter_hops += inter_hops
        traffic.inter_bits += inter_bits
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
