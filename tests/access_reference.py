"""Per-line reference access flow and reference inputs for the access tests.

The simulator resolves reads only in hint batches
(``MemorySystem.access_many``, one fused kernel, which also books the
task's output write).  :func:`access` and :func:`write` are the plain
per-line form of the same flow (Section 4.4: L1, prefetch buffer,
nearest camp, home), acting on a ``MemorySystem`` ``ms`` through its
stat structs, DRAM clocks and the interconnect's per-pair methods.  The
kernel oracle in ``test_memory_system.py`` runs both on twin machines
and compares their whole state.

The nearest location is the unit-wide argmin of the requester's cost
row over the line's locations (:func:`nearest_location`), not the camp
mapper's per-stack tables the kernel reads, so the oracle checks those
tables too.

The flow keeps the camp-detour cut for link faults, which the kernel
does not have: ``test_reachable_home_has_reachable_nearest_camp`` shows
it cannot fire.

:data:`PARTITION` is the explicit fault schedule behind the
``partition/pr/*`` golden digests and the faulted kernel oracle: it cuts
stack 0 off a 2x2 mesh, slows one surviving link, kills one unit (camp
remap) and slows one vault.
"""

import numpy as np

from repro.config import CacheStyle
from repro.core.cache.dram_tag_cache import DramTagCache
from repro.core.memory_system import _REQUEST_BITS
from repro.faults import FaultEvent, FaultKind, FaultSchedule
from tests.cost_reference import unit_cost_matrix

PARTITION = FaultSchedule(events=(
    FaultEvent(FaultKind.LINK_FAIL, link=(0, 1), at_timestamp=1),
    FaultEvent(FaultKind.LINK_FAIL, link=(0, 2), at_timestamp=1),
    FaultEvent(FaultKind.LINK_DEGRADE, link=(1, 3), at_timestamp=1,
               factor=3.0),
    FaultEvent(FaultKind.UNIT_FAIL, unit=5, at_timestamp=2),
    FaultEvent(FaultKind.VAULT_SLOW, unit=7, at_timestamp=1, factor=4.0),
))


# ----------------------------------------------------------------------
# DRAM channel service model
# ----------------------------------------------------------------------
def _dram_service(ms, unit: int, now_ns: float,
                  critical: bool = True) -> float:
    """Occupy ``unit``'s DRAM channel for one cacheline access.

    Returns the queuing delay experienced (0 when the channel is
    idle).  ``critical=False`` marks write-buffered events (cache
    fills, output writes): the controller schedules them into idle
    slots, so they neither wait nor delay demand reads — their
    energy is still charged by the caller.
    """
    if not critical:
        return 0.0
    free_at = ms._dram_free_ns[unit]
    delay = max(0.0, free_at - now_ns)
    ms._dram_free_ns[unit] = max(free_at, now_ns) + ms._service_ns
    ms.total_queue_delay_ns += delay
    return delay


def _unreachable(ms, requester: int, home: int) -> bool:
    """The home memory cannot currently serve this requester."""
    if ms._alive is not None and not ms._alive[home]:
        return True
    return not ms.interconnect.is_reachable(requester, home)


# ----------------------------------------------------------------------
# read path
# ----------------------------------------------------------------------
def access(ms, requester: int, line: int, now_ns: float = 0.0) -> float:
    """Resolve one cacheline read at time ``now_ns``.

    Returns its latency in ns, including any queuing delay at the
    serving unit's DRAM channel.
    """
    unit = ms.units[requester]

    ms.sram_stats.l1_accesses += 1
    if unit.l1.lookup(line):
        return ms.sram.l1_hit_ns

    ms.sram_stats.prefetch_accesses += 1
    if unit.prefetch.lookup(line):
        # Prefetch-buffer hits bypass the L1 (Section 3.2).
        return ms.sram.l1_hit_ns

    if ms._resilience is not None:
        home = ms.memory_map.home_of_line(line)
        if _unreachable(ms, requester, home):
            # The home vault is dead or partitioned away: the access
            # times out.  Nothing is cached and no traffic moved.
            ms._resilience.unreachable_accesses += 1
            return ms._unreachable_penalty_ns()

    if ms.style is CacheStyle.NONE:
        latency = _direct_home_access(ms, requester, line, now_ns)
    else:
        latency = _cached_access(ms, requester, line, now_ns)

    unit.prefetch.insert(line)
    unit.l1.insert(line)
    return latency


def _direct_home_access(ms, requester: int, line: int,
                        now_ns: float) -> float:
    home = ms.memory_map.home_of_line(line)
    noc = ms.interconnect
    noc.record_round_trip(ms.traffic, requester, home, _REQUEST_BITS)
    ms.dram_stats.reads += 1
    arrival = now_ns + noc.one_way_latency_ns(requester, home)
    queue = _dram_service(ms, home, arrival)
    return (
        noc.round_trip_latency_ns(requester, home)
        + queue + ms.dram.access_latency_at(home)
    )


def nearest_location(ms, requester: int, line: int) -> int:
    """The line's living location with the least cost from
    ``requester``, the first in group order on a tie (``np.argmin``)."""
    locs = [int(u) for u in ms.camp_mapper.locations(line) if u >= 0]
    cost = unit_cost_matrix(ms.interconnect)
    return locs[int(np.argmin(cost[requester, locs]))]


def _cached_access(ms, requester: int, line: int, now_ns: float) -> float:
    """The Traveller access flow: probe nearest camp, fall to home."""
    assert ms.camp_mapper is not None
    noc = ms.interconnect
    home = ms.memory_map.home_of_line(line)
    nearest = nearest_location(ms, requester, line)
    is_home = nearest == home
    cache = ms.caches[nearest]

    if is_home:
        # The nearest allowed location is the memory itself: no
        # detour, no probe — exactly the baseline access.
        if cache is not None:
            cache.stats.home_direct += 1
        return _direct_home_access(ms, requester, line, now_ns)

    assert cache is not None
    if noc.has_link_faults and not (
            noc.is_reachable(requester, nearest)
            and noc.is_reachable(nearest, home)):
        # Link faults cut off the camp detour: skip straight to the
        # home (which *is* reachable — access() checked).
        cache.stats.home_direct += 1
        return _direct_home_access(ms, requester, line, now_ns)
    # Request travels to the camp and checks the tags there.
    noc.record_transfer(ms.traffic, requester, nearest, _REQUEST_BITS)
    latency = noc.one_way_latency_ns(requester, nearest)
    latency += _tag_probe_latency(ms, nearest, now_ns + latency)

    if cache.lookup(line):
        # Served from the camp's cache region.
        latency += _cache_read_latency(ms, nearest, now_ns + latency)
        noc.record_transfer(ms.traffic, nearest, requester)
        latency += noc.one_way_latency_ns(nearest, requester)
        return latency

    # Miss: continue to the home, read, return directly to requester.
    noc.record_transfer(ms.traffic, nearest, home, _REQUEST_BITS)
    latency += noc.one_way_latency_ns(nearest, home)
    ms.dram_stats.reads += 1
    latency += _dram_service(ms, home, now_ns + latency)
    latency += ms.dram.access_latency_at(home)
    noc.record_transfer(ms.traffic, home, requester)
    latency += noc.one_way_latency_ns(home, requester)

    # Try to install at the probed camp.  The fill write is
    # buffered and scheduled into idle channel slots, so it costs
    # energy and traffic but neither waits nor delays demand reads.
    if cache.insert(line):
        noc.record_transfer(ms.traffic, home, nearest)
        _charge_cache_fill(ms, nearest, now_ns + latency)
    return latency


# ----------------------------------------------------------------------
# per-style cost hooks
# ----------------------------------------------------------------------
def _tag_probe_latency(ms, camp_unit: int, now_ns: float) -> float:
    if ms.style is CacheStyle.DRAM_TAG:
        # Tags live in DRAM alongside the data (Unison/Footprint
        # style): the probe reads the whole tag+data row, so a hit
        # needs no further data access, while a miss has burned a
        # full DRAM access for nothing.
        cache = ms.caches[camp_unit]
        assert isinstance(cache, DramTagCache)
        n = cache.tag_probe_dram_accesses()
        ms.dram_stats.tag_accesses_in_dram += n
        latency = 0.0
        for _ in range(n):
            latency += _dram_service(ms, camp_unit, now_ns + latency)
            latency += ms.dram.access_latency_at(camp_unit)
        return latency
    ms.sram_stats.tag_accesses += 1
    return ms.sram.tag_lookup_ns


def _cache_read_latency(ms, camp_unit: int, now_ns: float) -> float:
    if ms.style is CacheStyle.SRAM:
        ms.sram_stats.data_cache_accesses += 1
        return ms.sram.l1_hit_ns
    if ms.style is CacheStyle.DRAM_TAG:
        # The data arrived with the tag probe's row access.
        return 0.0
    ms.dram_stats.cache_reads += 1
    queue = _dram_service(ms, camp_unit, now_ns)
    return queue + ms.dram.access_latency_at(camp_unit)


def _charge_cache_fill(ms, camp_unit: int, now_ns: float) -> None:
    if ms.style is CacheStyle.SRAM:
        ms.sram_stats.data_cache_accesses += 1
    else:
        ms.dram_stats.cache_fills += 1
        _dram_service(ms, camp_unit, now_ns, critical=False)


# ----------------------------------------------------------------------
# write path
# ----------------------------------------------------------------------
def write(ms, requester: int, line: int, now_ns: float = 0.0) -> float:
    """Write one line to its home (writes bypass the caches).

    Returns 0: stores retire through a write buffer into idle
    channel slots, so they neither stall the task nor delay demand
    reads; their traffic and DRAM energy are still charged.
    """
    home = ms.memory_map.home_of_line(line)
    noc = ms.interconnect
    if ms._resilience is not None and _unreachable(ms, requester, home):
        # Lost store: the home cannot be written right now.  The
        # write buffer absorbs it, so the task does not stall.
        ms._resilience.unreachable_accesses += 1
        return 0.0
    noc.record_transfer(ms.traffic, requester, home)
    ms.dram_stats.writes += 1
    _dram_service(ms, home, now_ns, critical=False)
    return 0.0
