"""Table 2: the evaluated system designs.

Checks that each design point wires the scheduling policy and cache the
paper's matrix specifies, and that the machines actually assemble.
"""

import repro
from repro.config import CacheStyle, SchedulingPolicy
from repro.core.scheduler.colocate import ColocateScheduler
from repro.core.scheduler.hybrid import HybridScheduler
from repro.core.scheduler.lowest_distance import LowestDistanceScheduler
from repro.core.scheduler.work_stealing import WorkStealingScheduler

EXPECTED = {
    "B": (SchedulingPolicy.COLOCATE, CacheStyle.NONE, ColocateScheduler),
    "Sm": (SchedulingPolicy.LOWEST_DISTANCE, CacheStyle.NONE,
           LowestDistanceScheduler),
    "Sl": (SchedulingPolicy.WORK_STEALING, CacheStyle.NONE,
           WorkStealingScheduler),
    "Sh": (SchedulingPolicy.HYBRID, CacheStyle.NONE, HybridScheduler),
    "C": (SchedulingPolicy.LOWEST_DISTANCE, CacheStyle.TRAVELLER,
          LowestDistanceScheduler),
    "O": (SchedulingPolicy.HYBRID, CacheStyle.TRAVELLER, HybridScheduler),
}


def test_tab02_design_matrix():
    systems = {}
    print()
    for name, point in repro.DESIGN_POINTS.items():
        system = repro.build_system(name)
        systems[name] = system
        print(f"{name:3} {point.policy.value:16} "
              f"cache={point.cache.value:10} {point.description}")

    for name, (policy, cache, sched_cls) in EXPECTED.items():
        point = repro.DESIGN_POINTS[name]
        assert point.policy is policy
        assert point.cache is cache
        system = systems[name]
        assert isinstance(system.scheduler, sched_cls), name
        has_cache = any(c is not None for c in system.memory_system.caches)
        assert has_cache == (cache is CacheStyle.TRAVELLER), name

    # O exploits the camps in its cost model; Sh cannot (no cache).
    assert systems["O"].scheduler.use_camps
    assert not systems["Sh"].scheduler.use_camps
    # Sl is Sm's placement plus run-time stealing.
    assert isinstance(systems["Sl"].scheduler, LowestDistanceScheduler)
    assert systems["Sl"].scheduler.uses_work_stealing
