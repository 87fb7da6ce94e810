"""Cross-cutting property-based tests (hypothesis) on system invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.arch.memory_map import MemoryMap
from repro.arch.noc import Interconnect
from repro.arch.topology import Topology
from repro.config import (
    CacheConfig,
    MemoryConfig,
    NocConfig,
    TopologyConfig,
    experiment_config,
)
from repro.core.cache.camp import CampMapper
from repro.core.scheduler.base import SchedulerContext
from repro.core.scheduler.colocate import ColocateScheduler
from repro.core.scheduler.hybrid import HybridScheduler
from repro.core.scheduler.lowest_distance import LowestDistanceScheduler
from repro.core.system import build_system
from repro.runtime.task import Task, TaskHint
from repro.runtime.workload_exchange import WorkloadExchange
from tests.cost_reference import unit_cost_matrix
from tests.placement_reference import place


def make_context(with_camps=False) -> SchedulerContext:
    cache = CacheConfig(num_camps=3)
    groups = cache.num_groups() if with_camps else 1
    topo = Topology(TopologyConfig(2, 2, 8), num_groups=groups)
    memmap = MemoryMap(topo, MemoryConfig())
    noc = Interconnect(topo, NocConfig(), MemoryConfig())
    mapper = CampMapper(noc, memmap, cache) if with_camps else None
    return SchedulerContext(
        memory_map=memmap,
        interconnect=noc,
        exchange=WorkloadExchange(topo, 250),
        camp_mapper=mapper,
        hybrid_weight=30.0,
    )


def task_for(ctx, unit_offsets):
    addrs = [u * ctx.memory_map.unit_capacity + off * 64
             for u, off in unit_offsets]
    return Task(func=lambda c: None, timestamp=0,
                hint=TaskHint(addresses=np.asarray(addrs, dtype=np.int64)),
                spawner_unit=unit_offsets[0][0] if unit_offsets else 0)


units = st.integers(0, 31)
offsets = st.integers(0, 63)
hint_sets = st.lists(st.tuples(units, offsets), min_size=1, max_size=12)


@settings(max_examples=40, deadline=None)
@given(hints=hint_sets)
def test_property_colocate_always_at_main_home(hints):
    ctx = make_context()
    t = task_for(ctx, hints)
    assert place(ColocateScheduler(ctx), t) == hints[0][0]


@settings(max_examples=40, deadline=None)
@given(hints=hint_sets)
def test_property_lowest_distance_picks_a_data_host(hints):
    ctx = make_context()
    t = task_for(ctx, hints)
    chosen = place(LowestDistanceScheduler(ctx), t)
    assert chosen in {u for u, _ in hints}


@settings(max_examples=40, deadline=None)
@given(hints=hint_sets, loads=st.lists(st.floats(0, 1e5), min_size=32,
                                       max_size=32))
def test_property_hybrid_returns_valid_unit(hints, loads):
    ctx = make_context(with_camps=True)
    for u, w in enumerate(loads):
        ctx.exchange.on_enqueue(u, w)
    ctx.exchange.force_exchange(0.0)
    t = task_for(ctx, hints)
    chosen = place(HybridScheduler(ctx, use_camps=True), t)
    assert 0 <= chosen < ctx.num_units


@settings(max_examples=40, deadline=None)
@given(hints=hint_sets)
def test_property_mem_cost_nonnegative_and_zero_if_all_local(hints):
    ctx = make_context()
    t = task_for(ctx, hints)
    costs = ctx.mem_cost_vector(t, use_camps=False)
    assert (costs >= 0).all()
    if len({u for u, _ in hints}) == 1:
        only = hints[0][0]
        assert costs[only] == 0.0


@settings(max_examples=40, deadline=None)
@given(hints=hint_sets, unit=units)
def test_property_workload_estimate_bounds(hints, unit):
    """The booked workload is at least compute and at most
    compute + (max distance + dram) per line."""
    ctx = make_context()
    t = task_for(ctx, hints)
    t.compute_cycles = 50.0
    w = ctx.task_workload(t, unit)
    lines = len({(u, off) for u, off in hints})
    assert w >= 50.0
    worst_per_line = (unit_cost_matrix(ctx.interconnect).max()
                      + ctx.dram_latency_ns)
    assert w <= 50.0 + lines * worst_per_line * ctx.frequency_ghz + 1e-9


class TestMemorySystemProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        requester=units,
        target_unit=units,
        offset=offsets,
    )
    def test_property_second_access_never_slower(self, requester,
                                                 target_unit, offset):
        """L1/prefetch residency makes re-access cheap."""
        system = build_system("O", experiment_config().scaled(2, 2))
        ms = system.memory_system
        addr = target_unit * system.memory_map.unit_capacity + offset * 64
        line = system.memory_map.line_of(addr)
        first = ms.access_many(requester, [line], 0.0)
        second = ms.access_many(requester, [line], 0.0)
        assert second <= first + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(requester=units, target_unit=units)
    def test_property_latency_at_least_dram(self, requester, target_unit):
        system = build_system("B", experiment_config().scaled(2, 2))
        addr = target_unit * system.memory_map.unit_capacity
        line = system.memory_map.line_of(addr)
        latency = system.memory_system.access_many(requester, [line], 0.0)
        assert latency >= system.dram.access_latency_ns - 1e-9


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 100))
def test_property_cache_seed_never_changes_answers(seed):
    """The probabilistic insertion RNG affects performance only."""
    wl = repro.make_workload("pr", num_vertices=256, iterations=2)
    cfg = experiment_config().with_(seed=seed).validate()
    repro.simulate("O", wl, cfg, verify=True)


@settings(max_examples=10, deadline=None)
@given(n_tasks=st.integers(1, 60))
def test_property_executor_conserves_tasks(n_tasks):
    system = build_system("Sh", experiment_config().scaled(2, 2))
    tasks = []
    for i in range(n_tasks):
        addr = (i % 32) * system.memory_map.unit_capacity
        tasks.append(Task(
            func=lambda ctx: None,
            timestamp=i % 3,
            hint=TaskHint(addresses=np.array([addr])),
            spawner_unit=i % 32,
        ))
    trace = system.executor.run(tasks)
    assert trace.tasks_executed == n_tasks
    assert trace.timestamps_executed == len({t.timestamp for t in tasks})
