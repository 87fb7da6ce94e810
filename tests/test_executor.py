"""Integration tests for the bulk-synchronous executor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.arch.ndp_unit import NdpUnit, build_units
from repro.config import NocConfig, experiment_config
from repro.core.system import build_system
from repro.runtime.executor import _interleave_by_spawner
from repro.runtime.task import Task, TaskHint
from tests.placement_reference import reference_decision


def small_system(design="B"):
    return build_system(design, experiment_config().scaled(2, 2))


def make_task(system, unit=0, ts=0, compute=100.0, spawner=0):
    addr = unit * system.memory_map.unit_capacity
    return Task(
        func=lambda ctx: None,
        timestamp=ts,
        hint=TaskHint(addresses=np.array([addr])),
        compute_cycles=compute,
        spawner_unit=spawner,
    )


class TestBasicExecution:
    def test_empty_run(self):
        system = small_system()
        trace = system.executor.run([])
        assert trace.tasks_executed == 0
        assert trace.makespan_cycles == 0.0

    def test_single_task(self):
        system = small_system()
        hits = []
        t = make_task(system)
        t.func = lambda ctx: hits.append(ctx.current_unit)
        trace = system.executor.run([t])
        assert trace.tasks_executed == 1
        assert hits == [t.assigned_unit]
        assert trace.makespan_cycles > t.compute_cycles

    def test_task_functions_really_run(self):
        system = small_system()
        acc = {"sum": 0}

        def body(ctx, x):
            acc["sum"] += x

        tasks = []
        for i in range(10):
            t = make_task(system, unit=i % 4)
            t.func = body
            t.args = (i,)
            tasks.append(t)
        system.executor.run(tasks)
        assert acc["sum"] == sum(range(10))

    def test_timestamps_execute_in_order(self):
        system = small_system()
        order = []

        def body(ctx, ts):
            order.append(ts)

        tasks = []
        for ts in (2, 0, 1):
            t = make_task(system, ts=ts)
            t.func = body
            t.args = (ts,)
            tasks.append(t)
        trace = system.executor.run(tasks)
        assert order == [0, 1, 2]
        assert trace.timestamps_executed == 3

    def test_children_run_in_later_phase(self):
        system = small_system()
        log = []

        def child(ctx):
            log.append(("child", ctx.timestamp))

        def parent(ctx):
            log.append(("parent", ctx.timestamp))
            ctx.enqueue_task(child, ctx.timestamp + 1, TaskHint.empty())

        t = make_task(system)
        t.func = parent
        system.executor.run([t])
        assert log == [("parent", 0), ("child", 1)]

    def test_max_timestamps_truncates(self):
        system = small_system()

        def self_replicating(ctx):
            ctx.enqueue_task(self_replicating, ctx.timestamp + 1,
                             TaskHint.empty())

        t = make_task(system)
        t.func = self_replicating
        trace = system.executor.run([t], max_timestamps=3)
        assert trace.timestamps_executed == 3

    def test_on_barrier_called_per_phase(self):
        system = small_system()
        barriers = []
        tasks = [make_task(system, ts=ts) for ts in (0, 1)]
        system.executor.run(
            tasks, on_barrier=lambda ts, state: barriers.append(ts)
        )
        assert barriers == [0, 1]

    def test_on_barrier_can_emit_next_phase(self):
        """Wave-synchronous workloads return new tasks at the barrier."""
        system = small_system()
        executed = []

        def body(ctx, tag):
            executed.append(tag)

        def barrier(ts, state):
            if ts == 0:
                t = make_task(system, ts=1)
                t.func = body
                t.args = ("wave2",)
                return [t]
            return None

        t0 = make_task(system)
        t0.func = body
        t0.args = ("wave1",)
        trace = system.executor.run([t0], on_barrier=barrier)
        assert executed == ["wave1", "wave2"]
        assert trace.timestamps_executed == 2


class TestAccounting:
    def test_makespan_accumulates_barrier_costs(self):
        system = small_system()
        tasks = [make_task(system, ts=ts, compute=10.0) for ts in range(3)]
        for t in tasks:
            t.func = lambda ctx: None
        trace = system.executor.run(tasks)
        assert trace.makespan_cycles >= 3 * system.executor.BARRIER_CYCLES

    def test_instructions_summed(self):
        system = small_system()
        tasks = [make_task(system, compute=50.0) for _ in range(4)]
        trace = system.executor.run(tasks)
        assert trace.instructions == pytest.approx(200.0)

    def test_active_cycles_recorded_per_core(self):
        system = small_system()
        tasks = [make_task(system, unit=u) for u in range(4)]
        system.executor.run(tasks)
        total = sum(u.active_cycles for u in system.units)
        assert total > 0
        per_core = np.concatenate([u.core_active for u in system.units])
        assert per_core.sum() == pytest.approx(total)

    def test_parallelism_beats_serial_sum(self):
        """Many equal tasks across units finish far faster than their
        serial sum."""
        system = small_system()
        tasks = [make_task(system, unit=u % 32, compute=500.0)
                 for u in range(64)]
        trace = system.executor.run(tasks)
        serial = sum(t.compute_cycles for t in tasks)
        assert trace.makespan_cycles < serial / 4

    def test_two_cores_overlap_within_unit(self):
        system = small_system()
        # Two tasks pinned to one unit: they run on the two cores.
        tasks = [make_task(system, unit=3, compute=1000.0) for _ in range(2)]
        trace = system.executor.run(tasks)
        unit = system.units[tasks[0].assigned_unit]
        assert unit.core_active[0] > 0 and unit.core_active[1] > 0


def bare_unit(cores=3):
    unit = build_units(experiment_config())[0]
    return NdpUnit(0, cores, unit.l1, unit.prefetch)


class TestNdpUnitClocks:
    def test_run_task_takes_lowest_index_core_on_ties(self):
        unit = bare_unit()
        assert [unit.run_task(d) for d in (10.0, 10.0, 5.0)] == \
            [10.0, 10.0, 5.0]
        assert unit.run_task(7.0) == 12.0        # core 2 was free first
        assert unit.run_task(1.0) == 11.0        # cores 0, 1 tie: core 0
        assert unit.run_task(1.0) == 11.0        # core 1 (10 < 11)
        assert list(unit.core_free_at) == [11.0, 11.0, 12.0]
        assert list(unit.core_active) == [11.0, 11.0, 12.0]
        assert unit.active_cycles == 34.0 and unit.tasks_executed == 6

    def test_clock_queries_and_reset(self):
        unit = bare_unit()
        for d in (4.0, 9.0, 2.5):
            unit.run_task(d)
        busy, free = unit.busy_until(), unit.earliest_free()
        assert (busy, free) == (9.0, 2.5)
        assert type(busy) is float and type(free) is float
        unit.reset_clocks(3.0)
        assert list(unit.core_free_at) == [3.0, 3.0, 3.0]
        assert list(unit.core_active) == [4.0, 9.0, 2.5]
        # start_floor lower-bounds the start; the pick is still core 0.
        assert unit.run_task(1.0, start_floor=5.0) == 6.0
        assert list(unit.core_free_at) == [6.0, 3.0, 3.0]

    @settings(max_examples=40, deadline=None)
    @given(durations=st.lists(st.integers(0, 4), min_size=1, max_size=30),
           cores=st.integers(1, 4))
    def test_property_pick_is_argmin(self, durations, cores):
        """Each task lands on ``np.argmin`` of the clocks before it
        (small integer durations force many ties)."""
        unit = bare_unit(cores)
        active = np.zeros(cores)
        for d in durations:
            core = int(np.argmin(np.array(unit.core_free_at)))
            expected = unit.core_free_at[core] + d
            assert unit.run_task(float(d)) == expected
            active[core] += d
            assert list(unit.core_active) == active.tolist()
        assert unit.busy_until() == max(unit.core_free_at)
        assert unit.earliest_free() == min(unit.core_free_at)


class TestDeterminism:
    def test_same_seed_same_result(self):
        wl = repro.make_workload("pr", num_vertices=256, iterations=2)
        a = repro.simulate("O", wl)
        b = repro.simulate("O", wl)
        assert a.makespan_cycles == b.makespan_cycles
        assert a.inter_hops == b.inter_hops
        assert a.cache.hits == b.cache.hits


class TestInterleave:
    def test_round_robins_spawners(self):
        tasks = []
        for spawner in (0, 0, 0, 1, 1, 2):
            t = Task(func=lambda c: None, timestamp=0,
                     hint=TaskHint.empty(), spawner_unit=spawner)
            tasks.append(t)
        order = [t.spawner_unit for t in _interleave_by_spawner(tasks)]
        assert order == [0, 1, 2, 0, 1, 0]

    def test_preserves_all_tasks(self):
        tasks = [
            Task(func=lambda c: None, timestamp=0, hint=TaskHint.empty(),
                 spawner_unit=i % 5)
            for i in range(23)
        ]
        out = _interleave_by_spawner(tasks)
        assert sorted(t.task_id for t in out) == sorted(
            t.task_id for t in tasks
        )


def per_task_schedule(executor, tasks, pending, clock, advance_clock,
                      terms=None):
    """The reference placement loop: one reference decision, one
    estimate and one booking per task, the exchange clock checked after
    every booking.  ``terms`` collects each decision's record terms."""
    scheduler = executor.scheduler
    for task in tasks:
        unit, task_terms = reference_decision(scheduler, task)
        if terms is not None:
            terms.append((task.task_id, unit, task_terms))
        task.assigned_unit = unit
        workload = scheduler.context.task_workload(task, unit)
        task.booked_workload = workload
        executor.exchange.on_enqueue(unit, workload)
        pending.setdefault(task.timestamp, []).append(task)
        if advance_clock:
            clock += workload / executor._throughput
            executor.exchange.advance(clock)
    return clock


class TestBatchPlacement:
    """Batch placement books exactly what the per-task reference loop
    books, healthy and around dead units, and records one decision per
    booked task."""

    DESIGNS = ["B", "Sl", "Sh", "O", "C"]

    @staticmethod
    def tasks(system, n: int, seed: int = 3):
        rng = np.random.default_rng(seed)
        mm = system.memory_map
        units = system.config.num_units
        out = []
        for i in range(n):
            lines = 0 if i % 9 == 0 else int(rng.integers(1, 16))
            addrs = (rng.integers(0, units, lines) * mm.unit_capacity
                     + rng.integers(0, 1 << 10, lines) * mm.line_bytes)
            out.append(Task(func=lambda c: None, timestamp=int(i % 3),
                            hint=TaskHint(addresses=addrs),
                            compute_cycles=float(rng.integers(100, 3000)),
                            spawner_unit=int(rng.integers(0, units))))
        return out

    def compare(self, design, advance_clock, alive=None, telemetry=None):
        """Place 600 tasks with the executor and with the reference loop
        on twin machines; returns the reference's decision terms."""
        # Jittered costs do not sum exactly: a reduction taken in another
        # order than the per-task one changes the result.  The jitter
        # goes into the interconnect's stack table, and from there into
        # its unit cost table (rebuilt as set_link_faults rebuilds it),
        # which every placement score and camp table reads; a mesh hop
        # cheaper than a crossbar hop lets a camp in another stack, at a
        # jittered cost, be a unit's nearest location.
        config = experiment_config().scaled(2, 2).with_(
            noc=NocConfig(intra_hop_ns=1.6, inter_hop_ns=1.3))
        ref = build_system(design, config)
        new = build_system(design, config, telemetry=telemetry)
        jitter = np.random.default_rng(5).uniform(
            0.9, 1.1, ref.interconnect.stack_mesh_ns.shape)
        for system in (ref, new):
            noc = system.interconnect
            noc._stack_ns = noc._stack_ns * jitter
            noc._unit_table = noc._build_unit_table()
            if system.camp_mapper is not None:
                system.camp_mapper.clear_cache()
            system.scheduler.context.alive_mask = alive
        ref_tasks, new_tasks = self.tasks(ref, 600), self.tasks(new, 600)
        ref_pending, new_pending = {}, {}
        terms = []
        start = 1234.5
        ref_clock = per_task_schedule(ref.executor, ref_tasks, ref_pending,
                                      start, advance_clock, terms)
        new_clock = new.executor._schedule_tasks(
            new_tasks, new_pending, start, advance_clock=advance_clock)
        if advance_clock:
            # the root batch crosses several snapshot refreshes
            assert ref.exchange.generation >= 3
        assert new_clock == ref_clock
        assert ([t.assigned_unit for t in new_tasks]
                == [t.assigned_unit for t in ref_tasks])
        if alive is not None:
            assert all(alive[t.assigned_unit] for t in new_tasks)
        assert ([t.booked_workload for t in new_tasks]
                == [t.booked_workload for t in ref_tasks])
        assert new.exchange._true == ref.exchange._true
        assert new.exchange.generation == ref.exchange.generation
        assert np.array_equal(new.exchange.snapshot, ref.exchange.snapshot)
        assert ({ts: [t.task_id - new_tasks[0].task_id for t in q]
                 for ts, q in new_pending.items()}
                == {ts: [t.task_id - ref_tasks[0].task_id for t in q]
                    for ts, q in ref_pending.items()})
        return [(task_id - ref_tasks[0].task_id, unit, task_terms)
                for task_id, unit, task_terms in terms]

    @pytest.mark.parametrize("design", DESIGNS)
    @pytest.mark.parametrize("advance_clock", [True, False])
    def test_matches_per_task_loop(self, design, advance_clock):
        self.compare(design, advance_clock)

    @pytest.mark.parametrize("design", DESIGNS)
    def test_matches_per_task_loop_under_alive_mask(self, design):
        alive = np.ones(32, dtype=bool)
        alive[[0, 5, 6, 7, 19]] = False
        self.compare(design, True, alive=alive)

    @pytest.mark.parametrize("design", DESIGNS)
    def test_records_one_decision_per_booking(self, design):
        """Each booked task emits its decision record as it is booked,
        with the reference terms; picks dropped by a snapshot refresh
        (the root batch crosses several) emit none."""
        from repro.telemetry import Telemetry

        tel = Telemetry(timeline_capacity=None)
        terms = self.compare(design, True, telemetry=tel)
        events = [e.args for e in tel.timeline
                  if e.name == "scheduler.decide"]
        assert tel.registry.collect()["scheduler.decisions"] == 600
        first = events[0]["task"]
        assert [(e["task"] - first, e["unit"]) for e in events] == \
            [(task, unit) for task, unit, _ in terms]
        assert [(e["cost_mem"], e["cost_load"], e["score"])
                for e in events] == \
            [(round(m, 3), round(l, 4), round(s, 3))
             for _, _, (m, l, s) in terms]
