"""Unit tests for the scheduling policies (Table 2)."""

import numpy as np
import pytest

from repro.arch.memory_map import MemoryMap
from repro.arch.noc import Interconnect
from repro.arch.topology import Topology
from repro.config import (
    CacheConfig,
    MemoryConfig,
    NocConfig,
    TopologyConfig,
)
from repro.core.cache.camp import CampMapper
from repro.core.scheduler.base import Scheduler, SchedulerContext
from repro.core.scheduler.colocate import ColocateScheduler
from repro.core.scheduler.hybrid import HybridScheduler
from repro.core.scheduler.lowest_distance import LowestDistanceScheduler
from repro.core.scheduler.work_stealing import (
    WorkStealingScheduler,
    rebalance_by_stealing,
)
from repro.runtime.task import Task, TaskHint
from repro.runtime.workload_exchange import WorkloadExchange
from tests.cost_reference import unit_cost_matrix
from tests.placement_reference import place, reference_decision, reference_unit


def make_context(with_camps: bool = False,
                 noc_config: NocConfig = NocConfig()) -> SchedulerContext:
    cache = CacheConfig(num_camps=3)
    groups = cache.num_groups() if with_camps else 1
    topo = Topology(TopologyConfig(), num_groups=groups)
    memmap = MemoryMap(topo, MemoryConfig())
    noc = Interconnect(topo, noc_config, MemoryConfig())
    mapper = CampMapper(noc, memmap, cache) if with_camps else None
    return SchedulerContext(
        memory_map=memmap,
        interconnect=noc,
        exchange=WorkloadExchange(topo, 250),
        camp_mapper=mapper,
        hybrid_weight=30.0,
    )


def task_with_addrs(ctx, addrs, spawner=0) -> Task:
    return Task(
        func=lambda c: None,
        timestamp=0,
        hint=TaskHint(addresses=np.asarray(addrs, dtype=np.int64)),
        spawner_unit=spawner,
    )


def unit_addr(ctx, unit: int, offset: int = 0) -> int:
    return unit * ctx.memory_map.unit_capacity + offset


class TestColocate:
    def test_runs_at_main_elements_home(self):
        ctx = make_context()
        sched = ColocateScheduler(ctx)
        t = task_with_addrs(ctx, [unit_addr(ctx, 9), unit_addr(ctx, 80)])
        assert place(sched, t) == 9

    def test_hintless_task_stays_at_spawner(self):
        ctx = make_context()
        sched = ColocateScheduler(ctx)
        t = task_with_addrs(ctx, [], spawner=17)
        assert place(sched, t) == 17


class TestLowestDistance:
    def test_single_address_behaves_like_colocate(self):
        ctx = make_context()
        sched = LowestDistanceScheduler(ctx)
        t = task_with_addrs(ctx, [unit_addr(ctx, 42)])
        assert place(sched, t) == 42

    def test_picks_the_data_hosting_majority(self):
        """Three elements in unit 7, one far away: unit 7 wins."""
        ctx = make_context()
        sched = LowestDistanceScheduler(ctx)
        addrs = [unit_addr(ctx, 7, off) for off in (0, 64, 128)]
        addrs.append(unit_addr(ctx, 120))
        t = task_with_addrs(ctx, addrs)
        assert place(sched, t) == 7

    def test_candidates_restricted_to_data_homes(self):
        """The chosen unit always hosts at least one hint element."""
        ctx = make_context()
        sched = LowestDistanceScheduler(ctx)
        rng = np.random.default_rng(3)
        for _ in range(20):
            units = rng.integers(0, 128, size=8)
            t = task_with_addrs(ctx, [unit_addr(ctx, int(u)) for u in units])
            assert place(sched, t) in set(units.tolist())

    def test_near_tie_prefers_main_home(self):
        ctx = make_context()
        sched = LowestDistanceScheduler(ctx)
        stack_units = ctx.memory_map.topology.units_in_stack(0)
        a, b = int(stack_units[0]), int(stack_units[1])
        # Same stack: distances differ by <= d_intra, within tolerance.
        t = task_with_addrs(ctx, [unit_addr(ctx, a), unit_addr(ctx, b)])
        assert place(sched, t) == a


class TestHybrid:
    def test_reduces_to_distance_when_loads_equal(self):
        ctx = make_context()
        sched = HybridScheduler(ctx)
        t = task_with_addrs(ctx, [unit_addr(ctx, 3, off) for off in (0, 64)],
                            spawner=3)
        assert place(sched, t) == 3

    def test_avoids_heavily_loaded_unit(self):
        ctx = make_context()
        sched = HybridScheduler(ctx)
        # Load unit 3 massively; the snapshot must reflect it.
        for other in range(128):
            ctx.exchange.on_enqueue(other, 2000.0)
        ctx.exchange.on_enqueue(3, 100000.0)
        ctx.exchange.force_exchange(0.0)
        t = task_with_addrs(ctx, [unit_addr(ctx, 3)], spawner=3)
        chosen = place(sched, t)
        assert chosen != 3
        # ...but it stays nearby (same stack beats far idle units).
        assert unit_cost_matrix(ctx.interconnect)[3, chosen] <= 30.0

    def test_idle_unit_attracts_within_weight_budget(self):
        """An idle unit within B of the data location wins (Section 5.2's
        intuition for choosing B)."""
        ctx = make_context()
        sched = HybridScheduler(ctx)
        # Everyone loaded except unit 5; data at unit 4 (loaded).
        for u in range(128):
            ctx.exchange.on_enqueue(u, 0.0 if u == 5 else 5000.0)
        ctx.exchange.force_exchange(0.0)
        t = task_with_addrs(ctx, [unit_addr(ctx, 4)], spawner=4)
        chosen = place(sched, t)
        assert chosen == 5

    def test_deadband_keeps_balanced_tasks_local(self):
        """Noise-level load differences must not move local tasks
        (K-means stays flat across designs, Section 7.1)."""
        ctx = make_context()
        sched = HybridScheduler(ctx)
        rng = np.random.default_rng(0)
        for u in range(128):
            ctx.exchange.on_enqueue(u, 1000.0 + rng.uniform(-50, 50))
        ctx.exchange.force_exchange(0.0)
        t = task_with_addrs(ctx, [unit_addr(ctx, 77)], spawner=77)
        assert place(sched, t) == 77

    def test_camp_awareness_lowers_mem_cost(self):
        ctx = make_context(with_camps=True)
        plain = HybridScheduler(ctx, use_camps=False)
        campy = HybridScheduler(ctx, use_camps=True)
        t = task_with_addrs(ctx, [unit_addr(ctx, 100)], spawner=0)
        mem_plain = ctx.mem_cost_vector(t, use_camps=False)
        mem_campy = ctx.mem_cost_vector(t, use_camps=True)
        assert (mem_campy <= mem_plain + 1e-9).all()
        assert mem_campy.sum() < mem_plain.sum()

    def test_hintless_task_goes_to_idle_unit(self):
        ctx = make_context()
        sched = HybridScheduler(ctx)
        for u in range(128):
            ctx.exchange.on_enqueue(u, 10.0 if u == 60 else 1000.0)
        ctx.exchange.force_exchange(0.0)
        t = task_with_addrs(ctx, [], spawner=60)
        assert place(sched, t) == 60


class TestWorkloadEstimate:
    def test_workload_grows_with_distance(self):
        ctx = make_context()
        t = task_with_addrs(ctx, [unit_addr(ctx, 0)])
        near = ctx.task_workload(t, 0)
        far = ctx.task_workload(t, 127)
        assert far > near

    def test_programmer_value_overrides_estimate(self):
        ctx = make_context()
        t = Task(func=lambda c: None, timestamp=0,
                 hint=TaskHint(addresses=np.array([0]), workload=777.0))
        assert ctx.task_workload(t, 0) == 777.0
        assert ctx.task_workload(t, 127) == 777.0

    def test_hintless_task_costs_compute_only(self):
        ctx = make_context()
        t = task_with_addrs(ctx, [])
        t.compute_cycles = 99.0
        assert ctx.task_workload(t, 5) == 99.0

    def test_camp_aware_estimate_never_larger(self):
        ctx = make_context(with_camps=True)
        ctx_plain = make_context(with_camps=False)
        t = task_with_addrs(ctx, [unit_addr(ctx, 100)])
        for u in (0, 50, 127):
            assert ctx.task_workload(t, u) <= ctx_plain.task_workload(t, u) + 1e-9


class TestRebalanceByStealing:
    @staticmethod
    def flat_estimate(task, unit):
        return task.booked_workload

    def _mk(self, w):
        t = Task(func=lambda c: None, timestamp=0, hint=TaskHint.empty())
        t.booked_workload = w
        return t

    def test_moves_from_loaded_to_idle(self):
        heavy = [self._mk(100.0) for _ in range(10)]
        by_unit = [list(heavy), []]
        for t in heavy:
            t.assigned_unit = 0
        steals = rebalance_by_stealing(
            by_unit, self.flat_estimate, cores_per_unit=1, steal_overhead=0.0
        )
        assert steals > 0
        assert 3 <= len(by_unit[1]) <= 7
        for t in by_unit[1]:
            assert t.stolen and t.assigned_unit == 1

    def test_respects_overhead(self):
        """A huge steal overhead makes every move unprofitable."""
        by_unit = [[self._mk(10.0), self._mk(10.0)], []]
        steals = rebalance_by_stealing(
            by_unit, self.flat_estimate, 1, steal_overhead=1e9
        )
        assert steals == 0

    def test_skips_monster_tail_and_moves_other_victims(self):
        """An unmovable giant task must not stall the whole pass."""
        giant = self._mk(10_000.0)
        light = [self._mk(100.0) for _ in range(10)]
        by_unit = [[giant], list(light), []]
        steals = rebalance_by_stealing(
            by_unit, self.flat_estimate, 1, steal_overhead=0.0
        )
        assert steals > 0           # unit 1's tasks still rebalanced
        assert by_unit[0] == [giant]

    def test_single_unit_noop(self):
        by_unit = [[self._mk(5.0)]]
        assert rebalance_by_stealing(by_unit, self.flat_estimate, 1) == 0

    def test_on_move_callback_fires(self):
        moves = []
        by_unit = [[self._mk(10.0) for _ in range(6)], []]
        rebalance_by_stealing(
            by_unit, self.flat_estimate, 1, steal_overhead=0.0,
            on_move=lambda t, v, th, od, nd: moves.append((v, th)),
        )
        assert moves and all(m == (0, 1) for m in moves)

    def test_work_stealing_scheduler_flags(self):
        ctx = make_context()
        assert WorkStealingScheduler(ctx).uses_work_stealing
        assert not LowestDistanceScheduler(ctx).uses_work_stealing
        assert HybridScheduler(ctx).uses_window_rescheduling


class TestAliveMasking:
    """Fault-injection hardening: all policies honor the alive mask."""

    def _dead(self, ctx, *units):
        mask = np.ones(ctx.memory_map.topology.num_units, dtype=bool)
        for u in units:
            mask[u] = False
        ctx.alive_mask = mask
        return mask

    def test_context_defaults_to_all_alive(self):
        ctx = make_context()
        assert ctx.alive_mask is None
        assert ctx.is_alive(0) and ctx.is_alive(127)
        assert ctx.nearest_alive(42) == 42

    def test_nearest_alive_prefers_cheapest_survivor(self):
        ctx = make_context()
        self._dead(ctx, 5)
        repl = ctx.nearest_alive(5)
        assert repl != 5 and ctx.is_alive(repl)
        # the replacement is the cheapest alive unit by NoC cost
        costs = unit_cost_matrix(ctx.interconnect)[5]
        costs[5] = np.inf
        assert costs[repl] == costs.min()

    def test_nearest_alive_raises_when_all_dead(self):
        ctx = make_context()
        ctx.alive_mask = np.zeros(
            ctx.memory_map.topology.num_units, dtype=bool)
        with pytest.raises(RuntimeError, match="no alive"):
            ctx.nearest_alive(0)

    def test_colocate_avoids_dead_home(self):
        ctx = make_context()
        sched = ColocateScheduler(ctx)
        task = task_with_addrs(ctx, [unit_addr(ctx, 9)])
        assert place(sched, task) == 9
        self._dead(ctx, 9)
        chosen = place(sched, task)
        assert chosen != 9 and ctx.is_alive(chosen)

    def test_lowest_distance_skips_dead_candidates(self):
        ctx = make_context()
        sched = LowestDistanceScheduler(ctx)
        addrs = [unit_addr(ctx, 3), unit_addr(ctx, 4)]
        task = task_with_addrs(ctx, addrs, spawner=3)
        assert place(sched, task) in (3, 4)
        self._dead(ctx, 3)
        assert place(sched, task) == 4

    def test_lowest_distance_all_candidates_dead(self):
        ctx = make_context()
        sched = LowestDistanceScheduler(ctx)
        task = task_with_addrs(ctx, [unit_addr(ctx, 3), unit_addr(ctx, 4)])
        self._dead(ctx, 3, 4)
        chosen = place(sched, task)
        assert chosen not in (3, 4) and ctx.is_alive(chosen)

    def test_hybrid_never_picks_dead_unit(self):
        ctx = make_context()
        sched = HybridScheduler(ctx)
        task = task_with_addrs(ctx, [unit_addr(ctx, 7)], spawner=7)
        assert place(sched, task) == 7
        self._dead(ctx, 7)
        chosen = place(sched, task)
        assert chosen != 7 and ctx.is_alive(chosen)

    def test_fallback_on_empty_hint_respects_mask(self):
        ctx = make_context()
        sched = HybridScheduler(ctx)
        task = Task(func=lambda c: None, timestamp=0,
                    hint=TaskHint.empty(), spawner_unit=11)
        assert place(sched, task) == 11
        self._dead(ctx, 11)
        chosen = place(sched, task)
        assert chosen != 11 and ctx.is_alive(chosen)


class TestStealingEligibility:
    """Dead units neither donate to nor receive from the rebalancer."""

    @staticmethod
    def flat_estimate(task, unit):
        return task.booked_workload

    def _mk(self, w):
        t = Task(func=lambda c: None, timestamp=0, hint=TaskHint.empty())
        t.booked_workload = w
        return t

    def test_dead_idle_unit_receives_nothing(self):
        heavy = [self._mk(100.0) for _ in range(10)]
        by_unit = [list(heavy), [], []]
        eligible = np.array([True, False, True])
        steals = rebalance_by_stealing(
            by_unit, self.flat_estimate, 1, steal_overhead=0.0,
            eligible=eligible,
        )
        assert steals > 0
        assert by_unit[1] == []          # the dead unit stayed empty
        assert len(by_unit[2]) > 0

    def test_fewer_than_two_eligible_is_noop(self):
        by_unit = [[self._mk(100.0) for _ in range(6)], []]
        eligible = np.array([True, False])
        assert rebalance_by_stealing(
            by_unit, self.flat_estimate, 1, steal_overhead=0.0,
            eligible=eligible,
        ) == 0

    def test_none_eligible_matches_legacy_behavior(self):
        a = [[self._mk(100.0) for _ in range(10)], []]
        b = [list(a[0]), []]
        with_mask = rebalance_by_stealing(
            a, self.flat_estimate, 1, steal_overhead=0.0,
            eligible=np.array([True, True]),
        )
        without = rebalance_by_stealing(
            b, self.flat_estimate, 1, steal_overhead=0.0,
        )
        assert with_mask == without
        assert [len(q) for q in a] == [len(q) for q in b]


class TestBatchContract:
    """``choose_units_batch`` and ``task_workloads`` are the per-task
    reference decisions and estimates, computed for a whole batch at
    one frozen exchange snapshot, bit for bit, on a healthy machine and
    under an alive mask."""

    POLICIES = {
        "colocate": (False, lambda ctx: ColocateScheduler(ctx)),
        "lowest_distance": (False, lambda ctx: LowestDistanceScheduler(ctx)),
        "lowest_distance_camps": (
            True, lambda ctx: LowestDistanceScheduler(ctx)),
        "hybrid": (False, lambda ctx: HybridScheduler(ctx)),
        "hybrid_camps": (
            True, lambda ctx: HybridScheduler(ctx, use_camps=True)),
    }

    @staticmethod
    def skewed_context(with_camps: bool) -> SchedulerContext:
        # Thirds do not sum exactly in binary: a reduction taken in
        # another order than the per-task one changes the result.  They
        # go into the interconnect, which the home rows and the camp
        # mapper's tables both read.
        ctx = make_context(with_camps, NocConfig(intra_hop_ns=1.5 / 3.0,
                                                 inter_hop_ns=10.0 / 3.0))
        # A skewed snapshot, so the hybrid load term is live.
        for unit in range(0, ctx.num_units, 5):
            ctx.exchange.on_enqueue(unit, 4000.0 + 37.0 * unit)
        ctx.exchange.force_exchange()
        return ctx

    @staticmethod
    def tasks(ctx, seed: int = 7, n: int = 48):
        """Hint-less tasks, one hint object shared by several tasks,
        and hints of 1-3 and 8-20 distinct lines (NumPy's pairwise
        summation only departs from a running sum from 8 terms on)."""
        rng = np.random.default_rng(seed)
        line = ctx.memory_map.line_bytes

        def hint(lines: int) -> TaskHint:
            units = rng.integers(0, ctx.num_units, lines)
            offsets = rng.choice(1 << 12, lines, replace=False) * line
            return TaskHint(addresses=units * ctx.memory_map.unit_capacity
                            + offsets)

        shared = hint(9)
        out = []
        for i in range(n):
            kind = i % 4
            if kind == 0:
                h = TaskHint.empty()
            elif kind == 1:
                h = shared
            elif kind == 2:
                h = hint(int(rng.integers(1, 4)))
            else:
                h = hint(int(rng.integers(8, 21)))
            out.append(Task(func=lambda c: None, timestamp=0, hint=h,
                            spawner_unit=int(rng.integers(0, ctx.num_units)),
                            compute_cycles=float(rng.integers(50, 500))))
        return out

    @pytest.mark.parametrize("prepared", [False, True])
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_batch_equals_per_task(self, policy, prepared):
        camps, make = self.POLICIES[policy]
        # Separate contexts and task objects: neither side may read a
        # memo the other one wrote.
        ctx_a, ctx_b = self.skewed_context(camps), self.skewed_context(camps)
        tasks_a, tasks_b = self.tasks(ctx_a), self.tasks(ctx_b)
        sched_a, sched_b = make(ctx_a), make(ctx_b)
        if prepared:
            ctx_b.prepare_hints(tasks_b)
        batch = sched_b.choose_units_batch(tasks_b)
        assert batch == [reference_unit(sched_a, t) for t in tasks_a]
        assert all(type(u) is int for u in batch)
        per_task = [ctx_a.task_workload(t, u)
                    for t, u in zip(tasks_a, batch)]
        assert ctx_b.task_workloads(tasks_b, batch) == per_task

    @pytest.mark.parametrize("camps", [False, True])
    def test_prepared_memos_match_per_task(self, camps):
        """prepare_hints fills the hint memos the per-task path fills."""
        ctx_a, ctx_b = self.skewed_context(camps), self.skewed_context(camps)
        tasks_a, tasks_b = self.tasks(ctx_a), self.tasks(ctx_b)
        ctx_b.prepare_hints(tasks_b)
        for ta, tb in zip(tasks_a, tasks_b):
            assert np.array_equal(ctx_a.hint_lines(ta), tb.hint._lines)
            assert ctx_a.hint_lines_list(ta) == tb.hint._lines_list
            assert np.array_equal(ctx_a.hint_homes(ta), tb.hint._homes)
            if camps and ta.hint.num_addresses:
                assert np.array_equal(ctx_a._camp_access_row(ta),
                                      tb.hint._crow[1])

    @staticmethod
    def alive_mask(ctx, tasks) -> np.ndarray:
        """Every fifth unit dead, plus every home of one task's hint
        (the all-homes-dead fallback) and one task's spawner."""
        alive = np.ones(ctx.num_units, dtype=bool)
        alive[::5] = False
        alive[ctx.hint_homes(tasks[2])] = False
        alive[tasks[4].spawner_unit] = False
        return alive

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_batch_under_alive_mask(self, policy):
        """Around dead units too the batch is the reference, and never
        a dead unit; with telemetry on it picks the same units and
        carries the reference's decision terms."""
        from repro.telemetry import Telemetry

        camps, make = self.POLICIES[policy]
        ctx_a, ctx_b = self.skewed_context(camps), self.skewed_context(camps)
        tasks_a, tasks_b = self.tasks(ctx_a), self.tasks(ctx_b)
        sched_a, sched_b = make(ctx_a), make(ctx_b)
        # Decide once healthy first: a memo written then must not leak
        # into the decisions under the mask.
        healthy = sched_b.choose_units_batch(tasks_b)
        ctx_a.alive_mask = ctx_b.alive_mask = self.alive_mask(ctx_a, tasks_a)
        reference = [reference_decision(sched_a, t) for t in tasks_a]
        batch = sched_b.choose_units_batch(tasks_b)
        assert batch == [unit for unit, _ in reference]
        assert batch != healthy
        assert all(type(u) is int and ctx_b.alive_mask[u] for u in batch)
        sched_b.telemetry = Telemetry()
        assert sched_b.choose_units_batch(tasks_b) == batch
        assert sched_b.decision_terms == [terms for _, terms in reference]

    def test_hybrid_spawner_cut_off_from_near_units(self):
        """A spawner at infinite distance from every near unit (a mesh
        partition) still gets a near unit: the lowest id, as in the
        reference."""
        ctx = make_context()
        noc = ctx.interconnect
        cols = noc.topology.config.mesh_cols
        spawner = int(noc.topology.units_in_stack(0)[0])
        # Cut stack 0 off: its units reach no other stack.
        noc.set_link_faults([(0, 1), (0, cols)])
        ctx.cost_epoch += 1
        sched = HybridScheduler(ctx)
        task = task_with_addrs(ctx, [unit_addr(ctx, 77)], spawner=spawner)
        [unit] = sched.choose_units_batch([task])
        assert unit == reference_unit(sched, task)
        cost = unit_cost_matrix(noc)
        assert np.isinf(cost[spawner, unit])
        assert cost[unit, 77] <= sched.tie_tolerance_ns

    def test_base_scheduler_requires_batch(self):
        """``choose_units_batch`` is the one placement decision: a policy
        without it cannot be instantiated."""
        class NoPlacement(Scheduler):
            pass

        with pytest.raises(TypeError, match="choose_units_batch"):
            NoPlacement(self.skewed_context(False))
