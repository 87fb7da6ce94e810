"""Unit tests for the task model and the workload exchange."""

import numpy as np
import pytest

from repro.arch.topology import Topology
from repro.config import TopologyConfig
from repro.runtime.task import Task, TaskContext, TaskHint
from repro.runtime.workload_exchange import WorkloadExchange


def make_task(ts=0, addrs=(0, 64), workload=None, **kw) -> Task:
    return Task(
        func=lambda ctx: None,
        timestamp=ts,
        hint=TaskHint(addresses=np.array(addrs, dtype=np.int64),
                      workload=workload),
        **kw,
    )


class TestTaskHint:
    def test_addresses_coerced_to_int64(self):
        hint = TaskHint(addresses=[1, 2, 3])
        assert hint.addresses.dtype == np.int64
        assert hint.num_addresses == 3

    def test_empty(self):
        assert TaskHint.empty().num_addresses == 0


class TestTask:
    def test_ids_unique(self):
        assert make_task().task_id != make_task().task_id

    def test_instructions_track_compute(self):
        t = make_task(compute_cycles=77.0)
        assert t.instructions == 77.0


class TestTaskContext:
    def test_enqueue_collects_children(self):
        ctx = TaskContext(current_unit=5, timestamp=2)
        child = ctx.enqueue_task(lambda c: None, 3, TaskHint.empty(), 42)
        assert child.spawner_unit == 5
        assert child.timestamp == 3
        assert child.args == (42,)
        assert ctx.drain_spawned() == [child]
        assert ctx.drain_spawned() == []

    def test_rejects_backward_timestamps(self):
        ctx = TaskContext(current_unit=0, timestamp=5)
        with pytest.raises(ValueError):
            ctx.enqueue_task(lambda c: None, 4, TaskHint.empty())


class TestWorkloadExchange:
    @pytest.fixture
    def exchange(self) -> WorkloadExchange:
        topo = Topology(TopologyConfig(2, 2, 4), num_groups=1)
        return WorkloadExchange(topo, interval_cycles=100.0)

    def test_true_counters_track_enqueue_dequeue(self, exchange):
        exchange.on_enqueue(3, 10.0)
        exchange.on_enqueue(3, 5.0)
        exchange.on_dequeue(3, 10.0)
        assert exchange.true_workloads[3] == 5.0

    def test_dequeue_clamped_at_zero(self, exchange):
        exchange.on_dequeue(0, 99.0)
        assert exchange.true_workloads[0] == 0.0

    def test_snapshot_stale_until_boundary(self, exchange):
        exchange.on_enqueue(1, 42.0)
        assert exchange.snapshot[1] == 0.0
        assert not exchange.advance(50.0)     # before the interval
        assert exchange.snapshot[1] == 0.0
        assert exchange.advance(100.0)        # boundary crossed
        assert exchange.snapshot[1] == 42.0

    def test_visible_is_snapshot_for_everyone(self, exchange):
        exchange.force_exchange(0.0)
        exchange.on_enqueue(2, 7.0)
        # Post-snapshot arrivals are invisible to every observer alike
        # (asymmetric freshness would bias the comparison; see the
        # visible_workloads docstring).
        assert exchange.visible_workloads(5)[2] == 0.0
        assert exchange.visible_workloads(6)[2] == 0.0

    def test_visible_is_symmetric_in_staleness(self, exchange):
        # Arrivals stay invisible until the next exchange -- for the
        # observer's own queue too (no freshness bias).
        exchange.on_enqueue(4, 9.0)
        assert exchange.visible_workloads(4)[4] == 0.0
        exchange.force_exchange(0.0)
        assert exchange.visible_workloads(4)[4] == 9.0

    def test_visible_view_is_read_only(self, exchange):
        exchange.force_exchange(0.0)
        import pytest as _pytest
        with _pytest.raises(ValueError):
            exchange.visible_workloads(0)[0] = 1.0

    def test_dequeues_visible_only_after_refresh(self, exchange):
        exchange.on_enqueue(2, 7.0)
        exchange.advance(200.0)
        assert exchange.visible_workloads(5)[2] == 7.0
        exchange.on_dequeue(2, 7.0)
        assert exchange.visible_workloads(6)[2] == 7.0  # stale until next
        exchange.advance(400.0)
        assert exchange.visible_workloads(6)[2] == 0.0

    def test_exchange_message_accounting(self, exchange):
        before = exchange.stats.rounds
        exchange.force_exchange(0.0)
        assert exchange.stats.rounds == before + 1
        assert exchange.stats.intra_messages > 0
        assert exchange.stats.inter_messages > 0

    def test_move(self, exchange):
        exchange.on_enqueue(0, 10.0)
        exchange.move(0, 1, 10.0)
        assert exchange.true_workloads[0] == 0.0
        assert exchange.true_workloads[1] == 10.0

    def test_reset(self, exchange):
        exchange.on_enqueue(0, 10.0)
        exchange.force_exchange(0.0)
        exchange.reset()
        assert exchange.true_workloads.sum() == 0
        assert exchange.snapshot.sum() == 0

    def test_rejects_bad_interval(self):
        topo = Topology(TopologyConfig(2, 2, 4), num_groups=1)
        with pytest.raises(ValueError):
            WorkloadExchange(topo, 0)
