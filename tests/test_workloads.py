"""Workload correctness: every application's simulated answer matches
an independent reference implementation, on multiple designs.

These are the strongest integration tests in the suite: they exercise
the allocator, the schedulers, the caches, the executor and the task
bodies end to end — any misordering of phases, lost task, or stale
double-buffer shows up as a wrong answer.
"""

import json

import numpy as np
import pytest

import repro
from repro.config import experiment_config
from repro.workloads.astar import AStarWorkload
from repro.workloads.bfs import BfsWorkload
from repro.workloads.gcn import GcnWorkload
from repro.workloads.kmeans import KMeansWorkload
from repro.workloads.knn import KnnWorkload, build_kdtree, kd_search
from repro.workloads.pagerank import PageRankWorkload
from repro.workloads.spmv import SpmvWorkload
from repro.workloads.sssp import SsspWorkload

SMALL = dict(
    pr=lambda: PageRankWorkload(num_vertices=512, iterations=3),
    bfs=lambda: BfsWorkload(num_vertices=512),
    sssp=lambda: SsspWorkload(num_vertices=512),
    astar=lambda: AStarWorkload(rows=32, cols=32),
    gcn=lambda: GcnWorkload(num_vertices=512, feature_dim=8),
    kmeans=lambda: KMeansWorkload(num_points=512, iterations=2),
    knn=lambda: KnnWorkload(num_points=512, num_queries=64),
    spmv=lambda: SpmvWorkload(rows=512, iterations=2),
)


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("design", ["B", "O"])
def test_workload_correct_on_design(name, design):
    """The headline designs compute the right answer for everything."""
    wl = SMALL[name]()
    repro.simulate(design, wl, verify=True)


@pytest.mark.parametrize("design", ["Sm", "Sl", "Sh", "C"])
def test_pagerank_correct_on_every_design(design):
    """Scheduling policy and caching never change the computation."""
    repro.simulate(design, SMALL["pr"](), verify=True)


@pytest.mark.parametrize("name", ["knn", "spmv", "sssp"])
@pytest.mark.parametrize("design", ["Sl", "C"])
def test_hot_data_workloads_on_more_designs(name, design):
    repro.simulate(design, SMALL[name](), verify=True)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_workloads_on_small_machine(name):
    """Correctness is machine-shape independent (2x2 mesh)."""
    from repro.config import experiment_config

    cfg = experiment_config().scaled(2, 2)
    repro.simulate("O", SMALL[name](), cfg, verify=True)


class TestWorkloadShapes:
    def test_pagerank_task_count(self):
        wl = SMALL["pr"]()
        r = repro.simulate("B", wl)
        assert r.tasks_executed == 512 * 3
        assert r.timestamps_executed == 3

    def test_bfs_visits_component_once(self):
        wl = SMALL["bfs"]()
        r = repro.simulate("B", wl)
        reachable = (wl.reference_distances() >= 0).sum()
        assert r.tasks_executed == reachable

    def test_kmeans_tasks_all_local(self):
        wl = SMALL["kmeans"]()
        r = repro.simulate("B", wl)
        assert r.traffic.inter_hops == 0
        assert r.traffic.intra_transfers == 0

    def test_knn_hint_matches_search_path(self):
        """The hint lists exactly the nodes/points the search visits."""
        wl = SMALL["knn"]()
        system = repro.build_system("B", experiment_config())
        state = wl.setup(system)
        tasks = wl.root_tasks(state)
        q = 0
        _, _, visited, scanned = kd_search(state.tree, state.queries[q],
                                           state.k)
        expected = 1 + len(visited) + len(scanned)
        assert tasks[q].hint.num_addresses == expected

    def test_spmv_hint_covers_row_and_vector(self):
        wl = SMALL["spmv"]()
        system = repro.build_system("B", experiment_config())
        state = wl.setup(system)
        tasks = wl.root_tasks(state)
        cols, _ = state.matrix.row_slice(0)
        assert tasks[0].hint.num_addresses >= len(cols) + 1

    def test_gcn_runs_one_phase_per_layer(self):
        wl = SMALL["gcn"]()
        r = repro.simulate("B", wl)
        assert r.timestamps_executed == wl.num_layers

    def test_astar_stops_when_goal_settled(self):
        wl = SMALL["astar"]()
        r = repro.simulate("B", wl)
        # Far fewer waves than the worst-case bound.
        assert r.timestamps_executed < wl.max_rounds


def _neighbors_hint(state, v):
    """The per-task vertex hint pr, sssp and cc built before hints
    were shared per element: own record, then the neighbors'."""
    neigh = state.graph.neighbors(v)
    out = np.empty(neigh.shape[0] + 1, dtype=np.int64)
    out[0] = state.addresses[v]
    out[1:] = state.addresses[neigh]
    return out


def _gcn_hint(state, v, lines_per_row):
    """The per-task gcn hint: every line of the feature rows of ``v``
    and of its neighbors, ``v`` first."""
    members = np.concatenate(([v], state.graph.neighbors(v))).astype(np.int64)
    base = state.addresses[members]
    offs = 64 * np.arange(lines_per_row, dtype=np.int64)
    return (base[:, None] + offs[None, :]).reshape(-1)


def _spmv_hint(state, i):
    """The per-task spmv hint: the row's segment lines, then its
    vector entries."""
    cols, _ = state.matrix.row_slice(i)
    return np.concatenate((state.row_lines[i], state.vec_addrs[cols]))


#: name -> (small instance with repeat visits, reference hint builder)
REVISITING = {
    "pr": (lambda: PageRankWorkload(num_vertices=256, iterations=3),
           _neighbors_hint),
    "sssp": (lambda: SsspWorkload(num_vertices=256, max_rounds=8),
             _neighbors_hint),
    "cc": (lambda: repro.make_workload("cc", num_vertices=256),
           _neighbors_hint),
    "gcn": (lambda: GcnWorkload(num_vertices=128, feature_dim=32),
            lambda state, v: _gcn_hint(state, v, lines_per_row=2)),
    "kmeans": (lambda: KMeansWorkload(num_points=256, iterations=3),
               lambda state, i: np.array([state.addresses[i]])),
    "spmv": (lambda: SpmvWorkload(rows=128, iterations=3), _spmv_hint),
}


class TestElementHints:
    """Workloads that run an element more than once give all of its
    tasks one shared hint object, so the scheduler's and the access
    kernel's per-hint memos are filled once per element per run."""

    @pytest.mark.parametrize("name", sorted(REVISITING))
    def test_one_hint_object_per_element(self, name, monkeypatch):
        from repro.runtime.task import TaskContext

        make, reference = REVISITING[name]
        wl = make()
        seen = []
        states = []
        setup, root_tasks = wl.setup, wl.root_tasks

        def recording_setup(system):
            states.append(setup(system))
            return states[-1]

        def recording_roots(state):
            roots = root_tasks(state)
            seen.extend(roots)
            return roots

        enqueue = TaskContext.enqueue_task

        def recording_enqueue(self, *args, **kwargs):
            task = enqueue(self, *args, **kwargs)
            seen.append(task)
            return task

        monkeypatch.setattr(wl, "setup", recording_setup)
        monkeypatch.setattr(wl, "root_tasks", recording_roots)
        monkeypatch.setattr(TaskContext, "enqueue_task", recording_enqueue)
        repro.simulate("O", wl, experiment_config().scaled(2, 2),
                       verify=True)

        by_element = {}
        for task in seen:
            by_element.setdefault(task.args[0], []).append(task.hint)
        assert len(seen) > len(by_element)  # elements do run again
        (state,) = states
        for element, hints in by_element.items():
            assert all(hint is hints[0] for hint in hints), element
            want = reference(state, element)
            assert hints[0].addresses.dtype == np.int64
            assert np.array_equal(hints[0].addresses, want), element

    @pytest.mark.parametrize("name", sorted(REVISITING))
    def test_hints_do_not_outlive_a_run(self, name):
        """Hint memos keyed on the scheduler's cost epoch (which
        restarts at 0 on every machine) must never carry over, and
        neither may the access kernel's memo stamps (the camp mapper's
        token and epoch, which a mid-run unit failure moves on): one
        instance run on several machines in a row gives exactly the
        results of fresh instances."""
        from repro.faults import FaultEvent, FaultKind, FaultSchedule
        from repro.sweep.serialize import result_to_dict

        make, _ = REVISITING[name]
        base = experiment_config()
        remap = FaultSchedule(events=(
            FaultEvent(FaultKind.UNIT_FAIL, unit=5, at_timestamp=1),))
        points = [("B", base.scaled(4, 4), None),
                  ("B", base.scaled(8, 8), None),
                  ("Sh", base.scaled(4, 4), None),
                  ("C", base.scaled(4, 4), None),
                  ("O", base.scaled(4, 4), None),
                  ("O", base.scaled(4, 4), remap)]
        reused = make()
        for design, cfg, faults in points:
            again = result_to_dict(repro.simulate(
                design, reused, cfg, fault_schedule=faults))
            fresh = result_to_dict(repro.simulate(
                design, make(), cfg, fault_schedule=faults))
            assert json.dumps(again, sort_keys=True) == \
                json.dumps(fresh, sort_keys=True), (design, cfg.topology)


class TestKdTree:
    def test_leaves_partition_points(self):
        pts = np.random.default_rng(0).normal(size=(300, 3))
        tree = build_kdtree(pts, leaf_size=16)
        members = []
        for node in range(tree.num_nodes):
            if tree.is_leaf(node):
                members.extend(tree.leaf_members(node).tolist())
        assert sorted(members) == list(range(300))

    def test_leaf_size_respected(self):
        pts = np.random.default_rng(1).normal(size=(200, 2))
        tree = build_kdtree(pts, leaf_size=10)
        for node in range(tree.num_nodes):
            if tree.is_leaf(node):
                assert tree.leaf_count[node] <= 10

    def test_search_matches_bruteforce(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(256, 4))
        tree = build_kdtree(pts, leaf_size=8)
        for _ in range(20):
            q = rng.normal(size=4)
            idx, dists, _, _ = kd_search(tree, q, k=3)
            brute = np.argsort(((pts - q) ** 2).sum(axis=1))[:3]
            d_found = np.sort(((pts[idx] - q) ** 2).sum(axis=1))
            d_true = np.sort(((pts[brute] - q) ** 2).sum(axis=1))
            assert np.allclose(d_found, d_true)

    def test_search_path_contains_root_and_a_leaf(self):
        pts = np.random.default_rng(3).normal(size=(128, 2))
        tree = build_kdtree(pts, leaf_size=8)
        _, _, visited, scanned = kd_search(tree, np.zeros(2), k=1)
        assert visited[0] == 0
        assert any(tree.is_leaf(n) for n in visited)
        assert scanned


class TestWorkloadRegistry:
    def test_all_registered(self):
        assert set(repro.ALL_WORKLOADS) <= set(repro.WORKLOAD_FACTORIES)

    def test_make_workload_unknown(self):
        with pytest.raises(KeyError):
            repro.make_workload("sorting-networks")

    def test_make_workload_kwargs(self):
        wl = repro.make_workload("pr", num_vertices=300, iterations=2)
        assert wl.graph.num_vertices == 300
        assert wl.iterations == 2
