"""K-nearest-neighbors over a KD-tree, in the task model.

The dataset points are organised into a KD-tree whose *node records*
and *point records* are primary data spread across the NDP units.  One
task per query performs the standard best-first KD search (descend to
the query's leaf, backtrack into subtrees whose slab may contain a
closer point, linear-scan leaf buckets).  The task hint lists exactly
the node and point records the search will touch — obtained from the
same deterministic search the task body runs.

Queries are drawn with a *skewed* cluster distribution (Section 6:
"because of the skewed distribution in our synthetic dataset, the
workload is highly imbalanced"): most queries land in a few hot
subtrees, whose home units become hotspots under data-location-only
scheduling, while the tree traversal generates significant remote
traffic — the combination that makes knn the most design-sensitive
workload in Figure 6.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.runtime.task import Task, TaskHint
from repro.workloads.base import Workload, register_workload
from repro.workloads.datasets import PointSet, clustered_points, zipf_choices

_BASE_CYCLES = 40.0
_PER_NODE_CYCLES = 6.0
_PER_POINT_CYCLES = 4.0


@dataclass
class KdTree:
    """Array-of-structs KD-tree with bucket leaves."""

    points: np.ndarray          # (n, d)
    axis: np.ndarray            # (nodes,) split axis, -1 for leaves
    thresh: np.ndarray          # (nodes,) split value
    left: np.ndarray            # (nodes,) child ids, -1 for leaves
    right: np.ndarray
    leaf_start: np.ndarray      # (nodes,) slice into leaf_points
    leaf_count: np.ndarray
    leaf_points: np.ndarray     # point indices, grouped per leaf

    @property
    def num_nodes(self) -> int:
        return len(self.axis)

    def is_leaf(self, node: int) -> bool:
        return self.axis[node] < 0

    def leaf_members(self, node: int) -> np.ndarray:
        lo = self.leaf_start[node]
        return self.leaf_points[lo:lo + self.leaf_count[node]]


def build_kdtree(points: np.ndarray, leaf_size: int = 32) -> KdTree:
    """Median-split KD-tree over ``points``."""
    n, dim = points.shape
    axis: List[int] = []
    thresh: List[float] = []
    left: List[int] = []
    right: List[int] = []
    leaf_start: List[int] = []
    leaf_count: List[int] = []
    leaf_points: List[int] = []

    def new_node() -> int:
        axis.append(-1)
        thresh.append(0.0)
        left.append(-1)
        right.append(-1)
        leaf_start.append(-1)
        leaf_count.append(0)
        return len(axis) - 1

    def build(idx: np.ndarray, depth: int) -> int:
        node = new_node()
        if len(idx) <= leaf_size:
            leaf_start[node] = len(leaf_points)
            leaf_count[node] = len(idx)
            leaf_points.extend(int(i) for i in idx)
            return node
        ax = depth % dim
        vals = points[idx, ax]
        order = np.argsort(vals, kind="stable")
        mid = len(idx) // 2
        axis[node] = ax
        thresh[node] = float(vals[order[mid]])
        left_idx = idx[order[:mid]]
        right_idx = idx[order[mid:]]
        left[node] = build(left_idx, depth + 1)
        right[node] = build(right_idx, depth + 1)
        return node

    build(np.arange(n), 0)
    return KdTree(
        points=points,
        axis=np.asarray(axis, dtype=np.int64),
        thresh=np.asarray(thresh),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        leaf_start=np.asarray(leaf_start, dtype=np.int64),
        leaf_count=np.asarray(leaf_count, dtype=np.int64),
        leaf_points=np.asarray(leaf_points, dtype=np.int64),
    )


def kd_search(
    tree: KdTree, query: np.ndarray, k: int = 1
) -> Tuple[np.ndarray, np.ndarray, List[int], List[int]]:
    """k-NN search returning (indices, dists, visited nodes, scanned pts)."""
    best_d: List[float] = []
    best_i: List[int] = []
    visited: List[int] = []
    scanned: List[int] = []

    def worst() -> float:
        return best_d[-1] if len(best_d) >= k else np.inf

    def consider(i: int, d: float) -> None:
        pos = bisect_left(best_d, d)
        best_d.insert(pos, d)
        best_i.insert(pos, i)
        if len(best_d) > k:
            best_d.pop()
            best_i.pop()

    def recurse(node: int) -> None:
        visited.append(node)
        if tree.is_leaf(node):
            # One row-wise reduction per leaf: each row sums its d
            # terms exactly as the per-point ``.sum()`` would, so the
            # distances (and every tie) are bit-identical.
            members = tree.leaf_members(node).tolist()
            dists = ((tree.points[members] - query) ** 2).sum(axis=1)
            scanned.extend(members)
            for i, d in zip(members, dists.tolist()):
                if d < worst():
                    consider(i, d)
            return
        ax = tree.axis[node]
        diff = float(query[ax] - tree.thresh[node])
        near, far = (
            (tree.left[node], tree.right[node])
            if diff < 0
            else (tree.right[node], tree.left[node])
        )
        recurse(int(near))
        if diff * diff < worst():
            recurse(int(far))

    recurse(0)
    return (
        np.asarray(best_i, dtype=np.int64),
        np.sqrt(np.asarray(best_d)),
        visited,
        scanned,
    )


@dataclass
class KnnState:
    tree: KdTree
    queries: np.ndarray
    node_addrs: np.ndarray
    point_addrs: np.ndarray
    query_addrs: np.ndarray
    results: np.ndarray       # (q, k) neighbor indices
    k: int
    home_of_query: np.ndarray
    #: memoized per-query search (set by KnnWorkload.setup; None keeps
    #: the direct kd_search path for hand-built states).
    search: Optional[object] = None


def _task_knn(ctx, q: int) -> None:
    st: KnnState = ctx.state
    if st.search is not None:
        idx = st.search(q)[0]
    else:
        idx, _, _, _ = kd_search(st.tree, st.queries[q], st.k)
    st.results[q, : len(idx)] = idx


@register_workload("knn")
class KnnWorkload(Workload):
    """Skewed-query KNN over a KD-tree."""

    def __init__(
        self,
        num_points: int = 4096,
        num_queries: int = 768,
        dim: int = 4,
        k: int = 4,
        clusters: int = 8,
        query_skew: float = 1.2,
        leaf_size: int = 32,
        seed: int = 41,
        dataset: Optional[PointSet] = None,
    ):
        self.dataset = dataset if dataset is not None else clustered_points(
            num_points, dim, clusters, cluster_skew=0.6, seed=seed
        )
        self.k = min(k, self.dataset.count)
        self.leaf_size = leaf_size
        self.tree = build_kdtree(self.dataset.points, leaf_size=leaf_size)
        rng = np.random.default_rng(seed + 1)
        # Skewed queries: most probe a few hot clusters.
        hot = zipf_choices(clusters, num_queries, query_skew, rng)
        centers = self.dataset.centers[hot]
        self.queries = centers + rng.normal(0.0, 0.8, size=centers.shape)
        # Per-query search memo: the search is a pure function of
        # (tree, queries, k), all frozen at construction, so the hint
        # pass and the task body share one traversal per query — and a
        # workload instance reused across sweep points (warm runtime)
        # never re-searches at all.
        self._searches: dict = {}

    def _search(self, q: int) -> Tuple[np.ndarray, np.ndarray,
                                       List[int], List[int]]:
        hit = self._searches.get(q)
        if hit is None:
            hit = kd_search(self.tree, self.queries[q], self.k)
            self._searches[q] = hit
        return hit

    def setup(self, system) -> KnnState:
        tree = self.tree
        alloc = system.allocator()
        nodes = alloc.alloc("knn_nodes", tree.num_nodes, elem_bytes=64, layout=self.layout)
        points = alloc.alloc("knn_points", len(tree.points), elem_bytes=64, layout=self.layout)
        queries = alloc.alloc("knn_queries", len(self.queries), elem_bytes=64)
        return KnnState(
            tree=tree,
            queries=self.queries,
            node_addrs=nodes.addresses,
            point_addrs=points.addresses,
            query_addrs=queries.addresses,
            results=np.full((len(self.queries), self.k), -1, dtype=np.int64),
            k=self.k,
            home_of_query=system.memory_map.home_units(queries.addresses),
            search=self._search,
        )

    def root_tasks(self, state: KnnState) -> List[Task]:
        tasks = []
        for q in range(len(state.queries)):
            _, _, visited, scanned = self._search(q)
            addrs = np.concatenate(
                (
                    [state.query_addrs[q]],
                    state.node_addrs[np.asarray(visited, dtype=np.int64)],
                    state.point_addrs[np.asarray(scanned, dtype=np.int64)],
                )
            )
            tasks.append(
                Task(
                    func=_task_knn,
                    timestamp=0,
                    hint=TaskHint(addresses=addrs),
                    args=(q,),
                    compute_cycles=(
                        _BASE_CYCLES
                        + _PER_NODE_CYCLES * len(visited)
                        + _PER_POINT_CYCLES * len(scanned)
                    ),
                    spawner_unit=int(state.home_of_query[q]),
                )
            )
        return tasks

    # ------------------------------------------------------------------
    def reference_neighbors(self, q: int) -> np.ndarray:
        d2 = ((self.dataset.points - self.queries[q]) ** 2).sum(axis=1)
        return np.argsort(d2, kind="stable")[: self.k]

    def verify(self, state: KnnState) -> None:
        """Brute-force check on a deterministic sample of queries."""
        sample = range(0, len(self.queries), max(1, len(self.queries) // 64))
        pts = self.dataset.points
        for q in sample:
            got = state.results[q]
            expected = self.reference_neighbors(q)
            d_got = np.sort(((pts[got] - self.queries[q]) ** 2).sum(axis=1))
            d_exp = np.sort(((pts[expected] - self.queries[q]) ** 2).sum(axis=1))
            if not np.allclose(d_got, d_exp, atol=1e-9):
                raise AssertionError(f"KNN result wrong for query {q}")
