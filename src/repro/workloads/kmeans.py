"""K-means clustering in the task model.

One task per point per iteration: the task reads its own (unit-local)
point record, scans the K centroids — small, replicated on every unit,
hence auxiliary data outside the hint — and records its assignment and
partial sum.  Centroids are recomputed in bulk at the barrier.

Tasks are fully independent and touch only local data, so K-means shows
essentially no difference across the Table 2 designs — the paper calls
this out explicitly, and it is a useful null-result workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.runtime.task import Task, TaskHint
from repro.workloads.base import ElementHints, Workload, register_workload
from repro.workloads.datasets import PointSet, clustered_points

_BASE_CYCLES = 30.0
_PER_CENTROID_CYCLES = 8.0


@dataclass
class KMeansState:
    points: np.ndarray
    addresses: np.ndarray
    centroids: np.ndarray
    assignments: np.ndarray
    sums: np.ndarray          # (k, d) partial sums accumulated this pass
    counts: np.ndarray        # (k,)
    max_iters: int
    home_of: np.ndarray
    hints: ElementHints       # one TaskHint per point for the run


def _task_kmeans(ctx, i: int) -> None:
    st: KMeansState = ctx.state
    p = st.points[i]
    d2 = ((st.centroids - p) ** 2).sum(axis=1)
    c = int(np.argmin(d2))
    st.assignments[i] = c
    st.sums[c] += p
    st.counts[c] += 1

    if ctx.timestamp + 1 < st.max_iters:
        ctx.enqueue_task(
            _task_kmeans,
            ctx.timestamp + 1,
            st.hints[i],
            i,
            compute_cycles=_BASE_CYCLES + _PER_CENTROID_CYCLES * len(st.centroids),
        )


@register_workload("kmeans")
class KMeansWorkload(Workload):
    """Lloyd's algorithm on a balanced Gaussian-mixture point set."""

    def __init__(
        self,
        num_points: int = 4096,
        dim: int = 4,
        clusters: int = 8,
        iterations: int = 3,
        seed: int = 37,
        dataset: Optional[PointSet] = None,
    ):
        self.dataset = dataset if dataset is not None else clustered_points(
            num_points, dim, clusters, cluster_skew=0.0, seed=seed
        )
        self.clusters = clusters
        self.iterations = iterations
        rng = np.random.default_rng(seed + 1)
        picks = rng.choice(self.dataset.count, size=clusters, replace=False)
        self.init_centroids = self.dataset.points[picks].copy()

    def setup(self, system) -> KMeansState:
        ds = self.dataset
        alloc = system.allocator()
        region = alloc.alloc("kmeans_points", ds.count, elem_bytes=64, layout=self.layout)
        k, d = self.init_centroids.shape
        addresses = region.addresses
        return KMeansState(
            points=ds.points,
            addresses=addresses,
            centroids=self.init_centroids.copy(),
            assignments=np.full(ds.count, -1, dtype=np.int64),
            sums=np.zeros((k, d)),
            counts=np.zeros(k, dtype=np.int64),
            max_iters=self.iterations,
            home_of=system.memory_map.home_units(addresses),
            hints=ElementHints(
                ds.count,
                lambda i: TaskHint(addresses=np.array([addresses[i]])),
            ),
        )

    def root_tasks(self, state: KMeansState) -> List[Task]:
        tasks = []
        for i in range(len(state.points)):
            tasks.append(
                Task(
                    func=_task_kmeans,
                    timestamp=0,
                    hint=state.hints[i],
                    args=(i,),
                    compute_cycles=(
                        _BASE_CYCLES + _PER_CENTROID_CYCLES * self.clusters
                    ),
                    spawner_unit=int(state.home_of[i]),
                )
            )
        return tasks

    def on_barrier(self, timestamp: int, state: KMeansState) -> None:
        """Recompute centroids from the pass's partial sums."""
        for c in range(len(state.centroids)):
            if state.counts[c] > 0:
                state.centroids[c] = state.sums[c] / state.counts[c]
        state.sums[:] = 0.0
        state.counts[:] = 0

    # ------------------------------------------------------------------
    def reference_assignments(self) -> np.ndarray:
        """Vectorised Lloyd iterations for verification."""
        pts = self.dataset.points
        centroids = self.init_centroids.copy()
        assignments = None
        for _ in range(self.iterations):
            d2 = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            assignments = np.argmin(d2, axis=1)
            for c in range(len(centroids)):
                members = pts[assignments == c]
                if len(members):
                    centroids[c] = members.mean(axis=0)
        return assignments

    def verify(self, state: KMeansState) -> None:
        expected = self.reference_assignments()
        if not np.array_equal(state.assignments, expected):
            bad = int((state.assignments != expected).sum())
            raise AssertionError(f"K-means assignments differ at {bad} points")
