"""Connected components (label propagation) — an extension workload.

Not one of the paper's eight applications, but a canonical NDP graph
kernel (evaluated by Tesseract/GraphP/GraphQ, the systems the paper
builds on) and a natural stress test for the same mechanisms: per
timestamp, every active vertex propagates the minimum component label
seen so far to its neighbors, until no label changes.  Hub vertices'
labels are read by many tasks — the usual hot-data pattern.

Registered as workload name ``"cc"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.runtime.task import Task
from repro.workloads.base import (
    ElementHints, Workload, register_workload, vertex_hints,
)
from repro.workloads.datasets import community_powerlaw_graph
from repro.workloads.graph import Graph

_BASE_CYCLES = 30.0
_PER_NEIGHBOR_CYCLES = 7.0


@dataclass
class CcState:
    graph: Graph
    addresses: np.ndarray
    labels: np.ndarray        # read buffer
    next_labels: np.ndarray   # write buffer, bulk-applied at the barrier
    in_next: np.ndarray
    max_rounds: int
    home_of: np.ndarray
    hints: ElementHints       # one TaskHint per vertex for the run


def _spawn(ctx, st: CcState, v: int) -> None:
    neigh = st.graph.neighbors(v)
    ctx.enqueue_task(
        _task_cc,
        ctx.timestamp + 1,
        st.hints[v],
        v,
        compute_cycles=_BASE_CYCLES + _PER_NEIGHBOR_CYCLES * len(neigh),
    )


def _task_cc(ctx, v: int) -> None:
    """Push this vertex's label to any neighbor with a larger one."""
    st: CcState = ctx.state
    label = st.labels[v]
    limit_reached = ctx.timestamp + 1 >= st.max_rounds
    for u in st.graph.neighbors(v):
        u = int(u)
        if label < st.next_labels[u]:
            st.next_labels[u] = label
            if not limit_reached and not st.in_next[u]:
                st.in_next[u] = True
                _spawn(ctx, st, u)


@register_workload("cc")
class ConnectedComponentsWorkload(Workload):
    """Label-propagation connected components on a power-law graph."""

    def __init__(
        self,
        num_vertices: int = 2048,
        edges_per_vertex: int = 10,
        max_rounds: int = 0,
        seed: int = 43,
        graph: Optional[Graph] = None,
    ):
        self.graph = graph if graph is not None else community_powerlaw_graph(
            num_vertices, edges_per_vertex, seed=seed
        )
        # Label propagation needs at most diameter rounds; power-law
        # graphs have tiny diameters, but keep a generous bound.
        self.max_rounds = max_rounds or 32

    def setup(self, system) -> CcState:
        g = self.graph
        alloc = system.allocator()
        region = alloc.alloc("cc_vertices", g.num_vertices, elem_bytes=64,
                             layout=self.layout)
        labels = np.arange(g.num_vertices, dtype=np.int64)
        return CcState(
            graph=g,
            addresses=region.addresses,
            labels=labels,
            next_labels=labels.copy(),
            in_next=np.zeros(g.num_vertices, dtype=bool),
            max_rounds=self.max_rounds,
            home_of=system.memory_map.home_units(region.addresses),
            hints=vertex_hints(g, region.addresses),
        )

    def root_tasks(self, state: CcState) -> List[Task]:
        g = state.graph
        tasks = []
        for v in range(g.num_vertices):
            neigh = g.neighbors(v)
            tasks.append(
                Task(
                    func=_task_cc,
                    timestamp=0,
                    hint=state.hints[v],
                    args=(v,),
                    compute_cycles=(
                        _BASE_CYCLES + _PER_NEIGHBOR_CYCLES * len(neigh)
                    ),
                    spawner_unit=int(state.home_of[v]),
                )
            )
        return tasks

    def on_barrier(self, timestamp: int, state: CcState):
        state.labels = state.next_labels
        state.next_labels = state.labels.copy()
        state.in_next[:] = False
        return None

    # ------------------------------------------------------------------
    def reference_labels(self) -> np.ndarray:
        """Union-find reference, independent of the task port."""
        g = self.graph
        parent = np.arange(g.num_vertices, dtype=np.int64)

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = int(parent[x])
            return x

        src = np.repeat(np.arange(g.num_vertices), np.diff(g.indptr))
        for a, b in zip(src, g.indices):
            ra, rb = find(int(a)), find(int(b))
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        # Component id = minimum vertex id in the component.
        roots = np.array([find(v) for v in range(g.num_vertices)])
        remap: dict = {}
        for v in range(g.num_vertices):
            r = int(roots[v])
            if r not in remap:
                remap[r] = v  # first (minimum) vertex seen for this root
        return np.array([remap[int(roots[v])] for v in range(g.num_vertices)])

    def verify(self, state: CcState) -> None:
        expected = self.reference_labels()
        if not np.array_equal(state.labels, expected):
            bad = int((state.labels != expected).sum())
            raise AssertionError(f"CC labels differ at {bad} vertices")
