"""Single-source shortest paths (level-synchronous Bellman-Ford).

Timestamp ``r`` is one relaxation round: a task runs for every vertex
whose tentative distance improved in round ``r - 1``, relaxing its
outgoing edges against a double-buffered distance array.  Updates are
bulk-applied at the barrier; the algorithm terminates when a round
improves nothing (at most V-1 rounds, like textbook Bellman-Ford).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.runtime.task import Task
from repro.workloads.base import (
    ElementHints, Workload, register_workload, vertex_hints,
)
from repro.workloads.datasets import community_powerlaw_graph, random_weights
from repro.workloads.graph import Graph

_BASE_CYCLES = 36.0
_PER_NEIGHBOR_CYCLES = 9.0


@dataclass
class SsspState:
    graph: Graph
    addresses: np.ndarray
    dist: np.ndarray          # settled distances (read buffer)
    next_dist: np.ndarray     # write buffer, bulk-applied at the barrier
    in_next: np.ndarray       # vertex already has a task for round r+1
    source: int
    max_rounds: int
    home_of: np.ndarray
    hints: ElementHints       # one TaskHint per vertex for the run


def _spawn(ctx, st: SsspState, u: int) -> None:
    g = st.graph
    neigh = g.neighbors(u)
    ctx.enqueue_task(
        _task_sssp,
        ctx.timestamp + 1,
        st.hints[u],
        u,
        compute_cycles=_BASE_CYCLES + _PER_NEIGHBOR_CYCLES * len(neigh),
    )


def _task_sssp(ctx, v: int) -> None:
    """Relax every edge out of ``v`` against the next-round buffer."""
    st: SsspState = ctx.state
    g = st.graph
    base = st.dist[v]
    if not np.isfinite(base):
        return
    limit_reached = ctx.timestamp + 1 >= st.max_rounds
    neighbors = g.neighbors(v)
    weights = g.edge_weights(v)
    for u, w in zip(neighbors, weights):
        u = int(u)
        cand = base + float(w)
        if cand < st.next_dist[u] - 1e-12:
            st.next_dist[u] = cand
            if not limit_reached and not st.in_next[u]:
                st.in_next[u] = True
                _spawn(ctx, st, u)


@register_workload("sssp")
class SsspWorkload(Workload):
    """SSSP on a weighted power-law graph."""

    def __init__(
        self,
        num_vertices: int = 2048,
        edges_per_vertex: int = 10,
        source: Optional[int] = None,
        max_rounds: int = 16,
        seed: int = 29,
        graph: Optional[Graph] = None,
    ):
        if graph is None:
            graph = random_weights(
                community_powerlaw_graph(num_vertices, edges_per_vertex, seed=seed),
                seed=seed + 1,
            )
        if graph.weights is None:
            raise ValueError("SSSP requires an edge-weighted graph")
        self.graph = graph
        self.source = (
            source if source is not None else graph.max_degree_vertex()
        )
        self.max_rounds = max_rounds

    def setup(self, system) -> SsspState:
        g = self.graph
        alloc = system.allocator()
        region = alloc.alloc("sssp_vertices", g.num_vertices, elem_bytes=64, layout=self.layout)
        dist = np.full(g.num_vertices, np.inf)
        dist[self.source] = 0.0
        return SsspState(
            graph=g,
            addresses=region.addresses,
            dist=dist,
            next_dist=dist.copy(),
            in_next=np.zeros(g.num_vertices, dtype=bool),
            source=self.source,
            max_rounds=self.max_rounds,
            home_of=system.memory_map.home_units(region.addresses),
            hints=vertex_hints(g, region.addresses),
        )

    def root_tasks(self, state: SsspState) -> List[Task]:
        v = state.source
        neigh = state.graph.neighbors(v)
        return [
            Task(
                func=_task_sssp,
                timestamp=0,
                hint=state.hints[v],
                args=(v,),
                compute_cycles=_BASE_CYCLES + _PER_NEIGHBOR_CYCLES * len(neigh),
                spawner_unit=int(state.home_of[v]),
            )
        ]

    def on_barrier(self, timestamp: int, state: SsspState) -> None:
        """Bulk-apply improved distances and reset the dedup filter."""
        state.dist = state.next_dist
        state.next_dist = state.dist.copy()
        state.in_next[:] = False

    # ------------------------------------------------------------------
    def reference_distances(self) -> np.ndarray:
        """Dijkstra with a binary heap, independent of the task port."""
        g = self.graph
        dist = np.full(g.num_vertices, np.inf)
        dist[self.source] = 0.0
        heap = [(0.0, self.source)]
        while heap:
            d, v = heapq.heappop(heap)
            if d > dist[v] + 1e-12:
                continue
            for u, w in zip(g.neighbors(v), g.edge_weights(v)):
                cand = d + float(w)
                if cand < dist[u] - 1e-12:
                    dist[u] = cand
                    heapq.heappush(heap, (cand, int(u)))
        return dist

    def verify(self, state: SsspState) -> None:
        expected = self.reference_distances()
        # Bounded rounds can leave distant vertices unconverged; with
        # the default budget the graphs used here settle completely.
        mism = ~np.isclose(state.dist, expected, atol=1e-9, equal_nan=True)
        finite = np.isfinite(expected)
        if (mism & finite).any():
            bad = int((mism & finite).sum())
            raise AssertionError(f"SSSP distances differ at {bad} vertices")
