"""Page Rank in the task model (Algorithm 1 of the paper).

One task per vertex per iteration; the task reads its own record plus
every neighbor's record (rank and out-degree), computes the new rank,
and enqueues itself for the next timestamp unless it has converged or
the iteration budget is exhausted.  Ranks are double-buffered and
swapped at the bulk-synchronous barrier.
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

#: cost-model constants: per-task base cycles and per-neighbor cycles
_BASE_CYCLES = 40.0
_PER_NEIGHBOR_CYCLES = 8.0


@dataclass
class PageRankState:
    graph: Graph
    addresses: np.ndarray        # vertex record addresses
    curr: np.ndarray             # rank buffer read this timestamp
    nxt: np.ndarray              # rank buffer written this timestamp
    out_degree: np.ndarray
    damping: float
    epsilon: float
    max_iters: int
    home_of: np.ndarray          # vertex -> home unit (spawner metadata)
    #: ``inv`` is curr / out_degree, refreshed at each barrier — tasks
    #: gather single contributions from it, elementwise-identical to
    #: dividing the gathered operands per task.
    inv: np.ndarray
    hints: ElementHints       # one TaskHint per vertex for the run


def _task_page_rank(ctx, v: int) -> None:
    """The per-vertex task body (cf. Algorithm 1)."""
    st: PageRankState = ctx.state
    g = st.graph
    neighbors = g.neighbors(v)
    if len(neighbors):
        contrib = float(st.inv[neighbors].sum())
    else:
        contrib = 0.0
    n = g.num_vertices
    new_rank = st.damping * contrib + (1.0 - st.damping) / n
    st.nxt[v] = new_rank

    # With epsilon == 0 the cutoff is disabled and every vertex runs
    # all iterations (the verifiable fixed-iteration port).  A positive
    # epsilon deactivates converged vertices, like Algorithm 1 — but a
    # deactivated vertex stays stale if its neighbors keep moving, so
    # the result is then only epsilon-approximate.
    converged = st.epsilon > 0 and abs(new_rank - st.curr[v]) < st.epsilon
    if not converged and ctx.timestamp + 1 < st.max_iters:
        ctx.enqueue_task(
            _task_page_rank,
            ctx.timestamp + 1,
            st.hints[v],
            v,
            compute_cycles=_BASE_CYCLES + _PER_NEIGHBOR_CYCLES * len(neighbors),
        )


@register_workload("pr")
class PageRankWorkload(Workload):
    """Power-law-graph Page Rank (the paper's headline workload)."""

    def __init__(
        self,
        num_vertices: int = 2048,
        edges_per_vertex: int = 10,
        iterations: int = 4,
        damping: float = 0.85,
        epsilon: float = 0.0,
        seed: int = 7,
        graph: Optional[Graph] = None,
    ):
        self.graph = graph if graph is not None else community_powerlaw_graph(
            num_vertices, edges_per_vertex, seed=seed
        )
        self.iterations = iterations
        self.damping = damping
        self.epsilon = epsilon

    # ------------------------------------------------------------------
    def setup(self, system) -> PageRankState:
        g = self.graph
        alloc = system.allocator()
        region = alloc.alloc("pr_vertices", g.num_vertices, elem_bytes=64, layout=self.layout)
        n = g.num_vertices
        curr = np.full(n, 1.0 / n)
        out_degree = np.maximum(1, g.degrees).astype(np.float64)
        return PageRankState(
            graph=g,
            addresses=region.addresses,
            curr=curr,
            nxt=curr.copy(),
            out_degree=out_degree,
            damping=self.damping,
            epsilon=self.epsilon,
            max_iters=self.iterations,
            home_of=system.memory_map.home_units(region.addresses),
            inv=curr / out_degree,
            hints=vertex_hints(g, region.addresses),
        )

    def root_tasks(self, state: PageRankState) -> List[Task]:
        g = state.graph
        tasks = []
        for v in range(g.num_vertices):
            neighbors = g.neighbors(v)
            tasks.append(
                Task(
                    func=_task_page_rank,
                    timestamp=0,
                    hint=state.hints[v],
                    args=(v,),
                    compute_cycles=(
                        _BASE_CYCLES + _PER_NEIGHBOR_CYCLES * len(neighbors)
                    ),
                    spawner_unit=int(state.home_of[v]),
                )
            )
        return tasks

    def on_barrier(self, timestamp: int, state: PageRankState) -> None:
        """Bulk-apply the new ranks (double-buffer swap).

        The next write buffer starts as a copy of the *new* ranks so
        that converged vertices (which spawn no further task) keep
        their final value.
        """
        state.curr = state.nxt
        state.nxt = state.curr.copy()
        state.inv = state.curr / state.out_degree

    # ------------------------------------------------------------------
    def reference_ranks(self) -> np.ndarray:
        """Independent dense power iteration for verification."""
        g = self.graph
        n = g.num_vertices
        ranks = np.full(n, 1.0 / n)
        out_degree = np.maximum(1, g.degrees).astype(np.float64)
        for _ in range(self.iterations):
            nxt = np.full(n, (1.0 - self.damping) / n)
            for v in range(n):
                neigh = g.neighbors(v)
                if len(neigh):
                    nxt[v] += self.damping * float(
                        (ranks[neigh] / out_degree[neigh]).sum()
                    )
            ranks = nxt
        return ranks

    def verify(self, state: PageRankState) -> None:
        expected = self.reference_ranks()
        # With an opt-in convergence cutoff, deactivated vertices may
        # lag the always-updating reference by O(epsilon) per round.
        atol = max(1e-6, self.epsilon * self.iterations * 10)
        if not np.allclose(state.curr, expected, atol=atol):
            worst = float(np.abs(state.curr - expected).max())
            raise AssertionError(f"Page Rank mismatch, max err {worst}")
