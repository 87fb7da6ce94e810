"""Graph convolutional network (GCN) inference in the task model.

A two-layer GCN: each layer computes, per vertex,

    H'[v] = relu( mean({H[u] : u in N(v)} + H[v]) @ W + b )

One task per vertex per layer (timestamp = layer).  The task gathers
the feature rows of the vertex and its neighbors (the dominant memory
traffic), multiplies by the layer's small dense weight matrix (the
dominant compute — GCN tasks are far heavier than Page Rank's), and
writes the next-layer activation.  Feature matrices are double-
buffered and swapped at the barrier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.runtime.task import Task, TaskHint
from repro.workloads.base import ElementHints, Workload, register_workload
from repro.workloads.datasets import community_powerlaw_graph
from repro.workloads.graph import Graph

_BASE_CYCLES = 80.0
_PER_NEIGHBOR_CYCLES = 12.0
_PER_FEATURE_SQ_CYCLES = 1.0  # dense (F x F) multiply term


def _rows_hint(graph: Graph, addresses: np.ndarray, lines_per_row: int,
               v: int) -> TaskHint:
    """Every cacheline of the feature rows of ``v`` and its neighbors,
    ``v`` first.

    A feature row wider than one cacheline spans ``lines_per_row``
    lines; the hint must name each of them (the task reads the whole
    row).
    """
    members = np.concatenate(([v], graph.neighbors(v))).astype(np.int64)
    base = addresses[members]
    if lines_per_row == 1:
        return TaskHint(addresses=base)
    offs = 64 * np.arange(lines_per_row, dtype=np.int64)
    return TaskHint(addresses=(base[:, None] + offs[None, :]).reshape(-1))


@dataclass
class GcnState:
    graph: Graph
    addresses: np.ndarray     # first line of each vertex's feature row
    feats: np.ndarray         # (V, F) current activations
    next_feats: np.ndarray
    weights: List[np.ndarray]
    biases: List[np.ndarray]
    num_layers: int
    home_of: np.ndarray
    hints: ElementHints       # one TaskHint per vertex for the run


def _layer_cycles(degree: int, feature_dim: int) -> float:
    return (
        _BASE_CYCLES
        + _PER_NEIGHBOR_CYCLES * degree
        + _PER_FEATURE_SQ_CYCLES * feature_dim * feature_dim / 4.0
    )


def _task_gcn(ctx, v: int) -> None:
    st: GcnState = ctx.state
    g = st.graph
    layer = ctx.timestamp
    neigh = g.neighbors(v)
    gathered = st.feats[neigh].sum(axis=0) + st.feats[v]
    agg = gathered / (len(neigh) + 1)
    out = agg @ st.weights[layer] + st.biases[layer]
    st.next_feats[v] = np.maximum(out, 0.0)  # ReLU

    if layer + 1 < st.num_layers:
        ctx.enqueue_task(
            _task_gcn,
            layer + 1,
            st.hints[v],
            v,
            compute_cycles=_layer_cycles(len(neigh), st.feats.shape[1]),
        )


@register_workload("gcn")
class GcnWorkload(Workload):
    """Two-layer GCN inference over a power-law graph."""

    def __init__(
        self,
        num_vertices: int = 2048,
        edges_per_vertex: int = 10,
        feature_dim: int = 16,
        num_layers: int = 2,
        seed: int = 31,
        graph: Optional[Graph] = None,
    ):
        self.graph = graph if graph is not None else community_powerlaw_graph(
            num_vertices, edges_per_vertex, seed=seed
        )
        self.feature_dim = feature_dim
        self.num_layers = num_layers
        rng = np.random.default_rng(seed + 1)
        self.init_feats = rng.normal(
            0.0, 1.0, size=(self.graph.num_vertices, feature_dim)
        )
        self.weights = [
            rng.normal(0.0, 0.4, size=(feature_dim, feature_dim))
            for _ in range(num_layers)
        ]
        self.biases = [
            rng.normal(0.0, 0.1, size=feature_dim) for _ in range(num_layers)
        ]

    def setup(self, system) -> GcnState:
        g = self.graph
        alloc = system.allocator()
        # One 64 B line holds a 16-float16-ish feature row; wider rows
        # span multiple lines.
        elem_bytes = max(64, self.feature_dim * 4)
        region = alloc.alloc("gcn_features", g.num_vertices, elem_bytes=elem_bytes, layout=self.layout)
        addresses = region.addresses
        lines_per_row = elem_bytes // 64
        return GcnState(
            graph=g,
            addresses=addresses,
            feats=self.init_feats.copy(),
            next_feats=self.init_feats.copy(),
            weights=self.weights,
            biases=self.biases,
            num_layers=self.num_layers,
            home_of=system.memory_map.home_units(addresses),
            hints=ElementHints(
                g.num_vertices,
                lambda v: _rows_hint(g, addresses, lines_per_row, v),
            ),
        )

    def root_tasks(self, state: GcnState) -> List[Task]:
        g = state.graph
        tasks = []
        for v in range(g.num_vertices):
            neigh = g.neighbors(v)
            tasks.append(
                Task(
                    func=_task_gcn,
                    timestamp=0,
                    hint=state.hints[v],
                    args=(v,),
                    compute_cycles=_layer_cycles(len(neigh), self.feature_dim),
                    spawner_unit=int(state.home_of[v]),
                )
            )
        return tasks

    def on_barrier(self, timestamp: int, state: GcnState) -> None:
        state.feats = state.next_feats
        state.next_feats = state.feats.copy()

    # ------------------------------------------------------------------
    def reference_output(self) -> np.ndarray:
        """Dense vectorised forward pass for verification."""
        g = self.graph
        feats = self.init_feats.copy()
        for layer in range(self.num_layers):
            nxt = np.empty_like(feats)
            for v in range(g.num_vertices):
                neigh = g.neighbors(v)
                agg = (feats[neigh].sum(axis=0) + feats[v]) / (len(neigh) + 1)
                nxt[v] = np.maximum(
                    agg @ self.weights[layer] + self.biases[layer], 0.0
                )
            feats = nxt
        return feats

    def verify(self, state: GcnState) -> None:
        expected = self.reference_output()
        if not np.allclose(state.feats, expected, atol=1e-8):
            worst = float(np.abs(state.feats - expected).max())
            raise AssertionError(f"GCN output mismatch, max err {worst}")
