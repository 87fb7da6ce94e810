"""Sparse matrix-vector multiplication (power iterations) in the task model.

One task per matrix row per iteration computes the inner product of the
row with the input vector.  The row's own data (column indices and
values) live contiguously in the row's home unit; the *vector entries*
at the row's column positions are scattered round-robin across the
system and — because the matrix's column popularity is Zipf-skewed — a
few vector cachelines are touched by most rows.  Those hot lines are
exactly what Traveller Cache camps absorb.

Multiple timestamps run a Jacobi-flavoured power iteration
``x <- normalize(A x)`` so the caches see the bulk invalidation path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.runtime.task import Task, TaskHint
from repro.workloads.base import ElementHints, Workload, register_workload
from repro.workloads.datasets import SparseMatrix, skewed_sparse_matrix

_BASE_CYCLES = 30.0
_PER_NNZ_CYCLES = 7.0


@dataclass
class SpmvState:
    matrix: SparseMatrix
    row_addrs: np.ndarray     # first line of each row's CSR segment
    row_lines: list           # per-row list of segment line addresses
    vec_addrs: np.ndarray     # address of each vector entry (packed)
    x: np.ndarray             # current input vector
    y: np.ndarray             # output accumulator
    max_iters: int
    home_of_row: np.ndarray
    hints: ElementHints       # one TaskHint per row for the run


def _row_hint(matrix: SparseMatrix, row_lines: list, vec_addrs: np.ndarray,
              i: int) -> TaskHint:
    """Row ``i``'s own segment lines, then its vector entries."""
    cols, _ = matrix.row_slice(i)
    return TaskHint(addresses=np.concatenate((row_lines[i], vec_addrs[cols])))


def _task_spmv(ctx, i: int) -> None:
    st: SpmvState = ctx.state
    cols, vals = st.matrix.row_slice(i)
    st.y[i] = float((vals * st.x[cols]).sum())

    if ctx.timestamp + 1 < st.max_iters:
        ctx.enqueue_task(
            _task_spmv,
            ctx.timestamp + 1,
            st.hints[i],
            i,
            compute_cycles=_BASE_CYCLES + _PER_NNZ_CYCLES * len(cols),
        )


@register_workload("spmv")
class SpmvWorkload(Workload):
    """Skewed-column SpMV power iteration."""

    def __init__(
        self,
        rows: int = 2048,
        nnz_per_row: int = 12,
        skew: float = 0.9,
        iterations: int = 3,
        seed: int = 17,
        matrix: Optional[SparseMatrix] = None,
    ):
        self.matrix = matrix if matrix is not None else skewed_sparse_matrix(
            rows, nnz_per_row=nnz_per_row, skew=skew, seed=seed
        )
        self.iterations = iterations

    def setup(self, system) -> SpmvState:
        m = self.matrix
        alloc = system.allocator()
        # Row segments: one element per row sized to its nnz payload
        # (8 B per nonzero: a packed column index + value), rounded up
        # to whole cachelines so each row's lines are its own.
        seg_lines = np.maximum(1, -(-np.diff(m.indptr) * 8 // 64))
        rows_region = alloc.alloc(
            "spmv_rows", m.rows, elem_bytes=int(seg_lines.max()) * 64,
            layout=self.layout,
        )
        row_lines = []
        for i in range(m.rows):
            base = rows_region.addresses[i]
            row_lines.append(base + 64 * np.arange(seg_lines[i], dtype=np.int64))
        # Vector entries are 8 B each, packed 8 per line, round-robin.
        vec_region = alloc.alloc("spmv_vector", m.cols, elem_bytes=8, layout=self.layout)
        vec_addrs = vec_region.addresses
        return SpmvState(
            matrix=m,
            row_addrs=rows_region.addresses,
            row_lines=row_lines,
            vec_addrs=vec_addrs,
            x=m.vector.copy(),
            y=np.zeros(m.rows),
            max_iters=self.iterations,
            home_of_row=system.memory_map.home_units(rows_region.addresses),
            hints=ElementHints(
                m.rows, lambda i: _row_hint(m, row_lines, vec_addrs, i)),
        )

    def root_tasks(self, state: SpmvState) -> List[Task]:
        m = state.matrix
        tasks = []
        for i in range(m.rows):
            cols, _ = m.row_slice(i)
            tasks.append(
                Task(
                    func=_task_spmv,
                    timestamp=0,
                    hint=state.hints[i],
                    args=(i,),
                    compute_cycles=_BASE_CYCLES + _PER_NNZ_CYCLES * len(cols),
                    spawner_unit=int(state.home_of_row[i]),
                )
            )
        return tasks

    def on_barrier(self, timestamp: int, state: SpmvState) -> None:
        """x <- normalize(y): the power-iteration bulk update."""
        norm = float(np.linalg.norm(state.y))
        if norm > 0:
            state.x = state.y / norm
        else:
            state.x = state.y.copy()
        state.y = np.zeros_like(state.y)

    # ------------------------------------------------------------------
    def reference_vector(self) -> np.ndarray:
        """Dense power iteration for verification."""
        m = self.matrix
        x = m.vector.copy()
        dense = np.zeros((m.rows, m.cols))
        for i in range(m.rows):
            cols, vals = m.row_slice(i)
            dense[i, cols] = vals
        for _ in range(self.iterations):
            y = dense @ x
            norm = float(np.linalg.norm(y))
            x = y / norm if norm > 0 else y
        return x

    def verify(self, state: SpmvState) -> None:
        expected = self.reference_vector()
        if not np.allclose(state.x, expected, atol=1e-9):
            worst = float(np.abs(state.x - expected).max())
            raise AssertionError(f"SpMV power iteration mismatch {worst}")
