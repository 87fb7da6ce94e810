"""Synthetic dataset generators.

The paper evaluates on SNAP graphs, UFL sparse matrices, and synthetic
point sets.  The phenomena that drive every figure — hotspots and load
imbalance — come from *power-law skew* in those inputs, so we generate
synthetic datasets with controllable skew that exercise exactly the
same code paths (see DESIGN.md, substitution table):

* :func:`powerlaw_graph` — Barabási–Albert preferential attachment,
  the canonical generator of power-law degree distributions [37].
* :func:`grid_maze` — weighted 2D grid with obstacles for A*.
* :func:`skewed_sparse_matrix` — CSR matrix whose column indices are
  Zipf-distributed, creating hot input-vector entries (SpMV).
* :func:`clustered_points` — Gaussian mixtures with optionally skewed
  cluster sizes (K-means balanced, KNN skewed).
* :func:`zipf_choices` — the shared skewed sampler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.workloads.graph import Graph


def zipf_weights(n_values: int, skew: float) -> np.ndarray:
    """Normalised Zipf(skew) weights over ``n_values`` ranks.

    ``skew = 0`` is uniform; larger values concentrate the mass on the
    first ranks.
    """
    if n_values <= 0:
        raise ValueError("n_values must be positive")
    ranks = np.arange(1, n_values + 1, dtype=np.float64)
    weights = ranks ** (-skew) if skew > 0 else np.ones(n_values)
    return weights / weights.sum()


def zipf_choices(
    n_values: int,
    size: int,
    skew: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample ``size`` indices in [0, n_values) with Zipf(skew) weights.

    A random permutation decouples "hot" from "low index" so hot
    elements spread across home units.
    """
    weights = zipf_weights(n_values, skew)
    perm = rng.permutation(n_values)
    drawn = rng.choice(n_values, size=size, p=weights)
    return perm[drawn]


def powerlaw_graph(
    num_vertices: int,
    edges_per_vertex: int = 8,
    seed: int = 7,
    relabel: bool = True,
) -> Graph:
    """Barabási–Albert preferential-attachment graph (undirected CSR).

    Every new vertex attaches to ``edges_per_vertex`` existing vertices
    with probability proportional to their current degree, yielding the
    power-law degree distribution responsible for the paper's data
    hotspots.

    ``relabel`` applies a random vertex-id permutation.  BA generation
    places every hub at a low id; without relabeling, a blocked data
    layout would park *all* hubs in unit 0, which over-states the
    hotspot effect relative to the paper's real-world graphs (whose
    hubs are scattered through the id space).
    """
    m = edges_per_vertex
    if num_vertices <= m:
        raise ValueError("need more vertices than edges_per_vertex")
    rng = np.random.default_rng(seed)

    edges: List[Tuple[int, int]] = []
    # Seed clique-ish core: connect the first m+1 vertices in a ring.
    targets = list(range(m))
    # repeated_nodes holds each endpoint once per incident edge, so
    # uniform sampling from it is degree-proportional sampling.
    repeated: List[int] = []
    for v in range(m, num_vertices):
        chosen = set()
        # Sample m distinct targets (degree-proportional).
        while len(chosen) < m:
            if repeated:
                candidate = repeated[rng.integers(len(repeated))]
            else:
                candidate = targets[rng.integers(len(targets))]
            chosen.add(int(candidate))
        for u in chosen:
            edges.append((v, u))
            repeated.append(v)
            repeated.append(u)
    if relabel:
        perm = rng.permutation(num_vertices)
        edges = [(int(perm[a]), int(perm[b])) for a, b in edges]
    return Graph.from_edges(num_vertices, edges, symmetric=True)


def community_powerlaw_graph(
    num_vertices: int,
    edges_per_vertex: int = 10,
    communities: Optional[int] = None,
    intra_fraction: float = 0.2,
    num_hubs: Optional[int] = None,
    hub_edge_fraction: float = 0.8,
    hub_skew: float = 0.4,
    seed: int = 7,
) -> Graph:
    """Power-law graph with community structure and global hubs.

    Real-world graphs combine three properties that drive the paper's
    evaluation:

    * a power-law degree distribution whose *top* vertices attract a
      large share of all edges (the hot data elements behind the
      paper's hotspots and the Traveller Cache's reuse),
    * community locality (a vertex's neighbors cluster in its own
      region of the id space), and
    * a heavy tail of moderate-degree vertices.

    Plain Barabási–Albert reproduces only the tail shape — at the few
    thousand vertices a Python simulator can afford, its top vertex
    holds well under 1% of the edges, versus tens of percent in SNAP
    graphs.  This generator therefore (a) runs preferential attachment
    *within* each community for ``intra_fraction`` of every vertex's
    edges, and (b) directs ``hub_edge_fraction`` of the remaining
    cross-community edges at ``num_hubs`` designated global hub
    vertices (Zipf-weighted among them), restoring the real-world
    hot-vertex concentration.

    Communities are contiguous id blocks, so a blocked data layout maps
    each community onto a handful of adjacent NDP units; hubs are
    spread one per community.
    """
    m = edges_per_vertex
    if communities is None:
        # Default: communities of ~2(m+1) vertices, capped at 128 (the
        # default machine's unit count) so one community maps to about
        # one unit under a blocked layout.
        communities = max(1, min(128, num_vertices // (2 * (m + 1))))
    if num_hubs is None:
        num_hubs = communities
    if num_vertices <= communities * (m + 1):
        raise ValueError("communities too small for edges_per_vertex")
    rng = np.random.default_rng(seed)
    bounds = np.linspace(0, num_vertices, communities + 1).astype(np.int64)

    # One hub in the middle of each of the first num_hubs communities.
    num_hubs = min(num_hubs, communities)
    hubs = np.array(
        [(bounds[c] + bounds[c + 1]) // 2 for c in range(num_hubs)],
        dtype=np.int64,
    )
    # Hub draws search this CDF with one ``rng.random()`` each: exactly
    # what ``rng.choice(num_hubs, p=zipf_weights(...))`` computes inside
    # (tests/test_datasets.py pins the equivalence on the installed
    # NumPy), without the per-call validation of ``p``.
    hub_cdf = zipf_weights(num_hubs, hub_skew).cumsum()
    hub_cdf /= hub_cdf[-1]

    edges: List[Tuple[int, int]] = []
    global_repeated: List[int] = []
    for c in range(communities):
        lo, hi = int(bounds[c]), int(bounds[c + 1])
        local_repeated: List[int] = []
        for v in range(lo, hi):
            n_prior = v - lo
            # Split this vertex's edges between community and global
            # preferential attachment.
            m_here = min(m, max(1, n_prior)) if n_prior else 0
            intra = int(round(m_here * intra_fraction))
            # Always keep at least one community edge so every vertex
            # (including each community's first few) stays connected.
            if m_here and n_prior:
                intra = max(1, intra)
            inter = m_here - intra
            chosen = set()
            while len(chosen) < intra and n_prior:
                if local_repeated:
                    cand = local_repeated[rng.integers(len(local_repeated))]
                else:
                    cand = lo + int(rng.integers(n_prior))
                if cand != v:
                    chosen.add(int(cand))
            guard = 0
            while len(chosen) < intra + inter and global_repeated:
                if rng.random() < hub_edge_fraction:
                    cand = int(hubs[hub_cdf.searchsorted(
                        rng.random(), side="right")])
                else:
                    cand = global_repeated[rng.integers(len(global_repeated))]
                if cand != v:
                    chosen.add(int(cand))
                guard += 1
                if guard > 8 * m:
                    break
            for u in chosen:
                edges.append((v, u))
                local_repeated.append(v)
                if lo <= u < hi:
                    local_repeated.append(u)
                global_repeated.append(v)
                global_repeated.append(u)
    return Graph.from_edges(num_vertices, edges, symmetric=True)


def random_weights(
    graph: Graph, low: float = 1.0, high: float = 8.0, seed: int = 11
) -> Graph:
    """Attach symmetric uniform-random edge weights to a graph."""
    rng = np.random.default_rng(seed)
    # Weight each undirected pair identically: derive from the pair key.
    u = np.repeat(np.arange(graph.num_vertices), np.diff(graph.indptr))
    v = graph.indices
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    pair_key = lo * graph.num_vertices + hi
    uniq, inverse = np.unique(pair_key, return_inverse=True)
    pair_w = rng.uniform(low, high, size=len(uniq))
    return Graph(graph.num_vertices, graph.indptr, graph.indices,
                 weights=pair_w[inverse])


@dataclass
class GridMaze:
    """Weighted 2D grid with obstacles (A* input)."""

    rows: int
    cols: int
    blocked: np.ndarray       # (rows*cols,) bool
    move_cost: np.ndarray     # (rows*cols,) float64, cost of entering a cell
    start: int
    goal: int

    @property
    def num_cells(self) -> int:
        return self.rows * self.cols

    def cell(self, r: int, c: int) -> int:
        return r * self.cols + c

    def coords(self, cell: int) -> Tuple[int, int]:
        return divmod(cell, self.cols)

    def neighbors(self, cell: int) -> List[int]:
        # Pure function of the frozen maze, called from both the hint
        # pass and every expansion wave: memoized as one table, built
        # lazily with exactly the scalar path's up/down/left/right
        # order and blocked filter.
        table = getattr(self, "_neighbor_table", None)
        if table is None:
            table = self._build_neighbor_table()
            self._neighbor_table = table
        return table[cell]

    def _build_neighbor_table(self) -> List[List[int]]:
        blocked = self.blocked
        cols = self.cols
        last_r, last_c = self.rows - 1, cols - 1
        table = []
        for cell in range(self.num_cells):
            r, c = divmod(cell, cols)
            out = []
            if r > 0:
                out.append(cell - cols)
            if r < last_r:
                out.append(cell + cols)
            if c > 0:
                out.append(cell - 1)
            if c < last_c:
                out.append(cell + 1)
            table.append([n for n in out if not blocked[n]])
        return table

    def heuristic(self, cell: int) -> float:
        """Admissible Manhattan-distance heuristic to the goal."""
        table = getattr(self, "_heuristic_table", None)
        if table is None:
            r, c = np.divmod(np.arange(self.num_cells), self.cols)
            gr, gc = self.coords(self.goal)
            table = (np.abs(r - gr) + np.abs(c - gc)).astype(float).tolist()
            self._heuristic_table = table
        return table[cell]

    def move_costs(self) -> List[float]:
        """``move_cost`` as a plain float list (scalar-indexing the
        array per neighbor dominates the expansion inner loop)."""
        table = getattr(self, "_move_cost_list", None)
        if table is None:
            table = self.move_cost.tolist()
            self._move_cost_list = table
        return table


def grid_maze(
    rows: int = 64,
    cols: int = 64,
    obstacle_fraction: float = 0.2,
    seed: int = 13,
) -> GridMaze:
    """Random weighted maze with start/goal in opposite corners.

    Obstacles are re-drawn (up to a bounded number of attempts) until
    the goal is reachable, so A* always has a solution.
    """
    rng = np.random.default_rng(seed)
    n = rows * cols
    start = 0
    goal = n - 1
    for _ in range(64):
        blocked = rng.random(n) < obstacle_fraction
        blocked[start] = False
        blocked[goal] = False
        maze = GridMaze(
            rows=rows,
            cols=cols,
            blocked=blocked,
            move_cost=rng.uniform(1.0, 4.0, size=n),
            start=start,
            goal=goal,
        )
        if _reachable(maze):
            return maze
    raise RuntimeError("could not generate a solvable maze")


def _reachable(maze: GridMaze) -> bool:
    seen = {maze.start}
    stack = [maze.start]
    while stack:
        cell = stack.pop()
        if cell == maze.goal:
            return True
        for n in maze.neighbors(cell):
            if n not in seen:
                seen.add(n)
                stack.append(n)
    return False


@dataclass
class SparseMatrix:
    """CSR sparse matrix plus the dense input vector (SpMV input)."""

    rows: int
    cols: int
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    vector: np.ndarray

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def row_slice(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.values[lo:hi]

    def multiply(self, x: Optional[np.ndarray] = None) -> np.ndarray:
        """Dense reference product (for verification)."""
        if x is None:
            x = self.vector
        y = np.zeros(self.rows)
        for i in range(self.rows):
            cols_i, vals_i = self.row_slice(i)
            y[i] = (vals_i * x[cols_i]).sum()
        return y


def skewed_sparse_matrix(
    rows: int = 2048,
    cols: Optional[int] = None,
    nnz_per_row: int = 12,
    skew: float = 0.9,
    seed: int = 17,
) -> SparseMatrix:
    """Sparse matrix with Zipf-distributed column popularity.

    A handful of columns appear in most rows — the hot input-vector
    entries that make SpMV hotspot-prone on NDP.
    Row lengths vary (Poisson around ``nnz_per_row``) so task loads are
    non-uniform too.
    """
    if cols is None:
        cols = rows
    rng = np.random.default_rng(seed)
    lengths = np.maximum(1, rng.poisson(nnz_per_row, size=rows))
    lengths = np.minimum(lengths, cols)  # a row holds at most cols entries
    indptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    total = int(indptr[-1])
    indices = np.empty(total, dtype=np.int64)
    # One column-popularity ranking shared by every row: the same few
    # columns are hot across the whole matrix (cross-row reuse is what
    # makes the corresponding vector entries hot data).
    weights = zipf_weights(cols, skew)
    perm = rng.permutation(cols)
    for i in range(rows):
        lo, hi = indptr[i], indptr[i + 1]
        drawn = rng.choice(cols, size=(hi - lo) * 2, p=weights)
        picks = np.unique(perm[drawn])[: hi - lo]
        while len(picks) < hi - lo:  # pad with uniform distinct columns
            extra = rng.choice(cols, size=(hi - lo) - len(picks),
                               replace=False)
            picks = np.unique(np.concatenate([picks, extra]))[: hi - lo]
        indices[lo:hi] = np.sort(picks)
    values = rng.uniform(-1.0, 1.0, size=total)
    vector = rng.uniform(-1.0, 1.0, size=cols)
    return SparseMatrix(rows, cols, indptr, indices, values, vector)


@dataclass
class PointSet:
    """Points in R^d with ground-truth cluster labels."""

    points: np.ndarray   # (n, d)
    labels: np.ndarray   # (n,)
    centers: np.ndarray  # (k, d)

    @property
    def count(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def clustered_points(
    count: int = 4096,
    dim: int = 4,
    clusters: int = 8,
    cluster_skew: float = 0.0,
    spread: float = 0.6,
    seed: int = 19,
) -> PointSet:
    """Gaussian-mixture point set.

    ``cluster_skew = 0`` gives equal-size clusters (K-means input);
    larger values concentrate points in a few clusters (the skewed KNN
    input responsible for that workload's imbalance).
    """
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-10.0, 10.0, size=(clusters, dim))
    weights = zipf_weights(clusters, cluster_skew)
    labels = rng.choice(clusters, size=count, p=weights)
    points = centers[labels] + rng.normal(0.0, spread, size=(count, dim))
    return PointSet(points=points, labels=labels, centers=centers)
