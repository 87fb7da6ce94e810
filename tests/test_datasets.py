"""Unit + property tests for the synthetic dataset generators."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.datasets import (
    GridMaze,
    clustered_points,
    community_powerlaw_graph,
    grid_maze,
    powerlaw_graph,
    random_weights,
    skewed_sparse_matrix,
    zipf_choices,
    zipf_weights,
)
from repro.workloads.graph import Graph


class TestZipfChoices:
    def test_range_and_size(self):
        rng = np.random.default_rng(0)
        picks = zipf_choices(100, 5000, 1.0, rng)
        assert len(picks) == 5000
        assert picks.min() >= 0 and picks.max() < 100

    def test_skew_concentrates(self):
        rng = np.random.default_rng(0)
        flat = zipf_choices(100, 5000, 0.0, rng)
        skewed = zipf_choices(100, 5000, 1.5, rng)
        top_flat = np.bincount(flat, minlength=100).max()
        top_skew = np.bincount(skewed, minlength=100).max()
        assert top_skew > 2 * top_flat

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            zipf_choices(0, 1, 1.0, np.random.default_rng(0))


class TestPowerlawGraph:
    def test_structure(self):
        g = powerlaw_graph(300, 5, seed=1)
        assert g.num_vertices == 300
        assert g.num_edges > 0
        # Symmetric: every edge has its reverse.
        for v in range(0, 300, 37):
            for u in g.neighbors(v):
                assert v in g.neighbors(int(u))

    def test_heavy_tail(self):
        g = powerlaw_graph(1000, 5, seed=2)
        deg = g.degrees
        assert deg.max() > 5 * np.median(deg)

    def test_relabel_scatters_hubs(self):
        raw = powerlaw_graph(500, 5, seed=3, relabel=False)
        shuffled = powerlaw_graph(500, 5, seed=3, relabel=True)
        # Without relabeling BA hubs sit at low ids.
        assert raw.degrees[:50].sum() > shuffled.degrees[:50].sum()

    def test_too_few_vertices(self):
        with pytest.raises(ValueError):
            powerlaw_graph(4, 8)


class TestCommunityPowerlawGraph:
    def test_default_shape(self):
        g = community_powerlaw_graph(2048)
        assert g.num_vertices == 2048
        deg = g.degrees
        assert deg.min() >= 1          # no isolated vertices
        assert deg.max() > 5 * np.median(deg)  # hubs exist

    def test_hub_concentration(self):
        """Top vertices hold a real share of all edges (the property
        of real-world graphs the generator restores)."""
        g = community_powerlaw_graph(2048)
        deg = np.sort(g.degrees)[::-1]
        assert deg[:64].sum() / deg.sum() > 0.15

    def test_community_locality(self):
        """Most neighbors of a vertex live in its own id neighbourhood
        less often than under a random graph, but intra edges exist."""
        g = community_powerlaw_graph(2048, intra_fraction=0.5)
        n = g.num_vertices
        comm = 2048 // (2 * 11)  # default communities
        same = 0
        total = 0
        for v in range(0, n, 13):
            size = n // comm + 1
            for u in g.neighbors(v):
                total += 1
                if abs(int(u) - v) < size:
                    same += 1
        assert same / total > 0.25

    def test_deterministic(self):
        a = community_powerlaw_graph(512, seed=9)
        b = community_powerlaw_graph(512, seed=9)
        assert np.array_equal(a.indices, b.indices)

    def test_rejects_oversized_communities(self):
        with pytest.raises(ValueError):
            community_powerlaw_graph(100, 10, communities=50)


@pytest.mark.parametrize("num_hubs", [93, 128, 5])
def test_hub_cdf_draws_match_numpy_choice(num_hubs):
    """The NumPy contract behind the table-driven hub draw.

    ``community_powerlaw_graph`` draws each hub with
    ``cdf.searchsorted(rng.random(), side="right")`` over the
    normalised cumulative hub weights; the graphs it pins were made
    with ``rng.choice(num_hubs, p=weights)``.  The two must give the
    same draws and leave the generator in the same state, or every
    graph (and every cached result keyed on its factory arguments)
    moves silently.  93, 128 and 5 are the hub counts of the default
    2048- and 4096-vertex graphs and of 128-vertex graphs; together
    the cases make over 100k draws."""
    weights = zipf_weights(num_hubs, 0.4)  # the default hub_skew
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    via_choice = np.random.default_rng(num_hubs)
    via_cdf = np.random.default_rng(num_hubs)
    draws = 34_000
    a = [via_choice.choice(num_hubs, p=weights) for _ in range(draws)]
    b = [cdf.searchsorted(via_cdf.random(), side="right")
         for _ in range(draws)]
    assert a == b
    assert via_choice.bit_generator.state == via_cdf.bit_generator.state


class TestRandomWeights:
    def test_weights_symmetric(self):
        g = random_weights(powerlaw_graph(200, 4, seed=5), seed=6)
        for v in range(0, 200, 17):
            for u, w in zip(g.neighbors(v), g.edge_weights(v)):
                u = int(u)
                back = dict(zip(g.neighbors(u).tolist(),
                                g.edge_weights(u).tolist()))
                assert back[v] == pytest.approx(float(w))

    def test_weight_range(self):
        g = random_weights(powerlaw_graph(200, 4, seed=5), 2.0, 3.0, seed=6)
        assert g.weights.min() >= 2.0 and g.weights.max() <= 3.0


class TestGridMaze:
    def test_solvable(self):
        maze = grid_maze(24, 24, 0.25, seed=1)
        assert not maze.blocked[maze.start]
        assert not maze.blocked[maze.goal]

    def test_neighbors_exclude_blocked(self):
        maze = grid_maze(16, 16, 0.3, seed=2)
        for cell in range(maze.num_cells):
            if maze.blocked[cell]:
                continue
            for n in maze.neighbors(cell):
                assert not maze.blocked[n]

    def test_heuristic_is_admissible_lower_bound(self):
        """h is Manhattan distance; with min move cost 1 it never
        exceeds the true remaining cost."""
        maze = grid_maze(12, 12, 0.1, seed=3)
        assert maze.heuristic(maze.goal) == 0
        assert maze.heuristic(maze.start) == (
            (maze.rows - 1) + (maze.cols - 1)
        )

    def test_coords_roundtrip(self):
        maze = grid_maze(8, 10, 0.0, seed=4)
        for cell in (0, 13, 79):
            r, c = maze.coords(cell)
            assert maze.cell(r, c) == cell


class TestSparseMatrix:
    def test_shape_and_rows(self):
        m = skewed_sparse_matrix(rows=200, nnz_per_row=6, seed=7)
        assert m.rows == m.cols == 200
        assert m.nnz == m.indptr[-1]
        for i in range(0, 200, 23):
            cols, vals = m.row_slice(i)
            assert len(cols) == len(vals) >= 1
            assert len(np.unique(cols)) == len(cols)  # no duplicates
            assert (np.diff(cols) > 0).all()          # sorted

    def test_column_skew(self):
        """Some columns are much more popular than the median (the
        per-row dedup bounds how extreme the skew can get)."""
        m = skewed_sparse_matrix(rows=500, nnz_per_row=8, skew=1.0, seed=8)
        counts = np.bincount(m.indices, minlength=m.cols)
        assert counts.max() > 2 * max(1, int(np.median(counts)))
        flat = skewed_sparse_matrix(rows=500, nnz_per_row=8, skew=0.0,
                                    seed=8)
        flat_counts = np.bincount(flat.indices, minlength=flat.cols)
        assert counts.max() > flat_counts.max()

    def test_multiply_matches_dense(self):
        m = skewed_sparse_matrix(rows=50, nnz_per_row=4, seed=9)
        dense = np.zeros((50, 50))
        for i in range(50):
            cols, vals = m.row_slice(i)
            dense[i, cols] = vals
        assert np.allclose(m.multiply(), dense @ m.vector)


class TestClusteredPoints:
    def test_balanced_clusters(self):
        ds = clustered_points(1000, 3, 5, cluster_skew=0.0, seed=10)
        counts = np.bincount(ds.labels, minlength=5)
        assert counts.min() > 100

    def test_skewed_clusters(self):
        ds = clustered_points(1000, 3, 5, cluster_skew=1.5, seed=10)
        counts = np.bincount(ds.labels, minlength=5)
        assert counts.max() > 2 * counts.min()

    def test_points_near_centers(self):
        ds = clustered_points(500, 2, 4, spread=0.1, seed=11)
        d = np.linalg.norm(ds.points - ds.centers[ds.labels], axis=1)
        assert d.mean() < 1.0


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(200, 1500),
    m=st.integers(2, 8),
)
def test_property_community_graph_well_formed(n, m):
    g = community_powerlaw_graph(n, m, seed=1)
    assert g.num_vertices == n
    assert (g.indices >= 0).all() and (g.indices < n).all()
    # no self loops
    src = np.repeat(np.arange(n), np.diff(g.indptr))
    assert (src != g.indices).all()
    # symmetric
    fwd = set(zip(src.tolist(), g.indices.tolist()))
    assert all((b, a) in fwd for a, b in list(fwd)[:200])


# ----------------------------------------------------------------------
# frozen dataset digests
# ----------------------------------------------------------------------
# Run keys hash a workload's factory arguments, not its content, so a
# generator that drew one different edge would silently change every
# cached result.  These digests pin the graphs behind the graph
# workloads and the full KD-tree search output byte for byte; they may
# only move together with a deliberate simulator-salt bump
# (``python tests/test_datasets.py`` prints the current values).
DATASET_GOLDEN = Path(__file__).parent / "golden" / "dataset_digests.json"

#: factory kwargs per graph workload: defaults, two other seeds, and
#: the serve benchmark's tiny points
GRAPH_CASES = ({}, {"seed": 1}, {"seed": 2}, {"num_vertices": 128})
KNN_DIMS = (2, 4, 7, 16)
KNN_KS = (1, 4, 8)


def _hash_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _case_label(kwargs) -> str:
    return ",".join(f"{k}={v}" for k, v in kwargs.items()) or "default"


def dataset_digests() -> dict:
    import repro  # noqa: F401  (registers every workload)
    from repro.workloads.base import make_workload
    from repro.workloads.knn import KnnWorkload, kd_search

    out = {}
    for name in ("pr", "bfs", "sssp", "gcn"):
        for kwargs in GRAPH_CASES:
            g = make_workload(name, **kwargs).graph
            arrays = [np.int64(g.num_vertices), g.indptr, g.indices]
            if g.weights is not None:
                arrays.append(g.weights)
            out[f"graph/{name}/{_case_label(kwargs)}"] = \
                _hash_arrays(*arrays)
    for dim in KNN_DIMS:
        wl = KnnWorkload(dim=dim, num_queries=64)
        for k in KNN_KS:
            arrays = []
            for query in wl.queries:
                idx, dist, visited, scanned = kd_search(wl.tree, query, k)
                arrays += [idx, dist, np.asarray(visited, dtype=np.int64),
                           np.asarray(scanned, dtype=np.int64)]
            out[f"knn/dim={dim}/k={k}"] = _hash_arrays(*arrays)
    return out


def test_dataset_digests_frozen():
    golden = json.loads(DATASET_GOLDEN.read_text())
    current = dataset_digests()
    assert sorted(current) == sorted(golden)
    moved = [key for key in golden if current[key] != golden[key]]
    assert not moved, f"datasets moved off their golden digests: {moved}"


if __name__ == "__main__":
    print(json.dumps(dataset_digests(), indent=2, sort_keys=True))
