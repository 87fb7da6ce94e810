"""Tests for the dataset file loaders, the CC extension workload, and
the command-line interface."""

import io
import json

import pytest

import repro
from repro.cli import main as cli_main
from repro.workloads.io import (
    load_matrix_market,
    load_snap_edges,
    save_snap_edges,
)
from repro.workloads.graph import Graph


SNAP_TEXT = """# Directed graph: example
# Nodes: 4 Edges: 3
10\t20
20\t30
10\t40
"""

MTX_TEXT = """%%MatrixMarket matrix coordinate real general
% comment
3 3 4
1 1 2.0
1 3 -1.0
2 2 5.0
3 1 4.0
"""

MTX_SYM = """%%MatrixMarket matrix coordinate pattern symmetric
2 2 2
1 1
2 1
"""


class TestSnapLoader:
    def test_basic_parse(self):
        g = load_snap_edges(io.StringIO(SNAP_TEXT))
        assert g.num_vertices == 4
        # symmetric by default: 3 undirected edges = 6 directed
        assert g.num_edges == 6

    def test_id_compaction(self):
        g = load_snap_edges(io.StringIO(SNAP_TEXT))
        # node "10" was seen first -> id 0, with neighbors 20 and 40
        assert g.degree(0) == 2

    def test_weighted(self):
        text = "1 2 3.5\n2 3 1.5\n"
        g = load_snap_edges(io.StringIO(text), weighted=True)
        assert g.weights is not None
        assert 3.5 in g.edge_weights(0)

    def test_self_loops_dropped(self):
        g = load_snap_edges(io.StringIO("1 1\n1 2\n"))
        assert g.num_edges == 2

    def test_bad_line(self):
        with pytest.raises(ValueError):
            load_snap_edges(io.StringIO("justonecolumn\n42\n"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            load_snap_edges(io.StringIO("# nothing\n"))

    def test_roundtrip_via_file(self, tmp_path):
        g = load_snap_edges(io.StringIO(SNAP_TEXT))
        path = tmp_path / "g.txt"
        save_snap_edges(g, str(path))
        g2 = load_snap_edges(str(path))
        assert g2.num_vertices == g.num_vertices
        assert g2.num_edges == g.num_edges


class TestMatrixMarketLoader:
    def test_general_real(self):
        m = load_matrix_market(io.StringIO(MTX_TEXT))
        assert (m.rows, m.cols, m.nnz) == (3, 3, 4)
        cols, vals = m.row_slice(0)
        assert cols.tolist() == [0, 2]
        assert vals.tolist() == [2.0, -1.0]

    def test_symmetric_pattern(self):
        m = load_matrix_market(io.StringIO(MTX_SYM))
        # the off-diagonal entry is mirrored
        assert m.nnz == 3
        assert set(m.row_slice(0)[0].tolist()) == {0, 1}

    def test_rejects_non_mm(self):
        with pytest.raises(ValueError):
            load_matrix_market(io.StringIO("hello\n"))

    def test_loaded_matrix_runs_spmv(self):
        from repro.workloads.spmv import SpmvWorkload

        m = load_matrix_market(io.StringIO(MTX_TEXT))
        wl = SpmvWorkload(matrix=m, iterations=2)
        repro.simulate("B", wl, verify=True)


class TestCcWorkload:
    def test_correct_on_designs(self):
        wl = repro.make_workload("cc", num_vertices=512)
        repro.simulate("B", wl, verify=True)
        repro.simulate("O", repro.make_workload("cc", num_vertices=512),
                       verify=True)

    def test_multiple_components(self):
        # two disjoint triangles
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0),
                                 (3, 4), (4, 5), (5, 3)])
        from repro.workloads.cc import ConnectedComponentsWorkload

        wl = ConnectedComponentsWorkload(graph=g)
        ref = wl.reference_labels()
        assert ref.tolist() == [0, 0, 0, 3, 3, 3]
        repro.simulate("B", wl, verify=True)


class TestCli:
    def test_designs(self, capsys):
        assert cli_main(["designs"]) == 0
        out = capsys.readouterr().out
        assert "traveller" in out and "work_stealing" in out

    def test_describe_with_mesh(self, capsys):
        assert cli_main(["describe", "--mesh", "2x2"]) == 0
        assert "2x2 stacks" in capsys.readouterr().out

    def test_run_with_export(self, capsys, tmp_path):
        csv = tmp_path / "r.csv"
        rc = cli_main([
            "run", "-d", "B", "-w", "kmeans", "--mesh", "2x2",
            "--csv", str(csv),
        ])
        assert rc == 0
        assert csv.read_text().startswith("design,")
        assert "kmeans" in capsys.readouterr().out

    def test_sweep_camps(self, capsys, tmp_path):
        js = tmp_path / "s.json"
        rc = cli_main([
            "sweep", "camps", "-d", "O", "-w", "kmeans",
            "--json", str(js),
        ])
        assert rc == 0
        assert len(json.loads(js.read_text())) == 4

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["run", "-w", "nope"])
