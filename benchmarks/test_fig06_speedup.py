"""Figure 6: overall performance of all designs on all eight workloads.

Prints the full speedup matrix (normalized to design B) plus the
geometric mean, and the host-CPU reference point H.

Shape to reproduce: the hybrid designs (Sh, O) and work stealing (Sl)
beat the baseline on the load-imbalanced workloads; ABNDP (O) leads by
the largest margin where hot data dominates (knn, spmv); kmeans is
insensitive to the design; Sm and C collapse on knn/spmv because they
lack any load balancing.
"""

from repro.analysis.stats import geomean
from repro.core.host import HostModel

from .common import ALL_WORKLOADS, DESIGNS


def test_fig06_overall_speedup(full_matrix):
    rows = full_matrix

    print("\nFigure 6: speedup over B")
    header = "workload " + "".join(f"{d:>7}" for d in DESIGNS)
    print(header)
    speedups = {d: [] for d in DESIGNS}
    for w in ALL_WORKLOADS:
        base = rows[w]["B"]
        line = f"{w:8} "
        for d in DESIGNS:
            s = rows[w][d].speedup_over(base)
            speedups[d].append(s)
            line += f"{s:7.2f}"
        print(line)
    print("geomean  " + "".join(
        f"{geomean(speedups[d]):7.2f}" for d in DESIGNS))

    host = HostModel()
    b_vs_h = host.speedup_of(rows["pr"]["B"])
    o_vs_h = b_vs_h * rows["pr"]["O"].speedup_over(rows["pr"]["B"])
    print(f"\nhost reference (pr): B = {b_vs_h:.2f}x over H, "
          f"O = {o_vs_h:.2f}x over H")

    # --- shape assertions -------------------------------------------
    gm = {d: geomean(speedups[d]) for d in DESIGNS}
    # The load-balancing designs beat the baseline overall.
    assert gm["Sl"] > 1.0
    assert gm["Sh"] > 1.0
    assert gm["O"] > 1.0
    # Designs without load balance do not (knn/spmv drag them down).
    assert gm["Sm"] < 1.0
    # ABNDP leads where hot data dominates.
    knn = rows["knn"]
    assert knn["O"].speedup_over(knn["B"]) == max(
        knn[d].speedup_over(knn["B"]) for d in DESIGNS
    )
    assert knn["O"].speedup_over(knn["B"]) > 1.5
    spmv = rows["spmv"]
    assert spmv["O"].speedup_over(spmv["B"]) == max(
        spmv[d].speedup_over(spmv["B"]) for d in DESIGNS
    )
    # knn punishes the no-balance designs hardest (Section 7.1).
    assert knn["Sm"].speedup_over(knn["B"]) < 0.7
    assert knn["C"].speedup_over(knn["B"]) < 0.7
    # kmeans is design-insensitive (fully local, independent tasks).
    km = rows["kmeans"]
    for d in DESIGNS:
        assert abs(km[d].speedup_over(km["B"]) - 1.0) < 0.1, d
    # NDP beats the host by a sizable factor.
    assert b_vs_h > 2.0
