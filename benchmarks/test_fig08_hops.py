"""Figure 8: remote accesses, measured as total inter-stack mesh hops.

Shape to reproduce (Section 7.1): Sm trims hops below B by considering
all of a task's elements; Sl adds hops back through stealing; the
Traveller Cache designs (C, O) cut hops the most — C by ~21% in the
paper — with O slightly above C because its load balancing moves some
tasks off the shortest-distance unit.
"""

from .common import DETAIL_WORKLOADS, DESIGNS


def test_fig08_remote_access_hops(full_matrix):
    rows = full_matrix

    print("\nFigure 8: inter-stack hops normalized to B")
    print("workload " + "".join(f"{d:>7}" for d in DESIGNS))
    for w in DETAIL_WORKLOADS:
        base = rows[w]["B"]
        print(f"{w:8} " + "".join(
            f"{rows[w][d].hops_ratio_over(base):7.2f}" for d in DESIGNS))

    # --- shape assertions -------------------------------------------
    for w in DETAIL_WORKLOADS:
        base = rows[w]["B"]
        # Lowest-distance mapping never increases remote accesses.
        assert rows[w]["Sm"].inter_hops <= base.inter_hops * 1.01, w
        # Work stealing adds hops back on top of Sm's placement.
        assert rows[w]["Sl"].inter_hops >= rows[w]["Sm"].inter_hops, w
        # The Traveller Cache gives C the fewest hops of all designs.
        assert rows[w]["C"].inter_hops == min(
            rows[w][d].inter_hops for d in DESIGNS
        ), w
        assert rows[w]["C"].hops_ratio_over(base) < 0.9, w

    # O keeps most of the cache's hop savings despite balancing
    # (clearly below the stealing design on the hot-data workloads).
    for w in ("knn", "spmv", "pr"):
        assert (rows[w]["O"].inter_hops
                < rows[w]["Sl"].inter_hops), w
