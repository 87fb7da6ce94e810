"""Figure 9: workload distribution across all NDP cores.

The paper plots, per design, the active cycles of every core sorted in
ascending order.  We print a compact summary of each curve (selected
percentiles of the sorted curve, normalized to B's mean) and assert
the balance ordering.

Shape to reproduce: B/Sm/C curves end in a steep tail (hotspots); Sl
and the hybrid designs are much flatter; on knn the no-balance designs
have extreme tails.
"""

from .common import DETAIL_WORKLOADS, DESIGNS

_PERCENTILES = (0, 25, 50, 75, 100)


def test_fig09_active_cycle_distribution(full_matrix):
    rows = full_matrix

    print("\nFigure 9: sorted per-core active cycles (normalized to "
          "B's mean core)")
    for w in DETAIL_WORKLOADS:
        norm = rows[w]["B"].active_cycles_per_core.mean() or 1.0
        print(f"{w}:  (percentiles {_PERCENTILES})")
        for d in DESIGNS:
            curve = rows[w][d].sorted_active_cycles() / norm
            pts = [curve[int(p / 100 * (len(curve) - 1))]
                   for p in _PERCENTILES]
            print(f"  {d:3} " + " ".join(f"{v:6.2f}" for v in pts)
                  + f"   imbalance={rows[w][d].load_imbalance():5.2f}")

    # --- shape assertions -------------------------------------------
    for w in ("pr", "knn", "spmv"):
        r = rows[w]
        # The hybrid flattens the distribution relative to the
        # no-balance designs.
        assert r["O"].load_imbalance() < r["Sm"].load_imbalance(), w
        assert r["O"].load_imbalance() < r["C"].load_imbalance(), w
        assert r["Sh"].load_imbalance() < r["Sm"].load_imbalance(), w
        # Work stealing also balances (the paper: O's balance is
        # "close to the dynamic work-stealing Sl design").
        assert r["Sl"].load_imbalance() < r["Sm"].load_imbalance(), w

    # knn: the most extreme tails for the no-balance designs.
    knn = rows["knn"]
    assert knn["Sm"].load_imbalance() > 2 * knn["O"].load_imbalance()
