"""Figure 17: impact of the hybrid scheduling weight B = alpha*D_inter.

Sweeps alpha from 0 (pure distance scheduling) to the topology diameter
6, on design O.

Shape to reproduce: remote hops grow with alpha (a larger weight lets
tasks travel further for balance), while performance first improves
and then saturates around the paper's default alpha = d/2 = 3.
"""

from .common import DETAIL_WORKLOADS, campaign_results

ALPHAS = (0.0, 1.0, 2.0, 3.0, 4.0, 6.0)


def test_fig17_hybrid_weight(runtime):
    res = campaign_results("fig17_hybrid_weight", runtime)

    print("\nFigure 17: hops and speedup vs alpha (normalized to alpha=0)")
    for w in DETAIL_WORKLOADS:
        base = res[w][0.0]
        hops = " ".join(
            f"{res[w][a].hops_ratio_over(base):5.2f}" for a in ALPHAS)
        spd = " ".join(
            f"{res[w][a].speedup_over(base):5.2f}" for a in ALPHAS)
        print(f"{w:7} hops {hops}")
        print(f"{'':7} spd  {spd}")

    # --- shape assertions -------------------------------------------
    # The hot-data workloads gain from the load term, and the default
    # alpha = 3 captures most of the benefit (the paper's saturation).
    for w in ("knn", "spmv"):
        base = res[w][0.0]
        best = max(res[w][a].speedup_over(base) for a in ALPHAS[1:])
        assert best > 1.05, w
        assert res[w][3.0].speedup_over(base) > 0.8 * best, w
    # Larger alpha lets tasks travel further: remote accesses never
    # drop below the alpha=0 level anywhere.
    for w in DETAIL_WORKLOADS:
        assert (res[w][6.0].inter_hops
                >= res[w][0.0].inter_hops * 0.9), w
    # The load term always buys balance, even where (pr at this
    # reduced scale) the camp-aware distance placement is already
    # balanced enough that the extra hops outweigh the makespan gain.
    for w in ("pr", "knn", "spmv"):
        assert (res[w][3.0].load_imbalance()
                <= res[w][0.0].load_imbalance() * 1.05), w
