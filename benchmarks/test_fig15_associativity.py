"""Figure 15: impact of the Traveller Cache associativity (1..16-way).

Uses the same scaled per-unit memory as the capacity sweep (Figure 14)
so that sets actually conflict at this dataset scale.

Shape to reproduce: direct-mapped caches lose hops to conflicts; a
4-way configuration is "sufficiently good" (the paper's default), with
little further gain at 8/16 ways.
"""

from .common import DETAIL_WORKLOADS, campaign_results

WAYS = (1, 2, 4, 8, 16)


def test_fig15_associativity(runtime):
    res = campaign_results("fig15_associativity", runtime)

    print("\nFigure 15: hops vs associativity (normalized to 1-way)")
    print("workload " + "".join(f"{a:>7}w" for a in WAYS))
    for w in DETAIL_WORKLOADS:
        denom = res[w][WAYS[0]].inter_hops or 1
        print(f"{w:8} " + "".join(
            f"{res[w][a].inter_hops / denom:8.3f}" for a in WAYS))

    # --- shape assertions -------------------------------------------
    for w in ("pr", "knn"):
        one = res[w][1]
        four = res[w][4]
        sixteen = res[w][16]
        # Higher associativity never hurts the hit rate meaningfully.
        assert four.cache.hit_rate >= one.cache.hit_rate - 0.02, w
        # 4-way captures almost all of the benefit of 16-way
        # ("a 4-way configuration is sufficiently good").
        assert four.inter_hops <= sixteen.inter_hops * 1.05, w
