"""Figure 11: skewed vs identical camp-location mappings.

The skewed mapping's benefit is *conflict avoidance*: when two hot
lines collide in one group's cache sets, a different per-group hash
usually separates them in the other groups.  That mechanism only has
something to save when cache sets are actually contended, so this
sweep runs under the same scaled per-unit memory as the capacity sweep
(Figure 14) — at this reproduction's reduced dataset sizes the default
8 MB cache regions are so overprovisioned that conflicts never occur
and the two mappings tie (see EXPERIMENTS.md).

Shape to reproduce: under set pressure, the skewed mapping evicts less
and never loses to the identical mapping; the paper measures a 12%
average hop saving at its full-scale working sets.
"""

from .common import DETAIL_WORKLOADS, campaign_results


def test_fig11_skewed_vs_identical(runtime):
    # 2 kB cache region per unit (1/256): real set pressure
    res = campaign_results("fig11_skewed_mapping", runtime)

    print("\nFigure 11: hops with skewed mapping, normalized to identical "
          "(under cache-set pressure)")
    ratios = []
    for w in DETAIL_WORKLOADS:
        skewed, identical = res[w]["skewed"], res[w]["identical"]
        denom = identical.inter_hops or 1
        ratio = skewed.inter_hops / denom
        ratios.append(ratio)
        print(f"  {w:7} ratio={ratio:.3f}  "
              f"evictions: skewed={skewed.cache.evictions:7,} "
              f"identical={identical.cache.evictions:7,}  "
              f"hit: {skewed.cache.hit_rate:.2f} vs "
              f"{identical.cache.hit_rate:.2f}")
    mean_ratio = sum(ratios) / len(ratios)
    print(f"  mean ratio: {mean_ratio:.3f} "
          f"(paper at full-scale working sets: ~0.88)")

    # --- shape assertions -------------------------------------------
    # On average, skewing does not lose under conflict pressure.
    assert mean_ratio <= 1.02
    # The workload with the hardest set contention (knn's tree+points
    # footprint) shows the paper's saving directly.
    knn_skewed, knn_identical = res["knn"]["skewed"], res["knn"]["identical"]
    assert knn_skewed.inter_hops < knn_identical.inter_hops
    assert knn_skewed.cache.evictions <= knn_identical.cache.evictions
