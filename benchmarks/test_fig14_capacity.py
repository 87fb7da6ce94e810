"""Figure 14: impact of the Traveller Cache capacity (1/512 .. 1/16).

Capacity pressure only exists when the cache is small relative to the
cached working set.  The paper's 512 MB units see pressure at its
full-size datasets; this reproduction's datasets are ~1000x smaller, so
the sweep scales the per-unit memory down by the same factor (512 kB)
to land the cache/working-set ratio in the same regime — otherwise
even 1/512 of the memory would hold every line and the sweep would be
flat (see EXPERIMENTS.md).

Shape to reproduce: larger caches keep more data and cut more remote
hops, with diminishing returns once the hot set fits.
"""

from .common import DETAIL_WORKLOADS, campaign_results

RATIOS = (512, 256, 128, 64, 32, 16)


def test_fig14_cache_capacity(runtime):
    res = campaign_results("fig14_capacity", runtime)

    print("\nFigure 14: hops vs cache capacity (normalized to 1/512)")
    print("workload " + "".join(f"{'1/' + str(r):>8}" for r in RATIOS))
    for w in DETAIL_WORKLOADS:
        denom = res[w][RATIOS[0]].inter_hops or 1
        print(f"{w:8} " + "".join(
            f"{res[w][r].inter_hops / denom:8.3f}" for r in RATIOS))
    print("hit rates (pr): " + " ".join(
        f"1/{r}:{res['pr'][r].cache.hit_rate:.2f}" for r in RATIOS))

    # --- shape assertions -------------------------------------------
    for w in ("pr", "knn", "spmv"):
        small = res[w][512]   # 1/512 of memory
        large = res[w][16]    # 1/16 of memory
        # A much larger cache never has more remote hops...
        assert large.inter_hops <= small.inter_hops * 1.02, w
        # ...and achieves a better hit rate.
        assert large.cache.hit_rate >= small.cache.hit_rate - 0.02, w
    # Somewhere in the sweep capacity actually matters.
    assert any(
        res[w][16].inter_hops < 0.97 * res[w][512].inter_hops
        for w in DETAIL_WORKLOADS
    )
