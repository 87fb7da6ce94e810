"""Figure 12: impact of the camp-location count C.

Sweeps C over {1, 3, 7, 15} (so the units divide into C+1 groups) on
design O and reports DRAM vs interconnect energy, normalized to C=1.

Shape to reproduce: more camps cache more data and trim interconnect
energy, but add DRAM cache insertions; the combined effect is small,
and C=3 is a good middle point (the paper's default).
"""

from .common import DETAIL_WORKLOADS, campaign_results

CAMPS = (1, 3, 7, 15)


def test_fig12_camp_location_count(runtime):
    res = campaign_results("fig12_camp_count", runtime)

    print("\nFigure 12: DRAM + interconnect energy vs camp count "
          "(normalized to C=1)")
    for w in DETAIL_WORKLOADS:
        base = res[w][CAMPS[0]].energy
        denom = (base.dram_pj + base.interconnect_pj) or 1.0
        print(f"{w}:")
        for c in CAMPS:
            e = res[w][c].energy
            print(f"  C={c:<3} dram={e.dram_pj / denom:.3f} "
                  f"noc={e.interconnect_pj / denom:.3f} "
                  f"sum={(e.dram_pj + e.interconnect_pj) / denom:.3f}")

    # --- shape assertions -------------------------------------------
    for w in ("pr", "knn", "spmv"):
        base = res[w][CAMPS[0]].energy
        denom = (base.dram_pj + base.interconnect_pj) or 1.0
        sums = {
            c: (res[w][c].energy.dram_pj
                + res[w][c].energy.interconnect_pj) / denom
            for c in CAMPS
        }
        # The combined effect is minor through the paper's default and
        # beyond: C in {1, 3, 7} stays within ~25% of C=1.  At C=15
        # the per-camp reuse of our reduced datasets drops low enough
        # that fill overheads start to show (a scale effect; the paper
        # still sees small differences there).
        assert all(0.6 < sums[c] < 1.25 for c in (1, 3, 7)), (w, sums)
        assert sums[15] < 1.5, (w, sums)
    # More camps means more insertions, hence more DRAM events.
    for w in ("pr", "knn"):
        assert (res[w][15].dram.cache_fills
                >= res[w][1].dram.cache_fills), w
