"""Figure 16: impact of the probabilistic-insertion bypass probability.

Sweeps the bypass probability over 0 .. 0.8 on design O and reports the
DRAM and interconnect energy split.

Shape to reproduce: more bypassing avoids cache-fill writes (less DRAM
energy) but misses more reuse (slightly more interconnect hops); the
design is overall insensitive, and 40% is a reasonable balance — which
is exactly why the paper picks it.
"""

from .common import DETAIL_WORKLOADS, campaign_results

BYPASS = (0.0, 0.2, 0.4, 0.6, 0.8)


def test_fig16_bypass_probability(runtime):
    res = campaign_results("fig16_bypass", runtime)

    print("\nFigure 16: DRAM / interconnect energy vs bypass probability "
          "(normalized to bypass=0)")
    for w in DETAIL_WORKLOADS:
        base = res[w][0.0].energy
        denom = (base.dram_pj + base.interconnect_pj) or 1.0
        print(f"{w}:")
        for b in BYPASS:
            e = res[w][b].energy
            fills = res[w][b].dram.cache_fills
            print(f"  p={b:.1f} dram={e.dram_pj / denom:.3f} "
                  f"noc={e.interconnect_pj / denom:.3f} fills={fills:,}")

    # --- shape assertions -------------------------------------------
    for w in ("pr", "knn", "spmv"):
        # More bypassing -> fewer cache-fill writes.
        assert (res[w][0.8].dram.cache_fills
                < res[w][0.0].dram.cache_fills), w
        # The design is insensitive overall: total energy varies little
        # across the whole sweep.
        base = res[w][0.0].total_energy_pj
        for b in BYPASS:
            assert abs(res[w][b].total_energy_pj / base - 1.0) < 0.15, (w, b)
