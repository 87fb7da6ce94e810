"""Figure 13: Traveller Cache vs a pure SRAM cache vs a DRAM-tag cache.

All three share the camp-location organisation and data capacity; they
differ in where data and tags live:

* Traveller — data in DRAM, tags in SRAM (the paper's design);
* SRAM      — data and tags in SRAM: fastest and most efficient, but
              needs an absurd ~16 mm^2 of logic-die area per unit;
* DRAM-tag  — tags stored with the data in DRAM: no SRAM cost, but
              every probe pays a DRAM access before hit/miss is known
              (the paper measures a 21% slowdown, 54% more energy).
"""

import repro
from repro.config import CacheStyle

from .common import DETAIL_WORKLOADS, campaign_results

STYLES = (CacheStyle.TRAVELLER, CacheStyle.SRAM, CacheStyle.DRAM_TAG)


def test_fig13_cache_style_comparison(runtime):
    grid = campaign_results("fig13_cache_styles", runtime)
    res = {w: {s: by_style[s.value] for s in STYLES}
           for w, by_style in grid.items()}

    print("\nFigure 13a/b: speedup and DRAM energy vs the Traveller Cache")
    for w in DETAIL_WORKLOADS:
        trav = res[w][CacheStyle.TRAVELLER]
        line = f"{w:7}"
        for s in STYLES:
            r = res[w][s]
            dram_ratio = (r.energy.dram_pj / trav.energy.dram_pj
                          if trav.energy.dram_pj else 1.0)
            line += (f"  {s.value}: spd={r.speedup_over(trav):.2f}"
                     f"/dramE={dram_ratio:.2f}")
        print(line)

    # Area story (Section 7.2): the reason Traveller wins overall.
    system = repro.build_system("O")
    from repro.arch.sram import sram_area_mm2
    sram_data_area = sram_area_mm2(
        system.config.cache.cache_bytes(system.config.memory))
    tag_area = system.sram.tag_area_mm2()
    print(f"\nper-unit die area: SRAM data cache = {sram_data_area:.2f} mm^2"
          f"  vs  Traveller tags = {tag_area:.2f} mm^2")

    # --- shape assertions -------------------------------------------
    for w in DETAIL_WORKLOADS:
        trav = res[w][CacheStyle.TRAVELLER]
        sram = res[w][CacheStyle.SRAM]
        dtag = res[w][CacheStyle.DRAM_TAG]
        # SRAM caching is at least as fast as Traveller...
        assert sram.speedup_over(trav) >= 0.98, w
        # ...and uses less DRAM energy (no cache fills/reads in DRAM).
        assert sram.energy.dram_pj <= trav.energy.dram_pj, w
        # DRAM tags are never faster than SRAM tags.
        assert dtag.speedup_over(trav) <= 1.02, w
        # The tag probes show up as extra DRAM events.
        assert dtag.dram.tag_accesses_in_dram > 0, w
    # The area argument: the SRAM data array is orders of magnitude
    # bigger than Traveller's tag array (paper: 16.12 vs 0.32 mm^2).
    assert sram_data_area > 10.0
    assert tag_area < 1.0
