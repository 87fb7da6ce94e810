"""Figure 7: energy of all designs, broken into four components.

Prints the stacked-bar data (static / DRAM / interconnect / core+SRAM),
normalized to design B, for every workload.

Shape to reproduce: the interconnect component tracks the remote-access
hops of Figure 8; Traveller-Cache designs trade extra DRAM (cache
insertions) for interconnect savings; ABNDP's energy is lowest on the
hot-data workloads where the cache wins big (the paper reports a 24.6%
mean reduction across its full-size runs).
"""

from .common import ALL_WORKLOADS, DESIGNS


def test_fig07_energy_breakdown(full_matrix):
    rows = full_matrix

    print("\nFigure 7: energy normalized to B "
          "(core+SRAM / DRAM / interconnect / static)")
    for w in ALL_WORKLOADS:
        base = rows[w]["B"]
        print(f"{w}:")
        for d in DESIGNS:
            parts = rows[w][d].energy.normalized_to(base.energy)
            print(f"  {d:3} total={parts['total']:.3f}  "
                  f"core={parts['core_sram']:.3f} dram={parts['dram']:.3f} "
                  f"noc={parts['interconnect']:.3f} "
                  f"static={parts['static']:.3f}")

    # --- shape assertions -------------------------------------------
    for w in ("knn", "spmv"):
        base = rows[w]["B"]
        o = rows[w]["O"]
        c = rows[w]["C"]
        # ABNDP saves energy where the cache absorbs hot traffic.
        assert o.energy_ratio_over(base) < 1.0, w
        # The Traveller Cache cuts the interconnect component.
        assert (o.energy.interconnect_pj
                < base.energy.interconnect_pj), w
        assert (c.energy.interconnect_pj
                < base.energy.interconnect_pj), w
        # ...while adding DRAM energy for the cache insertions.
        assert c.energy.dram_pj > 0.95 * base.energy.dram_pj, w

    # kmeans: no remote traffic, so every design's energy is equal.
    km = rows["kmeans"]
    for d in DESIGNS:
        assert abs(km[d].energy_ratio_over(km["B"]) - 1.0) < 0.1, d

    # The interconnect component correlates with the hop counts.
    pr = rows["pr"]
    assert (pr["C"].energy.interconnect_pj
            < pr["Sl"].energy.interconnect_pj)
