"""Figure 2: the motivating tradeoff, on Page Rank.

Left panel: interconnect hops under B (baseline), Sm (lowest-distance
mapping, "LDM") and Sl (work stealing, "WS").  Right panel: the
distribution of execution cycles across the NDP units (box plot).

Shape to reproduce: LDM reduces hops relative to the baseline but
*worsens* the busiest unit; WS flattens the distribution (lower max)
but moves tasks away from their data, so its hops exceed LDM's.
"""

from repro.analysis.stats import quartiles


def test_fig02_motivation_tradeoff(full_matrix):
    res = full_matrix["pr"]
    base, ldm, ws = res["B"], res["Sm"], res["Sl"]

    print("\nFigure 2 (left): interconnect hops, Page Rank")
    for name, r in [("BASE", base), ("LDM", ldm), ("WS", ws)]:
        print(f"  {name:5} {r.inter_hops:12,} hops "
              f"({r.hops_ratio_over(base):.2f}x of BASE)")

    print("Figure 2 (right): per-unit execution cycles (box stats)")
    for name, r in [("BASE", base), ("LDM", ldm), ("WS", ws)]:
        per_unit = r.active_cycles_per_core.reshape(-1, 2).sum(axis=1)
        q = quartiles(per_unit)
        print(f"  {name:5} min={q['min']:9,.0f} q25={q['q25']:9,.0f} "
              f"med={q['median']:9,.0f} q75={q['q75']:9,.0f} "
              f"max={q['max']:9,.0f}")

    # --- shape assertions -------------------------------------------
    # LDM cuts remote accesses below the baseline...
    assert ldm.inter_hops < base.inter_hops
    # ...but concentrates work: its busiest unit is at least as busy.
    assert ldm.busiest_core_cycles() >= 0.95 * base.busiest_core_cycles()
    # WS flattens the distribution (strictly better balance than LDM)...
    assert ws.load_imbalance() < ldm.load_imbalance()
    # ...at the price of more remote accesses than LDM.
    assert ws.inter_hops > ldm.inter_hops
