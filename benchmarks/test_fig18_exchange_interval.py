"""Figure 18: impact of the workload-exchange interval.

The paper sweeps 25k..800k cycles on its full-size datasets and finds
performance essentially flat — the exchange can be very infrequent.
This reproduction's datasets (and therefore phase lengths) are a few
hundred times shorter, so the sweep covers the same *ratio* range
around the scaled default of 250 cycles (see EXPERIMENTS.md).

Shape to reproduce: performance is insensitive across a wide range of
intervals.
"""

from .common import DETAIL_WORKLOADS, campaign_results

INTERVALS = (62, 125, 250, 500, 1000, 2000)


def test_fig18_exchange_interval(runtime):
    res = campaign_results("fig18_exchange_interval", runtime)

    print("\nFigure 18: speedup vs exchange interval "
          "(normalized to the shortest interval)")
    print("workload " + "".join(f"{i:>7}" for i in INTERVALS))
    for w in DETAIL_WORKLOADS:
        base = res[w][INTERVALS[0]]
        print(f"{w:8} " + "".join(
            f"{res[w][i].speedup_over(base):7.2f}" for i in INTERVALS))

    # --- shape assertions -------------------------------------------
    # Performance is insensitive across the sweep: every point within
    # a modest band of the best for that workload.
    for w in DETAIL_WORKLOADS:
        makespans = [res[w][i].makespan_cycles for i in INTERVALS]
        assert max(makespans) / min(makespans) < 1.4, (w, makespans)
