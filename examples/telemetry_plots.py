#!/usr/bin/env python
"""What does an instrumented run look like from the inside?

Runs PageRank on the full ABNDP design (O) with telemetry enabled and
renders two of the time-resolved views the aggregate RunResult cannot
show:

* the **Traveller hit-rate ramp** — every timestamp barrier bulk-
  invalidates the cache, so within each timestamp the hit rate climbs
  from cold to warm; the per-timestamp samples show how quickly the
  camps re-capture the working set;
* the **NoC link heatmap** — per-stack traffic attributed to physical
  mesh links by XY-route decomposition, exposing which part of the
  mesh carries the remote-access load.

The same data exports to Chrome/Perfetto with
``python -m repro trace O pr --out trace.json``.

Run:  python examples/telemetry_plots.py
"""

import numpy as np

import repro
from repro.analysis.plotting import heatmap, line_series, sparkline
from repro.config import experiment_config
from repro.telemetry import Telemetry


def main() -> None:
    config = experiment_config().scaled(2, 2)
    telemetry = Telemetry(sample_interval=1)
    print("Running PageRank on design O with telemetry enabled...\n")
    result = repro.simulate("O", "pr", config=config, telemetry=telemetry)
    print(result.summary())
    print()

    # 1. the traveller hit-rate ramp, one sample per timestamp.
    # The counters are cumulative, so per-timestamp rates come from
    # the sample-to-sample increments.
    hits = telemetry.sampler.series("traveller.hits").deltas()
    misses = telemetry.sampler.series("traveller.misses").deltas()
    cumulative = telemetry.sampler.series("traveller.hit_rate")
    # Skip idle rows (the run-end flush repeats the last totals).
    active = [(t, h, m) for t, h, m in
              zip(cumulative.timestamps, hits, misses) if h + m > 0]
    ts = [str(t) for t, _, _ in active]
    ramp = [h / (h + m) for _, h, m in active]
    print(line_series(
        "traveller hit rate per timestamp (bulk-invalidated at barriers)",
        ts,
        {"hit rate": ramp},
    ))
    print(f"\n  cumulative hit rate: {cumulative.values[-1]:.1%}")
    print(f"\n  hits per timestamp:   {sparkline(hits)}")
    print(f"  misses per timestamp: {sparkline(misses)}")
    print()

    # 2. the per-link NoC heatmap, stacks as rows/columns
    meter = telemetry.link_meter
    stacks = meter.stack_matrix()
    labels = [f"s{i}" for i in range(stacks.shape[0])]
    print(heatmap(
        "inter-stack NoC flits (row = source stack, column = destination)",
        stacks, row_labels=labels, col_labels=labels,
    ))
    print()
    print("hottest directed mesh links (XY-routed):")
    ranked = sorted(meter.link_flits.items(), key=lambda kv: kv[1],
                    reverse=True)
    for (src, dst), flits in ranked[:5]:
        print(f"  stack {src} -> stack {dst}: {flits:,} flits")

    # 3. queue-depth skew over time, from the sampled vector series
    depth = telemetry.sampler.series("queue.depth")
    skew = [float(np.max(row) / np.mean(row)) if np.mean(row) > 0 else 1.0
            for row in depth.rows]
    print(f"\n  queue-depth skew (max/mean) per timestamp: {sparkline(skew)}")


if __name__ == "__main__":
    main()
