#!/usr/bin/env python
"""Resilience study: slowdown vs. failed units, baseline vs. ABNDP.

Kills 0, 2, 4, ... NDP units (same seeded victims for every design)
and plots how much each run slows down relative to its own healthy
reference.  Both designs keep the zero-lost-tasks guarantee; the
interesting readout is *how* they absorb the loss — the co-locating
baseline (B) re-places stranded tasks near their (now unreachable)
homes and pays timeout penalties, while full ABNDP (O) folds the
re-placed work into its normal hybrid balancing.

The study itself is the committed ``campaigns/fault_study.json``
campaign — designs, failure counts and seed-derived schedules all live
in that one file (this script only renders the plot).  Every point
runs through the sweep cache, so re-running the study is nearly free
and ``repro campaign run campaigns/fault_study.json`` shares the same
cache entries.

Run:  python examples/fault_campaign.py [workload] [--no-cache]
      (default workload: pr)
"""

import sys
from pathlib import Path

import repro
from repro.analysis.plotting import line_series
from repro.campaign import load_campaign, run_campaign

CAMPAIGN_FILE = Path(__file__).resolve().parent.parent / "campaigns" \
    / "fault_study.json"


def unit_fails(spec) -> int:
    """Units a point's expanded fault schedule kills."""
    faults = spec.faults or {"events": []}
    return sum(1 for e in faults["events"] if e.get("kind") == "unit_fail")


def main() -> None:
    args = [a for a in sys.argv[1:] if not a.startswith("-")]
    cache = False if "--no-cache" in sys.argv[1:] else "default"
    name = args[0] if args else "pr"
    if name not in repro.ALL_WORKLOADS:
        raise SystemExit(
            f"unknown workload {name!r}; pick one of {repro.ALL_WORKLOADS}"
        )

    campaign = load_campaign(CAMPAIGN_FILE)
    expansion = campaign.expand(sets={"base.workload": name})
    designs = campaign.doc["axes"]["design"]
    counts = sorted({unit_fails(p.spec) for p in expansion.points})
    seed = repro.experiment_config().seed

    print(f"Failing units under {name!r} (seed {seed}, "
          f"campaign {campaign.name!r})...\n")
    report = run_campaign(campaign, expansion, cache=cache)
    if report.failures:
        for o in report.failures:
            print(f"FAILED {o.point.label}: {o.error}")
        raise SystemExit(1)

    by_design = {d: {} for d in designs}
    for outcome in report.outcomes:
        spec = outcome.point.spec
        by_design[spec.design][unit_fails(spec)] = outcome.result

    slowdowns = {d: [] for d in designs}
    for design in designs:
        healthy = by_design[design][0]
        for fails in counts:
            r = by_design[design][fails]
            lost = healthy.tasks_executed - r.tasks_executed
            assert lost == 0, "tasks were lost!"
            s = r.makespan_cycles / healthy.makespan_cycles
            slowdowns[design].append(s)
            if fails:
                res = r.resilience
                print(f"  {design}: {fails:3d} failed -> slowdown "
                      f"{s:5.2f}  "
                      f"(reexecuted {res.tasks_reexecuted}, "
                      f"unreachable {res.unreachable_accesses})")

    print()
    print(line_series(
        f"slowdown vs. failed units ({name}, zero lost tasks everywhere)",
        counts,
        {f"{d} ({'baseline' if d == 'B' else 'ABNDP'})": slowdowns[d]
         for d in designs},
        height=12,
    ))
    print()
    b_tail, o_tail = slowdowns["B"][-1], slowdowns["O"][-1]
    print(f"With {counts[-1]} dead units: B slows {b_tail:.2f}x, "
          f"O slows {o_tail:.2f}x — and neither lost a single task.")


if __name__ == "__main__":
    main()
