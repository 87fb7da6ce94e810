"""Run the full Figure 6/7/8 matrix: all designs x all workloads.

The grid itself is no longer defined here — it is the committed
``campaigns/full_matrix.json`` campaign, expanded and executed through
the declarative campaign subsystem (same run keys, same cache entries
as ``repro sweep`` and any ``--server`` submission of the same file).
A second invocation with unchanged configs replays from
``.repro_cache/`` in well under a second.  ``--no-cache`` forces live
runs; ``--jobs 1`` reproduces the old serial path (bit-identical
results either way).
"""

import argparse
import sys
import time
from pathlib import Path

import repro
from repro.analysis.stats import geomean
from repro.campaign import load_campaign, run_campaign
from repro.observatory.progress import SweepProgress

CAMPAIGN_FILE = Path(__file__).resolve().parent.parent / "campaigns" \
    / "full_matrix.json"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("-j", "--jobs", type=int, default=None,
                    help="worker processes (default: all cores)")
    ap.add_argument("--no-cache", action="store_true",
                    help="bypass the on-disk result cache")
    ap.add_argument("-q", "--quiet", action="store_true",
                    help="suppress per-point progress lines")
    args = ap.parse_args(argv)

    t0 = time.time()
    campaign = load_campaign(CAMPAIGN_FILE)
    report = run_campaign(
        campaign, campaign.expand(),
        cache=False if args.no_cache else "default",
        jobs=args.jobs,
        events=None if args.quiet else SweepProgress(stream=sys.stdout,
                                                     live=False),
    )
    rows = report.results()
    for o in report.failures:
        print(f"FAILED {o.point.label}: "
              f"{o.error.strip().splitlines()[-1]}")

    for name in repro.ALL_WORKLOADS:
        res = rows.get(name, {})
        if "B" not in res:
            continue
        base = res["B"]
        line = " ".join(
            f"{d}:{r.speedup_over(base):.2f}" for d, r in res.items()
        )
        eline = " ".join(
            f"{d}:{r.energy_ratio_over(base):.2f}" for d, r in res.items()
        )
        hline = " ".join(
            f"{d}:{r.hops_ratio_over(base):.2f}" for d, r in res.items()
        )
        print(f"{name:7} spd  {line}", flush=True)
        print(f"{name:7} eng  {eline}", flush=True)
        print(f"{name:7} hops {hline}", flush=True)

    complete = [w for w in repro.ALL_WORKLOADS
                if all(d in rows.get(w, {}) for d in repro.ALL_DESIGNS)]
    if complete:
        print("\ngeomean speedups:")
        for d in repro.ALL_DESIGNS:
            if d == "B":
                continue
            g = geomean([rows[w][d].speedup_over(rows[w]["B"])
                         for w in complete])
            print(f"  {d}: {g:.3f}")
    print(f"\n{report.summary()}")
    print(f"total {time.time()-t0:.1f}s")
    return 1 if report.failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
