"""Golden result digests for the committed full-matrix, fault and mesh campaigns.

Runs ``campaigns/full_matrix.json`` (48 points),
``campaigns/fault_study.json`` (10 points),
``campaigns/mesh_8x8.json`` (3 points on an 8x8 mesh),
``campaigns/mesh_shapes.json`` (4 points on 16x16 and 3x5 meshes) and
``campaigns/link_faults.json`` (4 points on 4x4 and 3x5 meshes whose links
fail and recover mid-run) cold — the result cache is disabled, so every
point is simulated — and digests each point's
``RunResult`` as the SHA-256 of its sorted-key ``result_to_dict`` JSON,
the same digest ``tests/golden/exact_digests.json`` pins for the small
parity matrix.  ``tests/golden/campaign_digests.json`` holds the
committed digests, keyed by campaign name and point label.

    python scripts/golden_digests.py --check   # fail on any moved digest
    python scripts/golden_digests.py --write   # regenerate the file

Regenerate only together with a deliberate behaviour change and a
``SIMULATOR_VERSION`` bump.
"""

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

CAMPAIGNS = ("full_matrix", "fault_study", "mesh_8x8", "mesh_shapes",
             "link_faults")
GOLDEN = ROOT / "tests" / "golden" / "campaign_digests.json"


def campaign_digests(name: str) -> dict:
    """``{point label: digest}`` for one committed campaign, run cold."""
    from repro.campaign import load_campaign, run_campaign
    from repro.sweep.serialize import result_to_dict

    campaign = load_campaign(ROOT / "campaigns" / f"{name}.json")
    report = run_campaign(campaign, campaign.expand(), cache=False, jobs=2)
    print(report.summary())
    if report.failures:
        raise SystemExit(f"error: {name}: {len(report.failures)} point(s) "
                         f"failed")
    return {
        o.point.label: hashlib.sha256(json.dumps(
            result_to_dict(o.result), sort_keys=True).encode()).hexdigest()
        for o in report.outcomes
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true",
                      help=f"regenerate {GOLDEN.relative_to(ROOT)}")
    mode.add_argument("--check", action="store_true",
                      help="fail unless every digest matches the file")
    args = parser.parse_args(argv)
    os.environ["REPRO_NO_HISTORY"] = "1"

    digests = {name: campaign_digests(name) for name in CAMPAIGNS}
    if args.write:
        GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True)
                          + "\n")
        print(f"wrote {GOLDEN.relative_to(ROOT)}")
        return 0

    golden = json.loads(GOLDEN.read_text())
    bad = [f"{name}/{label}"
           for name in CAMPAIGNS
           for label in sorted(set(golden.get(name, {})) | set(digests[name]))
           if golden.get(name, {}).get(label) != digests[name].get(label)]
    total = sum(len(d) for d in digests.values())
    if bad:
        print(f"error: {len(bad)} of {total} point(s) moved off their "
              f"golden digest: {', '.join(bad)}", file=sys.stderr)
        return 1
    print(f"all {total} points match their golden digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
