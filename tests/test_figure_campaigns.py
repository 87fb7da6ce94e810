"""The paper-figure campaigns keep the run keys the figures always had.

``tests/golden/figure_keys.json`` holds the run key of every point the
figure benchmarks in ``benchmarks/`` simulated before they ran as
committed campaigns, labelled the way each campaign labels its points.
Expanding a campaign computes its keys without simulating, so a change
to a campaign file, the campaign resolver or a config default that
would re-key a figure point fails here in well under a second.

Figure 10's points are not pinned: they were simulated from workload
instances, which are keyed by their state rather than by name and
factory arguments, so no earlier key exists for them.
``benchmarks/test_fig10_scalability.py`` checks that each mesh gets
its own graph size.
"""

import json
from pathlib import Path

import pytest

from repro.campaign.spec import load_campaign

REPO = Path(__file__).resolve().parent.parent
GOLDEN = json.loads(
    (REPO / "tests" / "golden" / "figure_keys.json").read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_figure_campaign_keys_match_golden(name):
    campaign = load_campaign(REPO / "campaigns" / f"{name}.json")
    keys = {point.label: point.spec.run_key()
            for point in campaign.expand().points}
    assert keys == GOLDEN[name]

