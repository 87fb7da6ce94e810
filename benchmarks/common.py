"""Shared infrastructure for the per-figure benchmark modules.

Every module in ``benchmarks/`` regenerates one table or figure of the
paper: it reads the results of a committed campaign under
``campaigns/``, prints the same rows/series the paper plots, and
sanity-checks the qualitative *shape* (who wins, roughly by how much,
where the trend bends).  Absolute numbers are not expected to match the
paper — the substrate is a reduced-scale Python simulator, not the
authors' zsim testbed; see EXPERIMENTS.md for the per-figure comparison.

Figures 2 and 6–9 read one session run of ``campaigns/full_matrix.json``;
Figures 10–18 each run their own ``campaigns/figNN_*.json``.  Every
campaign goes through :func:`repro.campaign.run_campaign` on one warm
worker pool shared by the session (``conftest.py``) and the
content-addressed result cache in ``.repro_cache/``, so a re-run with
unchanged configs replays from the cache in seconds.  Set
``REPRO_NO_CACHE`` to force live simulations.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict

import repro
from repro.campaign import load_campaign, run_campaign

#: figure order used throughout the paper
DESIGNS = ("B", "Sm", "Sl", "Sh", "C", "O")
ALL_WORKLOADS = repro.ALL_WORKLOADS
DETAIL_WORKLOADS = repro.DETAIL_WORKLOADS

CAMPAIGNS = Path(__file__).resolve().parent.parent / "campaigns"


def campaign_results(name: str, runtime: Any) -> Dict[Any, Any]:
    """Run ``campaigns/<name>.json`` on ``runtime`` and nest its results
    by the points' axis values, first axis outermost: ``full_matrix``
    gives ``{workload: {design: RunResult}}``."""
    campaign = load_campaign(CAMPAIGNS / f"{name}.json")
    report = run_campaign(campaign, campaign.expand(), runtime=runtime)
    assert not report.failures, [
        (o.point.label, o.error) for o in report.failures]
    grid: Dict[Any, Any] = {}
    for outcome in report.outcomes:
        *outer, last = outcome.point.assignments.values()
        node = grid
        for value in outer:
            node = node.setdefault(value, {})
        node[last] = outcome.result
    return grid
