"""Tier plumbing for records of the removed vector engine.

The statistical ``vector`` access engine is gone, and so is the choice
between the two exact ones (``scalar`` and ``batched``): one exact
kernel remains (see ``test_access_engine.py``).  Old ``BENCH_*.json``
records that name an engine still exist, so these tests pin how they
are read: ``scalar``, ``batched`` and no name at all are the exact
tier, the vector name maps to a tier of its own, regression groups
never mix it with exact-tier records, and ``compare_bench`` across
tiers holds only the wall/throughput band, never the near-exact
semantic check.  Run keys never named an engine and did not move.
"""

from __future__ import annotations

import pytest

import repro
from repro.config import engine_tier, experiment_config
from tests.test_access_engine import PINNED_KEY


@pytest.fixture(scope="module")
def base_config():
    """Same 2x2-stack machine as the exact-parity suite."""
    return experiment_config().scaled(2, 2)


def test_engine_tier_mapping():
    assert engine_tier("scalar") == "exact"
    assert engine_tier("batched") == "exact"
    assert engine_tier("vector") == "vector"
    # unknown/legacy records without an engine field read as exact
    assert engine_tier(None) == "exact"


def test_run_keys_engine_invariant(base_config):
    """The canonical config names no engine, and the key is the one
    both old exact engines shared, so their cached results still
    answer."""
    from repro.sweep.keys import run_key

    assert "access_engine" not in base_config.canonical_dict()["memory"]
    workload = repro.make_workload("pr", num_vertices=1024, iterations=2)
    assert run_key("O", workload, base_config) == PINNED_KEY


# ----------------------------------------------------------------------
# regression-detector tiers
# ----------------------------------------------------------------------
def _bench_payload(engine, wall, makespan, tasks=2048):
    point = {
        "design": "O", "workload": "pr", "wall_s": wall, "cpu_s": wall,
        "tasks": tasks, "accesses": 10000,
        "tasks_per_s": tasks / wall, "accesses_per_s": 10000 / wall,
        "makespan_cycles": makespan,
    }
    return {
        "schema": "repro-bench-v1", "engine": engine,
        "designs": ["O"], "workloads": ["pr"], "seed": 42, "mesh": "4x4",
        "points": [point],
        "totals": {"wall_s": wall, "cpu_s": wall, "tasks": tasks,
                   "accesses": 10000, "tasks_per_s": tasks / wall,
                   "accesses_per_s": 10000 / wall},
    }


def test_group_signatures_by_tier():
    from repro.observatory.regression import _group_signature

    scalar = _group_signature(_bench_payload("scalar", 3.0, 1e5))
    batched = _group_signature(_bench_payload("batched", 1.0, 1e5))
    vector = _group_signature(_bench_payload("vector", 0.5, 1e5))
    assert scalar == batched
    assert vector != batched


def test_compare_bench_vector_uses_bands():
    """batched→vector comparisons go through the wall/throughput band
    only: the vector tier's makespan and work counts are not held to
    the near-exact semantic check, but a slowdown past the band is
    still a regression."""
    from repro.observatory.regression import compare_bench

    base = _bench_payload("batched", 1.0, 100000.0)
    drifted = compare_bench(
        base, _bench_payload("vector", 0.5, 80000.0, tasks=2049),
        tolerance=3.0,
    )
    assert drifted.ok
    assert not any(f.kind == "semantic" for f in drifted.findings)
    assert any("engine tiers differ (exact vs vector)" in n
               for n in drifted.notes)

    slow = compare_bench(
        base, _bench_payload("vector", 5.0, 100000.0), tolerance=3.0,
    )
    assert not slow.ok
    assert all(f.kind == "tolerance" for f in slow.regressions)


def test_exact_pair_still_near_exact():
    """Tier relaxation must not leak into exact-tier comparisons."""
    from repro.observatory.regression import compare_bench

    report = compare_bench(
        _bench_payload("batched", 1.0, 100000.0),
        _bench_payload("batched", 1.0, 100001.0),
        tolerance=3.0,
    )
    assert any(f.kind == "semantic" for f in report.regressions)
