"""Shape of the ``repro bench`` record.

Full matrix timing goes through ``python -m repro bench`` (see
README.md); this test keeps the harness runnable as plain pytest.
"""

from __future__ import annotations

from repro.bench import bench_points
from repro.config import experiment_config


def test_bench_points_payload_shape():
    payload = bench_points(
        ["B"], ["pr"],
        config=experiment_config().scaled(2, 2), repeats=1,
    )
    assert "engine" not in payload  # one exact kernel: nothing to name
    (point,) = payload["points"]
    assert point["design"] == "B" and point["workload"] == "pr"
    assert point["wall_s"] > 0 and point["tasks"] > 0
    assert point["accesses"] > point["tasks"]  # many lines per task
    assert payload["totals"]["tasks_per_s"] > 0
