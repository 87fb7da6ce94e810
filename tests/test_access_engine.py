"""The exact access kernel, pinned to frozen golden digests.

Every result the simulator produces comes from one exact model: the
fused ``MemorySystem.access_many`` kernel, which resolves a task's hint
batch in one pass (memoized camp tables, bulk counter flushes, batch
placement) while running every stateful step — cache probes and
installs with their RNG draws, DRAM service clocks, float
accumulations — in per-line order, on healthy, faulted and link-metered
machines alike.  These tests pin its output: each point of the 2x2
matrix (every design on every workload), every design on a pr point
under a random fault schedule, B, O and C on a pr point under the
partition schedule, and C and O on a 3x5 pr point, healthy and faulted,
must reproduce its SHA-256 digest of the sorted-key
``result_to_dict`` JSON in ``tests/golden/exact_digests.json``, with
and without telemetry.  The same file pins the stream of
placement-decision records of two designs, healthy and faulted, and
the per-link telemetry meter of O/pr, healthy and under both
schedules.  Regenerate that file only together with a deliberate
behaviour change and a ``SIMULATOR_VERSION`` bump.

The digest tests keep the names they had when a second, per-line
engine was run beside the fused one as a parity oracle, so each
point's test id stays comparable with earlier runs.  The per-line
reference now lives in ``tests/access_reference.py`` and is compared
with the kernel at unit scope (``test_memory_system.py``).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import repro
from repro.arch.topology import Topology
from repro.config import experiment_config
from repro.faults import make_random_schedule
from repro.sweep.serialize import result_to_dict
from repro.telemetry import Telemetry
from tests.access_reference import PARTITION

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "exact_digests.json").read_text()
)


def _canonical(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True)


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.fixture(scope="module")
def base_config():
    """A 2x2-stack machine: small enough to run every design, big
    enough to exercise camps, stealing, and the hybrid scheduler's
    exchange machinery."""
    return experiment_config().scaled(2, 2)


#: every workload at a size small enough for all six designs.  Between
#: them they drive each placement batch shape: root batches (all),
#: spawn batches (bfs, sssp), barrier batches (astar), persistent
#: per-vertex hints (pr) and long hints (knn).
SMALL_WORKLOADS = {
    "pr": dict(num_vertices=1024, iterations=2),
    "knn": dict(num_points=1024),
    "bfs": dict(num_vertices=512),
    "sssp": dict(num_vertices=256, max_rounds=6),
    "astar": dict(rows=24, cols=24),
    "gcn": dict(num_vertices=256, num_layers=1),
    "kmeans": dict(num_points=512, iterations=2),
    "spmv": dict(rows=256, iterations=2),
}


@pytest.fixture(scope="module")
def workloads():
    return {name: repro.make_workload(name, **kwargs)
            for name, kwargs in SMALL_WORKLOADS.items()}


def assert_cache_identities(result) -> None:
    """Traveller Cache accounting: every tag probe hits or misses,
    every miss installs or bypasses, hits read the DRAM cache region,
    installs fill it, and home reads serve the home-direct accesses
    plus the misses."""
    cache, sram, dram = result.cache, result.sram, result.dram
    assert sram.tag_accesses == cache.hits + cache.misses
    assert cache.misses == cache.insertions + cache.bypasses
    assert dram.cache_reads == cache.hits
    assert dram.cache_fills == cache.insertions
    assert dram.reads == cache.home_direct + cache.misses


@pytest.mark.parametrize("design", repro.ALL_DESIGNS)
@pytest.mark.parametrize("workload_name", sorted(SMALL_WORKLOADS))
def test_engines_bit_identical(design, workload_name, base_config,
                               workloads):
    result = repro.simulate(design, workloads[workload_name],
                            config=base_config)
    assert _digest(_canonical(result)) == \
        GOLDEN[f"{workload_name}/{design}"], (
        f"{design}/{workload_name} moved off its golden digest"
    )
    if result.cache.probes:
        assert_cache_identities(result)


def _faulted(design, base_config, workloads, telemetry=None):
    """``design`` on the small pr point under the seeded random
    schedule: two unit failures, one link failure, one slow vault."""
    topo = Topology(base_config.topology,
                    num_groups=base_config.cache.num_groups())
    schedule = make_random_schedule(
        topo.num_units, topo.mesh_links(),
        unit_fails=2, link_fails=1, vault_slowdowns=1,
        seed=base_config.seed,
    )
    return repro.simulate(design, workloads["pr"], config=base_config,
                          fault_schedule=schedule, telemetry=telemetry)


def test_engines_bit_identical_under_faults(base_config, workloads):
    """A faulted point: unreachable homes, rerouted links, a slow
    vault and recovery (cache invalidation, re-execution, remaps) must
    reproduce the golden digest."""
    result = _faulted("O", base_config, workloads)
    assert result.resilience is not None
    assert _digest(_canonical(result)) == GOLDEN["faults/pr/O"]


@pytest.mark.parametrize("design", ["B", "Sm", "Sl", "Sh", "C"])
def test_faulted_placement_bit_identical(design, base_config, workloads):
    """The other five designs under the same schedule: every policy's
    placement around dead units (the colocate stand-in, the
    lowest-distance candidate filter, the hybrid score mask) and the
    re-placement of stranded tasks reproduce their golden digests."""
    result = _faulted(design, base_config, workloads)
    assert result.resilience is not None
    assert _digest(_canonical(result)) == GOLDEN[f"faults/pr/{design}"]


@pytest.mark.parametrize("design", ["C", "O"])
def test_mesh3x5_bit_identical(design, workloads):
    """The small pr point on a 3x5 mesh, healthy and under the random
    schedule's shape.  On 2x2 every camp group is one stack, so a
    camp's stack always equals the requester's; here 120 units form
    four groups of 30 that span stacks, so a camp miss continues to
    the home from another stack than the requester's."""
    config = experiment_config().scaled(3, 5)
    result = repro.simulate(design, workloads["pr"], config=config)
    assert _digest(_canonical(result)) == GOLDEN[f"mesh3x5/pr/{design}"]
    result = _faulted(design, config, workloads)
    assert result.resilience is not None
    assert _digest(_canonical(result)) == \
        GOLDEN[f"faults/3x5/pr/{design}"]


@pytest.mark.parametrize("design", ["B", "O", "C"])
def test_partition_bit_identical(design, base_config, workloads):
    """The small pr point under :data:`PARTITION`: stack 0 is cut off
    from the rest of the mesh, so every access across the cut times
    out, while a degraded link, a camp remap around a dead unit and a
    slow vault shape the accesses that still land."""
    result = repro.simulate(design, workloads["pr"], config=base_config,
                            fault_schedule=PARTITION)
    assert result.resilience.link_failures == 2
    assert result.resilience.unreachable_accesses > 0
    assert _digest(_canonical(result)) == \
        GOLDEN[f"partition/pr/{design}"]


def _link_meter_digest(telemetry) -> str:
    meter = telemetry.link_meter
    return _digest(json.dumps({
        "unit_matrix": meter.unit_matrix.tolist(),
        "unit_bits": meter.unit_bits.tolist(),
        "link_flits": sorted([a, b, flits] for (a, b), flits
                             in meter.link_flits.items()),
    }))


def test_link_meter_pinned(base_config, workloads):
    """The per-link telemetry meter of O/pr — per-pair message counts
    and bits, per-link flits — healthy, under the random schedule (whose
    dead link reroutes the flits) and under :data:`PARTITION`."""
    tel = Telemetry()
    repro.simulate("O", workloads["pr"], config=base_config, telemetry=tel)
    assert _link_meter_digest(tel) == GOLDEN["links/pr/O"]
    tel = Telemetry()
    _faulted("O", base_config, workloads, telemetry=tel)
    assert _link_meter_digest(tel) == GOLDEN["links/faults/pr/O"]
    tel = Telemetry()
    repro.simulate("O", workloads["pr"], config=base_config,
                   fault_schedule=PARTITION, telemetry=tel)
    assert _link_meter_digest(tel) == GOLDEN["links/partition/pr/O"]


@pytest.mark.parametrize("design", repro.ALL_DESIGNS)
@pytest.mark.parametrize("workload_name", ["bfs", "pr"])
def test_telemetry_does_not_perturb(design, workload_name, base_config,
                                    workloads):
    """Recording telemetry changes no result (``result_to_dict`` leaves
    the telemetry digest out), and every executed task was placed by
    exactly one recorded decision."""
    tel = Telemetry()
    result = repro.simulate(design, workloads[workload_name],
                            config=base_config, telemetry=tel)
    assert _digest(_canonical(result)) == \
        GOLDEN[f"{workload_name}/{design}"]
    assert (tel.registry.collect()["scheduler.decisions"]
            == result.tasks_executed)


def _decision_stream(telemetry) -> str:
    """The ``scheduler.decide`` events in emission order, task ids taken
    relative to the first decided task."""
    events = [e for e in telemetry.timeline
              if e.name == "scheduler.decide"]
    assert events and telemetry.timeline.dropped == 0
    first = events[0].args["task"]
    return json.dumps([
        [e.ts_ns, e.args["policy"], e.args["task"] - first,
         e.args["spawner"], e.args["unit"], e.args["cost_mem"],
         e.args["cost_load"], e.args["score"], e.args["weight"]]
        for e in events
    ])


def _recording_telemetry():
    return Telemetry(timeline_capacity=None,
                     max_decision_events=1 << 30)


@pytest.mark.parametrize("design", ["Sm", "O"])
def test_decision_records_pinned(design, base_config, workloads):
    """The placement-decision records (who decided what, with which
    Equation 1 terms, at which clock, in which order) are pinned like
    the results they explain, healthy and under faults."""
    tel = _recording_telemetry()
    repro.simulate(design, workloads["pr"], config=base_config,
                   telemetry=tel)
    assert _digest(_decision_stream(tel)) == \
        GOLDEN[f"decisions/pr/{design}"]
    tel = _recording_telemetry()
    _faulted(design, base_config, workloads, telemetry=tel)
    assert _digest(_decision_stream(tel)) == \
        GOLDEN[f"decisions/faults/pr/{design}"]


#: run key of O/pr on ``base_config`` with the workload instance of
#: :data:`SMALL_WORKLOADS` — the key cache entries written under
#: either of the old ``scalar``/``batched`` engines are stored at.
PINNED_KEY = ("958ab36b2fad0cadf6797523f525f611"
              "54b5e8b8f6c24d3982a565b9b67e3814")


def test_cache_keys_and_cached_json_engine_invariant(
        tmp_path, monkeypatch, base_config, workloads):
    """Sweep-cache hygiene: the engine choice never entered run keys,
    so entries cached under either old engine are still addressed by
    the same key and hold the same bytes the kernel produces now.
    (The comparison covers the serialized result; the entry's ``meta``
    side carries a wall-clock creation stamp by design.)"""
    from repro.sweep.cache import ResultCache
    from repro.sweep.keys import run_key

    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    workload = workloads["pr"]
    key = run_key("O", workload, base_config)
    assert key == PINNED_KEY
    cache = ResultCache(root=tmp_path)
    result = repro.simulate("O", workload, config=base_config)
    cache.store(key, result)
    stored = json.loads(cache.path_for(key).read_text())
    blob = json.dumps(stored["result"], sort_keys=True)
    assert _digest(blob) == GOLDEN["pr/O"]


def test_version_salt_not_bumped_by_engine_work():
    """Merging the engines changed no simulation outcome (see the
    digest tests above), so the global cache-invalidation salt must
    stay put: every cached result remains valid.  Bump the salt — and
    this pin — only together with a change that alters RunResults."""
    from repro.sweep.keys import SIMULATOR_VERSION

    assert SIMULATOR_VERSION == "abndp-sim-1"


def test_engine_option_removed():
    """There is one access kernel and no option to choose another:
    ``MemoryConfig`` has no ``access_engine`` field, and ``--engine``
    is an unknown argument to ``run`` and ``bench``."""
    import dataclasses

    from repro.cli import main
    from repro.config import MemoryConfig

    assert "access_engine" not in {
        f.name for f in dataclasses.fields(MemoryConfig)}
    for command in ("run", "bench"):
        with pytest.raises(SystemExit):
            main([command, "--engine", "scalar"])
