"""Cross-engine parity: batched and scalar access engines must agree.

The batched engine reorganizes the hot path (fused kernels, memoized
camp tables, bulk counter flushes) but every stateful step — cache
probes and installs with their RNG draws, DRAM service clocks, float
accumulations — runs in the exact per-line order of the scalar
reference path.  These tests pin that contract: for the same seed the
two engines must produce **bit-identical** RunResult JSON (makespans,
latencies, hop counts, hit rates, energy) on every design, on every
workload, and under an injected fault schedule.  The batched engine
also places tasks in batches while the scalar one places them one by
one, so the same tests pin batch placement to the per-task loop.

The same results are also pinned to frozen golden digests
(``tests/golden/exact_digests.json``: SHA-256 of the sorted-key
``result_to_dict`` JSON per ``workload/design`` on the batched engine,
plus ``faults/pr/O``), so an exact-tier change that moves both engines
together still fails.  Regenerate that file only together with a
deliberate behaviour change and a ``SIMULATOR_VERSION`` bump.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import repro
from repro.arch.topology import Topology
from repro.bench import engine_config
from repro.config import experiment_config
from repro.faults import make_random_schedule
from repro.sweep.serialize import result_to_dict

ENGINES = ("scalar", "batched")

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "exact_digests.json").read_text()
)


def _canonical(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True)


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.fixture(scope="module")
def base_config():
    """A 2x2-stack machine: small enough to run every design under
    both engines, big enough to exercise camps, stealing, and the
    hybrid scheduler's exchange machinery."""
    return experiment_config().scaled(2, 2)


#: every workload at a size small enough for all six designs under
#: both engines.  Between them they drive each placement batch shape:
#: root batches (all), spawn batches (bfs, sssp), barrier batches
#: (astar), persistent per-vertex hints (pr) and long hints (knn).
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


@pytest.mark.parametrize("design", repro.ALL_DESIGNS)
@pytest.mark.parametrize("workload_name", sorted(SMALL_WORKLOADS))
def test_engines_bit_identical(design, workload_name, base_config,
                               workloads):
    payloads = {
        engine: _canonical(repro.simulate(
            design, workloads[workload_name],
            config=engine_config(engine, base_config),
        ))
        for engine in ENGINES
    }
    assert payloads["scalar"] == payloads["batched"], (
        f"engines disagree on {design}/{workload_name}"
    )
    assert _digest(payloads["batched"]) == \
        GOLDEN[f"{workload_name}/{design}"], (
        f"{design}/{workload_name} moved off its golden digest"
    )


def test_engines_bit_identical_under_faults(base_config, workloads):
    """The batched engine must also match when a fault schedule is
    active — the kernel falls back to the scalar flow around fault
    state, and recovery (cache invalidation, re-execution, remaps)
    must not depend on the engine."""
    topo = Topology(base_config.topology,
                    num_groups=base_config.cache.num_groups())
    schedule = make_random_schedule(
        topo.num_units, topo.mesh_links(),
        unit_fails=2, link_fails=1, vault_slowdowns=1,
        seed=base_config.seed,
    )
    payloads = {}
    for engine in ENGINES:
        result = repro.simulate(
            "O", workloads["pr"], config=engine_config(engine, base_config),
            fault_schedule=schedule,
        )
        assert result.resilience is not None
        payloads[engine] = _canonical(result)
    assert payloads["scalar"] == payloads["batched"]
    assert _digest(payloads["batched"]) == GOLDEN["faults/pr/O"]


def test_cache_keys_and_cached_json_engine_invariant(
        tmp_path, monkeypatch, base_config, workloads):
    """Sweep-cache hygiene: ``access_engine`` is a non-semantic config
    field, so both engines must address the **same** cache entry and
    serialize the **same** bytes into it — a cache populated under the
    scalar engine replays verbatim under the batched default.  (The
    comparison covers the serialized result; the entry's ``meta`` side
    carries a wall-clock creation stamp by design.)"""
    from repro.sweep.cache import ResultCache
    from repro.sweep.keys import run_key

    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    workload = workloads["pr"]
    keys = {}
    blobs = {}
    for engine in ENGINES:
        cfg = engine_config(engine, base_config)
        keys[engine] = run_key("O", workload, cfg)
        cache = ResultCache(root=tmp_path / engine)
        result = repro.simulate("O", workload, config=cfg)
        cache.store(keys[engine], result)
        stored = json.loads(cache.path_for(keys[engine]).read_text())
        blobs[engine] = json.dumps(
            stored["result"], sort_keys=True
        ).encode()
    assert keys["scalar"] == keys["batched"]
    assert blobs["scalar"] == blobs["batched"]


def test_version_salt_not_bumped_by_engine_work():
    """The batched engine changed no simulation outcome (see the
    parity tests above), so the global cache-invalidation salt must
    stay put: every scalar-era cached result remains valid.  Bump the
    salt — and this pin — only together with a change that alters
    RunResults."""
    from repro.sweep.keys import SIMULATOR_VERSION

    assert SIMULATOR_VERSION == "abndp-sim-1"


def test_scalar_engine_selectable():
    """The reference path stays selectable via MemoryConfig; any other
    name — including the removed ``vector`` tier — is rejected by the
    config and by the CLI."""
    from repro.cli import main

    cfg = engine_config("scalar", experiment_config().scaled(2, 2))
    assert cfg.memory.access_engine == "scalar"
    for bad in ("vectorised", "vector"):
        with pytest.raises(ValueError, match="'scalar' or 'batched'"):
            engine_config(bad)
        for command in ("run", "bench"):
            with pytest.raises(SystemExit):
                main([command, "--engine", bad])
