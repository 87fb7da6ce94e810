"""Tests for the sweep engine: run keys, the on-disk result cache,
and the parallel runner (repro.sweep)."""

import dataclasses
import json

import numpy as np
import pytest

import repro
from repro.analysis.metrics import RunResult
from repro.arch.dram import DramStats
from repro.arch.energy import EnergyBreakdown
from repro.arch.noc import TrafficMeter
from repro.arch.sram import SramStats
from repro.config import experiment_config
from repro.core.cache.traveller import CacheStatsTotal
from repro.sweep import (
    ResultCache,
    SweepPoint,
    SweepRunner,
    UncacheableError,
    cached_simulate,
    result_from_dict,
    result_to_dict,
    run_key,
    run_point,
)
from repro.sweep import runner as runner_mod
from repro.workloads.base import make_workload
from repro.workloads.pagerank import PageRankWorkload


@pytest.fixture(autouse=True)
def _isolate_cache_env(monkeypatch):
    """Each test controls caching explicitly — strip ambient overrides
    (CI runs the whole suite under REPRO_NO_CACHE=1)."""
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)


def fake_result(design="B", workload="kmeans", makespan=123.0) -> RunResult:
    return RunResult(
        design=design,
        workload=workload,
        makespan_cycles=makespan,
        active_cycles_per_core=np.array([1.5, 2.5, 3.0]),
        traffic=TrafficMeter(inter_hops=7, intra_transfers=3),
        dram=DramStats(reads=11, writes=5),
        sram=SramStats(l1_accesses=100),
        cache=CacheStatsTotal(hits=4, misses=6),
        energy=EnergyBreakdown(dram_pj=42.0, static_pj=1.0),
        tasks_executed=9,
        timestamps_executed=2,
        steals=1,
        instructions=1000.0,
        extra={"note": 0.5},
    )


class TestRunKeys:
    def test_same_inputs_same_key(self):
        cfg = experiment_config()
        assert run_key("O", "pr", cfg) == run_key("O", "pr", cfg)

    def test_any_field_change_changes_key(self):
        cfg = experiment_config()
        base = run_key("O", "pr", cfg)
        variants = [
            run_key("B", "pr", cfg),
            run_key("O", "bfs", cfg),
            run_key("O", "pr", cfg.with_(seed=99)),
            run_key("O", "pr", cfg.scaled(2, 2)),
            run_key("O", "pr", cfg.with_(cache=dataclasses.replace(
                cfg.cache, num_camps=7))),
            run_key("O", "pr", cfg.with_(scheduler=dataclasses.replace(
                cfg.scheduler, hybrid_alpha=1.0))),
        ]
        assert len({base, *variants}) == len(variants) + 1

    def test_workload_kwargs_change_key(self):
        cfg = experiment_config()
        a = run_key("B", repro.make_workload(
            "kmeans", num_points=128, iterations=1), cfg)
        b = run_key("B", repro.make_workload(
            "kmeans", num_points=256, iterations=1), cfg)
        assert a != b

    def test_name_and_factory_instance_share_key(self):
        cfg = experiment_config()
        assert run_key("B", "kmeans", cfg) == run_key(
            "B", repro.make_workload("kmeans"), cfg
        )

    def test_direct_instances_hash_structurally_and_stably(self):
        cfg = experiment_config()
        a = run_key("B", PageRankWorkload(num_vertices=256, seed=3), cfg)
        b = run_key("B", PageRankWorkload(num_vertices=256, seed=3), cfg)
        c = run_key("B", PageRankWorkload(num_vertices=256, seed=4), cfg)
        assert a == b
        assert a != c

    def test_uncacheable_workload_raises(self):
        wl = PageRankWorkload(num_vertices=256)
        wl.callback = lambda: None  # not canonicalizable
        with pytest.raises(UncacheableError):
            run_key("B", wl, experiment_config())

    def test_canonical_config_is_stable_json(self):
        cfg = experiment_config()
        assert cfg.canonical_json() == cfg.canonical_json()
        d = cfg.canonical_dict()
        assert d["cache"]["style"] == "traveller"
        assert d["topology"]["mesh_rows"] == 4


class TestKeysFromSpec:
    """Run keys of named workloads come from (name, kwargs) alone:
    byte-identical to the keys of the materialized instances, and
    computed without generating any dataset."""

    @pytest.mark.parametrize("kwargs", [{}, {"seed": 7}])
    @pytest.mark.parametrize("workload", repro.ALL_WORKLOADS)
    def test_key_parity_across_entry_points(self, tmp_path, monkeypatch,
                                            workload, kwargs):
        """Server spec, campaign sweep point and cached_simulate all
        key a (name, kwargs) point exactly as the instance
        ``make_workload`` builds for it."""
        from repro.service.spec import ExperimentSpec

        cfg = experiment_config().scaled(2, 2).validate()
        expected = run_key("O", make_workload(workload, **kwargs), cfg)
        spec = ExperimentSpec.from_dict({
            "design": "O", "workload": workload, "mesh": "2x2",
            "workload_kwargs": kwargs})
        assert spec.run_key() == expected
        assert run_key("O", workload, cfg, workload_kwargs=kwargs) \
            == expected

        def no_live_run(*args, **kw):
            raise AssertionError("the stored entry should have hit")

        monkeypatch.setattr(runner_mod, "_live_simulate", no_live_run)
        cache = ResultCache(root=tmp_path)
        cache.store(expected, fake_result(design="O", workload=workload))
        hit = cached_simulate("O", workload, cfg, cache=cache, **kwargs)
        assert hit.workload == workload
        point = SweepPoint("O", workload, cfg, workload_kwargs=kwargs)
        outcome = SweepRunner(cache=cache, jobs=1).run([point]).outcomes[0]
        assert (outcome.source, outcome.key) == ("cache", expected)
        assert cache.stats.hits == 2

    def test_keys_generate_no_dataset(self, no_factories):
        cfg = experiment_config()
        for workload in repro.ALL_WORKLOADS:
            run_key("O", workload, cfg, workload_kwargs={"seed": 7})
            SweepPoint("O", workload, cfg,
                       workload_kwargs={"seed": 7}).key(ResultCache())

    def test_kwargs_qualify_names_not_instances(self):
        wl = make_workload("kmeans", num_points=64, iterations=1)
        with pytest.raises(TypeError, match="qualify a workload name"):
            run_key("B", wl, experiment_config(),
                    workload_kwargs={"seed": 3})

    def test_seeded_point_never_hits_the_default_entry(
            self, tmp_path, monkeypatch):
        """Regression: a named point with factory kwargs used to get
        the key of the bare default dataset, so after the default ran
        the seeded point was served the default's result."""
        ran = []

        def counting(design, workload, config, **kwargs):
            ran.append(workload._factory_spec)
            return fake_result(design=design, workload="knn",
                               makespan=100.0 * len(ran))

        monkeypatch.setattr(runner_mod, "_live_simulate", counting)
        cache = ResultCache(root=tmp_path)
        cfg = experiment_config()
        bare = run_point("B", "knn", cfg, cache=cache)
        seeded = run_point("B", "knn", cfg, cache=cache, seed=3)
        assert (bare.source, seeded.source) == ("run", "run")
        assert seeded.key != bare.key
        assert seeded.key == run_key(
            "B", make_workload("knn", seed=3), cfg)
        point = SweepPoint("B", "knn", cfg, workload_kwargs={"seed": 3})
        again = SweepRunner(cache=cache, jobs=1).run([point]).outcomes[0]
        assert (again.source, again.key) == ("cache", seeded.key)
        assert again.result.makespan_cycles == 200.0
        assert ran == [("knn", {}), ("knn", {"seed": 3})]

    def test_cached_simulate_generates_only_on_a_miss(
            self, tmp_path, monkeypatch, factory_calls):
        monkeypatch.setattr(runner_mod, "_live_simulate",
                            lambda d, w, c, **kw: fake_result(design=d))
        cache = ResultCache(root=tmp_path)
        cfg = experiment_config()
        kwargs = {"num_points": 128, "iterations": 1}
        cached_simulate("B", "kmeans", cfg, cache=cache, **kwargs)
        assert factory_calls == {"kmeans": 1}
        cached_simulate("B", "kmeans", cfg, cache=cache, **kwargs)
        assert factory_calls == {"kmeans": 1}  # the hit built nothing
        assert cache.stats.hits == 1


class TestResultSerialization:
    def test_round_trip_is_exact(self):
        r = fake_result()
        back = result_from_dict(
            json.loads(json.dumps(result_to_dict(r)))
        )
        assert result_to_dict(back) == result_to_dict(r)
        assert back.active_cycles_per_core.dtype == \
            r.active_cycles_per_core.dtype
        assert back.speedup_over(r) == 1.0


class TestResultCache:
    def test_hit_skips_simulation(self, tmp_path, monkeypatch):
        calls = []

        def counting(design, workload, config, **kwargs):
            calls.append(design)
            return fake_result(design=design)

        monkeypatch.setattr(runner_mod, "_live_simulate", counting)
        cache = ResultCache(root=tmp_path)
        cfg = experiment_config()
        r1 = cached_simulate("B", "kmeans", cfg, cache=cache)
        r2 = cached_simulate("B", "kmeans", cfg, cache=cache)
        assert calls == ["B"]
        assert cache.stats.hits == 1 and cache.stats.stores == 1
        assert result_to_dict(r1) == result_to_dict(r2)

    def test_corrupted_entry_falls_back_to_live_run(
            self, tmp_path, monkeypatch):
        calls = []

        def counting(design, workload, config, **kwargs):
            calls.append(design)
            return fake_result(design=design)

        monkeypatch.setattr(runner_mod, "_live_simulate", counting)
        cache = ResultCache(root=tmp_path)
        cfg = experiment_config()
        cached_simulate("B", "kmeans", cfg, cache=cache)
        key = run_key("B", "kmeans", cfg)
        cache.path_for(key).write_text("{not json", encoding="utf-8")
        r = cached_simulate("B", "kmeans", cfg, cache=cache)
        assert calls == ["B", "B"]
        assert cache.stats.corrupt == 1
        assert r.makespan_cycles == 123.0
        # the corrupt entry was replaced by a good one
        assert cached_simulate("B", "kmeans", cfg, cache=cache)
        assert calls == ["B", "B"]

    def test_schema_mismatch_is_invalidated(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            runner_mod, "_live_simulate",
            lambda d, w, c, **kw: fake_result(design=d))
        cache = ResultCache(root=tmp_path)
        cfg = experiment_config()
        cached_simulate("B", "kmeans", cfg, cache=cache)
        key = run_key("B", "kmeans", cfg)
        payload = json.loads(cache.path_for(key).read_text())
        payload["schema"] = -1
        cache.path_for(key).write_text(json.dumps(payload))
        assert cache.load(key) is None
        assert cache.stats.corrupt == 1

    def test_no_cache_env_disables(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(
            runner_mod, "_live_simulate",
            lambda d, w, c, **kw: calls.append(d) or fake_result(design=d))
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        cache = ResultCache(root=tmp_path)
        cfg = experiment_config()
        cached_simulate("B", "kmeans", cfg, cache=cache)
        cached_simulate("B", "kmeans", cfg, cache=cache)
        assert calls == ["B", "B"]
        assert len(cache) == 0

    def test_clear_and_len(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            runner_mod, "_live_simulate",
            lambda d, w, c, **kw: fake_result(design=d))
        cache = ResultCache(root=tmp_path)
        cfg = experiment_config()
        for d in ("B", "O"):
            cached_simulate(d, "kmeans", cfg, cache=cache)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_compare_designs_routes_through_cache(
            self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(
            runner_mod, "_live_simulate",
            lambda d, w, c, **kw: calls.append(d) or fake_result(design=d))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cc"))
        cfg = experiment_config()
        repro.compare_designs(["B", "O"], "kmeans", cfg)
        repro.compare_designs(["B", "O"], "kmeans", cfg)
        assert calls == ["B", "O"]
        # and the escape hatch forces live runs
        repro.compare_designs(["B", "O"], "kmeans", cfg, cache=False)
        assert calls == ["B", "O", "B", "O"]


class TestSweepRunner:
    POINT_KW = {"num_points": 256, "iterations": 1}

    def _points(self, designs=("B", "O")):
        cfg = experiment_config().scaled(2, 2)
        return [
            SweepPoint(d, "kmeans", cfg, workload_kwargs=dict(self.POINT_KW))
            for d in designs
        ]

    def test_parallel_matches_serial_bit_for_bit(self):
        par = SweepRunner(cache=False, jobs=2).run(self._points())
        ser = SweepRunner(cache=False, jobs=1).run(self._points())
        assert [result_to_dict(o.result) for o in par.outcomes] == \
            [result_to_dict(o.result) for o in ser.outcomes]
        assert {o.source for o in par.outcomes} == {"run"}

    def test_cache_hits_on_second_sweep(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        first = SweepRunner(cache=cache, jobs=2).run(self._points())
        second = SweepRunner(cache=cache, jobs=2).run(self._points())
        assert all(o.source == "run" for o in first.outcomes)
        assert all(o.source == "cache" for o in second.outcomes)
        assert [result_to_dict(o.result) for o in first.outcomes] == \
            [result_to_dict(o.result) for o in second.outcomes]

    def test_crashed_point_is_retried_once(self, monkeypatch):
        state = {"failed": False}
        real = runner_mod._live_simulate

        def flaky(design, workload, config, **kwargs):
            if design == "O" and not state["failed"]:
                state["failed"] = True
                raise RuntimeError("transient")
            return real(design, workload, config, **kwargs)

        monkeypatch.setattr(runner_mod, "_live_simulate", flaky)
        report = SweepRunner(cache=False, jobs=1).run(self._points())
        by_design = {o.point.design: o for o in report.outcomes}
        assert by_design["B"].source == "run"
        assert by_design["O"].source == "retry"
        assert by_design["O"].ok
        assert not report.failures

    def test_persistent_failure_never_kills_the_sweep(self, monkeypatch):
        real = runner_mod._live_simulate

        def broken(design, workload, config, **kwargs):
            if design == "O":
                raise RuntimeError("always broken")
            return real(design, workload, config, **kwargs)

        monkeypatch.setattr(runner_mod, "_live_simulate", broken)
        report = SweepRunner(cache=False, jobs=1).run(self._points())
        by_design = {o.point.design: o for o in report.outcomes}
        assert by_design["B"].ok
        assert by_design["O"].source == "failed"
        assert "always broken" in by_design["O"].error
        assert len(report.failures) == 1

    def test_progress_lines_and_summary(self, tmp_path):
        import io

        from repro.observatory.progress import SweepProgress

        stream = io.StringIO()
        runner = SweepRunner(
            cache=ResultCache(root=tmp_path), jobs=1,
            events=SweepProgress(stream=stream, live=False),
        )
        report = runner.run(self._points(designs=("B",)))
        lines = stream.getvalue().splitlines()
        assert any("ran" in line for line in lines)
        assert "1 points" in report.summary()
        assert "0 failed" in report.summary()
