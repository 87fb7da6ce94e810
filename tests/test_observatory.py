"""Tests for the run observatory: the history ledger, the diff
engine, the perf-regression detector, and sweep progress events
(repro.observatory)."""

import json
import os
import time

import pytest

from repro.config import experiment_config
from repro.observatory.diffing import (
    MetricDelta,
    RunHandle,
    diff_refs,
    diff_runs,
    resolve_ref,
)
from repro.observatory.history import (
    SCHEMA,
    HistoryLedger,
    RunRecord,
    record_bench,
    record_run,
)
from repro.observatory.progress import (
    EventCollector,
    JsonlProgress,
    ProgressEvent,
    SweepProgress,
    tee,
)
from repro.observatory.regression import (
    changepoints,
    compare_bench,
    merge_reports,
    scan_bench_trajectory,
    scan_history,
)
from repro.sweep import (
    SIMULATOR_VERSION,
    ResultCache,
    SweepPoint,
    SweepRunner,
    cached_simulate,
    run_key,
)
from repro.sweep import runner as runner_mod
from tests.test_sweep import fake_result


@pytest.fixture(autouse=True)
def _isolate_observatory_env(monkeypatch, tmp_path):
    """History and cache must never leak into the working checkout."""
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_NO_HISTORY", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_HISTORY_PATH",
                       str(tmp_path / "history.jsonl"))


def make_record(i=0, **overrides) -> RunRecord:
    rec = RunRecord(ts=1000.0 + i, source="simulate", design="O",
                    workload="pr", key=f"{i:02x}" * 32,
                    config_fingerprint="fp0", engine="batched",
                    seed=42, mesh="2x2", wall_s=0.5,
                    makespan_cycles=1000.0 + i, tasks_executed=64)
    for name, value in overrides.items():
        setattr(rec, name, value)
    return rec


# ----------------------------------------------------------------------
# history ledger
# ----------------------------------------------------------------------
class TestLedger:
    def test_append_and_read_round_trip(self, tmp_path):
        ledger = HistoryLedger(path=tmp_path / "h.jsonl")
        for i in range(3):
            assert ledger.append(make_record(i))
        records = ledger.records()
        assert [r.ts for r in records] == [1000.0, 1001.0, 1002.0]
        assert records[0].design == "O"
        assert records[0].schema == SCHEMA
        assert ledger.get(-1).ts == 1002.0

    def test_corrupt_lines_are_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "h.jsonl"
        ledger = HistoryLedger(path=path)
        ledger.append(make_record(0))
        with open(path, "a") as fh:
            fh.write("{torn write\n")
            fh.write('{"schema": "other-thing"}\n')
        ledger.append(make_record(1))
        records = ledger.records()
        assert [r.ts for r in records] == [1000.0, 1001.0]
        assert ledger.corrupt_lines == 2

    def test_rotation_keeps_one_generation(self, tmp_path):
        path = tmp_path / "h.jsonl"
        ledger = HistoryLedger(path=path, max_bytes=600)
        for i in range(10):
            ledger.append(make_record(i))
        rotated = tmp_path / "h.jsonl.1"
        assert rotated.exists()
        # the live file holds only the newest records, nothing lost
        # from the current generation
        assert ledger.records()[-1].ts == 1009.0
        assert path.stat().st_size <= 600

    def test_env_disables_recording(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NO_HISTORY", "1")
        ledger = HistoryLedger(path=tmp_path / "h.jsonl")
        assert not ledger.append(make_record())
        assert not (tmp_path / "h.jsonl").exists()
        assert ledger.records() == []

    def test_find_key_returns_newest_match(self, tmp_path):
        ledger = HistoryLedger(path=tmp_path / "h.jsonl")
        ledger.append(make_record(0, key="ab" * 32, wall_s=0.1))
        ledger.append(make_record(1, key="cd" * 32))
        ledger.append(make_record(2, key="ab" * 32, wall_s=0.9))
        hit = ledger.find_key("abab")
        assert hit is not None and hit.wall_s == 0.9
        assert ledger.find_key("ffff") is None

    def test_unwritable_path_is_swallowed(self, tmp_path):
        ledger = HistoryLedger(path=tmp_path)  # a directory, not a file
        assert not ledger.append(make_record())
        assert ledger.io_errors == 1


class TestRecordRun:
    def test_simulate_drops_a_ledger_line(self, tmp_path):
        import repro

        cfg = experiment_config().scaled(2, 2)
        repro.simulate("B", repro.make_workload(
            "kmeans", num_points=128, iterations=1), cfg)
        ledger = HistoryLedger(path=tmp_path / "history.jsonl")
        records = ledger.records()
        assert len(records) == 1
        rec = records[0]
        assert rec.source == "simulate"
        assert rec.design == "B" and rec.workload == "kmeans"
        assert rec.key and len(rec.key) == 64
        assert rec.config_fingerprint
        assert rec.engine == ""  # one exact kernel: no engine to name
        assert rec.mesh == "2x2" and rec.wall_s > 0
        assert rec.tasks_executed > 0

    def test_record_run_never_raises(self, tmp_path, monkeypatch):
        # ledger path is a directory -> every append fails silently
        monkeypatch.setenv("REPRO_HISTORY_PATH", str(tmp_path))
        assert record_run(fake_result(), config=experiment_config(),
                          workload="kmeans") is False

    def test_history_does_not_change_keys_or_cached_results(
            self, tmp_path, monkeypatch):
        """Recording is non-semantic: run keys, cached result payloads
        and the version salt are byte-identical with history on/off."""
        monkeypatch.setattr(runner_mod, "_live_simulate",
                            lambda d, w, c, **kw: fake_result(design=d))
        cfg = experiment_config()

        key_on = run_key("B", "kmeans", cfg)
        cache_on = ResultCache(root=tmp_path / "on")
        cached_simulate("B", "kmeans", cfg, cache=cache_on)

        monkeypatch.setenv("REPRO_NO_HISTORY", "1")
        key_off = run_key("B", "kmeans", cfg)
        cache_off = ResultCache(root=tmp_path / "off")
        cached_simulate("B", "kmeans", cfg, cache=cache_off)

        assert key_on == key_off
        on = json.loads(cache_on.path_for(key_on).read_text())
        off = json.loads(cache_off.path_for(key_off).read_text())
        on["meta"].pop("created_unix")
        off["meta"].pop("created_unix")
        assert on == off
        assert SIMULATOR_VERSION == "abndp-sim-1"

    def test_cache_hits_are_recorded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner_mod, "_live_simulate",
                            lambda d, w, c, **kw: fake_result(design=d))
        cfg = experiment_config()
        cache = ResultCache(root=tmp_path / "cache")
        cached_simulate("B", "kmeans", cfg, cache=cache)
        cached_simulate("B", "kmeans", cfg, cache=cache)
        ledger = HistoryLedger(path=tmp_path / "history.jsonl")
        hits = [r for r in ledger.records() if r.source == "cache"]
        assert len(hits) == 1
        assert hits[0].key == run_key("B", "kmeans", cfg)

    def test_record_bench(self, tmp_path):
        payload = {
            "designs": ["O", "B"], "workloads": ["pr"],
            "engine": "batched", "seed": 42, "mesh": "4x4",
            "git_rev": "abc123def456", "hostname": "ci-box",
            "totals": {"wall_s": 1.5, "tasks": 100,
                       "tasks_per_s": 66.7},
        }
        ledger = HistoryLedger(path=tmp_path / "h.jsonl")
        assert record_bench(payload, "BENCH_2.json", ledger=ledger)
        rec = ledger.get(-1)
        assert rec.source == "bench"
        assert rec.git_rev == "abc123def456"
        assert rec.extra["bench_path"] == "BENCH_2.json"
        assert rec.wall_s == 1.5


# ----------------------------------------------------------------------
# diff engine
# ----------------------------------------------------------------------
class TestDiff:
    def test_identical_results_diff_to_zero(self):
        a = RunHandle(ref="a", result=fake_result(), wall_s=1.0)
        b = RunHandle(ref="b", result=fake_result(), wall_s=2.0)
        diff = diff_runs(a, b)
        assert diff.identical
        assert diff.semantic_deltas == []
        assert diff.deltas  # plenty compared, none significant
        # the wall-time difference is still visible, as non-semantic
        assert diff.wall.abs_delta == 1.0 and not diff.wall.semantic
        assert "no semantic deltas" in diff.render()

    def test_changed_metrics_are_flagged(self):
        a = RunHandle(ref="a", result=fake_result(makespan=100.0))
        b = RunHandle(ref="b", result=fake_result(makespan=150.0))
        diff = diff_runs(a, b)
        assert not diff.identical
        flagged = {d.name for d in diff.semantic_deltas}
        assert "makespan_cycles" in flagged
        mk = next(d for d in diff.deltas if d.name == "makespan_cycles")
        assert mk.rel_delta == pytest.approx(0.5)

    def test_end_to_end_refs_index_key_and_file(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner_mod, "_live_simulate",
                            lambda d, w, c, **kw: fake_result(design=d))
        cfg = experiment_config()
        cache = ResultCache(root=tmp_path / "cache")
        # two cache hits -> two ledger lines carrying the run key
        for _ in range(3):
            cached_simulate("B", "kmeans", cfg, cache=cache)
        key = run_key("B", "kmeans", cfg)
        ledger2 = HistoryLedger(
            path=tmp_path / "history.jsonl")  # where hits recorded
        assert len(ledger2.records()) == 2

        by_index = resolve_ref("-1", ledger=ledger2, cache=cache)
        assert by_index.key == key and by_index.result is not None
        by_key = resolve_ref(key[:12], ledger=ledger2, cache=cache)
        assert by_key.key == key
        by_file = resolve_ref(str(cache.path_for(key)),
                              ledger=ledger2, cache=cache)
        assert by_file.key == key and by_file.result is not None

        diff = diff_runs(by_index, by_key)
        assert diff.identical
        assert diff_runs(by_index, by_file).identical

    def test_diff_refs_cli_entry(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner_mod, "_live_simulate",
                            lambda d, w, c, **kw: fake_result(design=d))
        cfg = experiment_config()
        cache = ResultCache(root=tmp_path / "cache")
        for _ in range(3):
            cached_simulate("O", "kmeans", cfg, cache=cache)
        ledger = HistoryLedger(path=tmp_path / "history.jsonl")
        diff = diff_refs("-1", "-2", ledger=ledger, cache=cache)
        assert diff.identical
        payload = diff.to_dict()
        assert payload["identical"] and payload["semantic_deltas"] == 0

    def test_bad_refs_raise_actionable_errors(self, tmp_path):
        ledger = HistoryLedger(path=tmp_path / "h.jsonl")
        with pytest.raises(ValueError, match="empty"):
            resolve_ref("-1", ledger=ledger, cache=False)
        ledger.append(make_record(0))
        with pytest.raises(ValueError, match="out of range"):
            resolve_ref("7", ledger=ledger, cache=False)
        with pytest.raises(ValueError, match="matches nothing"):
            resolve_ref("deadbeefdeadbeef", ledger=ledger, cache=False)
        with pytest.raises(ValueError, match="unrecognized"):
            resolve_ref("not/a/thing", ledger=ledger, cache=False)

    def test_stale_sidecar_warning(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner_mod, "_live_simulate",
                            lambda d, w, c, **kw: fake_result(design=d))
        cfg = experiment_config()
        cache = ResultCache(root=tmp_path / "cache")
        cached_simulate("B", "kmeans", cfg, cache=cache)
        key = run_key("B", "kmeans", cfg)
        cache.store_telemetry(key, {"counters": {"scheduler.steals": 1}})
        entry = cache.path_for(key)
        sidecar = cache.telemetry_path_for(key)
        old = entry.stat().st_mtime - 60
        os.utime(sidecar, (old, old))
        handle = resolve_ref(str(key), ledger=HistoryLedger(
            path=tmp_path / "h.jsonl"), cache=cache)
        assert any("older" in w for w in handle.warnings)

    def test_metric_delta_semantics(self):
        exact = MetricDelta(name="x", a=5.0, b=5.0)
        assert not exact.significant and exact.rel_delta == 0.0
        new = MetricDelta(name="x", a=0.0, b=3.0)
        assert new.significant and "new" in new.render()


# ----------------------------------------------------------------------
# regression detection
# ----------------------------------------------------------------------
def make_bench(wall, tasks_per_s=None, engine="batched", seed=42,
               mesh="4x4", makespan=119216, tasks=8192, accesses=50000):
    tps = tasks_per_s if tasks_per_s is not None else tasks / wall
    point = {
        "design": "O", "workload": "pr", "wall_s": wall,
        "cpu_s": wall, "tasks": tasks, "accesses": accesses,
        "tasks_per_s": tps, "accesses_per_s": accesses / wall,
        "makespan_cycles": makespan,
    }
    return {
        "schema": "repro-bench-v1", "engine": engine,
        "designs": ["O"], "workloads": ["pr"],
        "seed": seed, "mesh": mesh, "points": [point],
        "totals": {"wall_s": wall, "cpu_s": wall, "tasks": tasks,
                   "accesses": accesses, "tasks_per_s": tps,
                   "accesses_per_s": accesses / wall},
    }


class TestChangepoints:
    def test_flat_series_has_no_changepoint(self):
        assert changepoints([1.0] * 8) == []

    def test_step_change_is_found(self):
        cps = changepoints([1.0] * 5 + [1.2] * 4)
        assert len(cps) == 1
        assert cps[0].index == 5
        assert cps[0].rel_change == pytest.approx(0.2)

    def test_noisy_but_flat_series_passes(self):
        series = [1.0, 1.03, 0.97, 1.02, 0.98, 1.01, 0.99, 1.02]
        assert changepoints(series) == []

    def test_tiny_shift_below_min_rel_is_ignored(self):
        # perfectly clean step (infinite z) but only a 2% move
        assert changepoints([1.0] * 4 + [1.02] * 4) == []


class TestBenchRegression:
    def test_flat_trajectory_passes(self):
        records = [(f"BENCH_{i}.json", make_bench(1.0 + 0.005 * (i % 2)))
                   for i in range(5)]
        report = scan_bench_trajectory(records)
        assert report.ok and report.checks > 0

    def test_injected_slowdown_is_flagged(self):
        # +20% on the two newest records: the band check flags the
        # newest, the change-point scan localizes the sustained shift
        walls = [1.0, 1.0, 1.0, 1.0, 1.2, 1.2]
        records = [(f"BENCH_{i}.json", make_bench(w))
                   for i, w in enumerate(walls)]
        report = scan_bench_trajectory(records)
        assert not report.ok
        assert any(f.kind == "tolerance" and "wall_s" in f.metric
                   for f in report.regressions)
        assert any(f.kind == "change-point"
                   for f in report.regressions)

    def test_speedup_is_an_improvement_not_a_regression(self):
        walls = [1.0, 1.0, 1.0, 1.0, 0.5]
        records = [(f"BENCH_{i}.json", make_bench(w))
                   for i, w in enumerate(walls)]
        report = scan_bench_trajectory(records)
        assert report.ok
        # the move is reported, just not as a regression
        assert any("improvement" in f.message for f in report.findings)

    def test_engine_tier_groups(self):
        # scalar and batched share the exact tier: the switch compares
        # inside one group and reads as an improvement, never a
        # regression; the statistical vector tier is its own group
        # (a singleton here, so nothing is scanned for it).
        records = [("BENCH_0.json", make_bench(3.0, engine="scalar")),
                   ("BENCH_1.json", make_bench(1.0, engine="batched")),
                   ("BENCH_2.json", make_bench(0.5, engine="vector"))]
        report = scan_bench_trajectory(records)
        assert report.ok
        assert any("improvement" in f.message for f in report.findings)
        assert sum("too short" in n for n in report.notes) == 1

    def test_compare_bench_semantic_drift_is_a_behaviour_change(self):
        base = make_bench(1.0)
        cand = make_bench(1.0, tasks=8200)  # deterministic field moved
        report = compare_bench(base, cand)
        assert not report.ok
        assert any(f.kind == "semantic" for f in report.regressions)

    def test_compare_bench_wall_band(self):
        base = make_bench(1.0)
        assert compare_bench(base, make_bench(1.05)).ok
        slow = compare_bench(base, make_bench(1.3))
        assert not slow.ok
        assert any("bad direction" in f.message
                   for f in slow.regressions)
        # a generous band admits cross-machine noise
        assert compare_bench(base, make_bench(1.3), tolerance=3.0).ok

    def test_compare_bench_skips_semantics_across_seeds(self):
        base = make_bench(1.0, seed=42)
        cand = make_bench(1.0, seed=7, tasks=9000)
        report = compare_bench(base, cand)
        assert report.ok
        assert any("seed/mesh differ" in n for n in report.notes)
        # an old vector-tier record is its own tier: no semantic
        # check, just a note
        cross = compare_bench(make_bench(1.0),
                              make_bench(0.5, engine="vector", tasks=9000))
        assert cross.ok
        assert not any(f.kind == "semantic" for f in cross.findings)
        assert any("engine tiers differ (exact vs vector)" in n
                   for n in cross.notes)

    def test_merge_reports(self):
        a = scan_bench_trajectory(
            [(f"B{i}", make_bench(w))
             for i, w in enumerate([1.0, 1.0, 1.0, 1.0, 1.2])])
        b = scan_bench_trajectory([])
        merged = merge_reports(a, b)
        assert merged.checks == a.checks
        assert not merged.ok


class TestHistoryRegression:
    def test_wall_time_step_in_ledger_is_flagged(self, tmp_path):
        ledger = HistoryLedger(path=tmp_path / "h.jsonl")
        for i, wall in enumerate([0.5, 0.5, 0.5, 0.5, 1.0]):
            ledger.append(make_record(i, key=None, wall_s=wall))
        report = scan_history(ledger=ledger)
        assert not report.ok
        assert any("wall" in f.metric for f in report.regressions)

    def test_short_and_flat_groups_pass(self, tmp_path):
        ledger = HistoryLedger(path=tmp_path / "h.jsonl")
        for i in range(3):
            ledger.append(make_record(i, wall_s=0.5))
        assert scan_history(ledger=ledger).ok  # < min_runs
        for i in range(3, 9):
            ledger.append(make_record(i, wall_s=0.5))
        assert scan_history(ledger=ledger).ok  # flat


# ----------------------------------------------------------------------
# progress events
# ----------------------------------------------------------------------
class TestProgressEvents:
    POINT_KW = {"num_points": 256, "iterations": 1}

    def _points(self, designs=("B", "O")):
        cfg = experiment_config().scaled(2, 2)
        return [SweepPoint(d, "kmeans", cfg,
                           workload_kwargs=dict(self.POINT_KW))
                for d in designs]

    def test_two_point_sweep_emits_full_stream(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner_mod, "_live_simulate",
                            lambda d, w, c, **kw: fake_result(design=d))
        cache = ResultCache(root=tmp_path)
        seen = EventCollector()
        SweepRunner(cache=cache, jobs=1, events=seen).run(self._points())
        kinds = seen.kinds()
        assert kinds[0] == "begin" and kinds[-1] == "end"
        assert kinds.count("started") == 2
        assert kinds.count("done") == 2
        begin = seen.events[0]
        assert begin.total == 2
        done = [e for e in seen.events if e.event == "done"]
        assert [e.done for e in done] == [1, 2]
        assert {e.label for e in done} == {"B/kmeans", "O/kmeans"}

        # the second sweep resolves everything from the cache
        seen2 = EventCollector()
        SweepRunner(cache=cache, jobs=1, events=seen2).run(self._points())
        assert seen2.kinds() == ["begin", "cached", "cached", "end"]

    def test_failed_point_emits_failed_event(self, monkeypatch):
        def broken(design, workload, config, **kwargs):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(runner_mod, "_live_simulate", broken)
        seen = EventCollector()
        SweepRunner(cache=False, jobs=1, events=seen).run(
            self._points(designs=("B",)))
        failed = [e for e in seen.events if e.event == "failed"]
        assert len(failed) == 1 and "kaboom" in failed[0].error

    def test_broken_consumer_never_fails_the_sweep(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner_mod, "_live_simulate",
                            lambda d, w, c, **kw: fake_result(design=d))

        def explode(ev):
            raise RuntimeError("renderer bug")

        report = SweepRunner(cache=ResultCache(root=tmp_path), jobs=1,
                             events=explode).run(self._points())
        assert all(o.ok for o in report.outcomes)

    def test_tee_fans_out_and_swallows(self):
        seen = EventCollector()

        def explode(ev):
            raise OSError("closed pipe")

        fan = tee(explode, None, seen)
        fan(ProgressEvent(event="begin", total=2))
        assert seen.kinds() == ["begin"]

    def test_status_line_and_eta(self):
        progress = SweepProgress(stream=None, live=True, enabled=False)
        progress(ProgressEvent(event="begin", total=4, jobs=2))
        progress(ProgressEvent(event="cached", done=1, total=4))
        progress(ProgressEvent(event="started"))
        progress(ProgressEvent(event="done", done=2, total=4,
                               elapsed_s=0.1))
        line = progress.status_line()
        assert "sweep 2/4" in line and "1 cached" in line
        assert progress.eta_s() is not None
        progress(ProgressEvent(event="failed", done=3, total=4))
        assert "FAILED" in progress.status_line()

    def test_plain_renderer_writes_per_point_lines(self):
        import io

        buf = io.StringIO()
        progress = SweepProgress(stream=buf, live=False)
        progress(ProgressEvent(event="begin", total=2, jobs=1))
        progress(ProgressEvent(event="cached", label="B/pr",
                               done=1, total=2))
        progress(ProgressEvent(event="done", label="O/pr", done=2,
                               total=2, elapsed_s=1.5))
        progress(ProgressEvent(event="end", done=2, total=2))
        text = buf.getvalue()
        assert "[1/2] B/pr" in text and "cached" in text
        assert "ran 1.5s" in text
        assert "sweep 2/2" in text.splitlines()[-1]

    def test_jsonl_stream(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlProgress(str(path))
        sink(ProgressEvent(event="begin", total=1, jobs=1))
        sink(ProgressEvent(event="done", label="B/pr", done=1, total=1,
                           elapsed_s=0.2))
        sink(ProgressEvent(event="end", done=1, total=1))
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert [ev["event"] for ev in lines] == ["begin", "done", "end"]
        assert all("t" in ev for ev in lines)
        assert lines[1]["label"] == "B/pr"
        assert sink.events_written == 3


# ----------------------------------------------------------------------
# sidecar hygiene (satellite: no churn on unchanged telemetry)
# ----------------------------------------------------------------------
class TestSidecarSkip:
    def test_unchanged_sidecar_is_not_rewritten(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        summary = {"counters": {"scheduler.steals": 3}, "events": 1}
        cache.store_telemetry("ab" * 32, summary)
        path = cache.telemetry_path_for("ab" * 32)
        before = path.stat().st_mtime_ns
        time.sleep(0.01)
        cache.store_telemetry("ab" * 32, dict(summary))
        assert cache.stats.sidecar_skips == 1
        assert path.stat().st_mtime_ns == before

    def test_changed_sidecar_is_rewritten(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cache.store_telemetry("ab" * 32, {"events": 1})
        cache.store_telemetry("ab" * 32, {"events": 2})
        assert cache.stats.sidecar_skips == 0
        assert cache.load_telemetry("ab" * 32) == {"events": 2}
