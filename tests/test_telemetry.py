"""Tests for the telemetry subsystem: registry/sampler/timeline units,
probe totals vs RunResult aggregates, the zero-overhead disabled path,
Chrome-trace export, and the sweep-cache telemetry plumbing."""

import json

import numpy as np
import pytest

import repro
from repro.cli import main as cli_main
from repro.config import experiment_config
from repro.core.system import build_system
from repro.runtime.trace import TaskRecord, TaskTraceRecorder
from repro.sweep import cached_simulate, run_key
from repro.sweep.cache import default_cache
from repro.telemetry import (
    NULL_TELEMETRY,
    MetricRegistry,
    Sampler,
    Telemetry,
    TelemetrySummary,
    Timeline,
)


@pytest.fixture(autouse=True)
def _isolate_cache_env(monkeypatch, tmp_path):
    """Route any caching through a per-test directory."""
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


def small_config():
    return experiment_config().scaled(2, 2)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricRegistry()
        reg.counter("c").add(3)
        reg.counter("c").inc()
        reg.gauge("g").set(7.5)
        h = reg.histogram("h")
        for v in (1.0, 2.0, 100.0):
            h.observe(v)
        values = reg.collect()
        assert values["c"] == 4
        assert values["g"] == 7.5
        assert values["h.count"] == 3
        assert values["h.sum"] == pytest.approx(103.0)
        assert values["h.max"] == 100.0

    def test_pull_metrics_read_at_collect_time(self):
        reg = MetricRegistry()
        state = {"v": 1}
        reg.register_pull("live", lambda: state["v"])
        assert reg.collect()["live"] == 1
        state["v"] = 42
        assert reg.collect()["live"] == 42

    def test_scopes_prefix_names(self):
        reg = MetricRegistry()
        scope = reg.scope("unit.3").scope("traveller")
        scope.counter("hits").add(5)
        assert reg.value("unit.3.traveller.hits") == 5

    def test_minting_is_idempotent(self):
        reg = MetricRegistry()
        assert reg.counter("x") is reg.counter("x")


# ----------------------------------------------------------------------
# sampler
# ----------------------------------------------------------------------
class TestSampler:
    def test_interval_cadence(self):
        s = Sampler(interval=4)
        s.add_probe("p", lambda: 1.0)
        taken = [t for t in range(10) if s.sample(t, float(t))]
        assert taken == [0, 4, 8]
        assert s.callbacks_invoked == 3

    def test_force_ignores_cadence(self):
        s = Sampler(interval=100)
        s.add_probe("p", lambda: 2.0)
        assert s.sample(3, 3.0) is False
        assert s.sample(3, 3.0, force=True) is True

    def test_vector_probe_and_deltas(self):
        s = Sampler()
        state = {"total": 0}

        def cumulative():
            state["total"] += 10
            return state["total"]

        s.add_probe("c", cumulative)
        s.add_probe("vec", lambda: np.array([1.0, 2.0]))
        s.sample(0, 0.0)
        s.sample(1, 1.0)
        assert s.series("c").deltas() == [10.0, 10.0]
        assert s.series("vec").matrix().shape == (2, 2)


# ----------------------------------------------------------------------
# timeline
# ----------------------------------------------------------------------
class TestTimeline:
    def test_capacity_ring_drops_oldest(self):
        tl = Timeline(capacity=3)
        for i in range(5):
            tl.instant(f"e{i}", float(i))
        assert len(tl) == 3
        assert tl.dropped == 2
        assert [e.name for e in tl] == ["e2", "e3", "e4"]

    def test_chrome_export_fields(self):
        tl = Timeline()
        tl.name_process(0, "sim")
        tl.name_thread(0, 1, "unit 1")
        tl.complete("span", 1000.0, 500.0, tid=1, depth=3)
        tl.instant("tick", 1200.0)
        tl.counter("q", 1300.0, {"u0": 2.0})
        doc = tl.to_chrome()
        events = doc["traceEvents"]
        # 2 metadata + 3 recorded
        assert len(events) == 5
        for ev in events:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(ev)
        span = next(e for e in events if e["ph"] == "X")
        assert span["dur"] == pytest.approx(0.5)   # ns -> us
        assert span["ts"] == pytest.approx(1.0)
        inst = next(e for e in events if e["ph"] == "i")
        assert inst["s"] == "t"

    def test_jsonl_roundtrip(self, tmp_path):
        tl = Timeline()
        tl.instant("a", 1.0)
        tl.complete("b", 2.0, 3.0)
        path = tmp_path / "t.jsonl"
        tl.write_jsonl(str(path))
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["name"] for r in rows] == ["a", "b"]


# ----------------------------------------------------------------------
# totals equality: telemetry counters ARE the RunResult aggregates
# ----------------------------------------------------------------------
class TestTotalsMatchRunResult:
    @pytest.mark.parametrize("design", ["B", "O"])
    def test_pr_totals(self, design):
        tel = Telemetry(sample_interval=1)
        result = repro.simulate(design, "pr", config=small_config(),
                                telemetry=tel)
        counters = tel.registry.collect()
        assert counters["traveller.hits"] == result.cache.hits
        assert counters["traveller.misses"] == result.cache.misses
        assert counters["noc.inter_hops"] == result.traffic.inter_hops
        assert counters["noc.messages"] == result.traffic.messages
        assert counters["dram.reads"] == result.dram.reads
        assert counters["run.tasks_executed"] == result.tasks_executed
        assert counters["scheduler.decisions"] == result.tasks_executed
        # the digest on the result carries the same numbers
        assert result.telemetry is not None
        assert result.telemetry.counters["traveller.hits"] == \
            result.cache.hits

    def test_per_unit_counters_sum_to_totals(self):
        tel = Telemetry()
        result = repro.simulate("O", "pr", config=small_config(),
                                telemetry=tel)
        counters = tel.registry.collect()
        n = small_config().num_units
        per_unit = sum(counters[f"unit.{u}.traveller.hits"]
                       for u in range(n))
        assert per_unit == result.cache.hits
        tasks = sum(counters[f"unit.{u}.tasks_executed"] for u in range(n))
        assert tasks == result.tasks_executed

    def test_link_meter_consistent_with_traffic(self):
        tel = Telemetry()
        result = repro.simulate("O", "pr", config=small_config(),
                                telemetry=tel)
        meter = tel.link_meter
        assert meter is not None
        # every directed stack link has a mesh edge's worth of flits;
        # the XY decomposition conserves per-hop totals.
        assert meter.total_link_flits() > 0
        assert meter.stack_matrix().sum() == meter.total_link_flits()

    def test_queue_depth_series_covers_units(self):
        tel = Telemetry()
        repro.simulate("O", "pr", config=small_config(), telemetry=tel)
        depth = tel.sampler.series("queue.depth")
        assert depth.matrix().shape[1] == small_config().num_units
        assert len(depth) >= 1


# ----------------------------------------------------------------------
# disabled path: near-zero overhead
# ----------------------------------------------------------------------
class TestDisabledOverhead:
    def test_no_sampler_callbacks_when_disabled(self, monkeypatch):
        calls = {"sample": 0, "phase": 0}
        real_sample = Sampler.sample

        def counting_sample(self, *a, **k):
            calls["sample"] += 1
            return real_sample(self, *a, **k)

        monkeypatch.setattr(Sampler, "sample", counting_sample)
        real_begin = Telemetry.phase_begin

        def counting_begin(self, *a, **k):
            calls["phase"] += 1
            return real_begin(self, *a, **k)

        monkeypatch.setattr(Telemetry, "phase_begin", counting_begin)
        # NullTelemetry overrides both hooks with no-ops, so a
        # disabled run must never reach them.
        result = repro.simulate("O", "pr", config=small_config())
        assert result.telemetry is None
        assert calls == {"sample": 0, "phase": 0}
        assert NULL_TELEMETRY.sampler.callbacks_invoked == 0
        assert len(NULL_TELEMETRY.timeline) == 0

    def test_disabled_system_uses_null_singleton(self):
        system = build_system("O", small_config())
        assert system.telemetry is NULL_TELEMETRY
        assert system.executor.telemetry is NULL_TELEMETRY
        assert system.scheduler.telemetry is NULL_TELEMETRY
        assert system.interconnect.link_meter is None


# ----------------------------------------------------------------------
# Chrome-trace export
# ----------------------------------------------------------------------
class TestChromeTraceExport:
    def test_trace_cli_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = cli_main(["trace", "O", "pr", "--mesh", "2x2",
                       "--out", str(out)])
        assert rc == 0
        doc = json.load(open(out))
        events = doc["traceEvents"]
        assert events
        for ev in events:
            assert isinstance(ev["ph"], str)
            assert isinstance(ev["ts"], (int, float))
            assert isinstance(ev["pid"], int)
        decisions = [e for e in events if e["name"] == "scheduler.decide"]
        assert decisions
        assert {"policy", "unit", "cost_mem", "cost_load",
                "score"} <= set(decisions[0]["args"])
        depths = [e for e in events
                  if e["name"] == "queue.depth" and e["ph"] == "C"]
        assert depths
        spans = [e for e in events if e["ph"] == "X"]
        assert any(e["name"].startswith("timestamp") for e in spans)
        assert all("dur" in e for e in spans)
        assert doc["otherData"]["design"] == "O"
        assert doc["otherData"]["workload"] == "pr"

    def test_run_cli_trace_out(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        rc = cli_main(["run", "-d", "B", "-w", "kmeans", "--mesh", "2x2",
                       "--trace-out", str(out)])
        assert rc == 0
        doc = json.load(open(out))
        assert doc["traceEvents"]

    def test_describe_reports_telemetry(self, capsys):
        assert cli_main(["describe", "--mesh", "2x2"]) == 0
        assert "telemetry: disabled" in capsys.readouterr().out
        assert cli_main(["describe", "--mesh", "2x2",
                         "--sample-interval", "4"]) == 0
        assert "telemetry: enabled" in capsys.readouterr().out


# ----------------------------------------------------------------------
# recorder-over-timeline adapter
# ----------------------------------------------------------------------
class TestRecorderTimelineAdapter:
    def test_records_become_trace_spans(self):
        rec = TaskTraceRecorder(frequency_ghz=2.0)
        rec.record(TaskRecord(
            task_id=9, timestamp=1, spawner_unit=0, assigned_unit=3,
            start_cycles=100.0, duration_cycles=50.0, stall_ns=5.0,
            hint_lines=2, stolen=False,
        ))
        events = rec.timeline.events
        assert len(events) == 1
        assert events[0].ph == "X"
        assert events[0].tid == 3
        assert events[0].ts_ns == pytest.approx(50.0)   # cycles / GHz
        assert rec.records[0].task_id == 9

    def test_shared_timeline_interleaves_with_telemetry(self):
        tel = Telemetry()
        system = build_system("O", small_config(), telemetry=tel)
        system.executor.recorder = TaskTraceRecorder(
            timeline=tel.timeline,
            frequency_ghz=system.config.core.frequency_ghz,
        )
        wl = repro.make_workload("kmeans", num_points=64, iterations=1)
        state = wl.setup(system)
        system.executor.run(wl.root_tasks(state), state=state,
                            on_barrier=wl.on_barrier)
        names = {e.name for e in tel.timeline}
        assert any(n.startswith("task ") for n in names)
        assert any(n.startswith("timestamp") for n in names)
        # the recorder still reconstructs its records from the mix
        assert len(system.executor.recorder) == 64


# ----------------------------------------------------------------------
# task-queue probes
# ----------------------------------------------------------------------
class TestQueueTelemetry:
    def test_attach_telemetry_mirrors_activity(self):
        from repro.runtime.queue import TaskQueue
        from repro.runtime.task import Task, TaskHint

        reg = MetricRegistry()
        q = TaskQueue()
        q.attach_telemetry(reg.scope("unit.0.queue"))
        for _ in range(3):
            q.enqueue(Task(func=lambda ctx: None, timestamp=0,
                           hint=TaskHint.empty()))
        q.dequeue()
        values = reg.collect()
        assert values["unit.0.queue.enqueued"] == 3
        assert values["unit.0.queue.dequeued"] == 1
        assert values["unit.0.queue.depth"] == 2
        q.steal_from_back()
        assert reg.value("unit.0.queue.depth") == 1


# ----------------------------------------------------------------------
# sweep plumbing
# ----------------------------------------------------------------------
class TestSweepTelemetryPlumbing:
    def test_cached_simulate_writes_telemetry_sidecar(self):
        cfg = small_config()
        wl = repro.make_workload("kmeans", num_points=64, iterations=1)
        tel = Telemetry()
        result = cached_simulate("O", wl, cfg, telemetry=tel)
        key = run_key("O", wl, cfg)
        cache = default_cache()
        assert cache.path_for(key).exists()
        sidecar = cache.load_telemetry(key)
        assert sidecar is not None
        assert sidecar["counters"]["traveller.hits"] == result.cache.hits
        # summary round-trips through its dict form
        summary = TelemetrySummary.from_dict(sidecar)
        assert summary.counters["traveller.hits"] == result.cache.hits

    def test_telemetry_forces_live_run_on_cache_hit(self):
        cfg = small_config()
        wl = repro.make_workload("kmeans", num_points=64, iterations=1)
        cached_simulate("B", wl, cfg)                 # seed the cache
        tel = Telemetry()
        result = cached_simulate("B", wl, cfg, telemetry=tel)
        # a cache hit cannot produce a timeline; the live rerun did
        assert result.telemetry is not None
        assert len(tel.timeline) > 0

    def test_cache_json_schema_unchanged_by_telemetry(self):
        """The result entry must be byte-compatible whether or not the
        run was instrumented (telemetry rides in the sidecar only)."""
        cfg = small_config()
        wl = repro.make_workload("kmeans", num_points=64, iterations=1)
        cached_simulate("B", wl, cfg, telemetry=Telemetry())
        key = run_key("B", wl, cfg)
        payload = json.loads(
            default_cache().path_for(key).read_text()
        )
        assert "telemetry" not in payload["result"]
        hit = default_cache().load(key)
        assert hit is not None
        assert hit.telemetry is None
