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
from repro.sweep import cached_simulate, run_key
from repro.sweep.cache import default_cache
from repro.telemetry import (
    NULL_TELEMETRY,
    MetricRegistry,
    NullTelemetry,
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

    @pytest.fixture(scope="class")
    def pr_run(self):
        """One O/pr run with default telemetry, shared by the tests
        below that only read it."""
        tel = Telemetry()
        result = repro.simulate("O", "pr", config=small_config(),
                                telemetry=tel)
        return tel, result

    def test_per_unit_counters_sum_to_totals(self, pr_run):
        tel, result = pr_run
        counters = tel.registry.collect()
        n = small_config().num_units
        per_unit = sum(counters[f"unit.{u}.traveller.hits"]
                       for u in range(n))
        assert per_unit == result.cache.hits
        tasks = sum(counters[f"unit.{u}.tasks_executed"] for u in range(n))
        assert tasks == result.tasks_executed

    def test_link_meter_consistent_with_traffic(self, pr_run):
        tel, _ = pr_run
        meter = tel.link_meter
        assert meter is not None
        # every directed stack link has a mesh edge's worth of flits;
        # the XY decomposition conserves per-hop totals.
        assert meter.total_link_flits() > 0
        assert meter.stack_matrix().sum() == meter.total_link_flits()

    def test_queue_depth_series_covers_units(self, pr_run):
        tel, _ = pr_run
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
# task spans: the executor's per-task probe
# ----------------------------------------------------------------------
def task_spans(tel):
    return [e for e in tel.timeline
            if e.ph == "X" and e.name.startswith("task ")]


def spans_outside_their_phase(tel):
    phases = {int(e.name.split()[1]): e for e in tel.timeline
              if e.ph == "X" and e.name.startswith("timestamp ")}
    outside = []
    for e in task_spans(tel):
        phase = phases[e.args["timestamp"]]
        if not (phase.ts_ns <= e.ts_ns
                and e.ts_ns + e.dur_ns <= phase.ts_ns + phase.dur_ns):
            outside.append(e)
    return outside


class TestTaskSpans:
    def test_task_span_converts_cycles_to_ns(self):
        tel = Telemetry()
        tel.bind(frequency_ghz=2.0)
        tel.task_span(9, 1, 3, 0, 100.0, 50.0, 5.0, 2, False)
        (span,) = tel.timeline.events
        assert (span.name, span.ph, span.tid) == ("task 9", "X", 3)
        assert span.ts_ns == pytest.approx(50.0)    # cycles / GHz
        assert span.dur_ns == pytest.approx(25.0)
        assert span.args == {"timestamp": 1, "spawner": 0, "stolen": False,
                             "stall_ns": 5.0, "hint_lines": 2}

    @pytest.fixture(scope="class")
    def kmeans_run(self):
        tel = Telemetry()
        wl = repro.make_workload("kmeans", num_points=128, iterations=2)
        result = repro.simulate("O", wl, config=small_config(),
                                telemetry=tel)
        return tel, result

    def test_one_span_per_executed_task(self, kmeans_run):
        tel, result = kmeans_run
        spans = task_spans(tel)
        assert len(spans) == result.tasks_executed
        assert len(spans) == tel.registry.value("scheduler.decisions")
        assert len({e.name for e in spans}) == len(spans)
        assert set(spans[0].args) == {
            "timestamp", "spawner", "stolen", "stall_ns", "hint_lines"}
        assert all(0 <= e.tid < small_config().num_units for e in spans)
        assert tel.timeline.dropped == 0

    def test_spans_lie_inside_their_phase(self, kmeans_run):
        tel, _ = kmeans_run
        assert spans_outside_their_phase(tel) == []

    def test_kmeans_phase_counts_and_placement(self, kmeans_run):
        tel, _ = kmeans_run
        spans = task_spans(tel)
        counts = {}
        for e in spans:
            ts = e.args["timestamp"]
            counts[ts] = counts.get(ts, 0) + 1
        assert counts == {0: 128, 1: 128}
        # kmeans on a balanced system: tasks stay home.
        migrated = sum(1 for e in spans if e.tid != e.args["spawner"])
        assert migrated / len(spans) < 0.1

    def test_faulted_spans_avoid_dead_units(self):
        from repro.faults import FaultSchedule

        tel = Telemetry()
        wl = repro.make_workload("kmeans", num_points=128, iterations=3)
        result = repro.simulate(
            "O", wl, config=small_config(), telemetry=tel,
            fault_schedule=FaultSchedule.unit_failures([1, 2]),
        )
        spans = task_spans(tel)
        assert len(spans) == result.tasks_executed
        assert spans_outside_their_phase(tel) == []
        # the units die at timestamp 1; nothing runs on them after that
        assert not any(e.tid in (1, 2) for e in spans
                       if e.args["timestamp"] >= 1)

    def test_stolen_spans_bounded_by_steals(self):
        tel = Telemetry()
        result = repro.simulate("Sl", "knn", config=small_config(),
                                telemetry=tel, num_points=2048,
                                num_queries=192)
        stolen = sum(1 for e in task_spans(tel) if e.args["stolen"])
        # A task can be stolen more than once, so this is no equality.
        assert 0 < stolen <= result.steals

    def test_no_stolen_spans_without_stealing(self):
        tel = Telemetry()
        repro.simulate("C", "knn", config=small_config(), telemetry=tel,
                       num_points=2048, num_queries=192)
        spans = task_spans(tel)
        assert spans
        assert not any(e.args["stolen"] for e in spans)

    def test_disabled_run_records_no_spans(self, monkeypatch):
        def boom(self, *args):
            raise AssertionError("task_span reached on a disabled run")

        monkeypatch.setattr(NullTelemetry, "task_span", boom)
        repro.simulate("O", "kmeans", config=small_config(),
                       num_points=64, iterations=1)
        assert len(NULL_TELEMETRY.timeline) == 0


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
