"""Tests for the insight plane: bottleneck attribution against
synthetic ground-truth fixtures, report determinism, trace-id
non-semantics, the Prometheus metrics plane (unit + live /v1/metrics),
telemetry schema versioning in the diff engine, and the zero-overhead
guard on the disabled-telemetry path."""

import dataclasses
import json

import pytest

import repro
import repro.sweep.runner as runner_mod
from repro.config import experiment_config
from repro.insight.attribution import (
    BOTTLENECK_CLASSES,
    SKEW_THRESHOLD,
    BottleneckProfile,
    attribute_point,
    link_loads_from_unit_matrix,
    mesh_link_count,
)
from repro.insight.metrics_plane import (
    PROMETHEUS_CONTENT_TYPE,
    MetricFamily,
    render_exposition,
    runtime_metric_families,
)
from repro.insight.report import build_report
from repro.insight.trace import (
    campaign_trace_events,
    merge_chrome_traces,
    mint_trace_id,
    write_campaign_trace,
)
from repro.observatory.diffing import RunHandle, diff_runs
from repro.observatory.progress import ProgressEvent
from repro.service.spec import ExperimentSpec
from repro.sweep import cached_simulate, run_key
from repro.sweep.cache import default_cache
from repro.sweep.runtime import MemoStats
from repro.telemetry import NULL_TELEMETRY, TelemetrySummary
from repro.telemetry.core import SUMMARY_VERSION

from tests.test_sweep import fake_result


@pytest.fixture(autouse=True)
def _isolate_env(monkeypatch, tmp_path):
    """Route caching and history through per-test directories."""
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_HISTORY_PATH",
                       str(tmp_path / "history.jsonl"))


def small_config():
    # 2x2 stacks x 8 units x 2 cores: 32 units, 64 lanes, 8 mesh links.
    return experiment_config().scaled(2, 2)


# ----------------------------------------------------------------------
# attribution: synthetic fixtures with known ground truth
# ----------------------------------------------------------------------
class TestAttributionGroundTruth:
    """Each fixture makes exactly one resource dominant by
    construction, so the expected class (and the occupancy arithmetic)
    is knowable without running the simulator."""

    def test_pure_compute(self):
        # 90% mean utilization, zero traffic of any kind.
        profile = attribute_point({
            "makespan_cycles": 1000.0,
            "mean_core_cycles": 900.0,
            "busiest_core_cycles": 950.0,
            "load_imbalance": 950.0 / 900.0,
        }, config=small_config())
        assert profile.primary == "compute"
        assert profile.occupancy["compute"] == pytest.approx(0.9)
        assert profile.confidence > 0.9
        assert profile.memory_intensity == 0.0
        assert profile.quadrant == "compute/balanced"
        assert profile.hottest_link is None
        assert "approx_skew" in profile.inputs

    def test_dram_saturated(self):
        # 4000 accesses x 4-cycle vault service (the line_transfer_ns
        # fallback: experiment_config disables service_ns) over
        # 32 vaults x 1000 cycles = 0.5 channel occupancy.
        profile = attribute_point({
            "makespan_cycles": 1000.0,
            "mean_core_cycles": 100.0,
            "busiest_core_cycles": 100.0,
            "dram_reads": 4000.0,
        }, config=small_config())
        assert profile.primary == "dram"
        assert profile.occupancy["dram"] == pytest.approx(0.5)
        assert profile.confidence == pytest.approx(1.0)
        # charged stalls dwarf the 10% utilization: pure memory half.
        assert profile.memory_intensity == pytest.approx(1.0)
        assert profile.quadrant == "memory/balanced"
        assert profile.occupancy["compute"] == 0.0

    def test_one_hot_link(self):
        # All 500 messages go unit 0 (stack 0) -> unit 31 (stack 3);
        # XY routes columns-first, so the first hop is s0->s1 and that
        # link serializes 500 msgs x 20 cycles over a 10k makespan.
        matrix = [[0.0] * 32 for _ in range(32)]
        matrix[0][31] = 500.0
        telemetry = {"meta": {"num_units": 32}, "counters": {},
                     "link_matrix": matrix}
        profile = attribute_point({
            "makespan_cycles": 10000.0,
            "mean_core_cycles": 500.0,
            "busiest_core_cycles": 500.0,
            "inter_hops": 1000.0,
        }, telemetry=telemetry, config=small_config())
        assert profile.primary == "noc"
        assert profile.hottest_link == "s0->s1"
        assert profile.occupancy["noc"] == pytest.approx(1.0)
        assert profile.confidence > 0.9
        assert "link_matrix" in profile.inputs
        assert "telemetry" in profile.inputs

    def test_skewed_imbalance(self):
        # 60 lazy cores at 100 cycles, 4 hot cores at 1000: p95/mean
        # = 865 / 156.25 ~= 5.5, far past the quadrant threshold.
        cycles = [100.0] * 60 + [1000.0] * 4
        mean = sum(cycles) / len(cycles)
        profile = attribute_point({
            "makespan_cycles": 1000.0,
            "mean_core_cycles": mean,
            "busiest_core_cycles": 1000.0,
        }, config=small_config(), active_cycles=cycles)
        assert profile.primary == "imbalance"
        assert profile.imbalance > SKEW_THRESHOLD
        assert profile.quadrant.endswith("/imbalanced")
        assert profile.confidence > 0.0
        assert "active_cycles" in profile.inputs

    def test_empty_row_degrades_cleanly(self):
        profile = attribute_point({}, config=small_config())
        assert profile.primary == "compute"
        assert profile.confidence == 0.0
        assert "empty" in profile.inputs

    def test_unit_cycle_counters_refine_imbalance(self):
        # No active_cycles vector, but the telemetry sidecar carries
        # per-unit cycle counters: the skew must come from them.
        counters = {f"unit.{i}.active_cycles": 100.0 for i in range(30)}
        counters["unit.30.active_cycles"] = 2000.0
        counters["unit.31.active_cycles"] = 2000.0
        profile = attribute_point({
            "makespan_cycles": 2000.0,
            "mean_core_cycles": 110.0,
            "busiest_core_cycles": 2000.0,
        }, telemetry={"meta": {"num_units": 32}, "counters": counters},
            config=small_config())
        assert "unit_cycles" in profile.inputs
        assert profile.imbalance > SKEW_THRESHOLD


class TestAttributionDeterminism:
    def test_same_inputs_same_profile_bytes(self):
        metrics = {"makespan_cycles": 1000.0, "mean_core_cycles": 400.0,
                   "busiest_core_cycles": 700.0, "dram_reads": 900.0,
                   "inter_hops": 1500.0, "cache_hits": 200.0}
        one = attribute_point(metrics, config=small_config())
        two = attribute_point(metrics, config=small_config())
        assert json.dumps(one.to_dict(), sort_keys=True) == \
            json.dumps(two.to_dict(), sort_keys=True)

    def test_profile_dict_round_trip(self):
        profile = attribute_point({
            "makespan_cycles": 1000.0, "mean_core_cycles": 900.0,
            "busiest_core_cycles": 950.0,
        }, config=small_config())
        again = BottleneckProfile.from_dict(profile.to_dict())
        assert again.to_dict() == profile.to_dict()

    def test_occupancy_covers_every_class(self):
        profile = attribute_point({"makespan_cycles": 10.0},
                                  config=small_config())
        assert set(profile.to_dict()["occupancy"]) == \
            set(BOTTLENECK_CLASSES)


class TestLinkAccounting:
    def test_mesh_link_count(self):
        assert mesh_link_count(1, 1) == 0
        assert mesh_link_count(2, 2) == 8
        assert mesh_link_count(4, 4) == 48

    def test_xy_route_attribution(self):
        # 4 stacks of 1 unit on a 2x2 mesh: 0 -> 3 goes column first
        # (s0->s1) then row (s1->s3); both links carry the 10 msgs.
        matrix = [[0.0] * 4 for _ in range(4)]
        matrix[0][3] = 10.0
        loads = link_loads_from_unit_matrix(matrix, 1, 2, 2)
        assert loads == {(0, 1): 10.0, (1, 3): 10.0}

    def test_intra_stack_traffic_ignored(self):
        matrix = [[0.0, 5.0], [5.0, 0.0]]
        assert link_loads_from_unit_matrix(matrix, 2, 2, 2) == {}


# ----------------------------------------------------------------------
# report generator: determinism over a sweep export
# ----------------------------------------------------------------------
class TestReport:
    def _rows_file(self, tmp_path):
        rows = [
            {"design": "B", "workload": "pr", "makespan_cycles": 1000.0,
             "mean_core_cycles": 900.0, "busiest_core_cycles": 950.0},
            {"design": "O", "workload": "pr", "makespan_cycles": 1000.0,
             "mean_core_cycles": 100.0, "busiest_core_cycles": 100.0,
             "dram_reads": 4000.0},
        ]
        path = tmp_path / "rows.json"
        path.write_text(json.dumps(rows), encoding="utf-8")
        return path

    def test_report_json_byte_identical(self, tmp_path):
        path = self._rows_file(tmp_path)
        assert build_report(path).to_json() == build_report(path).to_json()

    def test_matrix_and_markdown(self, tmp_path):
        report = build_report(self._rows_file(tmp_path))
        matrix = report.matrix()
        assert set(matrix) == {"pr"}
        assert set(matrix["pr"]) == {"B", "O"}
        for cell in matrix["pr"].values():
            assert cell["primary"] in BOTTLENECK_CLASSES
            assert cell["confidence"] > 0.0
        md = report.to_markdown()
        assert "| workload |" in md
        assert "pr" in md

    def test_unrecognizable_input_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("42", encoding="utf-8")
        with pytest.raises(ValueError):
            build_report(bad)


# ----------------------------------------------------------------------
# trace correlation: pure annotation, never semantics
# ----------------------------------------------------------------------
class TestTraceCorrelation:
    def test_trace_id_never_enters_the_run_key(self):
        plain = ExperimentSpec.from_dict(
            {"design": "B", "workload": "pr", "mesh": "2x2"})
        traced = ExperimentSpec.from_dict(
            {"design": "B", "workload": "pr", "mesh": "2x2",
             "trace_id": mint_trace_id()})
        assert traced.trace_id
        assert traced.run_key() == plain.run_key()

    def test_spec_serializes_trace_id_only_when_set(self):
        spec = ExperimentSpec.from_dict({"design": "B", "workload": "pr"})
        assert "trace_id" not in spec.to_dict()
        spec = ExperimentSpec.from_dict(
            {"design": "B", "workload": "pr", "trace_id": "abc123"})
        again = ExperimentSpec.from_dict(spec.to_dict())
        assert again.trace_id == "abc123"

    def test_mint_trace_id_shape(self):
        a, b = mint_trace_id(), mint_trace_id()
        assert len(a) == 16 and int(a, 16) >= 0
        assert a != b

    def test_progress_event_wire_format_unchanged_when_untraced(self):
        bare = ProgressEvent(event="done", label="B/pr")
        assert "trace_id" not in bare.to_dict()
        traced = ProgressEvent(event="done", label="B/pr",
                               trace_id="abc123")
        assert traced.to_dict()["trace_id"] == "abc123"
        assert ProgressEvent(**traced.to_dict()).to_dict() == \
            traced.to_dict()

    def test_campaign_trace_events_carry_the_trace_id(self):
        report = {
            "name": "demo", "trace_id": "feedc0de00000000",
            "points": [
                {"label": "B/pr", "spec": {"design": "B"},
                 "elapsed_s": 1.0, "key": "k1", "source": "run"},
                {"label": "O/pr", "spec": {"design": "O"},
                 "elapsed_s": 0.5, "key": "k2", "source": "cache"},
            ],
        }
        events = campaign_trace_events(report)
        spans = [e for e in events if e["ph"] == "X"]
        assert len(spans) == 2
        assert all(e["args"]["trace_id"] == "feedc0de00000000"
                   for e in spans)
        names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert names == {"design B", "design O"}

    def test_merge_rehomes_extra_trace_pids(self):
        base = [{"name": "a", "ph": "X", "pid": 1, "tid": 0,
                 "ts": 0, "dur": 1, "args": {}}]
        extra = {"traceEvents": [
            {"name": "b", "ph": "X", "pid": 1, "tid": 0,
             "ts": 0, "dur": 1, "args": {}}]}
        merged = merge_chrome_traces(base, [extra])
        pids = [e["pid"] for e in merged["traceEvents"]]
        assert len(set(pids)) == 2

    def test_write_campaign_trace_deterministic(self, tmp_path):
        report = {"name": "demo", "trace_id": "00aa00aa00aa00aa",
                  "fingerprint": "f00",
                  "points": [{"label": "B/pr", "spec": {"design": "B"},
                              "elapsed_s": 1.0, "key": "k1"}]}
        one = write_campaign_trace(report, tmp_path / "t1.json")
        two = write_campaign_trace(report, tmp_path / "t2.json")
        assert one.read_bytes() == two.read_bytes()
        payload = json.loads(one.read_text())
        assert payload["otherData"]["trace_id"] == "00aa00aa00aa00aa"


# ----------------------------------------------------------------------
# Prometheus metrics plane
# ----------------------------------------------------------------------
class TestMetricsPlane:
    def test_render_headers_and_samples(self):
        fam = MetricFamily("demo_total", "counter", "A demo counter.")
        fam.add(3, route="submit", method="POST")
        fam.add(2.5, route="health", method="GET")
        text = render_exposition([fam])
        assert "# HELP demo_total A demo counter." in text
        assert "# TYPE demo_total counter" in text
        # labels render sorted by name; integral floats drop the ".0"
        assert 'demo_total{method="POST",route="submit"} 3' in text
        assert 'demo_total{method="GET",route="health"} 2.5' in text
        assert text.endswith("\n")

    def test_sampleless_family_renders_zero(self):
        text = render_exposition(
            [MetricFamily("idle_gauge", "gauge", "nothing yet")])
        assert "idle_gauge 0" in text

    def test_label_and_help_escaping(self):
        fam = MetricFamily("esc_total", "counter", "line\nbreak")
        fam.add(1, path='a"b\\c')
        text = render_exposition([fam])
        assert "# HELP esc_total line\\nbreak" in text
        assert 'esc_total{path="a\\"b\\\\c"} 1' in text

    def test_runtime_families_are_passive(self):
        families = runtime_metric_families()
        names = [f.name for f in families]
        assert all(n.startswith("repro_runtime_") for n in names)
        assert "repro_runtime_memo_events_total" in names
        assert "repro_runtime_shm_bytes" in names
        # a scrape of an idle process renders without error
        text = render_exposition(families)
        assert 'kind="workload_hits"' in text

    def test_memo_event_kinds_are_memo_stats_fields(self):
        (memo_events,) = [f for f in runtime_metric_families()
                          if f.name == "repro_runtime_memo_events_total"]
        kinds = [labels["kind"] for labels, _ in memo_events.samples]
        assert kinds == [f.name for f in dataclasses.fields(MemoStats)]
        assert kinds == ["workload_hits", "workload_misses"]


@pytest.fixture
def metrics_server(tmp_path, monkeypatch):
    """A thread-mode server with a stubbed simulation entry point,
    for scraping /v1/metrics against live counters."""
    from repro.service.client import ServiceClient
    from repro.service.server import run_in_thread

    def fake(design, workload, config, **kwargs):
        name = getattr(workload, "name", str(workload))
        return fake_result(design=design, workload=name)

    monkeypatch.setattr(runner_mod, "_live_simulate", fake)
    handle = run_in_thread(workers=0,
                           cache_root=str(tmp_path / "srv_cache"))
    client = ServiceClient(handle.base_url, timeout=60.0)
    yield client
    handle.stop()


class TestServerMetrics:
    def test_scrape_content_type_and_families(self, metrics_server):
        content_type, text = metrics_server.metrics()
        assert content_type == PROMETHEUS_CONTENT_TYPE
        families = [line.split()[2] for line in text.splitlines()
                    if line.startswith("# TYPE ")]
        assert len(families) >= 12
        for name in ("repro_server_requests_total",
                     "repro_server_jobs_in_flight",
                     "repro_cache_ops_total",
                     "repro_runtime_memo_events_total"):
            assert f"# TYPE {name}" in text

    def test_counters_move_with_traffic(self, metrics_server):
        answer = metrics_server.submit(
            {"design": "O", "workload": "pr"}, wait=True)
        assert answer["status"] == "done"
        _, text = metrics_server.metrics()
        assert 'repro_server_requests_total{method="POST",' \
            'route="submit"} 1' in text
        assert 'repro_server_ops_total{op="executions"} 1' in text
        assert "repro_cache_entries 1" in text


# ----------------------------------------------------------------------
# telemetry schema versioning
# ----------------------------------------------------------------------
class TestSummaryVersion:
    def test_current_version_everywhere(self):
        summary = TelemetrySummary()
        assert SUMMARY_VERSION == 2
        assert summary.version == SUMMARY_VERSION
        assert summary.to_dict()["version"] == SUMMARY_VERSION
        assert summary.digest()["version"] == SUMMARY_VERSION

    def test_preversion_sidecars_read_as_v1(self):
        assert TelemetrySummary.from_dict({}).version == 1

    def test_diff_warns_on_version_mismatch(self):
        a = RunHandle(ref="a", result=fake_result(), wall_s=1.0,
                      telemetry={"version": 1, "counters": {}})
        b = RunHandle(ref="b", result=fake_result(), wall_s=1.0,
                      telemetry={"version": 2, "counters": {}})
        diff = diff_runs(a, b)
        assert any("schema versions differ" in w for w in diff.warnings)

    def test_diff_silent_on_matching_versions(self):
        a = RunHandle(ref="a", result=fake_result(), wall_s=1.0,
                      telemetry={"version": 2, "counters": {}})
        b = RunHandle(ref="b", result=fake_result(), wall_s=1.0,
                      telemetry={"version": 2, "counters": {}})
        diff = diff_runs(a, b)
        assert not any("schema versions" in w for w in diff.warnings)

    def test_diff_reports_bottleneck_transition(self):
        a = RunHandle(ref="a", result=fake_result(), wall_s=1.0)
        b = RunHandle(ref="b", result=fake_result(), wall_s=1.0)
        diff = diff_runs(a, b)
        assert diff.bottleneck is not None
        assert diff.bottleneck["a"] in BOTTLENECK_CLASSES
        assert diff.bottleneck["b"] in BOTTLENECK_CLASSES
        assert diff.bottleneck["changed"] is False


# ----------------------------------------------------------------------
# zero-overhead regression guard
# ----------------------------------------------------------------------
class TestZeroOverhead:
    def test_disabled_runs_stay_byte_identical_and_silent(
            self, tmp_path, monkeypatch):
        """Attribution and the metrics plane must cost an uninstrumented
        run nothing: two NULL_TELEMETRY runs produce byte-identical
        cache entries, no sidecar, and zero sampler callbacks."""
        cfg = small_config()
        wl = repro.make_workload("kmeans", num_points=64, iterations=1)
        blobs = []
        for sub in ("c1", "c2"):
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / sub))
            cached_simulate("B", wl, cfg)
            cache = default_cache()
            key = run_key("B", wl, cfg)
            entry = json.loads(cache.path_for(key).read_text())
            # created_unix is the entry's only wall-clock field; mask
            # it so the comparison pins every semantic byte.
            entry["meta"].pop("created_unix", None)
            blobs.append(json.dumps(entry, sort_keys=True))
            assert cache.load_telemetry(key) is None
        assert blobs[0] == blobs[1]
        assert NULL_TELEMETRY.sampler.callbacks_invoked == 0
        assert len(NULL_TELEMETRY.timeline) == 0
