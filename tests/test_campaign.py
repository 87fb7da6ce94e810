"""Tests for the declarative campaign subsystem: the DSI-style
resolver (cross-references, cycle detection, $RUNTIME_VALUE, deep
merges, path-qualified type errors), deterministic expansion with
override precedence, fault-schedule materialization, run-key and
cache-byte parity between the committed ``campaigns/full_matrix.json``
and the sweep engine, machine-parseable CLI stdout, and the server's
``POST /v1/campaign`` batch intake (cold fan-out, warm zero-execution
replay)."""

import json
import re
import time
from pathlib import Path

import pytest

import repro.sweep.cache as cache_mod
import repro.sweep.runner as runner_mod
from repro.campaign.resolver import (
    POINT_KEYS,
    SpecError,
    deep_merge,
    get_path,
    interpolate,
    parse_set_args,
    runtime_env_key,
    set_path,
)
from repro.campaign.runner import (
    CampaignReport,
    run_campaign,
    run_campaign_via_server,
)
from repro.campaign.spec import CampaignSpec, load_campaign
from repro.config import experiment_config
from repro.service.spec import ExperimentSpec
from repro.sweep.cache import ResultCache
from repro.sweep.keys import run_key
from repro.sweep.runner import SweepRunner, matrix_points

REPO = Path(__file__).resolve().parent.parent
CAMPAIGNS = REPO / "campaigns"


@pytest.fixture(autouse=True)
def _isolate_env(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env_cache"))
    monkeypatch.setenv("REPRO_NO_HISTORY", "1")


# ----------------------------------------------------------------------
# resolver: ${...} references and $RUNTIME_VALUE
# ----------------------------------------------------------------------
class TestInterpolate:
    def test_whole_string_reference_keeps_type(self):
        doc = {"schedules": {"u4": {"random": {"unit_fails": 4}}},
               "base": {"faults": "${schedules.u4}"}}
        out = interpolate(doc)
        assert out["base"]["faults"] == {"random": {"unit_fails": 4}}

    def test_embedded_reference_interpolates_as_text(self):
        doc = {"base": {"mesh": "2x2"},
               "description": "grid at ${base.mesh}"}
        assert interpolate(doc)["description"] == "grid at 2x2"

    def test_references_chase_through_references(self):
        doc = {"a": "${b}", "b": "${c}", "c": 7}
        assert interpolate(doc)["a"] == 7

    def test_cycle_reports_the_chain(self):
        doc = {"a": "${b}", "b": "${c}", "c": "${a}"}
        with pytest.raises(SpecError) as err:
            interpolate(doc)
        message = str(err.value)
        assert "circular ${...} reference" in message
        # the full chain, in traversal order, back to the start
        assert "b -> c -> a" in message or "a -> b -> c" in message

    def test_unknown_reference_names_the_path(self):
        with pytest.raises(SpecError, match="no such key 'schedules.u9'"):
            interpolate({"base": {"faults": "${schedules.u9}"}})

    def test_non_scalar_cannot_embed_in_text(self):
        doc = {"schedules": {"u4": {"random": {}}},
               "description": "uses ${schedules.u4} inline"}
        with pytest.raises(SpecError, match="is not a scalar"):
            interpolate(doc)

    def test_prose_glob_stays_literal(self):
        # ``${schedules.*}`` in a description is prose, not a reference
        doc = {"description": "splice via ${schedules.*}"}
        assert interpolate(doc)["description"] == "splice via ${schedules.*}"

    def test_runtime_value_from_set(self):
        doc = {"base": {"seed": "$RUNTIME_VALUE"}}
        out = interpolate(doc, runtime={"base.seed": 7})
        assert out["base"]["seed"] == 7

    def test_runtime_value_from_environment(self):
        doc = {"base": {"seed": "$RUNTIME_VALUE"}}
        key = runtime_env_key("base.seed")
        assert key == "REPRO_CAMPAIGN_BASE_SEED"
        out = interpolate(doc, env={key: "11"})
        assert out["base"]["seed"] == 11  # parsed as JSON, not str

    def test_runtime_value_missing_names_both_fixes(self):
        with pytest.raises(SpecError) as err:
            interpolate({"base": {"seed": "$RUNTIME_VALUE"}}, env={})
        message = str(err.value)
        assert "--set base.seed=VALUE" in message
        assert "REPRO_CAMPAIGN_BASE_SEED" in message


class TestPathsAndMerges:
    def test_parse_set_args(self):
        parsed = parse_set_args(["a.b=1", "c=x", "d=[1, 2]", "e=null"])
        assert parsed == {"a.b": 1, "c": "x", "d": [1, 2], "e": None}

    def test_parse_set_args_rejects_flagless_entry(self):
        with pytest.raises(SpecError, match="--set needs key=value"):
            parse_set_args(["just-a-key"])

    def test_get_path_indexes_lists(self):
        assert get_path({"a": [{"b": 3}]}, "a.0.b") == 3
        assert get_path({}, "a.b", default=None) is None
        with pytest.raises(SpecError, match="no such key 'a.z'"):
            get_path({"a": {}}, "a.z")

    def test_set_path_creates_levels(self):
        tree = {"config": {"cache": {"num_camps": 3}}}
        set_path(tree, "config.cache.num_camps", 9)
        set_path(tree, "config.noc.link_bytes", 8)
        assert tree["config"]["cache"]["num_camps"] == 9
        assert tree["config"]["noc"]["link_bytes"] == 8

    def test_deep_merge_dicts_recursive_lists_replace(self):
        base = {"config": {"cache": {"num_camps": 3, "style": "a"}},
                "tags": [1, 2]}
        out = deep_merge(base, {"config": {"cache": {"num_camps": 8}},
                                "tags": [9]})
        assert out["config"]["cache"] == {"num_camps": 8, "style": "a"}
        assert out["tags"] == [9]
        assert base["config"]["cache"]["num_camps"] == 3  # not mutated


# ----------------------------------------------------------------------
# resolver: path-qualified validation errors
# ----------------------------------------------------------------------
class TestFloatFields:
    def test_integer_in_float_field_is_that_float(self):
        """``3`` and ``3.0`` in a float field are one config and one
        run key; an int field keeps its int."""
        def point(alpha, camps=3):
            return CampaignSpec.from_dict({
                "name": "t", "base": {
                    "design": "O", "workload": "pr",
                    "config": {"scheduler": {"hybrid_alpha": alpha},
                               "cache": {"num_camps": camps}}},
            }).expand().points[0].spec
        as_int, as_float = point(3), point(3.0)
        assert as_int.run_key() == as_float.run_key()
        alpha = as_int.resolved_config().scheduler.hybrid_alpha
        assert alpha == 3.0 and type(alpha) is float
        camps = as_int.resolved_config().cache.num_camps
        assert camps == 3 and type(camps) is int
        assert point(3, camps=7).run_key() != as_int.run_key()


class TestValidationMessages:
    def test_type_mismatch_is_path_qualified(self):
        with pytest.raises(SpecError,
                           match=r"config.num_camps: expected int, got '9'"):
            ExperimentSpec.from_dict({
                "design": "B", "workload": "pr",
                "config": {"cache": {"num_camps": "9"}},
            }).resolved_config()

    def test_unknown_field_names_the_section(self):
        with pytest.raises(SpecError,
                           match=r"unknown field 'nope' in config.cache"):
            ExperimentSpec.from_dict({
                "design": "B", "workload": "pr",
                "config": {"cache": {"nope": 1}},
            }).resolved_config()

    def test_unknown_axis_key_is_path_qualified(self):
        with pytest.raises(SpecError,
                           match=r"axes.designs: unknown point key"):
            CampaignSpec.from_dict(
                {"name": "t", "axes": {"designs": ["B"]}})

    def test_bad_point_error_names_the_label(self):
        campaign = CampaignSpec.from_dict(
            {"name": "t", "base": {"workload": "pr"},
             "axes": {"design": ["ZZ"]}})
        with pytest.raises(SpecError,
                           match=r"point 'ZZ/pr': unknown design 'ZZ'"):
            campaign.expand()

    def test_axes_and_matrix_are_exclusive(self):
        with pytest.raises(SpecError, match="not both"):
            CampaignSpec.from_dict({"name": "t",
                                    "axes": {"design": ["B"]},
                                    "matrix": {"design": ["O"]}})

    def test_unbindable_workload_kwargs_fail_expansion(self):
        campaign = CampaignSpec.from_dict(
            {"name": "t", "base": {"workload": "pr",
                                   "workload_kwargs": {"bogus": 1}},
             "axes": {"design": ["B"]}})
        with pytest.raises(SpecError, match=r"point 'B/pr': "
                           r"workload_kwargs for 'pr': .*'bogus'"):
            campaign.expand()

    def test_spec_error_is_one_class(self):
        # service.spec re-exports the resolver's class: isinstance
        # checks hold across both import paths.
        from repro.service.spec import SpecError as service_spec_error

        assert service_spec_error is SpecError


# ----------------------------------------------------------------------
# expansion: order, labels, include/exclude, precedence, dedupe
# ----------------------------------------------------------------------
class TestExpansion:
    def test_cross_product_first_axis_outermost(self):
        campaign = CampaignSpec.from_dict({
            "name": "t",
            "axes": {"workload": ["pr", "bfs"], "design": ["B", "O"]},
        })
        labels = [p.label for p in campaign.expand().points]
        assert labels == ["B/pr", "O/pr", "B/bfs", "O/bfs"]

    def test_dotted_axes_assign_nested_config(self):
        campaign = CampaignSpec.from_dict({
            "name": "t", "base": {"design": "B", "workload": "pr"},
            "axes": {"config.cache.num_camps": [3, 7]},
        })
        points = campaign.expand().points
        assert [p.spec.config["cache"]["num_camps"] for p in points] \
            == [3, 7]
        assert [p.label for p in points] \
            == ["B/pr num_camps=3", "B/pr num_camps=7"]

    def test_include_exclude(self):
        campaign = CampaignSpec.from_dict({
            "name": "t", "base": {"workload": "pr"},
            "axes": {"design": ["B", "C", "O"]},
            "exclude": [{"design": "C", "workload": "pr"}],
            "include": [{"design": "Sm", "workload": "bfs"}],
        })
        expansion = campaign.expand()
        labels = [p.label for p in expansion.points]
        assert labels == ["B/pr", "O/pr", "Sm/bfs include0"]
        assert expansion.points[-1].assignments == {"include": 0}

    def test_include_only_campaign_has_no_base_point(self):
        """Without axes the bare base is a point only when there is no
        include entry: an include-only campaign is its includes."""
        campaign = CampaignSpec.from_dict({
            "name": "t", "base": {"workload": "pr"},
            "include": [{"design": "B"}, {"design": "O"}],
        })
        labels = [p.label for p in campaign.expand().points]
        assert labels == ["B/pr include0", "O/pr include1"]
        bare = CampaignSpec.from_dict({
            "name": "t", "base": {"design": "B", "workload": "pr"}})
        assert [p.label for p in bare.expand().points] == ["B/pr"]

    def test_duplicate_points_dropped_and_counted(self):
        campaign = CampaignSpec.from_dict({
            "name": "t", "base": {"workload": "pr"},
            "axes": {"design": ["B", "O"]},
            "include": [{"design": "B"}],
        })
        expansion = campaign.expand()
        assert len(expansion.points) == 3  # include0 has its own label
        # forcing one label collapses the include0 point onto the
        # axes' design-B point; design O stays distinct.
        same_label = campaign.expand(
            sets={"label": "all-the-same"})
        assert len(same_label.points) == 2
        assert same_label.duplicates_dropped == 1

    def test_override_precedence_base_axes_overrides_set(self):
        doc = {"name": "t",
               "base": {"design": "B", "workload": "pr",
                        "config": {"cache": {"num_camps": 3}}}}
        one = CampaignSpec.from_dict(doc).expand().points[0]
        assert one.spec.config["cache"]["num_camps"] == 3

        doc["axes"] = {"config.cache.num_camps": [4]}
        two = CampaignSpec.from_dict(doc).expand().points[0]
        assert two.spec.config["cache"]["num_camps"] == 4

        doc["overrides"] = {"config": {"cache": {"num_camps": 8}}}
        three = CampaignSpec.from_dict(doc).expand().points[0]
        assert three.spec.config["cache"]["num_camps"] == 8

        four = CampaignSpec.from_dict(doc).expand(
            sets={"config.cache.num_camps": 9}).points[0]
        assert four.spec.config["cache"]["num_camps"] == 9

    def test_fingerprint_is_stable_and_content_addressed(self):
        doc = {"name": "t", "base": {"workload": "pr"},
               "axes": {"design": ["B", "O"]}}
        a = CampaignSpec.from_dict(doc).expand()
        b = CampaignSpec.from_dict(json.loads(json.dumps(doc))).expand()
        assert a.fingerprint == b.fingerprint
        shifted = CampaignSpec.from_dict(doc).expand(
            sets={"base.seed": 7})
        assert shifted.fingerprint != a.fingerprint


# ----------------------------------------------------------------------
# fault materialization
# ----------------------------------------------------------------------
class TestFaults:
    def test_random_block_matches_direct_make_random_schedule(self):
        from repro.arch.topology import Topology
        from repro.faults.schedule import make_random_schedule

        campaign = CampaignSpec.from_dict({
            "name": "t",
            "base": {"design": "O", "workload": "pr", "mesh": "2x2",
                     "faults": {"random": {"unit_fails": 2}}},
        })
        point = campaign.expand().points[0]
        cfg = experiment_config().scaled(2, 2).validate()
        topo = Topology(cfg.topology, num_groups=cfg.cache.num_groups())
        direct = make_random_schedule(topo.num_units, topo.mesh_links(),
                                      unit_fails=2, seed=cfg.seed)
        assert point.spec.faults == direct.to_dict()
        assert point.spec.fault_schedule().to_dict() == direct.to_dict()

    def test_empty_random_block_means_healthy(self):
        campaign = CampaignSpec.from_dict({
            "name": "t",
            "base": {"design": "B", "workload": "pr",
                     "faults": {"random": {"unit_fails": 0}}},
        })
        point = campaign.expand().points[0]
        assert point.spec.faults is None
        assert point.spec.run_key() == ExperimentSpec.from_dict(
            {"design": "B", "workload": "pr"}).run_key()

    def test_unknown_random_key_is_rejected(self):
        campaign = CampaignSpec.from_dict({
            "name": "t",
            "base": {"design": "B", "workload": "pr",
                     "faults": {"random": {"dies": 4}}},
        })
        with pytest.raises(SpecError, match=r"unknown faults.random key"):
            campaign.expand()

    def test_committed_fault_study_expands_with_event_counts(self):
        campaign = load_campaign(CAMPAIGNS / "fault_study.json")
        expansion = campaign.expand()
        assert len(expansion.points) == 10
        by_label = {p.label: p for p in expansion.points}
        assert by_label["B/pr healthy"].spec.faults is None
        for count in (2, 4, 8, 12):
            spec = by_label[f"B/pr u{count}"].spec
            assert len(spec.faults["events"]) == count


# ----------------------------------------------------------------------
# key parity with the sweep engine (the acceptance pin)
# ----------------------------------------------------------------------
class TestKeyParity:
    def test_full_matrix_keys_match_matrix_points_order(self):
        """``campaigns/full_matrix.json`` expands to exactly the sweep
        engine's 48-point grid: same order, same run keys, byte for
        byte."""
        campaign = load_campaign(CAMPAIGNS / "full_matrix.json")
        expansion = campaign.expand()
        cfg = experiment_config().validate()
        grid = matrix_points(config=cfg)
        assert len(expansion.points) == len(grid) == 48
        for point, sweep_point in zip(expansion.points, grid):
            assert point.spec.design == sweep_point.design
            assert point.spec.workload == sweep_point.workload
            assert point.spec.run_key() == run_key(
                sweep_point.design, sweep_point.workload, cfg)

    def test_campaign_run_writes_byte_identical_cache_entries(
            self, tmp_path, monkeypatch):
        """The committed full-matrix campaign (scoped down with --set
        to stay cheap) and the equivalent sweep write the *same bytes*
        under the same keys — one shared cache, not two formats."""
        monkeypatch.setattr(cache_mod.time, "time", lambda: 1.5)
        sets = {"axes.workload": ["pr"], "axes.design": ["B", "O"],
                "base.mesh": "2x2"}
        campaign = load_campaign(CAMPAIGNS / "full_matrix.json")
        expansion = campaign.expand(sets=sets)

        campaign_cache = ResultCache(root=tmp_path / "campaign")
        report = run_campaign(campaign, expansion,
                              cache=campaign_cache, jobs=1)
        assert not report.failures

        sweep_cache = ResultCache(root=tmp_path / "sweep")
        cfg = experiment_config().scaled(2, 2).validate()
        SweepRunner(cache=sweep_cache, jobs=1).run(
            matrix_points(["B", "O"], ["pr"], cfg))

        assert [o.key for o in report.outcomes] == [
            run_key(d, "pr", cfg) for d in ("B", "O")]
        for outcome in report.outcomes:
            ours = campaign_cache.path_for(outcome.key).read_bytes()
            theirs = sweep_cache.path_for(outcome.key).read_bytes()
            assert ours == theirs

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_dataset_is_generated_once(self, tmp_path, monkeypatch,
                                            factory_calls, jobs):
        """A seeded campaign keys its points without generating, and
        builds each distinct dataset once in the parent: 2 workloads x
        2 seeds x 2 designs = 8 points, 4 datasets."""
        import repro.sweep.runtime as runtime_mod

        monkeypatch.setattr(runtime_mod, "_MEMOS", None)  # cold memos
        campaign = CampaignSpec.from_dict({
            "name": "seeded", "base": {"mesh": "2x2"},
            "axes": {"workload": ["kmeans", "knn"],
                     "workload_kwargs": [{"num_points": 64, "seed": 1},
                                         {"num_points": 64, "seed": 2}],
                     "design": ["B", "O"]}})
        expansion = campaign.expand()
        assert len(expansion.points) == 8
        report = run_campaign(campaign, expansion, jobs=jobs,
                              cache=ResultCache(root=tmp_path / "c"))
        assert not report.failures
        assert {o.source for o in report.outcomes} == {"run"}
        assert factory_calls == {"kmeans": 2, "knn": 2}
        assert [o.key for o in report.outcomes] \
            == [p.spec.run_key() for p in expansion.points]

    def test_warm_rerun_is_all_cache_hits(self, tmp_path):
        campaign = load_campaign(CAMPAIGNS / "smoke.json")
        cache = ResultCache(root=tmp_path / "cache")
        cold = run_campaign(campaign, campaign.expand(), cache=cache,
                            jobs=1)
        assert [o.source for o in cold.outcomes] == ["run", "run"]
        warm = run_campaign(campaign, campaign.expand(), cache=cache,
                            jobs=1)
        assert [o.source for o in warm.outcomes] == ["cache", "cache"]
        assert [o.key for o in warm.outcomes] \
            == [o.key for o in cold.outcomes]


# ----------------------------------------------------------------------
# loading and the archived report
# ----------------------------------------------------------------------
class TestLoadAndReport:
    def test_load_errors_are_path_prefixed(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(SpecError, match="bad.json: invalid JSON"):
            load_campaign(bad)
        unknown = tmp_path / "unknown.json"
        unknown.write_text(json.dumps({"name": "x", "axis": {}}),
                           encoding="utf-8")
        with pytest.raises(SpecError, match="unknown campaign key"):
            load_campaign(unknown)

    def test_committed_campaigns_all_validate(self):
        counts = {}
        for path in sorted(CAMPAIGNS.glob("*.json")):
            campaign = load_campaign(path)
            counts[campaign.name] = len(campaign.expand().points)
        assert counts == {"full_matrix": 48, "bench_suite": 6,
                          "fault_study": 10, "smoke": 2, "mesh_8x8": 3,
                          "mesh_shapes": 4, "link_faults": 4,
                          "fig10_scalability": 9,
                          "fig11_skewed_mapping": 10,
                          "fig12_camp_count": 20,
                          "fig13_cache_styles": 15,
                          "fig14_capacity": 30,
                          "fig15_associativity": 25,
                          "fig16_bypass": 25,
                          "fig17_hybrid_weight": 30,
                          "fig18_exchange_interval": 30}

    def test_docs_point_keys_match_resolver(self):
        """docs/campaigns.md's point-layer paragraph lists exactly the
        keys a point may carry (``resolver.POINT_KEYS``)."""
        text = (REPO / "docs" / "campaigns.md").read_text(encoding="utf-8")
        start = text.index("experiment-spec keys of", text.index(
            "A **point layer**"))
        keys = re.findall(r"`([a-z_]+)`",
                          text[start:text.index("Axis names", start)])
        assert sorted(keys) == sorted(POINT_KEYS)

    def test_report_round_trip(self, tmp_path):
        campaign = load_campaign(CAMPAIGNS / "smoke.json")
        report = run_campaign(campaign, campaign.expand(),
                              cache=ResultCache(root=tmp_path / "c"),
                              jobs=1)
        out = tmp_path / "out"
        path = report.write(out, artifacts={"csv": True, "json": True})
        assert path == out / "report.json"
        assert (out / "results.csv").exists()
        assert (out / "results.json").exists()
        payload = CampaignReport.load(path)
        assert payload["schema"] == 1
        assert payload["name"] == "smoke"
        assert payload["fingerprint"] == report.fingerprint
        assert payload["spec_sha256"] == campaign.source_sha256
        rows = payload["points"]
        assert [r["label"] for r in rows] == ["B/pr", "O/pr"]
        assert all(r["key"] and r["metrics"]["makespan_cycles"] > 0
                   for r in rows)


# ----------------------------------------------------------------------
# CLI: stdout stays machine-parseable
# ----------------------------------------------------------------------
class TestCliJson:
    def test_expand_json_stdout_parses(self, capsys):
        from repro.cli import main

        rc = main(["campaign", "expand",
                   str(CAMPAIGNS / "smoke.json"), "--json", "-v"])
        captured = capsys.readouterr()
        assert rc == 0
        payload = json.loads(captured.out)  # stdout is pure JSON
        assert payload["name"] == "smoke"
        assert [p["label"] for p in payload["points"]] \
            == ["B/pr", "O/pr"]
        keys = [p["key"] for p in payload["points"]]
        cfg = experiment_config().scaled(2, 2).validate()
        assert keys == [run_key(d, "pr", cfg) for d in ("B", "O")]

    def test_validate_json_stdout_parses_even_on_failure(
            self, capsys, tmp_path):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "axes": {"nope": [1]}}),
                       encoding="utf-8")
        rc = main(["campaign", "validate",
                   str(CAMPAIGNS / "smoke.json"), str(bad), "--json"])
        captured = capsys.readouterr()
        assert rc == 2
        payload = json.loads(captured.out)
        assert payload["ok"] is False
        by_file = {row["file"]: row for row in payload["campaigns"]}
        assert by_file[str(CAMPAIGNS / "smoke.json")]["ok"] is True
        assert by_file[str(CAMPAIGNS / "smoke.json")]["points"] == 2
        assert "unknown point key" in by_file[str(bad)]["error"]


# ----------------------------------------------------------------------
# the server's POST /v1/campaign (thread mode, stubbed simulation)
# ----------------------------------------------------------------------
MINI = {"name": "mini",
        "base": {"workload": "pr", "mesh": "2x2"},
        "axes": {"design": ["B", "O"]}}


class _Stub:
    def __init__(self, handle, client, cache_root, calls):
        self.handle = handle
        self.client = client
        self.cache_root = cache_root
        self.calls = calls


@pytest.fixture
def stub(tmp_path, monkeypatch):
    from repro.service.client import ServiceClient
    from repro.service.server import run_in_thread

    calls = []

    def fake(design, workload, config, **kwargs):
        calls.append(design)
        time.sleep(0.05)
        from tests.test_service import _fake_result

        name = getattr(workload, "name", str(workload))
        return _fake_result(design=design, workload=name)

    monkeypatch.setattr(runner_mod, "_live_simulate", fake)
    cache_root = tmp_path / "server_cache"
    handle = run_in_thread(workers=0, cache_root=str(cache_root))
    client = ServiceClient(handle.base_url, timeout=60.0)
    yield _Stub(handle, client, cache_root, calls)
    handle.stop()


class TestServerCampaign:
    def test_campaign_endpoint_expands_and_intakes(self, stub):
        campaign = CampaignSpec.from_dict(MINI)
        answer = stub.client.campaign(campaign.to_dict())
        assert answer["name"] == "mini"
        assert answer["total"] == 2
        assert answer["fingerprint"] == campaign.expand().fingerprint
        assert [row["label"] for row in answer["points"]] \
            == ["B/pr", "O/pr"]
        assert [row["key"] for row in answer["points"]] \
            == [p.spec.run_key() for p in campaign.expand().points]
        counters = stub.client.stats()["counters"]
        assert counters["campaigns"] == 1
        assert counters["submissions"] == 2

    def test_cold_run_then_warm_zero_execution_replay(self, stub):
        """The acceptance bar: the same campaign document replayed
        against a warm server executes nothing new."""
        campaign = CampaignSpec.from_dict(MINI)
        cold = run_campaign_via_server(stub.client, campaign)
        assert not cold.failures
        assert sorted(stub.calls) == ["B", "O"]
        assert {o.source for o in cold.outcomes} <= {"run", "cache"}

        warm = run_campaign_via_server(stub.client, campaign)
        assert not warm.failures
        assert [o.source for o in warm.outcomes] == ["cache", "cache"]
        assert sorted(stub.calls) == ["B", "O"]  # zero new executions
        assert stub.client.stats()["counters"]["executions"] == 2
        assert [o.key for o in warm.outcomes] \
            == [o.key for o in cold.outcomes]
        # the served results are the cached entries, not re-runs
        cache = ResultCache(root=stub.cache_root)
        for outcome in warm.outcomes:
            assert cache.load(outcome.key) is not None

    def test_sets_travel_with_the_document(self, stub):
        campaign = CampaignSpec.from_dict(MINI)
        sets = {"base.seed": 7}
        report = run_campaign_via_server(stub.client, campaign,
                                         sets=sets)
        assert not report.failures
        assert report.fingerprint == campaign.expand(sets=sets).fingerprint
        assert report.fingerprint != campaign.expand().fingerprint

    def test_malformed_campaign_is_http_400(self, stub):
        from repro.service.client import ServiceError

        with pytest.raises(ServiceError, match="unknown campaign key"):
            stub.client.campaign({"name": "x", "nope": 1})
        with pytest.raises(ServiceError, match="unknown design"):
            stub.client.campaign({"name": "x",
                                  "base": {"workload": "pr"},
                                  "axes": {"design": ["ZZ"]}})
