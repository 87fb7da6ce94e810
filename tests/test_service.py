"""Tests for the sweep service: spec resolution and key parity, the
minimal HTTP layer, server-side dedup (N concurrent clients, one
execution), byte-identical result serving, the NDJSON event stream,
the read endpoints, thin-client grid runs, and real process-pool
end-to-end runs (one with a killed worker)."""

import asyncio
import json
import os
import re
import signal
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.sweep.runner as runner_mod
import repro.sweep.runtime as runtime_mod
from repro.config import experiment_config
from repro.observatory.history import HistoryLedger, RunRecord
from repro.observatory.progress import ProgressEvent
from repro.service.client import (
    RemoteCache,
    RemoteLedger,
    ServiceClient,
    ServiceError,
)
from repro.service.protocol import ProtocolError, read_request
from repro.service.server import run_in_thread
from repro.service.spec import ExperimentSpec, SpecError
from repro.sweep.cache import ResultCache
from repro.sweep.keys import SIMULATOR_VERSION, run_key
from repro.sweep.runtime import count_executions


@pytest.fixture(autouse=True)
def _isolate_env(monkeypatch):
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_NO_HISTORY", raising=False)
    monkeypatch.delenv("REPRO_HISTORY_PATH", raising=False)


def _fake_result(design="B", workload="pr", makespan=100.0):
    import numpy as np

    from repro.analysis.metrics import RunResult
    from repro.arch.dram import DramStats
    from repro.arch.energy import EnergyBreakdown
    from repro.arch.noc import TrafficMeter
    from repro.arch.sram import SramStats
    from repro.core.cache.traveller import CacheStatsTotal

    return RunResult(
        design=design,
        workload=workload,
        makespan_cycles=makespan,
        active_cycles_per_core=np.array([1.0, 2.0]),
        traffic=TrafficMeter(inter_hops=7, intra_transfers=3),
        dram=DramStats(reads=11, writes=5),
        sram=SramStats(l1_accesses=100),
        cache=CacheStatsTotal(hits=4, misses=6),
        energy=EnergyBreakdown(dram_pj=42.0, static_pj=1.0),
        tasks_executed=9,
        timestamps_executed=2,
        steals=1,
        instructions=1000.0,
    )


# ----------------------------------------------------------------------
# experiment specs: validation, key parity, the version salt
# ----------------------------------------------------------------------
class TestSpec:
    def test_salt_pin(self):
        # every run key hashes this; a silent bump would cold-start
        # every cache on the team.
        assert SIMULATOR_VERSION == "abndp-sim-1"

    def test_key_parity_with_local_engine(self):
        """A served spec and the equivalent local call produce the
        same content-addressed key, byte for byte."""
        spec = ExperimentSpec.from_dict(
            {"design": "O", "workload": "pr", "mesh": "2x2"})
        local = run_key("O", "pr",
                        experiment_config().scaled(2, 2).validate())
        assert spec.run_key() == local

    def test_key_parity_with_config_overrides(self):
        import dataclasses

        spec = ExperimentSpec.from_dict({
            "design": "Sh", "workload": "kmeans",
            "config": {"scheduler": {"hybrid_alpha": 2.5},
                       "cache": {"num_camps": 7}},
        })
        cfg = experiment_config()
        cfg = cfg.with_(scheduler=dataclasses.replace(
            cfg.scheduler, hybrid_alpha=2.5))
        cfg = cfg.with_(cache=dataclasses.replace(
            cfg.cache, num_camps=7))
        assert spec.run_key() == run_key("Sh", "kmeans", cfg.validate())

    def test_engine_is_non_semantic(self):
        """The access engine never entered run keys: B/pr keeps the key
        specs had when they still named an engine, so cache entries
        written then still answer."""
        spec = ExperimentSpec.from_dict({"design": "B", "workload": "pr"})
        assert spec.run_key() == (
            "62791d95e019a7c24664a44f7f3f8a56"
            "6adcdb6e3b6709a3508e08c89bcb4f3d")

    def test_removed_vector_tier_is_a_spec_error(self):
        """There is no engine to choose: the old ``engine`` key, any
        value, is an unknown spec key (HTTP 400)."""
        for engine in ("vector", "scalar", "batched"):
            with pytest.raises(SpecError, match="unknown spec key"):
                ExperimentSpec.from_dict(
                    {"design": "B", "workload": "pr", "engine": engine})

    def test_faults_change_the_key(self):
        from repro.faults.schedule import make_random_schedule

        schedule = make_random_schedule(
            num_units=16, mesh_links=[(0, 1), (1, 2)],
            unit_fails=1, seed=7)
        plain = ExperimentSpec.from_dict(
            {"design": "O", "workload": "pr"})
        faulty = ExperimentSpec.from_dict(
            {"design": "O", "workload": "pr",
             "faults": schedule.to_dict()})
        assert plain.run_key() != faulty.run_key()

    def test_to_dict_round_trip(self):
        data = {"design": "Sl", "workload": "spmv", "mesh": "2x2",
                "seed": 7, "config": {"cache": {"num_camps": 7}}}
        spec = ExperimentSpec.from_dict(data)
        again = ExperimentSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.run_key() == spec.run_key()

    @pytest.mark.parametrize("payload,needle", [
        ("not a dict", "JSON object"),
        ({"workload": "pr"}, "unknown design"),
        ({"design": "A", "workload": "pr"}, "unknown design"),
        ({"design": "B", "workload": "nope"}, "unknown workload"),
        ({"design": "B", "workload": "pr", "typo": 1}, "unknown spec key"),
        ({"design": "B", "workload": "pr", "seed": "x"}, "seed"),
        ({"design": "B", "workload": "pr", "faults": [1]}, "faults"),
    ])
    def test_rejects_malformed_specs(self, payload, needle):
        with pytest.raises(SpecError, match=needle):
            ExperimentSpec.from_dict(payload)

    @pytest.mark.parametrize("data,needle", [
        ({"design": "B", "workload": "pr", "mesh": "big"}, "mesh"),
        ({"design": "B", "workload": "pr",
          "config": {"nope": {}}}, "unknown config section"),
        ({"design": "B", "workload": "pr",
          "config": {"cache": {"nope": 1}}}, "unknown field"),
        ({"design": "B", "workload": "pr",
          "config": {"cache": {"style": "bogus"}}}, "config.style"),
    ])
    def test_rejects_unresolvable_specs(self, data, needle):
        with pytest.raises(SpecError, match=needle):
            ExperimentSpec.from_dict(data).resolved_config()


# ----------------------------------------------------------------------
# the minimal HTTP layer
# ----------------------------------------------------------------------
def _parse(raw: bytes):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(go())


class TestProtocol:
    def test_parses_get_with_query(self):
        req = _parse(b"GET /v1/diff?a=0&b=-1&x=%20y HTTP/1.1\r\n"
                     b"Host: x\r\n\r\n")
        assert req.method == "GET"
        assert req.path == "/v1/diff"
        assert req.query == {"a": "0", "b": "-1", "x": " y"}

    def test_parses_post_body_as_json(self):
        body = b'{"design": "O"}'
        req = _parse(b"POST /v1/submit HTTP/1.1\r\n"
                     b"Content-Length: " + str(len(body)).encode()
                     + b"\r\n\r\n" + body)
        assert req.json() == {"design": "O"}

    def test_clean_close_yields_none(self):
        assert _parse(b"") is None

    @pytest.mark.parametrize("raw", [
        b"NONSENSE\r\n\r\n",                          # bad request line
        b"GET /x HTTP/1.1\r\nbadheader\r\n\r\n",      # bad header
        b"GET /x HTTP/1.1\r\nContent-Length: ha\r\n\r\n",
        b"GET /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
        b"GET /x HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n",
    ])
    def test_rejects_malformed_requests(self, raw):
        with pytest.raises(ProtocolError):
            _parse(raw)

    def test_bad_json_body(self):
        req = _parse(b"POST /x HTTP/1.1\r\nContent-Length: 3\r\n\r\nnot")
        with pytest.raises(ProtocolError):
            req.json()


# ----------------------------------------------------------------------
# server tests (thread mode, stubbed simulation entry point)
# ----------------------------------------------------------------------
class _Stub:
    def __init__(self, handle, client, cache_root, calls):
        self.handle = handle
        self.client = client
        self.cache_root = cache_root
        self.calls = calls
        self.exec_log = str(cache_root / "service_executions.log")


@pytest.fixture
def stub(tmp_path, monkeypatch):
    """A thread-mode server whose simulation entry point is a counting
    fake: ~0.25 s per point, design ``C`` always crashes."""
    calls = []

    def fake(design, workload, config, **kwargs):
        calls.append(design)
        if design == "C":
            raise RuntimeError("injected simulation crash")
        time.sleep(0.25)
        name = getattr(workload, "name", str(workload))
        makespan = 100.0 if design == "B" else 80.0
        return _fake_result(design=design, workload=name,
                            makespan=makespan)

    monkeypatch.setattr(runner_mod, "_live_simulate", fake)
    cache_root = tmp_path / "cache"
    handle = run_in_thread(workers=0, cache_root=str(cache_root))
    client = ServiceClient(handle.base_url, timeout=60.0)
    yield _Stub(handle, client, cache_root, calls)
    handle.stop()


SPEC = {"design": "O", "workload": "pr"}


class TestServer:
    def test_health_and_version(self, stub):
        health = stub.client.health()
        assert health["ok"] is True
        assert health["version"] == SIMULATOR_VERSION
        assert health["mode"] == "threads"

    def test_submit_then_cached_resubmit(self, stub):
        first = stub.client.submit(SPEC, wait=True)
        assert first["status"] == "done"
        assert first["key"] == ExperimentSpec.from_dict(SPEC).run_key()
        warm = stub.client.submit(SPEC, wait=True)
        assert warm["status"] == "cached"
        assert warm["key"] == first["key"]
        assert stub.calls == ["O"]  # the warm submit ran nothing
        counters = stub.client.stats()["counters"]
        assert counters["executions"] == 1
        assert counters["cache_hits"] == 1

    def test_concurrent_clients_dedupe_to_one_execution(self, stub):
        """The acceptance bar: N=4 clients submit the same spec
        concurrently; the worker-side log records exactly one
        execution and everyone receives the same key and bytes."""
        n = 4
        barrier = threading.Barrier(n)

        def submit():
            client = ServiceClient(stub.handle.base_url, timeout=60.0)
            barrier.wait()
            return client.submit(SPEC, wait=True)

        with ThreadPoolExecutor(n) as pool:
            answers = [f.result()
                       for f in [pool.submit(submit) for _ in range(n)]]

        keys = {a["key"] for a in answers}
        assert len(keys) == 1
        assert all(a["status"] in ("done", "cached") for a in answers)
        assert count_executions(stub.exec_log) == 1
        assert stub.calls == ["O"]
        counters = stub.client.stats()["counters"]
        assert counters["submissions"] == n
        assert counters["executions"] == 1
        assert counters["dedup_attached"] + counters["cache_hits"] == n - 1

        # byte-identical serving: every client's payload is the exact
        # on-disk cache entry.
        key = keys.pop()
        blobs = {stub.client.result_bytes(key) for _ in range(n)}
        assert len(blobs) == 1
        disk = ResultCache(root=stub.cache_root).path_for(key)
        assert blobs.pop() == disk.read_bytes()

    def test_event_stream_round_trips_typed_events(self, stub):
        answer = stub.client.submit(SPEC, wait=True)
        events = list(stub.client.events(answer["key"]))
        kinds = [e["event"] for e in events]
        assert kinds == ["begin", "started", "done", "end"]
        # every NDJSON line reconstructs the PR 5 typed event exactly
        for raw in events:
            event = ProgressEvent(**raw)
            assert event.to_dict() == raw
        done = events[2]
        assert done["source"] == "run"
        assert done["label"] == "O/pr"

    def test_events_for_cache_only_key(self, stub):
        # a key cached before this server ever saw it
        key = "ab" * 32
        ResultCache(root=stub.cache_root).store(key, _fake_result())
        kinds = [e["event"] for e in stub.client.events(key)]
        assert kinds == ["cached", "end"]

    def test_failed_job_reports_and_retries(self, stub):
        spec = {"design": "C", "workload": "pr"}
        answer = stub.client.submit(spec, wait=True)
        assert answer["status"] == "failed"
        assert "injected simulation crash" in answer["error"]
        kinds = [e["event"] for e in stub.client.events(answer["key"])]
        assert kinds == ["begin", "started", "failed", "end"]
        # failure is not cached: a resubmit executes again
        stub.client.submit(spec, wait=True)
        assert stub.calls == ["C", "C"]

    def test_result_endpoint_raw_bytes(self, stub):
        answer = stub.client.submit(SPEC, wait=True)
        blob = stub.client.result_bytes(answer["key"])
        disk = ResultCache(root=stub.cache_root).path_for(answer["key"])
        assert blob == disk.read_bytes()
        result = stub.client.result(answer["key"])
        assert result.design == "O"
        assert result.makespan_cycles == 80.0

    @pytest.mark.parametrize("path,method,status", [
        ("/v1/result/" + "00" * 32, "GET", 404),
        ("/v1/events/" + "00" * 32, "GET", 404),
        ("/v1/nope", "GET", 404),
        ("/other", "GET", 404),
        ("/v1/submit", "GET", 405),
        ("/v1/health", "POST", 405),
        ("/v1/diff", "GET", 400),     # missing ?a=&b=
    ])
    def test_error_statuses(self, stub, path, method, status):
        with pytest.raises(ServiceError) as err:
            stub.client._json(method, path)
        assert err.value.status == status

    def test_submit_rejects_bad_spec_as_400(self, stub):
        with pytest.raises(ServiceError) as err:
            stub.client.submit({"design": "A", "workload": "pr"})
        assert err.value.status == 400
        assert "unknown design" in str(err.value)

    def test_submit_rejects_unbindable_workload_kwargs_as_400(self, stub):
        with pytest.raises(ServiceError) as err:
            stub.client.submit({"design": "O", "workload": "pr",
                                "workload_kwargs": {"bogus": 1}})
        assert err.value.status == 400
        assert "unexpected keyword argument 'bogus'" in str(err.value)
        assert stub.calls == []

    def test_cached_intake_generates_no_dataset(self, stub, no_factories):
        """Intake keys a spec from its factory spec: a seeded submit
        served from the cache calls no workload factory."""
        spec = {"design": "O", "workload": "knn", "mesh": "2x2",
                "workload_kwargs": {"seed": 7}}
        key = ExperimentSpec.from_dict(spec).run_key()
        ResultCache(root=stub.cache_root).store(
            key, _fake_result(design="O", workload="knn"))
        answer = stub.client.submit(spec, wait=True)
        assert (answer["status"], answer["key"]) == ("cached", key)
        assert stub.calls == []

    def test_history_and_regress_endpoints(self, stub):
        ledger = HistoryLedger(path=stub.cache_root / "history.jsonl")
        for i in range(5):
            ledger.append(RunRecord(
                ts=float(i), design="O", workload="pr",
                source="simulate", wall_s=1.0, key=f"{i:02x}" * 32,
                makespan_cycles=100.0))
        records = stub.client.history()
        assert [r["ts"] for r in records] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert len(stub.client.history(limit=2)) == 2

        remote = RemoteLedger(stub.client)
        assert len(remote) == 5
        assert remote.find_key("03" * 4).ts == 3.0
        assert remote.records()[0].design == "O"

        report = stub.client.regress()
        assert "summary" in report

    def test_history_limit_bounds(self, stub):
        ledger = HistoryLedger(path=stub.cache_root / "history.jsonl")
        for i in range(3):
            ledger.append(RunRecord(ts=float(i), design="O",
                                    workload="pr", source="simulate"))
        assert [r["ts"] for r in stub.client.history(limit=2)] == [1.0, 2.0]
        assert len(stub.client.history(limit=9)) == 3
        assert stub.client.history(limit=0) == []
        for bad in (-1, "x"):
            with pytest.raises(ServiceError) as err:
                stub.client.history(limit=bad)
            assert err.value.status == 400

    def test_result_with_telemetry_off_when_cache_disabled(
            self, stub, monkeypatch):
        """A finished job held only in memory answers ``telemetry=0``
        like a request without the flag; ``telemetry=1`` has no
        sidecar to serve."""
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        key = stub.client.submit(SPEC, wait=True)["key"]
        blob = stub.client.result_bytes(key)
        assert json.loads(blob)["key"] == key
        path = f"/v1/result/{key}"
        assert stub.client._bytes(path, query={"telemetry": 0}) == blob
        with pytest.raises(ServiceError) as err:
            stub.client._bytes(path, query={"telemetry": 1})
        assert err.value.status == 404

    def test_diff_endpoint_and_remote_adapters(self, stub):
        a = stub.client.submit({"design": "B", "workload": "pr"},
                               wait=True)
        b = stub.client.submit(SPEC, wait=True)
        ledger = HistoryLedger(path=stub.cache_root / "history.jsonl")
        for i, (key, design) in enumerate([(a["key"], "B"),
                                           (b["key"], "O")]):
            ledger.append(RunRecord(
                ts=float(i), design=design, workload="pr",
                source="serve", wall_s=1.0, key=key,
                makespan_cycles=0.0))

        payload = stub.client.diff("0", "-1")
        assert payload["identical"] is False  # makespan 100 vs 80

        # the local diff engine runs unchanged over the remote
        # observatory adapters
        from repro.observatory.diffing import diff_refs

        diff = diff_refs("0", "-1", ledger=RemoteLedger(stub.client),
                         cache=RemoteCache(stub.client))
        assert diff.to_dict()["identical"] is False

        remote_cache = RemoteCache(stub.client)
        result = remote_cache.load(a["key"])
        assert result is not None
        assert result.makespan_cycles == 100.0
        assert remote_cache.load_telemetry(a["key"]) is None  # 404 -> None

    def test_thin_client_grid_with_events(self, stub):
        from repro.campaign import CampaignSpec, run_campaign_via_server

        campaign = CampaignSpec.from_dict({
            "name": "grid", "base": {"workload": "pr"},
            "axes": {"design": ["B", "O", "Sm"]}})
        seen = []
        report = run_campaign_via_server(stub.client, campaign,
                                         events=seen.append)
        # a long-poll that lands after the job resolved is answered
        # "cached" — either way the point succeeded.
        assert all(o.source in ("run", "cache") for o in report.outcomes)
        assert all(o.result is not None for o in report.outcomes)
        assert sorted(stub.calls) == ["B", "O", "Sm"]  # one run each
        kinds = [e.event for e in seen]
        assert kinds[0] == "begin" and kinds[-1] == "end"
        assert kinds.count("done") + kinds.count("cached") == 3

    def test_warm_full_matrix_replays_under_two_seconds(self, stub):
        """Acceptance: the full 6x8 matrix, already cached, replays
        through the server in <2 s with zero worker executions."""
        from repro.campaign import CampaignSpec, run_campaign_via_server
        from repro.simulate import ALL_DESIGNS, ALL_WORKLOADS

        cache = ResultCache(root=stub.cache_root)
        for d in ALL_DESIGNS:
            for w in ALL_WORKLOADS:
                spec = ExperimentSpec(design=d, workload=w)
                cache.store(spec.run_key(),
                            _fake_result(design=d, workload=w))
        campaign = CampaignSpec.from_dict({
            "name": "matrix",
            "axes": {"workload": list(ALL_WORKLOADS),
                     "design": list(ALL_DESIGNS)}})

        t0 = time.monotonic()
        report = run_campaign_via_server(stub.client, campaign)
        elapsed = time.monotonic() - t0
        assert [o.source for o in report.outcomes] == ["cache"] * 48
        assert all(o.result is not None for o in report.outcomes)
        assert elapsed < 2.0, f"warm matrix replay took {elapsed:.2f}s"
        assert count_executions(stub.exec_log) == 0
        assert stub.calls == []

    def test_shutdown_endpoint_stops_the_server(self, stub):
        assert stub.client.shutdown() == {"ok": True, "stopping": True}
        stub.handle.thread.join(timeout=10.0)
        assert not stub.handle.thread.is_alive()
        with pytest.raises(ServiceError, match="cannot reach"):
            stub.client.health()


# ----------------------------------------------------------------------
# CLI thin-client mode against a stub server
# ----------------------------------------------------------------------
class TestCliThinClient:
    def test_sweep_matrix_via_server(self, stub, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "matrix.json"
        rc = main(["sweep", "--server", stub.handle.base_url,
                   "--designs", "B,O", "--workloads", "pr",
                   "--output", str(out), "--no-progress"])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert len(payload["points"]) == 2
        assert payload["failures"] == []
        assert sorted(stub.calls) == ["B", "O"]
        text = capsys.readouterr().out
        assert "speedup over B" in text

    def test_unreachable_server_is_a_clean_cli_error(self, capsys):
        from repro.cli import main

        rc = main(["sweep", "--server", "http://127.0.0.1:1",
                   "--workloads", "pr", "--no-progress"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# real process-pool end to end (no stubs)
# ----------------------------------------------------------------------
class TestProcessPoolE2E:
    def test_four_clients_one_simulation(self, tmp_path, monkeypatch):
        """The full stack once for real: ProcessPoolExecutor workers,
        a live (small) simulation, four concurrent clients, one
        execution, shared history, byte-identical payloads."""
        cache_root = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_root))
        handle = run_in_thread(workers=2)
        try:
            spec = {"design": "O", "workload": "pr", "mesh": "2x2"}
            n = 4
            barrier = threading.Barrier(n)

            def submit():
                client = ServiceClient(handle.base_url, timeout=300.0)
                barrier.wait()
                return client.submit(spec, wait=True)

            with ThreadPoolExecutor(n) as pool:
                answers = [f.result() for f in
                           [pool.submit(submit) for _ in range(n)]]

            keys = {a["key"] for a in answers}
            assert len(keys) == 1
            key = keys.pop()
            assert all(a["status"] in ("done", "cached")
                       for a in answers)
            # key parity with the local engine, through real workers
            assert key == run_key(
                "O", "pr", experiment_config().scaled(2, 2).validate())
            # the worker-side ground truth: exactly one simulation ran
            exec_log = cache_root / "service_executions.log"
            assert count_executions(str(exec_log)) == 1

            client = ServiceClient(handle.base_url, timeout=60.0)
            blob = client.result_bytes(key)
            assert blob == ResultCache(
                root=cache_root).path_for(key).read_bytes()
            result = client.result(key)
            assert result.makespan_cycles > 0

            # the worker self-recorded into the shared history ledger
            ledger = HistoryLedger(path=cache_root / "history.jsonl")
            assert any(r.key == key for r in ledger.records())

            # warm resubmit is served from the cache, no new execution
            warm = client.submit(spec, wait=True)
            assert warm["status"] == "cached"
            assert count_executions(str(exec_log)) == 1
        finally:
            handle.stop()

    def test_killed_worker_fails_its_job_only(self, tmp_path,
                                              monkeypatch, bounded):
        """A job whose pool worker is killed (the OOM killer) ends
        ``failed``; a resubmit runs on a fresh pool and ends ``done``."""
        marker = tmp_path / "killed-once"
        parent = os.getpid()

        def fake(design, workload, config, **kwargs):
            if os.getpid() != parent and not marker.exists():
                marker.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            return _fake_result(design=design, workload=workload.name)

        monkeypatch.setattr(runner_mod, "_live_simulate", fake)
        monkeypatch.setitem(runtime_mod._RUNTIME_COUNTERS,
                            "warm_pools_started", 0)
        handle = run_in_thread(workers=1,
                               cache_root=str(tmp_path / "cache"))
        try:
            client = ServiceClient(handle.base_url, timeout=60.0)
            spec = {"design": "O", "workload": "pr", "mesh": "2x2",
                    "workload_kwargs": {"num_vertices": 128}}
            first = bounded(lambda: client.submit(spec, wait=True))
            assert first["status"] == "failed"
            assert "worker pool failure" in first["error"]
            again = bounded(lambda: client.submit(spec, wait=True))
            assert again["status"] == "done"
            assert again["key"] == first["key"]
            _, text = client.metrics()
            assert re.search(
                r"^repro_runtime_warm_pools_started_total 2$", text,
                re.MULTILINE)
        finally:
            handle.stop()

    def test_plain_urllib_can_talk_to_the_server(self, tmp_path,
                                                 monkeypatch):
        # the protocol is honest HTTP: a stock client needs no SDK
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        handle = run_in_thread(workers=0)
        try:
            with urllib.request.urlopen(
                    handle.base_url + "/v1/health", timeout=10) as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"] == "application/json"
                assert json.loads(resp.read())["ok"] is True
        finally:
            handle.stop()
