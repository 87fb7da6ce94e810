"""Tests for the warm worker runtime (repro.sweep.runtime): scope
gating, workload spec resolution, the shared-memory store, warm-vs-cold
bit-identity (healthy and faulted), crash cleanup and the
history-informed LPT ordering."""

import json
import multiprocessing
import os
import signal
import time

import pytest

import repro
from repro.config import experiment_config
from repro.faults import FaultSchedule
from repro.observatory.history import HistoryLedger, RunRecord
from repro.sweep import ResultCache, SweepPoint, SweepRunner
from repro.sweep import runner as runner_mod
from repro.sweep import runtime as runtime_mod
from repro.sweep.runtime import (
    SHM_PREFIX,
    ProcessMemos,
    SharedWorkloadStore,
    WorkerRuntime,
    active_memos,
    lpt_order,
    materialize_point,
    predicted_wall_times,
    resolve_workload_spec,
    warm_memos,
)
from repro.sweep.serialize import result_to_dict

POINT_KW = {"num_points": 256, "iterations": 1}


@pytest.fixture(autouse=True)
def _isolated_runtime(monkeypatch, tmp_path):
    """Fresh memos, no ambient scope, and all cache/history side
    effects redirected into tmp_path (CI runs under REPRO_NO_CACHE=1,
    which individual tests override explicitly)."""
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ambient_cache"))
    monkeypatch.setattr(runtime_mod, "_MEMOS", None)
    monkeypatch.setattr(runtime_mod, "_SCOPE_DEPTH", 0)


def small_cfg():
    return experiment_config().scaled(2, 2)


def kmeans_points(designs=("B", "O"), cfg=None):
    cfg = cfg or small_cfg()
    return [
        SweepPoint(d, "kmeans", cfg, workload_kwargs=dict(POINT_KW))
        for d in designs
    ]


def plain_blobs(points):
    """Each point through plain :func:`repro.simulate` — the cold path
    the warm runtime must reproduce byte for byte."""
    return [
        json.dumps(result_to_dict(repro.simulate(
            p.design, p.materialize(), p.resolved_config(),
            fault_schedule=p.fault_schedule)), sort_keys=True)
        for p in points
    ]


def result_blobs(report):
    return [
        json.dumps(result_to_dict(o.result), sort_keys=True)
        for o in report.outcomes
    ]


def shm_leaks():
    """Names of this runtime's segments still present in /dev/shm."""
    if not os.path.isdir("/dev/shm"):  # non-Linux: nothing to check
        return []
    return [n for n in os.listdir("/dev/shm") if n.startswith(SHM_PREFIX)]


# ----------------------------------------------------------------------
class TestScopeGating:
    def test_cold_by_default(self):
        assert active_memos() is None

    def test_warm_scope_enables_and_restores(self):
        with warm_memos() as memos:
            assert active_memos() is memos
            with warm_memos() as inner:  # re-entrant, same memos
                assert inner is memos
            assert active_memos() is memos
        assert active_memos() is None

    def test_memos_survive_scope_exit(self):
        with warm_memos() as memos:
            memos.workloads["tok"] = "wl"
        with warm_memos() as memos:
            assert memos.workloads.get("tok") == "wl"

    def test_materialize_point_cold_is_plain_materialize(self):
        point = kmeans_points(["B"])[0]
        wl = materialize_point(point)
        assert wl.name == "kmeans"
        assert active_memos() is None


# ----------------------------------------------------------------------
class TestResolveWorkloadSpec:
    def test_factory_cold(self):
        wl = resolve_workload_spec(("factory", "kmeans", dict(POINT_KW)))
        assert wl.name == "kmeans"

    def test_object_passthrough(self):
        wl = repro.make_workload("kmeans", **POINT_KW)
        assert resolve_workload_spec(("object", wl)) is wl

    def test_factory_warm_memoizes(self):
        spec = ("factory", "kmeans", dict(POINT_KW))
        with warm_memos() as memos:
            a = resolve_workload_spec(spec)
            b = resolve_workload_spec(spec)
            assert a is b
            assert memos.stats.workload_hits == 1
            assert memos.stats.workload_misses == 1

    def test_shm_roundtrip_and_fallback(self):
        store = SharedWorkloadStore()
        try:
            wl = repro.make_workload("kmeans", **POINT_KW)
            desc = store.put("tok123", wl)
            if desc is not None:  # /dev/shm available
                name, size = desc
                out = resolve_workload_spec(("shm", "tok123", name, size,
                                             None))
                assert out.name == "kmeans"
                assert out.clusters == wl.clusters
                assert out.dataset.points.shape == wl.dataset.points.shape
            # a vanished segment falls back to the factory spec
            out = resolve_workload_spec(
                ("shm", "tokX", SHM_PREFIX + "missing", 64,
                 ("factory", "kmeans", dict(POINT_KW))))
            assert out.name == "kmeans"
        finally:
            store.close()

    def test_shm_load_leaves_the_resource_tracker_alone(self, monkeypatch):
        """Loading a stored workload registers nothing with the resource
        tracker: pool workers share the parent's tracker, where a
        registration undone in a worker fails the parent's unlink."""
        from multiprocessing import resource_tracker

        store = SharedWorkloadStore()
        try:
            desc = store.put("tok123", repro.make_workload("kmeans",
                                                           **POINT_KW))
            if desc is None:
                pytest.skip("no shared memory on this platform")
            calls = []
            with monkeypatch.context() as m:
                for name in ("register", "unregister"):
                    m.setattr(resource_tracker, name,
                              lambda *args: calls.append(args))
                out = resolve_workload_spec(("shm", "tok123", *desc, None))
            assert out.name == "kmeans"
            assert calls == []
        finally:
            store.close()

    def test_shm_missing_without_fallback_raises(self):
        with pytest.raises(Exception):
            resolve_workload_spec(
                ("shm", "tokX", SHM_PREFIX + "missing", 64, None))


# ----------------------------------------------------------------------
class TestSharedWorkloadStore:
    def test_put_dedupes_and_close_unlinks(self):
        store = SharedWorkloadStore()
        wl = repro.make_workload("kmeans", **POINT_KW)
        desc = store.put("tok", wl)
        if desc is None:
            pytest.skip("shared memory unavailable")
        assert store.put("tok", wl) == desc
        assert store.descriptor("tok") == desc
        assert len(store) == 1
        store.close()
        assert store.descriptor("tok") is None
        assert not shm_leaks()
        store.close()  # idempotent
        assert store.put("tok2", wl) is None  # closed store stores nothing

    def test_runtime_close_unlinks_segments(self):
        rt = WorkerRuntime(jobs=1)
        spec = rt.workload_spec(kmeans_points(["B"])[0])
        if spec[0] == "shm" and os.path.isdir("/dev/shm"):
            assert spec[2] in os.listdir("/dev/shm")
        rt.close()
        assert not shm_leaks()
        with pytest.raises(RuntimeError):
            rt.pool(1)

    def test_workload_spec_falls_back_after_close(self):
        rt = WorkerRuntime(jobs=1)
        rt.close()
        spec = rt.workload_spec(kmeans_points(["B"])[0])
        assert spec[0] == "factory"


# ----------------------------------------------------------------------
class TestBitIdentity:
    """Warm results and cache entries are byte-identical to plain
    (cold) :func:`repro.simulate` results."""

    def _entry_blobs(self, cache, keys):
        out = []
        for key in keys:
            payload = json.loads(cache.path_for(key).read_text())
            out.append(json.dumps(payload["result"], sort_keys=True))
        return out

    def test_serial_warm_equals_cold(self, tmp_path):
        cfg = small_cfg()
        points = kmeans_points(("B", "C", "O"), cfg) + [
            SweepPoint(d, "astar", cfg,
                       workload_kwargs={"rows": 12, "cols": 12})
            for d in ("C", "O")
        ]
        cold = plain_blobs(points)
        warm_cache = ResultCache(tmp_path / "warm")
        with WorkerRuntime(jobs=1) as rt:
            warm = SweepRunner(cache=warm_cache, jobs=1, runtime=rt) \
                .run(points)
        assert not warm.failures
        assert all(o.source == "run" for o in warm.outcomes)
        assert result_blobs(warm) == cold
        keys = [o.key for o in warm.outcomes]
        assert all(keys)
        assert self._entry_blobs(warm_cache, keys) == cold
        # the warm pass actually exercised the memos
        assert rt.closed

    def test_pool_warm_equals_cold(self, tmp_path):
        points = kmeans_points(("B", "O"))
        cold = plain_blobs(points)
        warm_cache = ResultCache(tmp_path / "warm")
        with WorkerRuntime(jobs=2) as rt:
            warm = SweepRunner(cache=warm_cache, jobs=2, runtime=rt) \
                .run(points)
        assert not warm.failures
        assert result_blobs(warm) == cold
        keys = [o.key for o in warm.outcomes]
        assert self._entry_blobs(warm_cache, keys) == cold
        assert not shm_leaks()

    def test_shared_runtime_across_runs_stays_identical(self):
        points = kmeans_points(("O",))
        with WorkerRuntime(jobs=1) as rt:
            first = SweepRunner(cache=False, jobs=1, runtime=rt).run(points)
            second = SweepRunner(cache=False, jobs=1, runtime=rt).run(points)
        assert plain_blobs(points) == result_blobs(first) == \
            result_blobs(second)


# ----------------------------------------------------------------------
class TestFaultInvalidation:
    """Warm faulted runs, and healthy runs after them, match cold runs
    bit for bit."""

    WL_KW = {"num_points": 256, "iterations": 2}

    def _run(self, fault_schedule=None):
        wl = repro.make_workload("kmeans", **self.WL_KW)
        return repro.simulate("O", wl, small_cfg(),
                              fault_schedule=fault_schedule)

    def test_healthy_after_faulted_matches_cold(self):
        sched = FaultSchedule.unit_failures([1], at_timestamp=1)
        cold_healthy = self._run()
        cold_faulted = self._run(sched)
        with warm_memos():
            warm_faulted = self._run(sched)
            warm_healthy_1 = self._run()
            warm_healthy_2 = self._run()
        blob = lambda r: json.dumps(result_to_dict(r), sort_keys=True)  # noqa: E731
        assert blob(warm_faulted) == blob(cold_faulted)
        assert blob(warm_healthy_1) == blob(cold_healthy)
        assert blob(warm_healthy_2) == blob(cold_healthy)

    def test_fault_points_in_sweep_stay_cold_correct(self):
        sched = FaultSchedule.unit_failures([1], at_timestamp=1)
        cfg = small_cfg()
        points = [
            SweepPoint("O", "kmeans", cfg,
                       workload_kwargs=dict(self.WL_KW)),
            SweepPoint("O", "kmeans", cfg,
                       workload_kwargs=dict(self.WL_KW),
                       fault_schedule=sched),
        ]
        with WorkerRuntime(jobs=1) as rt:
            warm = SweepRunner(cache=False, jobs=1, runtime=rt).run(points)
        assert result_blobs(warm) == plain_blobs(points)
        assert warm.outcomes[1].result.resilience is not None


# ----------------------------------------------------------------------
class TestCrashCleanup:
    def test_worker_crash_retried_in_parent(self, monkeypatch):
        parent = os.getpid()
        real = runner_mod._live_simulate

        def flaky(design, workload, config, **kwargs):
            if os.getpid() != parent:
                raise RuntimeError("boom in worker")
            return real(design, workload, config, **kwargs)

        monkeypatch.setattr(runner_mod, "_live_simulate", flaky)
        with WorkerRuntime(jobs=2) as rt:
            report = SweepRunner(cache=False, jobs=2, runtime=rt) \
                .run(kmeans_points(("B", "O")))
        assert not report.failures
        assert {o.source for o in report.outcomes} == {"retry"}
        assert not shm_leaks()

    def test_killed_worker_points_are_retried(self, monkeypatch, bounded):
        """A worker killed mid-point (the OOM killer) breaks the pool:
        the sweep still finishes, every point the pool did not return
        is retried in the parent, and the next sweep gets a new pool."""
        parent = os.getpid()
        real = runner_mod._live_simulate

        def killer(design, workload, config, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(design, workload, config, **kwargs)

        monkeypatch.setattr(runner_mod, "_live_simulate", killer)
        points = kmeans_points(("B", "C", "O"))
        with WorkerRuntime(jobs=2) as rt:
            report = bounded(lambda: SweepRunner(
                cache=False, jobs=2, runtime=rt).run(points))
            assert not report.failures
            assert [o.source for o in report.outcomes] == ["retry"] * 3
            monkeypatch.setattr(runner_mod, "_live_simulate", real)
            again = bounded(lambda: SweepRunner(
                cache=False, jobs=2, runtime=rt).run(points))
        assert [o.source for o in again.outcomes] == ["run"] * 3
        assert result_blobs(report) == result_blobs(again) \
            == plain_blobs(points)
        assert not shm_leaks()

    def test_close_kills_and_reaps_busy_workers(self):
        rt = WorkerRuntime(jobs=2)
        pool = rt.pool(2)
        pids = list({pool.submit(os.getpid).result() for _ in range(4)})
        queued = [pool.submit(time.sleep, 60) for _ in range(4)]
        t0 = time.monotonic()
        rt.close()
        assert time.monotonic() - t0 < 10.0  # nothing waited for
        assert all(f.done() for f in queued)
        for pid in pids:  # reaped: no zombie left to wait for
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    @pytest.mark.parametrize("owned", [True, False],
                             ids=["owned", "injected"])
    def test_factory_error_fails_the_sweep_with_nothing_running(
            self, monkeypatch, tmp_path, bounded, owned):
        """A point whose factory raises fails the whole sweep with the
        factory's own exception.  Points submitted before it are
        cancelled or run to completion first: nothing of the failed
        sweep is still running when the exception arrives, an owned
        pool is gone, an injected one stays usable, and no segment
        leaks."""
        log = tmp_path / "points.log"
        real = runner_mod._live_simulate

        def logged(design, workload, config, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"start {design}\n")
            time.sleep(0.3)
            result = real(design, workload, config, **kwargs)
            with open(log, "a") as fh:
                fh.write(f"end {design}\n")
            return result

        def factory(name, **kwargs):
            # the bad point fails only once a good one is running
            deadline = time.monotonic() + 5.0
            while "bogus" in kwargs and time.monotonic() < deadline:
                if log.exists() and "start" in log.read_text():
                    break
                time.sleep(0.01)
            return repro.make_workload(name, **kwargs)

        monkeypatch.setattr(runner_mod, "_live_simulate", logged)
        monkeypatch.setattr(runtime_mod, "make_workload", factory)
        points = kmeans_points(("B", "C")) + [SweepPoint(
            "O", "kmeans", small_cfg(),
            workload_kwargs=dict(POINT_KW, bogus=1))]
        children = set(multiprocessing.active_children())
        rt = None if owned else WorkerRuntime(jobs=2)
        try:
            with pytest.raises(TypeError, match="bogus"):
                bounded(lambda: SweepRunner(
                    cache=False, jobs=2, runtime=rt).run(points))
            lines = log.read_text().split() if log.exists() else []
            assert lines.count("start") == lines.count("end")
            if owned:
                assert set(multiprocessing.active_children()) <= children
            else:
                again = bounded(lambda: SweepRunner(
                    cache=False, jobs=2, runtime=rt).run(points[:2]))
                assert [o.source for o in again.outcomes] == ["run"] * 2
        finally:
            if rt is not None:
                rt.close()
        assert not shm_leaks()

    def test_total_crash_reported_and_no_shm_leak(self, monkeypatch):
        def broken(design, workload, config, **kwargs):
            raise RuntimeError("always boom")

        monkeypatch.setattr(runner_mod, "_live_simulate", broken)
        with WorkerRuntime(jobs=2) as rt:
            report = SweepRunner(cache=False, jobs=2, runtime=rt) \
                .run(kmeans_points(("B", "O")))
        assert len(report.failures) == 2
        assert all(o.source == "failed" for o in report.outcomes)
        assert "always boom" in report.failures[0].error
        assert not shm_leaks()


# ----------------------------------------------------------------------
class TestLptOrdering:
    def _ledger(self, tmp_path, records):
        led = HistoryLedger(path=tmp_path / "history.jsonl")
        for rec in records:
            assert led.append(rec)
        return led

    def _points(self):
        cfg = small_cfg()
        return [
            SweepPoint("B", "pr", cfg),
            SweepPoint("O", "pr", cfg),
            SweepPoint("O", "knn", cfg),  # never seen -> mean fallback
        ], f"{cfg.topology.mesh_rows}x{cfg.topology.mesh_cols}"

    def test_slowest_first_stable(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_NO_HISTORY", raising=False)
        points, mesh = self._points()
        led = self._ledger(tmp_path, [
            RunRecord(source="simulate", design="B", workload="pr",
                      mesh=mesh, wall_s=0.5),
            RunRecord(source="simulate", design="O", workload="pr",
                      mesh=mesh, wall_s=2.0),
        ])
        preds = predicted_wall_times(points, ledger=led)
        assert preds is not None
        assert preds[1] == pytest.approx(2.0)
        assert preds[2] == pytest.approx((0.5 + 2.0) / 2)  # mean fallback
        assert lpt_order(points, ledger=led) == [1, 2, 0]

    def test_median_of_recent_samples(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_NO_HISTORY", raising=False)
        points, mesh = self._points()
        led = self._ledger(tmp_path, [
            RunRecord(source="simulate", design="B", workload="pr",
                      mesh=mesh, wall_s=w)
            for w in (100.0, 1.0, 2.0, 3.0, 4.0, 5.0)  # oldest dropped
        ])
        preds = predicted_wall_times(points, ledger=led)
        assert preds[0] == pytest.approx(3.0)

    def test_identity_without_history(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_NO_HISTORY", raising=False)
        points, _ = self._points()
        empty = HistoryLedger(path=tmp_path / "none.jsonl")
        assert predicted_wall_times(points, ledger=empty) is None
        assert lpt_order(points, ledger=empty) == [0, 1, 2]

    def test_disabled_by_env(self, tmp_path, monkeypatch):
        points, mesh = self._points()
        led = self._ledger(tmp_path, [
            RunRecord(source="simulate", design="O", workload="pr",
                      mesh=mesh, wall_s=2.0),
        ])
        monkeypatch.setenv("REPRO_NO_HISTORY", "1")
        assert predicted_wall_times(points, ledger=led) is None
        assert lpt_order(points, ledger=led) == [0, 1, 2]

    def test_cache_records_ignored(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_NO_HISTORY", raising=False)
        points, mesh = self._points()
        led = self._ledger(tmp_path, [
            RunRecord(source="cache", design="O", workload="pr",
                      mesh=mesh, wall_s=9.0),
        ])
        assert predicted_wall_times(points, ledger=led) is None


# ----------------------------------------------------------------------
class TestProcessMemos:
    def test_workload_memo_lru_bound(self):
        memos = ProcessMemos()
        for i in range(runtime_mod.MAX_WORKLOAD_MEMOS + 4):
            memos.remember_workload(f"tok{i}", object())
        assert len(memos.workloads) == runtime_mod.MAX_WORKLOAD_MEMOS
        assert "tok0" not in memos.workloads
