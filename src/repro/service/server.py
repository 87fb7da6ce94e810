"""The experiment server: sweeps as a shared, deduplicating service.

``python -m repro serve`` starts one :class:`ExperimentServer`: an
asyncio HTTP server (protocol in :mod:`repro.service.protocol` — no
web framework) that accepts experiment specs
(:mod:`repro.service.spec`) over ``POST /v1/submit`` and runs the
resulting simulations on a :class:`~repro.sweep.runtime.WorkerRuntime`
pool, through the same :func:`~repro.sweep.runtime._warm_worker` a
local sweep uses.

The server is a *coordination point over the existing storage layer*,
not a new store: results land in the same content-addressed
:class:`~repro.sweep.cache.ResultCache` and history ledger the CLI
uses, so local runs and served runs share one cache.  That makes the
dedup rules natural:

* **cached point** — the run key already has a cache entry: answered
  immediately, no job created, and every reader of that key receives
  the entry's *exact on-disk bytes*;
* **running point** — a job for the key is in flight: the new client
  *attaches* to it (one simulation, N waiters) instead of spawning a
  duplicate;
* **new point** — a job is created and dispatched to the worker pool.

Per-job progress reuses the sweep engine's typed event channel
(:class:`~repro.observatory.progress.ProgressEvent`): each job accrues
``begin / started / done|failed / end`` (or ``cached``) events, and
``GET /v1/events/<key>`` replays them — then follows live — as
close-delimited NDJSON, the same wire format ``--progress-jsonl``
writes locally.

Endpoints (all JSON unless noted):

=======  ======================  =====================================
method   path                    meaning
=======  ======================  =====================================
GET      /v1/health              liveness + simulator version
GET      /v1/stats               dedup counters, job table, cache stats
GET      /v1/metrics             Prometheus text exposition (not JSON):
                                 request counts/latency per route,
                                 dedup/cache counters, job states,
                                 warm-runtime memo counters
POST     /v1/submit              spec in body; ``?wait=1`` long-polls
                                 until the point is terminal
POST     /v1/campaign            campaign document in body (optionally
                                 ``{"campaign": doc, "set": {...}}``);
                                 expands server-side, intakes every
                                 point through the same dedup rules,
                                 answers one ``{label, key, status}``
                                 row per point
GET      /v1/result/<key>        cached result entry (raw bytes);
                                 ``?telemetry=1`` for the sidecar
GET      /v1/events/<key>        NDJSON progress stream (replay+live)
GET      /v1/history             ledger records; ``?limit=N``
GET      /v1/diff                ``?a=&b=&threshold=`` -> RunDiff dict
GET      /v1/regress             ``?tolerance=`` -> history-ledger scan
POST     /v1/shutdown            clean stop
=======  ======================  =====================================

``workers=0`` runs jobs in-process on a thread instead of the process
pool, where tests can stub the simulation entry point
(:func:`repro.sweep.runner._live_simulate`) with counting fakes.  A
job whose pool worker dies ends ``failed``; the next job starts a
fresh pool.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.observatory.progress import ProgressEvent
from repro.service.protocol import (
    ProtocolError,
    Request,
    read_request,
    send_error,
    send_json,
    send_ndjson_line,
    send_text,
    start_ndjson_stream,
)
from repro.service.spec import ExperimentSpec, SpecError
from repro.sweep.runtime import EXEC_LOG_NAME, WorkerRuntime, _warm_worker

#: job states; the last three are terminal.
JOB_STATES = ("queued", "started", "done", "failed", "cached")
TERMINAL_STATES = ("done", "failed", "cached")


@dataclass
class Job:
    """One in-flight (or finished) simulation, shared by its waiters."""

    key: str
    spec: ExperimentSpec
    config: Any                       #: resolved SystemConfig
    status: str = "queued"
    events: List[Dict[str, Any]] = field(default_factory=list)
    error: str = ""
    elapsed_s: float = 0.0
    waiters: int = 0                  #: clients attached beyond the first
    result_bytes: Optional[bytes] = None
    cond: asyncio.Condition = field(default_factory=asyncio.Condition)

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATES

    def describe(self) -> Dict[str, Any]:
        return {
            "key": self.key, "label": self.spec.label,
            "status": self.status, "waiters": self.waiters,
            "elapsed_s": round(self.elapsed_s, 3),
            "events": len(self.events),
            "error": self.error.strip().splitlines()[-1]
            if self.error else "",
        }


class ExperimentServer:
    """Asyncio experiment server over the shared result cache.

    All handler state (the job table, counters) is touched only from
    the event-loop thread, so it needs no locks; blocking work — spec
    resolution, cache IO, the simulations themselves — runs in
    executors.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: Optional[int] = None,
        cache_root: Optional[str] = None,
    ):
        from repro.observatory.history import HistoryLedger
        from repro.sweep.cache import ResultCache, default_cache

        self.host = host
        self.port = port
        self.workers = workers
        if cache_root is not None:
            self.cache = ResultCache(root=cache_root)
        else:
            self.cache = default_cache()
        self.ledger = HistoryLedger(
            path=self.cache.root / "history.jsonl")
        self.exec_log = self.cache.root / EXEC_LOG_NAME
        self.jobs: Dict[str, Job] = {}
        self.counters: Dict[str, int] = {
            "submissions": 0,     # POST /v1/submit requests parsed
            "executions": 0,      # jobs dispatched to the worker pool
            "dedup_attached": 0,  # submits that joined an existing job
            "cache_hits": 0,      # submits answered from the cache
            "campaigns": 0,       # POST /v1/campaign documents expanded
        }
        #: per-(route, method) request accounting for /v1/metrics:
        #: [count, total latency seconds].  Loop-thread only.
        self.request_stats: Dict[Tuple[str, str], List[float]] = {}
        self.runtime = WorkerRuntime(jobs=workers)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def pool_width(self) -> int:
        if self.workers == 0:
            return 1
        if self.workers:
            return self.workers
        import os

        return os.cpu_count() or 1

    async def serve(self, ready: Optional[threading.Event] = None) -> None:
        """Bind, accept until :meth:`request_stop`, then tear down."""
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_conn, self.host, self.port)
        self.port = server.sockets[0].getsockname()[1]
        if ready is not None:
            ready.set()
        try:
            async with server:
                await self._stop.wait()
        finally:
            self.runtime.close()

    def request_stop(self) -> None:
        """Ask the serve loop to exit (safe from the loop thread only;
        cross-thread callers go through ``call_soon_threadsafe``)."""
        if self._stop is not None:
            self._stop.set()

    # ------------------------------------------------------------------
    # connection handling / routing
    # ------------------------------------------------------------------
    async def _handle_conn(self, reader, writer) -> None:
        try:
            request = await read_request(reader)
            if request is not None:
                await self._dispatch(request, writer)
        except ProtocolError as exc:
            try:
                await send_error(writer, 400, str(exc))
            except (ConnectionError, OSError):
                pass
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass  # client went away mid-response
        except Exception as exc:  # a handler bug must not kill the loop
            try:
                await send_error(
                    writer, 500, f"{type(exc).__name__}: {exc}")
            except (ConnectionError, OSError):
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, req: Request, writer) -> None:
        parts = [p for p in req.path.split("/") if p]
        if len(parts) >= 1 and parts[0] != "v1":
            await send_error(writer, 404, f"unknown path {req.path!r}")
            return
        route = parts[1] if len(parts) > 1 else ""
        tail = parts[2] if len(parts) > 2 else None

        t0 = time.monotonic()
        try:
            await self._route(req, writer, route, tail)
        finally:
            # one [count, latency-seconds] cell per (route, method);
            # loop-thread only, so a plain dict needs no lock.
            cell = self.request_stats.setdefault(
                (route or "/", req.method), [0, 0.0])
            cell[0] += 1
            cell[1] += time.monotonic() - t0

    async def _route(self, req: Request, writer, route: str,
                     tail: Optional[str]) -> None:
        if route == "health" and req.method == "GET":
            await self._handle_health(writer)
        elif route == "stats" and req.method == "GET":
            await self._handle_stats(writer)
        elif route == "metrics" and req.method == "GET":
            await self._handle_metrics(writer)
        elif route == "submit" and req.method == "POST":
            await self._handle_submit(req, writer)
        elif route == "campaign" and req.method == "POST":
            await self._handle_campaign(req, writer)
        elif route == "result" and req.method == "GET" and tail:
            await self._handle_result(req, writer, tail)
        elif route == "events" and req.method == "GET" and tail:
            await self._handle_events(writer, tail)
        elif route == "history" and req.method == "GET":
            await self._handle_history(req, writer)
        elif route == "diff" and req.method == "GET":
            await self._handle_diff(req, writer)
        elif route == "regress" and req.method == "GET":
            await self._handle_regress(req, writer)
        elif route == "shutdown" and req.method == "POST":
            await send_json(writer, {"ok": True, "stopping": True})
            self.request_stop()
        elif route in ("health", "stats", "metrics", "submit",
                       "campaign", "result", "events", "history",
                       "diff", "regress", "shutdown"):
            await send_error(writer, 405,
                             f"{req.method} not allowed on {req.path!r}")
        else:
            await send_error(writer, 404, f"unknown path {req.path!r}")

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    async def _handle_health(self, writer) -> None:
        from repro.sweep.keys import SIMULATOR_VERSION

        await send_json(writer, {
            "ok": True,
            "version": SIMULATOR_VERSION,
            "pool": self.pool_width(),
            "mode": "threads" if self.workers == 0 else "processes",
        })

    async def _handle_stats(self, writer) -> None:
        await send_json(writer, {
            "counters": dict(self.counters),
            "jobs": [job.describe() for job in self.jobs.values()],
            "cache": {
                "root": str(self.cache.root),
                "entries": len(self.cache),
                "stats": self.cache.stats.summary(),
            },
        })

    async def _handle_metrics(self, writer) -> None:
        """Prometheus text exposition of every passive counter the
        server holds: request accounting, dedup/cache counters, the
        job table by state, and the warm runtime's memo counters.
        Read-only — a scrape allocates nothing in the simulator."""
        from repro.insight.metrics_plane import (
            PROMETHEUS_CONTENT_TYPE,
            MetricFamily,
            render_exposition,
            runtime_metric_families,
        )

        loop = asyncio.get_running_loop()
        # the two filesystem-backed sizes off the loop thread
        cache_entries = await loop.run_in_executor(
            None, len, self.cache)
        ledger_records = await loop.run_in_executor(
            None, len, self.ledger)

        requests = MetricFamily(
            "repro_server_requests_total", "counter",
            "HTTP requests handled, by route and method.")
        latency = MetricFamily(
            "repro_server_request_seconds_total", "counter",
            "Cumulative request handling time, by route and method.")
        for (route, method), (count, seconds) in sorted(
                self.request_stats.items()):
            requests.add(count, route=route, method=method)
            latency.add(round(seconds, 6), route=route, method=method)

        ops = MetricFamily(
            "repro_server_ops_total", "counter",
            "Dedup intake outcomes: submissions parsed, jobs "
            "dispatched, waiters attached, cache answers, campaigns "
            "expanded.")
        for op in sorted(self.counters):
            ops.add(self.counters[op], op=op)

        jobs = MetricFamily(
            "repro_server_jobs", "gauge",
            "Jobs in the table by state (terminal jobs linger until "
            "their key is retried).")
        by_state = {state: 0 for state in JOB_STATES}
        for job in self.jobs.values():
            by_state[job.status] = by_state.get(job.status, 0) + 1
        for state in JOB_STATES:
            jobs.add(by_state.get(state, 0), state=state)
        in_flight = sum(1 for j in self.jobs.values() if not j.terminal)

        cache_ops = MetricFamily(
            "repro_cache_ops_total", "counter",
            "Result-cache operations in this server process.")
        stats = self.cache.stats
        for op in ("hits", "misses", "stores", "corrupt",
                   "uncacheable", "io_errors", "sidecar_skips"):
            cache_ops.add(getattr(stats, op, 0), op=op)

        families = [
            requests, latency, ops, jobs,
            MetricFamily(
                "repro_server_jobs_in_flight", "gauge",
                "Jobs currently queued or running.").add(in_flight),
            MetricFamily(
                "repro_server_pool_width", "gauge",
                "Worker-pool width (occupancy ceiling).",
            ).add(self.pool_width()),
            cache_ops,
            MetricFamily(
                "repro_cache_entries", "gauge",
                "Entries in the shared result cache.",
            ).add(cache_entries),
            MetricFamily(
                "repro_history_records", "gauge",
                "Records in the history ledger.",
            ).add(ledger_records),
        ]
        families.extend(runtime_metric_families())
        await send_text(writer, render_exposition(families),
                        content_type=PROMETHEUS_CONTENT_TYPE)

    async def _handle_submit(self, req: Request, writer) -> None:
        loop = asyncio.get_running_loop()
        try:
            spec = ExperimentSpec.from_dict(req.json())
            # key/config resolution builds and hashes config
            # dataclasses — off the loop thread.  The key comes from
            # the factory spec: intake never generates a dataset.
            config = await loop.run_in_executor(
                None, spec.resolved_config)
            key = await loop.run_in_executor(None, spec.run_key)
        except (ProtocolError, SpecError) as exc:
            await send_error(writer, 400, str(exc))
            return
        self.counters["submissions"] += 1
        wait = req.query.get("wait") not in (None, "", "0")

        status, attached, job = await self._intake(spec, config, key)
        if status == "cached":
            await send_json(writer, {"key": key, "status": "cached",
                                     "attached": False})
            return
        if status == "done":
            await send_json(writer, {
                "key": key, "status": "done", "attached": False,
                "elapsed_s": round(job.elapsed_s, 3), "error": "",
            })
            return

        if not wait:
            await send_json(writer, {
                "key": key, "attached": attached,
                "status": job.status if job.terminal else "submitted",
            })
            return
        async with job.cond:
            while not job.terminal:
                await job.cond.wait()
        await send_json(writer, {
            "key": key, "status": job.status, "attached": attached,
            "elapsed_s": round(job.elapsed_s, 3),
            "error": job.error,
        })

    async def _intake(self, spec: ExperimentSpec, config: Any,
                      key: str) -> tuple:
        """Dedup intake for one resolved point (submit and campaign
        share this path, so both obey the same rules and counters).

        Returns ``(status, attached, job)`` where status is
        ``"cached"`` (answered from the shared cache, no job),
        ``"done"`` (finished but uncacheable job served from memory)
        or ``"active"`` (job created or attached — may already be
        terminal; read ``job.status``).
        """
        loop = asyncio.get_running_loop()
        job = self.jobs.get(key)
        if job is None or job.terminal:
            # warm path first: a finished (or never-seen) key with a
            # cache entry is answered without touching the job table.
            hit = await loop.run_in_executor(None, self.cache.load, key)
            if hit is not None:
                self.counters["cache_hits"] += 1
                return "cached", False, None
            # the await released the loop: a racing submit may have
            # created this key's job meanwhile — re-read before
            # choosing between create and attach, or two clients
            # would each dispatch the same simulation.
            job = self.jobs.get(key)
        if job is not None and job.status == "done" and \
                job.result_bytes is not None:
            # done but uncacheable (cache disabled):
            # serve the finished job from memory.
            self.counters["cache_hits"] += 1
            return "done", False, job
        if job is None or job.terminal:
            # new point — or a failed one being retried.
            job = Job(key=key, spec=spec, config=config)
            self.jobs[key] = job
            self.counters["executions"] += 1
            asyncio.ensure_future(self._run_job(job))
            attached = False
        else:
            self.counters["dedup_attached"] += 1
            job.waiters += 1
            attached = True
        return "active", attached, job

    async def _handle_campaign(self, req: Request, writer) -> None:
        """Expand a campaign document worker-side and intake every
        point through the same dedup rules as ``/v1/submit``."""
        loop = asyncio.get_running_loop()
        try:
            body = req.json()
            if isinstance(body, dict) and "campaign" in body:
                doc = body.get("campaign")
                sets = body.get("set") or {}
            else:
                doc, sets = body, {}
            if not isinstance(sets, dict):
                raise SpecError(
                    "set must be an object of {path: value} entries")

            def _expand():
                from repro.campaign.spec import CampaignSpec

                campaign = CampaignSpec.from_dict(doc)
                return campaign, campaign.expand(sets=sets)

            campaign, expansion = await loop.run_in_executor(
                None, _expand)
            resolved = []
            for point in expansion.points:
                config = await loop.run_in_executor(
                    None, point.spec.resolved_config)
                key = await loop.run_in_executor(
                    None, point.spec.run_key)
                resolved.append((point, config, key))
        except (ProtocolError, SpecError) as exc:
            await send_error(writer, 400, str(exc))
            return
        self.counters["campaigns"] += 1
        rows = []
        for point, config, key in resolved:
            self.counters["submissions"] += 1
            status, attached, job = await self._intake(
                point.spec, config, key)
            if status == "active":
                status = job.status if job.terminal else "submitted"
            rows.append({"label": point.label, "key": key,
                         "status": status, "attached": attached,
                         "spec": point.spec.to_dict()})
        await send_json(writer, {
            "name": campaign.name,
            "fingerprint": expansion.fingerprint,
            "total": len(rows),
            "pool": self.pool_width(),
            "duplicates_dropped": expansion.duplicates_dropped,
            "points": rows,
        })

    async def _handle_result(self, req: Request, writer,
                             key: str) -> None:
        loop = asyncio.get_running_loop()
        telemetry = req.query.get("telemetry") not in (None, "", "0")
        if telemetry:
            path = self.cache.telemetry_path_for(key)
        else:
            path = self.cache.path_for(key)
        blob = await loop.run_in_executor(None, _read_bytes, path)
        if blob is None and not telemetry:
            job = self.jobs.get(key)
            if job is not None and job.result_bytes is not None:
                blob = job.result_bytes
        if blob is None:
            await send_error(writer, 404,
                             f"no stored result for key {key!r}")
            return
        await send_json(writer, None, raw=blob)

    async def _handle_events(self, writer, key: str) -> None:
        job = self.jobs.get(key)
        if job is None:
            loop = asyncio.get_running_loop()
            hit = await loop.run_in_executor(None, self.cache.load, key)
            if hit is None:
                await send_error(writer, 404,
                                 f"no job or cached result for {key!r}")
                return
            # a point resolved before this server ever saw it: replay
            # the two events a cache hit produces in a local sweep.
            await start_ndjson_stream(writer)
            await send_ndjson_line(writer, ProgressEvent(
                event="cached", label=key[:12], done=1, total=1,
                source="cache").to_dict())
            await send_ndjson_line(writer, ProgressEvent(
                event="end", done=1, total=1).to_dict())
            return
        await start_ndjson_stream(writer)
        sent = 0
        while True:
            async with job.cond:
                while sent >= len(job.events) and not job.terminal:
                    await job.cond.wait()
                batch = job.events[sent:]
                sent = len(job.events)
                finished = job.terminal and sent >= len(job.events)
            for event in batch:
                await send_ndjson_line(writer, event)
            if finished:
                return

    async def _handle_history(self, req: Request, writer) -> None:
        loop = asyncio.get_running_loop()
        records = await loop.run_in_executor(None, self.ledger.records)
        limit = req.query.get("limit")
        if limit:
            try:
                count = int(limit)
            except ValueError:
                count = -1
            if count < 0:
                await send_error(writer, 400,
                                 f"bad limit {limit!r}")
                return
            records = records[max(0, len(records) - count):]
        await send_json(writer, {
            "path": str(self.ledger.path),
            "records": [r.to_dict() for r in records],
        })

    async def _handle_diff(self, req: Request, writer) -> None:
        from repro.observatory.diffing import DEFAULT_THRESHOLD, diff_refs

        ref_a, ref_b = req.query.get("a"), req.query.get("b")
        if not ref_a or not ref_b:
            await send_error(writer, 400,
                             "diff needs ?a=<ref>&b=<ref>")
            return
        try:
            threshold = float(req.query.get("threshold",
                                            DEFAULT_THRESHOLD))
        except ValueError:
            await send_error(writer, 400, "bad threshold")
            return
        loop = asyncio.get_running_loop()
        try:
            diff = await loop.run_in_executor(
                None, lambda: diff_refs(
                    ref_a, ref_b, ledger=self.ledger, cache=self.cache,
                    threshold=threshold))
        except ValueError as exc:
            await send_error(writer, 400, str(exc))
            return
        await send_json(writer, diff.to_dict())

    async def _handle_regress(self, req: Request, writer) -> None:
        from repro.observatory.regression import (
            DEFAULT_TOLERANCE,
            scan_history,
        )

        try:
            tolerance = float(req.query.get("tolerance",
                                            DEFAULT_TOLERANCE))
        except ValueError:
            await send_error(writer, 400, "bad tolerance")
            return
        loop = asyncio.get_running_loop()
        report = await loop.run_in_executor(
            None, lambda: scan_history(ledger=self.ledger,
                                       tolerance=tolerance))
        payload = report.to_dict()
        payload["summary"] = report.summary()
        await send_json(writer, payload)

    # ------------------------------------------------------------------
    # job execution
    # ------------------------------------------------------------------
    async def _emit(self, job: Job, **kwargs) -> None:
        """Append one typed progress event and wake streamers.

        Every event inherits the spec's submission-time ``trace_id``
        (empty on untraced specs, and then absent from the NDJSON
        line) so ``/v1/events`` streams correlate end to end.
        """
        kwargs.setdefault("trace_id", job.spec.trace_id)
        async with job.cond:
            job.events.append(ProgressEvent(**kwargs).to_dict())
            job.cond.notify_all()

    async def _finish(self, job: Job, status: str) -> None:
        async with job.cond:
            job.status = status
            job.cond.notify_all()

    async def _run_job(self, job: Job) -> None:
        loop = asyncio.get_running_loop()
        await self._emit(job, event="begin", total=1,
                         jobs=self.pool_width())
        job.status = "started"
        await self._emit(job, event="started", label=job.spec.label,
                         index=0, total=1)
        payload = (job.key, job.spec.design,
                   ("factory", job.spec.workload,
                    dict(job.spec.workload_kwargs)),
                   job.config, job.spec.fault_schedule(),
                   str(self.exec_log))
        try:
            # workers=0: in-process, on the loop's default thread pool
            pool = None if self.workers == 0 else \
                self.runtime.pool(self.pool_width())
            _, rdict, error, dt = await loop.run_in_executor(
                pool, _warm_worker, payload)
        except Exception as exc:  # a worker died, or shutdown mid-job
            rdict, error, dt = None, f"worker pool failure: {exc}", 0.0
        job.elapsed_s = dt
        if rdict is not None:
            job.result_bytes = await loop.run_in_executor(
                None, self._store_result, job, rdict)
            await self._emit(job, event="done", label=job.spec.label,
                             index=0, done=1, total=1, source="run",
                             elapsed_s=dt)
            await self._emit(job, event="end", done=1, total=1,
                             elapsed_s=dt)
            await self._finish(job, "done")
        else:
            job.error = error or "unknown worker failure"
            await self._emit(job, event="failed", label=job.spec.label,
                             done=1, total=1, source="failed",
                             error=job.error)
            await self._emit(job, event="end", done=1, total=1,
                             elapsed_s=dt)
            await self._finish(job, "failed")

    def _store_result(self, job: Job, rdict: Dict[str, Any]) -> bytes:
        """Feed the shared cache and return the bytes every client of
        this key will be served."""
        from repro.sweep.serialize import result_from_dict

        self.cache.store(job.key, result_from_dict(rdict), meta={
            "design": job.spec.design,
            "workload": job.spec.workload,
        })
        blob = _read_bytes(self.cache.path_for(job.key))
        if blob is not None:
            return blob
        # cache disabled: serve a cache-shaped payload
        # straight from memory (not byte-stable across servers, but
        # stable for every client of this job).
        return json.dumps({"schema": self.cache.SCHEMA, "key": job.key,
                           "result": rdict}).encode("utf-8")


def _read_bytes(path) -> Optional[bytes]:
    try:
        return path.read_bytes()
    except OSError:
        return None


# ----------------------------------------------------------------------
# threaded harness (tests, serve-smoke, notebooks)
# ----------------------------------------------------------------------
@dataclass
class ServerHandle:
    """A server running on a background thread."""

    server: ExperimentServer
    thread: threading.Thread

    @property
    def base_url(self) -> str:
        return f"http://{self.server.host}:{self.server.port}"

    def stop(self, timeout: float = 10.0) -> None:
        loop = self.server._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self.server.request_stop)
        self.thread.join(timeout)


def run_in_thread(**kwargs) -> ServerHandle:
    """Start an :class:`ExperimentServer` on a daemon thread and wait
    until it is accepting (its ephemeral port resolved)."""
    server = ExperimentServer(**kwargs)
    ready = threading.Event()
    thread = threading.Thread(
        target=lambda: asyncio.run(server.serve(ready=ready)),
        name="repro-serve", daemon=True)
    thread.start()
    if not ready.wait(timeout=15.0):
        raise RuntimeError("experiment server failed to start")
    return ServerHandle(server=server, thread=thread)
