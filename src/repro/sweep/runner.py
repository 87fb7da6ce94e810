"""The sweep engine: cached single points and parallel grids.

Three layers, each usable on its own:

* :func:`cached_simulate` — drop-in replacement for
  :func:`repro.simulate.simulate` that consults the on-disk result
  cache first (and feeds it after a live run).
* :func:`run_point` — the same, wrapped in a
  :class:`PointOutcome` that captures failures instead of raising.
* :class:`SweepRunner` — fan a list of :class:`SweepPoint`\\ s out
  over the worker processes of a
  :class:`~repro.sweep.runtime.WorkerRuntime`, with typed per-point
  progress events, per-point failure capture and a single retry (one
  crashed point, or one killed worker, never kills the sweep), and
  results that are bit-identical to
  the serial path (every simulation is seeded and independent).
  :func:`repro.campaign.run_campaign` is its one grid front end.

Run keys of named points come from the factory spec (name + kwargs)
alone, so resolving cache hits never generates a dataset.  Workers
re-materialize workloads from their factory spec when available
(deterministic) and receive pickled instances otherwise; results
travel back as the JSON dicts of :mod:`repro.sweep.serialize`, the
exact representation the cache stores.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.metrics import RunResult
from repro.config import SystemConfig, experiment_config
from repro.observatory.progress import EventFn, ProgressEvent
from repro.sweep.cache import ResultCache, resolve_cache
from repro.sweep.keys import UncacheableError, run_key
from repro.sweep.runtime import (
    WorkerRuntime,
    _warm_worker,
    lpt_order,
    materialize_point,
)
from repro.sweep.serialize import result_from_dict
from repro.workloads.base import Workload, make_workload

CacheLike = Union[ResultCache, bool, str, None]
#: ``None`` = a private WorkerRuntime per run (torn down after); a
#: WorkerRuntime = shared across calls, never closed by the runner.
RuntimeLike = Optional[WorkerRuntime]


def _record_history(result: RunResult, workload, config,
                    key: Optional[str], wall_s: float) -> None:
    """Best-effort run-history line for a cache hit resolved here.

    Live runs record themselves inside :func:`repro.simulate.simulate`
    (including in worker processes); only hits bypass that path.
    """
    from repro.observatory.history import record_run

    record_run(result, config=config, workload=workload, wall_s=wall_s,
               source="cache", key=key)


def _live_simulate(design: str, workload, config, telemetry=None,
                   fault_schedule=None) -> RunResult:
    """The uncached simulation call (module-level so tests can stub it
    with a counting fake and workers can resolve it after a fork)."""
    from repro.simulate import simulate

    return simulate(design, workload, config, telemetry=telemetry,
                    fault_schedule=fault_schedule)


def _point_key(
    design: str, workload, config: SystemConfig,
    cache: Optional[ResultCache],
    fault_schedule=None,
    workload_kwargs: Optional[Dict[str, Any]] = None,
) -> Optional[str]:
    """Run key for one point, or None when uncacheable.

    A workload name is keyed with its factory kwargs, straight from
    the spec — no dataset is generated to name it.  A non-empty fault
    schedule joins the key (see :func:`~repro.sweep.keys.run_key`).
    """
    if cache is None:
        return None
    try:
        return run_key(design, workload, config, faults=fault_schedule,
                       workload_kwargs=workload_kwargs)
    except UncacheableError:
        cache.stats.uncacheable += 1
        return None


def cached_simulate(
    design: str,
    workload: Union[str, Workload],
    config: Optional[SystemConfig] = None,
    cache: CacheLike = "default",
    telemetry=None,
    fault_schedule=None,
    **workload_kwargs,
) -> RunResult:
    """Simulate one point through the result cache.

    Same contract as :func:`repro.simulate.simulate`; on a cache hit
    the stored result is returned without building a machine — or a
    dataset: a name plus ``workload_kwargs`` is keyed from the factory
    spec and materialized only on a miss.  Pass ``cache=False`` (or
    set ``REPRO_NO_CACHE``) to force a live run.

    A live :class:`~repro.telemetry.Telemetry` forces a live run (the
    cache stores aggregates, not timelines) but still feeds the cache:
    the result entry is written as usual and the telemetry summary goes
    to a ``<key>.telemetry.json`` sidecar, leaving run keys and the
    result schema untouched.
    """
    if config is None:
        config = experiment_config()
    if not isinstance(workload, str):
        workload_kwargs = {}  # kwargs qualify names, not instances
    live_tel = telemetry if telemetry is not None and telemetry.enabled \
        else None
    store = resolve_cache(cache)
    key = _point_key(design, workload, config, store,
                     fault_schedule=fault_schedule,
                     workload_kwargs=workload_kwargs)
    if key is not None and live_tel is None:
        t0 = time.perf_counter()
        hit = store.load(key)
        if hit is not None:
            _record_history(hit, workload, config, key,
                            time.perf_counter() - t0)
            return hit
    if workload_kwargs:
        workload = make_workload(workload, **workload_kwargs)
    result = _live_simulate(design, workload, config, telemetry=live_tel,
                            fault_schedule=fault_schedule)
    if key is not None:
        store.store(key, result, meta={
            "design": design,
            "workload": getattr(workload, "name", str(workload)),
        })
        if result.telemetry is not None:
            store.store_telemetry(key, result.telemetry.to_dict())
    return result


# ----------------------------------------------------------------------
# sweep points and outcomes
# ----------------------------------------------------------------------
@dataclass
class SweepPoint:
    """One (design, workload, config) cell of a sweep grid."""

    design: str
    workload: Union[str, Workload]
    config: Optional[SystemConfig] = None
    workload_kwargs: Dict[str, Any] = field(default_factory=dict)
    label: str = ""
    #: optional repro.faults.FaultSchedule; joins the point's run key.
    fault_schedule: Any = None

    def __post_init__(self) -> None:
        if not self.label:
            name = (
                self.workload if isinstance(self.workload, str)
                else getattr(self.workload, "name", type(self.workload).__name__)
            )
            self.label = f"{self.design}/{name}"

    def resolved_config(self) -> SystemConfig:
        return self.config if self.config is not None else experiment_config()

    def materialize(self) -> Workload:
        if isinstance(self.workload, str):
            return make_workload(self.workload, **self.workload_kwargs)
        return self.workload

    def key(self, cache: Optional[ResultCache]) -> Optional[str]:
        """This point's run key (None without a cache or when the
        workload is uncacheable) — from the spec for a named workload:
        its kwargs are part of the key, and nothing is materialized."""
        kwargs = self.workload_kwargs if isinstance(self.workload, str) \
            else None
        return _point_key(self.design, self.workload,
                          self.resolved_config(), cache,
                          fault_schedule=self.fault_schedule,
                          workload_kwargs=kwargs)


@dataclass
class PointOutcome:
    """What happened to one sweep point."""

    point: SweepPoint
    result: Optional[RunResult] = None
    #: "cache" | "run" | "retry" | "failed"
    source: str = "run"
    key: Optional[str] = None
    error: Optional[str] = None
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.result is not None


@dataclass
class SweepReport:
    """Everything a sweep produced, in input-point order."""

    outcomes: List[PointOutcome]
    elapsed_s: float = 0.0
    cache: Optional[ResultCache] = None

    @property
    def failures(self) -> List[PointOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def results(self) -> Dict[str, Dict[str, RunResult]]:
        """Successful results as ``{workload: {design: RunResult}}``."""
        grid: Dict[str, Dict[str, RunResult]] = {}
        for o in self.outcomes:
            if o.ok:
                grid.setdefault(o.result.workload, {})[o.result.design] = o.result
        return grid

    def summary(self) -> str:
        hit = sum(1 for o in self.outcomes if o.source == "cache")
        ran = sum(1 for o in self.outcomes if o.source in ("run", "retry"))
        line = (
            f"{len(self.outcomes)} points in {self.elapsed_s:.1f}s "
            f"({hit} cached, {ran} simulated, {len(self.failures)} failed)"
        )
        if self.cache is not None:
            line += f"; cache: {self.cache.stats.summary()}"
        return line


# ----------------------------------------------------------------------
class SweepRunner:
    """Fans a grid of sweep points out over processes, through the cache.

    ``jobs=None`` uses every core (bounded by the number of pending
    points); ``jobs=1`` (or a single pending point) runs serially in
    this process.  Cache hits are resolved up front in the parent, so
    workers only ever see genuine misses.  Each failed point is retried
    once, serially in the parent (where its traceback is easiest to
    read); a point that fails twice is recorded in the report and the
    sweep continues.  When a worker dies, every point the broken pool
    did not return counts as failed and gets that retry.

    Progress is one optional ``events`` callback, fed from the parent
    process with typed
    :class:`~repro.observatory.progress.ProgressEvent` objects
    (begin / started / cached / done / retried / failed / end) — the
    feed behind the live TTY status line and ``--progress-jsonl``.
    A consumer that raises is disabled, never fatal.

    ``runtime`` selects the execution context (see
    :mod:`repro.sweep.runtime`): the default ``None`` builds a private
    warm :class:`~repro.sweep.runtime.WorkerRuntime` for the run
    (persistent pool, per-process workload memo, shared-memory workload
    store, history-informed LPT dispatch — all bit-identical to plain
    :func:`~repro.simulate.simulate`) and closes it afterwards; an
    injected runtime is shared across calls and left open, so
    multi-sweep drivers stop paying pool startup and memo warmup per
    sweep.
    """

    def __init__(
        self,
        cache: CacheLike = "default",
        jobs: Optional[int] = None,
        retries: int = 1,
        events: Optional[EventFn] = None,
        runtime: RuntimeLike = None,
    ):
        self.cache = resolve_cache(cache)
        self.jobs = jobs
        self.retries = retries
        self.events = events
        self.runtime = runtime

    def _resolve_runtime(self) -> Tuple[WorkerRuntime, bool]:
        """(runtime, owned) for one run — see :data:`RuntimeLike`."""
        if self.runtime is None:
            return WorkerRuntime(jobs=self.jobs), True
        return self.runtime, False

    # ------------------------------------------------------------------
    def _emit(self, **kwargs) -> None:
        if self.events is None:
            return
        try:
            self.events(ProgressEvent(**kwargs))
        except Exception:
            self.events = None  # a broken consumer never fails the sweep

    def _run_serial_once(self, point: SweepPoint) -> RunResult:
        # materialize_point memoizes inside a warm scope and is exactly
        # point.materialize() outside one (a retry in the parent).
        return _live_simulate(
            point.design, materialize_point(point), point.resolved_config(),
            fault_schedule=point.fault_schedule,
        )

    def _retry(self, outcome: PointOutcome, done: int, total: int) -> None:
        """One serial retry for a point that crashed."""
        for _ in range(self.retries):
            t0 = time.time()
            try:
                outcome.result = self._run_serial_once(outcome.point)
                outcome.source = "retry"
                outcome.error = None
                outcome.elapsed_s = time.time() - t0
                self._emit(event="retried", label=outcome.point.label,
                           done=done, total=total, source="retry",
                           elapsed_s=outcome.elapsed_s)
                return
            except BaseException:
                outcome.error = traceback.format_exc()
        outcome.source = "failed"
        self._emit(event="failed", label=outcome.point.label, done=done,
                   total=total, source="failed", error=outcome.error or "")

    # ------------------------------------------------------------------
    def run(self, points: Sequence[SweepPoint]) -> SweepReport:
        t_start = time.time()
        points = list(points)
        total = len(points)
        outcomes = [PointOutcome(point=p) for p in points]
        planned = self.jobs if self.jobs is not None else os.cpu_count() or 1
        self._emit(event="begin", total=total, jobs=max(1, planned))

        # 1. resolve cache hits in the parent
        pending: List[int] = []
        done = 0
        for i, (point, outcome) in enumerate(zip(points, outcomes)):
            outcome.key = point.key(self.cache)
            t0 = time.time()
            hit = self.cache.load(outcome.key) if outcome.key else None
            if hit is not None:
                outcome.result = hit
                outcome.source = "cache"
                done += 1
                self._emit(event="cached", label=point.label, index=i,
                           done=done, total=total, source="cache")
                _record_history(hit, point.workload,
                                point.resolved_config(), outcome.key,
                                time.time() - t0)
            else:
                pending.append(i)

        # 2. simulate the misses (parallel when it pays) on the warm
        # runtime: the per-process workload memo, the shared workload
        # store, a persistent pool, and LPT dispatch ordering — all
        # result-neutral.
        jobs = self.jobs if self.jobs is not None else os.cpu_count() or 1
        jobs = max(1, min(jobs, len(pending)))
        runtime, owns_runtime = self._resolve_runtime()
        try:
            if jobs <= 1:
                with runtime.activate():
                    for i in pending:
                        outcome = outcomes[i]
                        self._emit(event="started", label=points[i].label,
                                   index=i, done=done, total=total)
                        t0 = time.time()
                        try:
                            outcome.result = self._run_serial_once(points[i])
                            outcome.source = "run"
                            outcome.elapsed_s = time.time() - t0
                            done += 1
                            self._emit(event="done", label=points[i].label,
                                       index=i, done=done, total=total,
                                       source="run",
                                       elapsed_s=outcome.elapsed_s)
                        except BaseException:
                            outcome.error = traceback.format_exc()
                            done += 1
                            self._retry(outcome, done, total)
            elif pending:
                # History-informed LPT: dispatch predicted-slowest
                # points first so the pool tail shrinks.  Dispatch
                # order only — outcomes stay input-indexed.
                by_lpt = lpt_order([points[i] for i in pending])
                order = [pending[j] for j in by_lpt]
                for i in pending:
                    self._emit(event="started", label=points[i].label,
                               index=i, done=done, total=total)
                failed: List[int] = []

                def payloads():
                    # built lazily: the pool starts on the first payload
                    # and simulates while the parent generates the rest.
                    for i in order:
                        with runtime.activate():
                            payload = runtime.worker_payload(i, points[i])
                        yield payload

                unreturned = dict.fromkeys(order)
                try:
                    for idx, rdict, err, dt in runtime.pool(
                        jobs
                    ).imap_unordered(_warm_worker, payloads()):
                        del unreturned[idx]
                        outcome = outcomes[idx]
                        outcome.elapsed_s = dt
                        done += 1
                        if rdict is not None:
                            outcome.result = result_from_dict(rdict)
                            outcome.source = "run"
                            self._emit(event="done",
                                       label=points[idx].label,
                                       index=idx, done=done, total=total,
                                       source="run", elapsed_s=dt)
                        else:
                            outcome.error = err
                            failed.append(idx)
                except BrokenProcessPool as exc:
                    # a worker died (OOM killer, signal): every point
                    # the pool did not return goes to the serial retry.
                    for idx in unreturned:
                        outcomes[idx].error = f"worker pool failure: {exc}"
                        done += 1
                        failed.append(idx)
                for idx in failed:
                    self._retry(outcomes[idx], done, total)
        finally:
            if owns_runtime:
                runtime.close()

        # 3. feed the cache
        if self.cache is not None:
            for outcome in outcomes:
                if (outcome.ok and outcome.key
                        and outcome.source != "cache"):
                    self.cache.store(
                        outcome.key, outcome.result,
                        meta={
                            "design": outcome.point.design,
                            "workload": outcome.result.workload,
                        },
                    )

        elapsed = time.time() - t_start
        self._emit(event="end", done=done, total=total, elapsed_s=elapsed)
        return SweepReport(
            outcomes=outcomes,
            elapsed_s=elapsed,
            cache=self.cache,
        )


# ----------------------------------------------------------------------
def run_point(
    design: str,
    workload: Union[str, Workload],
    config: Optional[SystemConfig] = None,
    cache: CacheLike = "default",
    **workload_kwargs,
) -> PointOutcome:
    """One point through the cache, with failure capture."""
    point = SweepPoint(
        design=design, workload=workload, config=config,
        workload_kwargs=workload_kwargs,
    )
    runner = SweepRunner(cache=cache, jobs=1)
    return runner.run([point]).outcomes[0]


def matrix_points(
    designs: Optional[Sequence[str]] = None,
    workloads: Optional[Sequence[str]] = None,
    config: Optional[SystemConfig] = None,
) -> List[SweepPoint]:
    """The full (design x workload) grid of the paper's Figures 6-8."""
    from repro.simulate import ALL_DESIGNS, ALL_WORKLOADS

    designs = list(designs or ALL_DESIGNS)
    workloads = list(workloads or ALL_WORKLOADS)
    return [
        SweepPoint(design=d, workload=w, config=config)
        for w in workloads
        for d in designs
    ]

