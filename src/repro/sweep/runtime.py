"""The warm worker runtime: persistent pools and a workload memo.

A cold sweep pays the same fixed costs at every point: a process pool
is started, and every workload is re-materialized from its factory
spec and re-pickled into each worker payload — even though most
points of the 48-cell matrix share one of a handful of workloads.
This module makes the 2nd..Nth points skip that work without changing
a single simulated value:

* :class:`ProcessMemos` — the per-process workload memo: materialized
  workloads keyed by the existing ``workload_token``.  Workload
  generation is seeded from the factory kwargs alone, so warm results
  are bit-identical to cold ones.  The simulated machine is not
  memoized: every point builds its topology, NoC tables and camp
  tables afresh, so a warm build and a cold build run the same code.
* :class:`SharedWorkloadStore` — parent-side
  ``multiprocessing.shared_memory`` segments holding each workload's
  pickle exactly once; workers attach zero-copy instead of receiving
  a fresh pickle per point.
* :class:`WorkerRuntime` — a reusable handle bundling the repo's one
  process pool (initialized warm) with the shared store, injectable
  into :class:`~repro.sweep.runner.SweepRunner` and
  :func:`~repro.campaign.runner.run_campaign`, and owned by the
  experiment server, so callers running many sweeps stop paying pool
  startup per sweep.  :func:`_warm_worker` runs every pooled point and
  every server job.
* :func:`lpt_order` — history-ledger-informed longest-processing-time
  point ordering (predicted-slowest first), shrinking pool tail
  latency on the dispatch side.

The memo is *opt-in by scope*: workload resolution consults it only
inside an enabled scope (a worker of a :class:`WorkerRuntime` pool,
or a ``with runtime.activate():`` block in the parent).  Outside one
— the default for direct :func:`repro.simulate.simulate` calls and
for every existing test — each point materializes its own workload.

See docs/architecture.md §15 for the memo key, the shared-memory
lifecycle and what stays per-run.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import pickle
import time
import traceback
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed, wait
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.sweep.keys import UncacheableError, stable_hash, workload_token
from repro.workloads.base import make_workload

#: name prefix of every shared-memory segment this runtime creates;
#: the CI leak check greps /dev/shm for it after the test suite.
SHM_PREFIX = "repro_wl_"

#: memo capacity bounds — generous for real sweeps (8 workloads)
#: while keeping a pathological driver from growing worker memory
#: without bound.
MAX_WORKLOAD_MEMOS = 16
MAX_SHM_SEGMENTS = 32


# ----------------------------------------------------------------------
# runtime counters (observability only)
# ----------------------------------------------------------------------
#: plain-int process-wide counters the metrics plane exports through
#: ``GET /v1/metrics`` (see :mod:`repro.insight.metrics_plane`).  Pure
#: bookkeeping: nothing in the simulation reads them, and bumping a
#: dict entry is cheap enough for the paths that do (pool startup, shm
#: segment lifecycle, LPT planning — never the per-access hot path).
_RUNTIME_COUNTERS: Dict[str, int] = {}


def _bump(name: str, amount: int = 1) -> None:
    _RUNTIME_COUNTERS[name] = _RUNTIME_COUNTERS.get(name, 0) + amount


def runtime_counters() -> Dict[str, int]:
    """A passive snapshot of this process's runtime counters.

    Merges the event counters above with the memo hit/miss stats of
    this process's :class:`ProcessMemos` — *without* creating memos:
    scraping an idle process reports zeros instead of allocating warm
    state (the zero-overhead telemetry contract extends to metrics).
    """
    snap = dict(_RUNTIME_COUNTERS)
    memos = _MEMOS
    if memos is not None:
        import dataclasses

        for field in dataclasses.fields(memos.stats):
            snap[f"memo_{field.name}"] = getattr(memos.stats, field.name)
    return snap


# ----------------------------------------------------------------------
# the per-process workload memo
# ----------------------------------------------------------------------
@dataclass
class MemoStats:
    """Hit/miss counters of one process's workload memo
    (observability only — never consulted by the simulation).  The
    metrics plane exports one ``kind`` label per field."""

    workload_hits: int = 0
    workload_misses: int = 0


class ProcessMemos:
    """The cross-point workload memo held by one (worker or parent)
    process.

    ``workloads`` holds materialized workload instances keyed by the
    stable hash of their :func:`~repro.sweep.keys.workload_token` (the
    exact identity run keys use).  Workload generation is seeded from
    the factory kwargs alone, so the same token always materializes
    the same object.  The machine itself is always built cold: its
    derived tables (NoC stack tables, camp home/nearest tables, the
    memory system's per-line memo) live and die with one run.
    """

    def __init__(self) -> None:
        self.workloads: "OrderedDict[str, Any]" = OrderedDict()
        self.stats = MemoStats()

    # -- workloads -----------------------------------------------------
    def remember_workload(self, token: str, workload: Any) -> None:
        self.workloads[token] = workload
        self.workloads.move_to_end(token)
        while len(self.workloads) > MAX_WORKLOAD_MEMOS:
            self.workloads.popitem(last=False)

    def workload_from_factory(self, name: str, kwargs: Dict[str, Any]):
        """A materialized workload for a factory spec, memoized."""
        try:
            token = stable_hash(workload_token(name, kwargs))
        except UncacheableError:
            self.stats.workload_misses += 1
            return make_workload(name, **kwargs)
        hit = self.workloads.get(token)
        if hit is not None:
            self.workloads.move_to_end(token)
            self.stats.workload_hits += 1
            return hit
        workload = make_workload(name, **kwargs)
        self.remember_workload(token, workload)
        self.stats.workload_misses += 1
        return workload


# ----------------------------------------------------------------------
# warm scope: the memos are inert unless a scope enables them
# ----------------------------------------------------------------------
_MEMOS: Optional[ProcessMemos] = None
_SCOPE_DEPTH = 0


def process_memos() -> ProcessMemos:
    """This process's workload memo (created on first use).  The data
    outlives scopes — re-entering a warm scope resumes warm."""
    global _MEMOS
    if _MEMOS is None:
        _MEMOS = ProcessMemos()
    return _MEMOS


def active_memos() -> Optional[ProcessMemos]:
    """The memos, or None when this process is in a cold scope.
    Workload resolution goes through this gate, so a cold scope
    materializes every point's workload itself."""
    return _MEMOS if _SCOPE_DEPTH > 0 else None


def enable_memos() -> ProcessMemos:
    global _SCOPE_DEPTH
    _SCOPE_DEPTH += 1
    return process_memos()


def disable_memos() -> None:
    global _SCOPE_DEPTH
    _SCOPE_DEPTH = max(0, _SCOPE_DEPTH - 1)


@contextlib.contextmanager
def warm_memos():
    """``with warm_memos():`` — a warm scope for in-process callers."""
    enable_memos()
    try:
        yield process_memos()
    finally:
        disable_memos()


def _worker_init() -> None:
    """Pool initializer: workers run warm for their whole life."""
    enable_memos()


# ----------------------------------------------------------------------
# shared-memory workload store
# ----------------------------------------------------------------------
def _load_shm_workload(name: str, size: int):
    """Map, unpickle and unmap one stored workload (worker side).

    The segment is opened with ``shm_open``, not ``SharedMemory(name=...)``,
    which would register it with the resource tracker.  The parent owns
    the segment (create / unlink); a worker registration would either
    unlink it when the worker exits (a tracker of the worker's own) or,
    once undone, drop the parent's registration from the tracker they
    share, which then fails the parent's unlink.
    """
    import mmap
    from _posixshmem import shm_open

    fd = shm_open("/" + name, os.O_RDONLY)
    try:
        with mmap.mmap(fd, size, prot=mmap.PROT_READ) as buf:
            return pickle.loads(buf[:size])
    finally:
        os.close(fd)


class SharedWorkloadStore:
    """Parent-owned shared-memory segments of pickled workloads.

    The parent materializes each unique workload once, pickles it into
    a named ``/dev/shm`` segment (``repro_wl_<pid>_<token12>``), and
    ships only the (name, size) descriptor in worker payloads; workers
    attach zero-copy, unpickle once, and memoize the instance.  The
    store is strictly best-effort: any failure (no /dev/shm, an
    unpicklable workload, a vanished segment) falls back to the cold
    spec.  Cleanup is the parent's job — :meth:`close` unlinks every
    segment, an ``atexit`` hook backstops a forgotten close, and a
    worker crash cannot leak anything because workers never create."""

    def __init__(self) -> None:
        self._segments: "OrderedDict[str, Tuple[Any, int]]" = OrderedDict()
        self._closed = False
        atexit.register(self.close)

    def __len__(self) -> int:
        return len(self._segments)

    def descriptor(self, token: str) -> Optional[Tuple[str, int]]:
        """(segment name, payload size) for a stored token, if any."""
        entry = self._segments.get(token)
        if entry is None:
            return None
        shm, size = entry
        return (shm.name, size)

    def put(self, token: str, workload: Any) -> Optional[Tuple[str, int]]:
        """Store one workload; returns its descriptor or None."""
        if self._closed:
            return None
        hit = self.descriptor(token)
        if hit is not None:
            return hit
        from multiprocessing import shared_memory

        try:
            blob = pickle.dumps(workload, protocol=pickle.HIGHEST_PROTOCOL)
            name = f"{SHM_PREFIX}{os.getpid():x}_{token[:12]}"
            shm = shared_memory.SharedMemory(
                name=name, create=True, size=len(blob)
            )
        except Exception:
            return None  # fall back to the cold workload spec
        shm.buf[: len(blob)] = blob
        self._segments[token] = (shm, len(blob))
        _bump("shm_segments_created")
        _bump("shm_segments_open")
        _bump("shm_bytes_open", len(blob))
        while len(self._segments) > MAX_SHM_SEGMENTS:
            _, (old, old_size) = self._segments.popitem(last=False)
            self._release(old, old_size)
        return (shm.name, len(blob))

    @staticmethod
    def _release(shm, size: int = 0) -> None:
        for step in (shm.close, shm.unlink):
            try:
                step()
            except Exception:
                pass
        _bump("shm_segments_open", -1)
        _bump("shm_bytes_open", -size)

    def close(self) -> None:
        """Unlink every segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for shm, size in self._segments.values():
            self._release(shm, size)
        self._segments.clear()
        with contextlib.suppress(Exception):
            atexit.unregister(self.close)


# ----------------------------------------------------------------------
# workload spec resolution (worker side)
# ----------------------------------------------------------------------
def resolve_workload_spec(spec: Tuple):
    """Materialize a worker payload's workload spec.

    Specs are ``("factory", name, kwargs)``, ``("object", workload)``
    or ``("shm", token, segment, size, fallback_spec)``.  Warm scopes
    memoize by token; cold scopes behave exactly like the original
    per-point materialization.
    """
    kind = spec[0]
    if kind == "factory":
        memos = active_memos()
        if memos is None:
            return make_workload(spec[1], **spec[2])
        return memos.workload_from_factory(spec[1], spec[2])
    if kind == "shm":
        _, token, name, size, fallback = spec
        memos = active_memos()
        if memos is not None:
            hit = memos.workloads.get(token)
            if hit is not None:
                memos.workloads.move_to_end(token)
                memos.stats.workload_hits += 1
                return hit
        try:
            workload = _load_shm_workload(name, size)
        except Exception:
            if fallback is not None:
                return resolve_workload_spec(fallback)
            raise
        if memos is not None:
            memos.remember_workload(token, workload)
            memos.stats.workload_misses += 1
        return workload
    return spec[1]  # ("object", workload)


def materialize_point(point):
    """A workload instance for one sweep point, memoized when warm."""
    memos = active_memos()
    if memos is not None and isinstance(point.workload, str):
        return memos.workload_from_factory(
            point.workload, point.workload_kwargs
        )
    return point.materialize()


#: execution-log filename, created inside a server's cache root.
EXEC_LOG_NAME = "service_executions.log"


def record_execution(exec_log: Optional[str], key: str) -> None:
    """Append one worker-side execution line (best-effort).

    The line is ``<unix_ts> <pid> <key>``.  The log is the server's
    ground truth for "how many simulations actually ran": the dedup
    tests and the CI ``serve-smoke`` job assert on it, because a
    server-side counter could lie about what the worker pool did.  An
    unwritable log never fails the job."""
    if not exec_log:
        return
    try:
        from repro.sweep.locking import FileLock, lock_path_for

        with FileLock(lock_path_for(exec_log)):
            with open(exec_log, "a") as fh:
                fh.write(f"{time.time():.3f} {os.getpid()} {key}\n")
    except OSError:
        pass


def count_executions(exec_log: str, key: Optional[str] = None) -> int:
    """Worker executions recorded so far (optionally for one key)."""
    try:
        with open(exec_log) as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    except OSError:
        return 0
    if key is None:
        return len(lines)
    return sum(1 for ln in lines if ln.split()[-1] == key)


def _warm_worker(payload: Tuple) -> Tuple[Any, Optional[Dict],
                                          Optional[str], float]:
    """Simulate one point: a pooled sweep point or a server job.

    ``payload`` is ``(tag, design, workload_spec, config,
    fault_schedule, exec_log)``: a sweep tags points by index
    (:meth:`WorkerRuntime.worker_payload`, no log); the server tags a
    job by its run key and names its execution log.  Returns ``(tag,
    result_dict, error_traceback, elapsed_s)`` — exactly one of
    result/error is set.  Never raises: a crashing point is reported,
    not fatal.  The workload resolves through the process memos, which
    are enabled in a pool worker and inert on a server's job thread.
    """
    from repro.sweep import runner as _runner
    from repro.sweep.serialize import result_to_dict

    tag, design, wl_spec, config, fault_schedule, exec_log = payload
    t0 = time.time()
    try:
        record_execution(exec_log, tag)
        workload = resolve_workload_spec(wl_spec)
        result = _runner._live_simulate(
            design, workload, config, fault_schedule=fault_schedule
        )
        return tag, result_to_dict(result), None, time.time() - t0
    except BaseException:
        return tag, None, traceback.format_exc(), time.time() - t0


class WarmPool(ProcessPoolExecutor):
    """The runtime's process pool.

    An executor, so the server awaits ``loop.run_in_executor(pool,
    _warm_worker, payload)`` directly, and a worker killed mid-point
    (the OOM killer, a signal) surfaces as ``BrokenProcessPool`` on
    every outstanding future instead of a silent hang.
    """

    def imap_unordered(self, fn, items):
        """``fn(item)`` for every item, yielded in completion order.

        ``items`` may be a lazy iterable: each item is submitted as soon
        as it is produced, so workers start on the first while the
        caller still builds the rest.  If producing an item raises, the
        points already submitted are cancelled or waited for before the
        error propagates, so nothing of the failed call is left running.
        Raises ``BrokenProcessPool`` once the pool breaks; closing the
        iterator early cancels the points not yet started."""
        futures = []
        try:
            for item in items:
                futures.append(self.submit(fn, item))
        except Exception:
            for future in futures:
                future.cancel()
            wait(futures)
            raise
        try:
            for future in as_completed(futures):
                yield future.result()
        finally:
            for future in futures:
                future.cancel()

    @property
    def broken(self) -> bool:
        return bool(self._broken)

    def stop(self) -> None:
        """Cancel queued points, kill the workers and reap them (so
        their CPU time reaches the parent's ``RUSAGE_CHILDREN``)."""
        for proc in list((self._processes or {}).values()):
            proc.terminate()
        self.shutdown(wait=True, cancel_futures=True)


# ----------------------------------------------------------------------
# the runtime handle
# ----------------------------------------------------------------------
class WorkerRuntime:
    """A reusable warm execution context for sweeps and the server.

    Bundles three things with one lifecycle:

    * the repo's one process pool, a :class:`WarmPool` whose workers
      are initialized warm and keep their memos across sweeps (and
      server jobs),
    * a :class:`SharedWorkloadStore` of parent-materialized workloads,
    * a parent-side warm scope (:meth:`activate`) for the serial path.

    Inject one runtime into several :class:`SweepRunner`\\ s /
    ``run_campaign`` calls to amortize pool startup and memo warmup
    across them; :meth:`close` (or the context manager) tears down the
    pool and unlinks every shared-memory segment.
    """

    def __init__(self, jobs: Optional[int] = None):
        self.jobs = jobs
        self.store = SharedWorkloadStore()
        self._pool: Optional[WarmPool] = None
        self._closed = False

    # ------------------------------------------------------------------
    def pool(self, width: int) -> WarmPool:
        """The persistent warm pool (created on first use).

        The width is fixed at creation; later calls reuse the existing
        pool even when they ask for fewer workers (idle workers cost
        nothing and keep their memos warm).  A pool broken by a dead
        worker is reaped here and replaced by a fresh one.
        """
        if self._closed:
            raise RuntimeError("WorkerRuntime is closed")
        if self._pool is not None and self._pool.broken:
            self._pool.stop()
            self._pool = None
        if self._pool is None:
            self._pool = WarmPool(
                max_workers=max(1, int(width)), initializer=_worker_init
            )
            _bump("warm_pools_started")
        return self._pool

    def activate(self):
        """A parent-side warm scope (used around serial execution and
        payload preparation)."""
        return warm_memos()

    # ------------------------------------------------------------------
    def workload_spec(self, point) -> Tuple:
        """The worker payload spec for one point, through the store.

        Parent materializes (memoized) and stores the pickle once per
        unique workload token; uncacheable or unstorable workloads
        fall back to the exact cold spec.
        """
        if isinstance(point.workload, str):
            base: Tuple = ("factory", point.workload,
                           dict(point.workload_kwargs))
        else:
            base = ("object", point.workload)
        try:
            token = stable_hash(workload_token(*base[1:]))
        except UncacheableError:
            return base
        desc = self.store.descriptor(token)
        if desc is None:
            if base[0] == "object":
                workload = base[1]
            else:
                memos = active_memos()
                if memos is not None:
                    workload = memos.workload_from_factory(base[1], base[2])
                else:
                    workload = make_workload(base[1], **base[2])
            desc = self.store.put(token, workload)
        if desc is None:
            return base
        fallback = base if base[0] == "factory" else None
        return ("shm", token, desc[0], desc[1], fallback)

    def worker_payload(self, idx: int, point) -> Tuple:
        return (idx, point.design, self.workload_spec(point),
                point.resolved_config(), point.fault_schedule, None)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Tear the pool down and unlink every shm segment."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.stop()
            self._pool = None
        self.store.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "WorkerRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing
        with contextlib.suppress(Exception):
            self.close()


# ----------------------------------------------------------------------
# history-informed LPT ordering
# ----------------------------------------------------------------------
def predicted_wall_times(
    points: Sequence, ledger=None,
) -> Optional[List[float]]:
    """Predicted per-point wall seconds from the history ledger.

    Median of the newest (≤5) ``source == "simulate"`` records per
    (design, workload, mesh); points the ledger has never seen get the
    mean prediction.  Returns None (→ callers keep input order) when
    history is disabled, empty or unreadable — strictly best-effort.
    """
    try:
        import statistics

        from repro.observatory.history import (
            default_ledger,
            history_enabled,
        )

        if not history_enabled():
            return None
        led = ledger if ledger is not None else default_ledger()
        samples: Dict[Tuple[str, str, str], List[float]] = {}
        for rec in led.records():
            if rec.source != "simulate" or rec.wall_s <= 0:
                continue
            key = (rec.design, rec.workload, rec.mesh)
            samples.setdefault(key, []).append(rec.wall_s)
        if not samples:
            return None
        medians = {k: statistics.median(v[-5:]) for k, v in samples.items()}
        fallback = statistics.fmean(medians.values())
        out: List[float] = []
        for point in points:
            name = (
                point.workload if isinstance(point.workload, str)
                else getattr(point.workload, "name", "")
            )
            cfg = point.resolved_config()
            mesh = f"{cfg.topology.mesh_rows}x{cfg.topology.mesh_cols}"
            out.append(medians.get((point.design, name, mesh), fallback))
        return out
    except Exception:
        return None


def lpt_order(points: Sequence, ledger=None) -> List[int]:
    """Indices of ``points`` in predicted-slowest-first (LPT) order.

    Stable: ties and unpredicted points keep their input order, and
    with no usable history the identity order comes back.  Dispatch
    order only — reports stay indexed by input position, so results
    are unaffected.
    """
    order = list(range(len(points)))
    preds = predicted_wall_times(points, ledger=ledger)
    if preds is None:
        return order
    _bump("lpt_orders")
    _bump("lpt_predicted_points", len(points))
    return sorted(order, key=lambda i: (-preds[i], i))
