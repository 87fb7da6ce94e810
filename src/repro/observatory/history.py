"""The run-history ledger: an append-only JSONL of compact run records.

Every simulation — direct :func:`repro.simulate.simulate` calls, sweep
cache hits, fault-campaign points, ``repro bench`` timing runs — drops
one :class:`RunRecord` line into ``.repro_cache/history.jsonl``.  The
ledger is the cross-run memory that the diff engine
(:mod:`repro.observatory.diffing`) and the regression detector
(:mod:`repro.observatory.regression`) read: which runs happened, in
what order, how long each took on the wall clock, and what their
headline metrics were.

Recording is strictly **non-semantic** and **best-effort**:

* run keys, cached result JSON, and the ``abndp-sim-1`` version salt
  are untouched — the ledger only *observes*;
* any filesystem failure (read-only checkout, full disk, missing
  parent) is swallowed: a broken ledger can never fail a run;
* ``REPRO_NO_HISTORY`` (any non-empty value) disables recording, and
  ``REPRO_HISTORY_PATH`` relocates the file (default:
  ``history.jsonl`` inside the result-cache root, which itself honours
  ``REPRO_CACHE_DIR``).

Lines are compact (well under the 4 KiB pipe-atomicity bound), so
concurrent appends from sweep worker processes interleave whole
records, never fragments.  Corrupt lines — a torn write, a manual
edit — are skipped and counted on read, not fatal.

Appends (and the 8 MB rotation they may trigger) serialize across
processes on an advisory ``<path>.lock`` sidecar
(:mod:`repro.sweep.locking`): without it, two processes hitting the
rotation bound simultaneously would both ``os.replace`` the ledger
onto ``<path>.1`` and the second would clobber the first's rotated
generation with a near-empty file.  Reads stay lock-free — rotation
and compaction only ever rename whole files.  :meth:`HistoryLedger.
compact` (``python -m repro compact``) merges the rotated generation
back in, drops corrupt lines, and bounds the file to the newest
records that fit the rotation budget.
"""

from __future__ import annotations

import json
import os
import socket
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

ENV_HISTORY_PATH = "REPRO_HISTORY_PATH"
ENV_NO_HISTORY = "REPRO_NO_HISTORY"

#: ledger line schema tag; bump when the record layout changes.
SCHEMA = "repro-history-v1"

#: rotation bound: when an append would push the ledger past this many
#: bytes, the current file moves to ``<path>.1`` first (one generation
#: is kept — the ledger is bookkeeping, not an archive).
DEFAULT_MAX_BYTES = 8 * 1024 * 1024


# ----------------------------------------------------------------------
# environment / provenance helpers
# ----------------------------------------------------------------------
def history_enabled() -> bool:
    return not os.environ.get(ENV_NO_HISTORY)


def default_history_path() -> Path:
    """The ledger location: env override, else inside the cache root."""
    override = os.environ.get(ENV_HISTORY_PATH)
    if override:
        return Path(override)
    from repro.sweep.cache import DEFAULT_CACHE_DIR, ENV_CACHE_DIR

    root = os.environ.get(ENV_CACHE_DIR) or DEFAULT_CACHE_DIR
    return Path(root) / "history.jsonl"


_GIT_REV_CACHE: Dict[str, str] = {}


def git_revision(root: Optional[Path] = None) -> str:
    """The current git commit (short hex), without spawning a process.

    Reads ``.git/HEAD`` and resolves one level of ref indirection
    (loose ref file, then ``packed-refs``); walks up from ``root``
    (default: the working directory) to find the repository.  Returns
    ``"unknown"`` outside a git checkout — provenance is best-effort.
    """
    start = Path(root) if root is not None else Path.cwd()
    cache_key = str(start)
    hit = _GIT_REV_CACHE.get(cache_key)
    if hit is not None:
        return hit
    rev = "unknown"
    try:
        for candidate in (start, *start.resolve().parents):
            head = candidate / ".git" / "HEAD"
            if not head.is_file():
                continue
            text = head.read_text().strip()
            if text.startswith("ref:"):
                ref = text.split(None, 1)[1].strip()
                loose = candidate / ".git" / ref
                if loose.is_file():
                    rev = loose.read_text().strip()[:12]
                else:
                    packed = candidate / ".git" / "packed-refs"
                    if packed.is_file():
                        for line in packed.read_text().splitlines():
                            if line.endswith(" " + ref):
                                rev = line.split()[0][:12]
                                break
            else:
                rev = text[:12]
            break
    except OSError:
        pass
    _GIT_REV_CACHE[cache_key] = rev
    return rev


def hostname() -> str:
    try:
        return socket.gethostname()
    except OSError:
        return "unknown"


# ----------------------------------------------------------------------
# records
# ----------------------------------------------------------------------
@dataclass
class RunRecord:
    """One compact ledger line describing one run.

    Headline metrics only — the full
    :class:`~repro.analysis.metrics.RunResult` distribution lives in
    the result cache, addressed by ``key``; the record is what survives
    cache eviction and what the wall-clock trajectory is read from.
    """

    schema: str = SCHEMA
    ts: float = 0.0             #: unix time of the append
    source: str = "simulate"    #: simulate | cache | bench | campaign
    key: Optional[str] = None   #: content-addressed run key (if known)
    design: str = ""
    workload: str = ""
    config_fingerprint: str = ""
    engine: str = ""            #: access engine of old records; "" now
    seed: Optional[int] = None
    mesh: str = ""
    git_rev: str = ""
    host: str = ""
    wall_s: float = 0.0
    faulted: bool = False
    # headline RunResult metrics
    makespan_cycles: float = 0.0
    inter_hops: int = 0
    intra_transfers: int = 0
    tasks_executed: int = 0
    steals: int = 0
    cache_hit_rate: float = 0.0
    load_imbalance: float = 0.0
    energy_total_pj: float = 0.0
    #: compact TelemetrySummary digest (instrumented runs only).
    telemetry: Optional[Dict[str, Any]] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        out = asdict(self)
        if self.telemetry is None:
            out.pop("telemetry")
        if not self.extra:
            out.pop("extra")
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunRecord":
        names = {f for f in cls.__dataclass_fields__}  # noqa: C416
        return cls(**{k: v for k, v in data.items() if k in names})

    @classmethod
    def from_result(cls, result, **overrides: Any) -> "RunRecord":
        """Build a record from a RunResult plus context overrides."""
        rec = cls(
            ts=time.time(),
            design=result.design,
            workload=result.workload,
            git_rev=git_revision(),
            host=hostname(),
            faulted=result.resilience is not None,
            makespan_cycles=float(result.makespan_cycles),
            inter_hops=int(result.inter_hops),
            intra_transfers=int(result.traffic.intra_transfers),
            tasks_executed=int(result.tasks_executed),
            steals=int(result.steals),
            cache_hit_rate=float(result.cache.hit_rate),
            load_imbalance=float(result.load_imbalance()),
            energy_total_pj=float(result.energy.total_pj),
        )
        if result.telemetry is not None:
            rec.telemetry = result.telemetry.digest()
        for name, value in overrides.items():
            setattr(rec, name, value)
        return rec


@dataclass
class CompactionStats:
    """What one :meth:`HistoryLedger.compact` pass did."""

    records: int = 0            #: records in the compacted ledger
    dropped_corrupt: int = 0    #: unparseable lines discarded
    dropped_old: int = 0        #: valid records beyond the byte budget
    merged_generations: int = 0  #: rotated files folded back in
    bytes_before: int = 0
    bytes_after: int = 0
    failed: bool = False

    def summary(self) -> str:
        if self.failed:
            return "compaction failed (ledger unchanged)"
        parts = [f"{self.records} records kept",
                 f"{self.bytes_before} -> {self.bytes_after} bytes"]
        if self.merged_generations:
            parts.append(f"{self.merged_generations} generation(s) merged")
        if self.dropped_corrupt:
            parts.append(f"{self.dropped_corrupt} corrupt line(s) dropped")
        if self.dropped_old:
            parts.append(f"{self.dropped_old} old record(s) aged out")
        return ", ".join(parts)


# ----------------------------------------------------------------------
# the ledger
# ----------------------------------------------------------------------
class HistoryLedger:
    """Append-only JSONL store of :class:`RunRecord` lines."""

    def __init__(self, path: Optional[Path] = None,
                 max_bytes: int = DEFAULT_MAX_BYTES):
        self.path = Path(path) if path is not None \
            else default_history_path()
        self.max_bytes = max_bytes
        self.io_errors = 0
        self.corrupt_lines = 0

    # ------------------------------------------------------------------
    def _active(self) -> bool:
        return history_enabled()

    def lock_path(self) -> Path:
        return self.path.with_name(self.path.name + ".lock")

    def rotated_path(self) -> Path:
        return self.path.with_name(self.path.name + ".1")

    def append(self, record: RunRecord) -> bool:
        """Write one ledger line; returns False when skipped/failed.

        Best-effort by contract: every failure is swallowed and
        counted, and a disabled ledger is a silent no-op.  The
        rotation check and the write happen under the cross-process
        writer lock, so two processes arriving at the 8 MB bound
        together rotate exactly once (the second re-stats the
        freshly-rotated, now-small file and appends to it).
        """
        if not self._active():
            return False
        from repro.sweep.locking import FileLock

        try:
            line = json.dumps(record.to_dict(), sort_keys=True,
                              separators=(",", ":")) + "\n"
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with FileLock(self.lock_path()):
                self._rotate_if_needed(len(line))
                with open(self.path, "a") as fh:
                    fh.write(line)
            return True
        except (OSError, TypeError, ValueError):
            self.io_errors += 1
            return False

    def _rotate_if_needed(self, incoming: int) -> None:
        """Rotate ``path`` to ``path.1`` when the append would overflow.

        Callers must hold the writer lock: the stat-then-replace pair
        is the race the lock exists to close (see the module
        docstring and tests/test_locking.py).
        """
        try:
            size = self.path.stat().st_size
        except OSError:
            return
        if size + incoming <= self.max_bytes:
            return
        try:
            os.replace(self.path, self.rotated_path())
        except OSError:
            self.io_errors += 1

    # ------------------------------------------------------------------
    def records(self) -> List[RunRecord]:
        """Every readable record, oldest first; corrupt lines skipped."""
        out: List[RunRecord] = []
        if not self._active():
            return out
        try:
            text = self.path.read_text()
        except OSError:
            return out
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                if not isinstance(data, dict) or \
                        data.get("schema") != SCHEMA:
                    raise ValueError("not a history record")
                out.append(RunRecord.from_dict(data))
            except (ValueError, TypeError):
                self.corrupt_lines += 1
        return out

    def __len__(self) -> int:
        return len(self.records())

    def get(self, index: int) -> RunRecord:
        """Record by position (python indexing; negatives from the end)."""
        return self.records()[index]

    # ------------------------------------------------------------------
    def compact(self, max_bytes: Optional[int] = None) -> "CompactionStats":
        """Rewrite the ledger: merge the rotated generation, drop
        corrupt lines, keep the newest records that fit ``max_bytes``
        (default: the rotation bound).

        Runs atomically under the writer lock (read both generations,
        write a temp file, ``os.replace``), so concurrent appends
        either land before the compaction snapshot or after the
        rewrite — never inside it.  Raises nothing: a failed
        compaction leaves the ledger exactly as it was.
        """
        from repro.sweep.locking import FileLock, atomic_write_bytes

        stats = CompactionStats()
        budget = max_bytes if max_bytes is not None else self.max_bytes
        with FileLock(self.lock_path()):
            lines: List[str] = []
            for source in (self.rotated_path(), self.path):
                try:
                    text = source.read_text()
                except OSError:
                    continue
                if source != self.path:
                    stats.merged_generations += 1
                stats.bytes_before += len(text.encode("utf-8"))
                for line in text.splitlines():
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        data = json.loads(line)
                        if not isinstance(data, dict) or \
                                data.get("schema") != SCHEMA:
                            raise ValueError("not a history record")
                    except (ValueError, TypeError):
                        stats.dropped_corrupt += 1
                        continue
                    lines.append(line)
            # newest records win the byte budget
            kept: List[str] = []
            size = 0
            for line in reversed(lines):
                size += len(line.encode("utf-8")) + 1
                if size > budget:
                    break
                kept.append(line)
            kept.reverse()
            stats.dropped_old = len(lines) - len(kept)
            blob = "".join(line + "\n" for line in kept).encode("utf-8")
            try:
                atomic_write_bytes(self.path, blob)
            except OSError:
                self.io_errors += 1
                stats.failed = True
                return stats
            try:
                self.rotated_path().unlink()
            except FileNotFoundError:
                pass
            except OSError:
                self.io_errors += 1
            stats.records = len(kept)
            stats.bytes_after = len(blob)
        return stats

    def find_key(self, key_prefix: str) -> Optional[RunRecord]:
        """Newest record whose run key starts with ``key_prefix``."""
        for rec in reversed(self.records()):
            if rec.key and rec.key.startswith(key_prefix):
                return rec
        return None


_DEFAULT_LEDGERS: Dict[Path, HistoryLedger] = {}


def default_ledger() -> HistoryLedger:
    """Process-wide ledger at the current default path (env-aware)."""
    path = default_history_path().absolute()
    ledger = _DEFAULT_LEDGERS.get(path)
    if ledger is None:
        ledger = _DEFAULT_LEDGERS[path] = HistoryLedger(path=path)
    return ledger


# ----------------------------------------------------------------------
# recording hooks (called from simulate / sweep / bench / campaigns)
# ----------------------------------------------------------------------
def record_run(
    result,
    config=None,
    workload=None,
    wall_s: float = 0.0,
    source: str = "simulate",
    key: Optional[str] = None,
    fault_schedule=None,
    ledger: Optional[HistoryLedger] = None,
) -> bool:
    """Append one run to the history ledger — never raises.

    The run key is computed when not supplied (and computable); the
    config fingerprint is a stable hash prefix of the canonical config.
    Everything is wrapped in a broad guard: history is observability,
    and observability must not change or fail the observed run.
    """
    if not history_enabled():
        return False
    try:
        from repro.sweep.keys import UncacheableError, run_key, stable_hash

        record = RunRecord.from_result(
            result, source=source, wall_s=round(float(wall_s), 4), key=key,
        )
        if config is not None:
            record.config_fingerprint = stable_hash(
                config.canonical_dict())[:16]
            record.seed = int(config.seed)
            record.mesh = (f"{config.topology.mesh_rows}x"
                           f"{config.topology.mesh_cols}")
            if key is None and workload is not None:
                try:
                    record.key = run_key(result.design, workload, config,
                                         faults=fault_schedule)
                except UncacheableError:
                    record.key = None
        target = ledger if ledger is not None else default_ledger()
        return target.append(record)
    except Exception:
        return False  # best-effort by contract


def record_bench(payload: Dict[str, Any], path,
                 ledger: Optional[HistoryLedger] = None) -> bool:
    """Append a one-line summary of a ``BENCH_<n>.json`` record."""
    if not history_enabled():
        return False
    try:
        totals = payload.get("totals", {})
        record = RunRecord(
            ts=time.time(),
            source="bench",
            design=",".join(payload.get("designs", [])),
            workload=",".join(payload.get("workloads", [])),
            engine=str(payload.get("engine", "")),
            seed=payload.get("seed"),
            mesh=str(payload.get("mesh", "")),
            git_rev=str(payload.get("git_rev") or git_revision()),
            host=str(payload.get("hostname") or hostname()),
            wall_s=float(totals.get("wall_s", 0.0)),
            tasks_executed=int(totals.get("tasks", 0)),
            extra={"bench_path": str(path),
                   "tasks_per_s": totals.get("tasks_per_s", 0.0)},
        )
        target = ledger if ledger is not None else default_ledger()
        return target.append(record)
    except Exception:
        return False
