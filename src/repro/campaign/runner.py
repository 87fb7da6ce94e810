"""Campaign execution and the archived campaign report.

Two execution paths, one result shape:

* :func:`run_campaign` — local: every expanded point becomes a
  :class:`~repro.sweep.runner.SweepPoint` and the existing sweep
  engine does what it always does (parent-side cache hits, process
  fan-out, one retry, typed progress events).  Points carry the
  workload name plus factory kwargs, so the runner's parent-side key
  matches :meth:`ExperimentSpec.run_key` exactly without generating
  a dataset; the warm runtime then builds each distinct dataset once.
* :func:`run_campaign_via_server` — remote: the raw campaign document
  goes to ``POST /v1/campaign``, the server expands it worker-side and
  dedupes per point by run key; completion is then long-polled point
  by point, with the same typed events re-emitted locally.

Either way the outcome is a :class:`CampaignReport`: per-point metric
rows keyed by run key (the cross-link into the history ledger and the
result cache), the expansion fingerprint, and the campaign file's own
SHA-256 — enough to answer "what exactly ran, from which spec, and
where are the bytes" from the artifact directory alone.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from repro.campaign.spec import CampaignPoint, CampaignSpec, Expansion


@dataclass
class CampaignOutcome:
    """What happened to one campaign point."""

    point: CampaignPoint
    key: Optional[str] = None
    #: "cache" | "run" | "retry" | "failed"
    source: str = "run"
    result: Any = None  # RunResult | None
    error: str = ""
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.result is not None


@dataclass
class CampaignReport:
    """Everything one campaign execution produced."""

    name: str
    fingerprint: str
    outcomes: List[CampaignOutcome] = field(default_factory=list)
    elapsed_s: float = 0.0
    duplicates_dropped: int = 0
    spec_path: str = ""
    spec_sha256: str = ""
    server: str = ""
    history_path: str = ""
    #: submission-time correlation id (repro.insight.trace) — pure
    #: annotation; absent from the archived report when unset so
    #: pre-trace reports keep their exact byte layout.
    trace_id: str = ""

    @property
    def failures(self) -> List[CampaignOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def results(self) -> Dict[str, Dict[str, Any]]:
        """Successful results as ``{workload: {design: RunResult}}``."""
        grid: Dict[str, Dict[str, Any]] = {}
        for o in self.outcomes:
            if o.ok:
                grid.setdefault(o.result.workload, {})[o.result.design] \
                    = o.result
        return grid

    def summary(self) -> str:
        hit = sum(1 for o in self.outcomes if o.source == "cache")
        ran = sum(1 for o in self.outcomes
                  if o.source in ("run", "retry"))
        return (f"campaign {self.name!r} [{self.fingerprint}]: "
                f"{len(self.outcomes)} points in {self.elapsed_s:.1f}s "
                f"({hit} cached, {ran} simulated, "
                f"{len(self.failures)} failed)")

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        from repro.analysis.export import result_row

        out = {
            "schema": 1,
            "name": self.name,
            "fingerprint": self.fingerprint,
            "spec_path": self.spec_path,
            "spec_sha256": self.spec_sha256,
            "server": self.server,
            "history_path": self.history_path,
            "elapsed_s": self.elapsed_s,
            "duplicates_dropped": self.duplicates_dropped,
            "points": [
                {
                    "label": o.point.label,
                    "key": o.key,
                    "source": o.source,
                    "error": o.error,
                    "elapsed_s": o.elapsed_s,
                    "assignments": o.point.assignments,
                    "spec": o.point.spec.to_dict(),
                    "metrics": result_row(o.result) if o.ok else None,
                }
                for o in self.outcomes
            ],
        }
        if self.trace_id:
            out["trace_id"] = self.trace_id
        return out

    def write(self, out_dir: Any,
              artifacts: Optional[Mapping[str, Any]] = None) -> Path:
        """Archive the report (and optional exports) under ``out_dir``.

        ``artifacts`` is the campaign's ``artifacts`` section:
        ``csv: true`` / ``json: true`` additionally export the metric
        rows of every successful point through
        :mod:`repro.analysis.export`.
        """
        from repro.analysis.export import write_csv, write_json

        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        report_path = out_dir / "report.json"
        report_path.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        artifacts = artifacts or {}
        results = [o.result for o in self.outcomes if o.ok]
        if artifacts.get("csv"):
            write_csv(str(out_dir / "results.csv"), results)
        if artifacts.get("json"):
            write_json(str(out_dir / "results.json"), results)
        return report_path

    @classmethod
    def load(cls, path: Any) -> Dict[str, Any]:
        """The archived report payload (plain dict; results live in
        the cache, addressed by each point's ``key``)."""
        return json.loads(Path(path).read_text(encoding="utf-8"))


def _default_history_path() -> str:
    try:
        from repro.observatory.history import (default_history_path,
                                               history_enabled)

        return str(default_history_path()) if history_enabled() else ""
    except Exception:
        return ""


def _report_skeleton(campaign: CampaignSpec,
                     expansion: Expansion) -> CampaignReport:
    return CampaignReport(
        name=campaign.name,
        fingerprint=expansion.fingerprint,
        duplicates_dropped=expansion.duplicates_dropped,
        spec_path=str(campaign.path or ""),
        spec_sha256=campaign.source_sha256,
        history_path=_default_history_path(),
    )


def stamp_trace(expansion: Expansion, trace_id: str) -> str:
    """Annotate every expanded point with a correlation id.

    Must run *after* :meth:`CampaignSpec.expand`: the expansion
    fingerprint hashes the points' spec dicts, and the trace id is a
    per-submission annotation that must never shift a content
    fingerprint.  Specs that already carry an id keep it.
    """
    for point in expansion.points:
        if not point.spec.trace_id:
            point.spec.trace_id = trace_id
    return trace_id


def _traced_events(events, trace_id: str):
    """Wrap an events callback so every ProgressEvent carries the id."""
    if events is None or not trace_id:
        return events

    def _fan(ev):
        if not ev.trace_id:
            ev.trace_id = trace_id
        events(ev)

    return _fan


# ----------------------------------------------------------------------
# local execution through the sweep engine
# ----------------------------------------------------------------------
def run_campaign(
    campaign: CampaignSpec,
    expansion: Expansion,
    cache: Any = "default",
    jobs: Optional[int] = None,
    events=None,
    runtime: Any = None,
    trace_id: str = "",
) -> CampaignReport:
    """Run an expanded campaign locally via :class:`SweepRunner`.

    ``events`` takes the typed per-point
    :class:`~repro.observatory.progress.ProgressEvent` stream.
    ``runtime`` follows the runner's semantics: ``None`` gives this
    campaign its own warm :class:`~repro.sweep.runtime.WorkerRuntime`,
    and an instance shares one across campaigns (multi-campaign drivers
    pay pool startup once).
    ``trace_id`` (optional) stamps every point and progress event for
    end-to-end correlation — annotation only, keys untouched.
    """
    from repro.sweep.runner import SweepPoint, SweepRunner

    if trace_id:
        stamp_trace(expansion, trace_id)
        events = _traced_events(events, trace_id)
    report = _report_skeleton(campaign, expansion)
    report.trace_id = trace_id
    sweep_points = []
    for point in expansion.points:
        spec = point.spec
        sweep_points.append(SweepPoint(
            design=spec.design,
            workload=spec.workload,
            workload_kwargs=dict(spec.workload_kwargs),
            config=spec.resolved_config(),
            label=point.label,
            fault_schedule=spec.fault_schedule(),
        ))
    runner = SweepRunner(cache=cache, jobs=jobs, events=events,
                         runtime=runtime)
    sweep = runner.run(sweep_points)
    report.elapsed_s = sweep.elapsed_s
    for point, outcome in zip(expansion.points, sweep.outcomes):
        report.outcomes.append(CampaignOutcome(
            point=point, key=outcome.key, source=outcome.source,
            result=outcome.result, error=outcome.error or "",
            elapsed_s=outcome.elapsed_s))
    return report


# ----------------------------------------------------------------------
# remote execution through the experiment server
# ----------------------------------------------------------------------
def run_campaign_via_server(
    client: Any,
    campaign: CampaignSpec,
    sets: Optional[Mapping[str, Any]] = None,
    events=None,
    trace_id: str = "",
) -> CampaignReport:
    """Run a campaign through ``POST /v1/campaign``.

    The *document* travels, not the expansion: the server expands the
    same bytes worker-side (so client and server agree on the
    fingerprint) and answers with one ``{label, key, status}`` row per
    deduped point.  Points the server reports as already terminal are
    collected immediately; the rest are long-polled via ``/v1/submit``.
    Every grid command's ``--server`` mode runs through here.
    """
    from repro.observatory.progress import ProgressEvent
    from repro.service.client import ServiceError

    def emit(**kwargs):
        if events is not None:
            try:
                events(ProgressEvent(trace_id=trace_id, **kwargs))
            except Exception:
                pass  # observability never fails the run

    t0 = time.time()
    answer = client.campaign(campaign.to_dict(), sets=sets)
    expansion = campaign.expand(sets=sets)
    report = _report_skeleton(campaign, expansion)
    report.server = client.base_url
    report.trace_id = trace_id
    if trace_id:
        # Stamp after expand(): the fingerprint (already computed, and
        # already checked against the server's) must stay content-only.
        stamp_trace(expansion, trace_id)
    rows = answer.get("points", [])
    if answer.get("fingerprint") not in ("", None, report.fingerprint):
        raise ServiceError(
            f"server expanded a different campaign: fingerprint "
            f"{answer.get('fingerprint')} != {report.fingerprint}")
    if len(rows) != len(expansion.points):
        raise ServiceError(
            f"server expanded {len(rows)} points, client expected "
            f"{len(expansion.points)}")

    total = len(rows)
    emit(event="begin", total=total, jobs=int(answer.get("pool") or 1))
    done = 0
    for index, (point, row) in enumerate(zip(expansion.points, rows)):
        status = row.get("status")
        key = row.get("key")
        if status not in ("cached", "done", "failed"):
            emit(event="started", label=point.label, index=index,
                 total=total)
            final = client.submit(point.spec.to_dict(), wait=True)
            status = final.get("status")
            row = dict(row, **final)
        done += 1
        outcome = CampaignOutcome(
            point=point, key=key,
            source="cache" if status == "cached" else
                   ("run" if status == "done" else "failed"),
            error=str(row.get("error") or ""),
            elapsed_s=float(row.get("elapsed_s") or 0.0))
        if status in ("cached", "done"):
            try:
                outcome.result = client.result(key)
            except (ServiceError, ValueError, KeyError) as exc:
                outcome.source = "failed"
                outcome.error = f"result fetch failed: {exc}"
        if outcome.source == "cache":
            emit(event="cached", label=point.label, index=index,
                 done=done, total=total, source="cache")
        elif outcome.source == "run":
            emit(event="done", label=point.label, index=index,
                 done=done, total=total, source="run",
                 elapsed_s=outcome.elapsed_s)
        else:
            emit(event="failed", label=point.label, done=done,
                 total=total, source="failed", error=outcome.error)
        report.outcomes.append(outcome)
    report.elapsed_s = time.time() - t0
    emit(event="end", done=done, total=total,
         elapsed_s=report.elapsed_s)
    return report
