"""End-to-end trace correlation: ``trace_id`` minting + trace merging.

A ``trace_id`` is minted once, at submission time (every grid
command: ``repro campaign run``, ``sweep``, ``compare``, ``faults``,
local or ``--server``), and rides along every hand-off as *pure
annotation*:

``ExperimentSpec.trace_id`` -> server ``Job`` -> worker
``ProgressEvent.trace_id`` -> per-run timeline instants.

It never enters a run key, a cached result entry, or a campaign
expansion fingerprint — correlation is observability, and
observability is non-semantic by repo contract.

The merger turns the per-point record of a campaign report (plus any
on-disk per-worker Chrome traces) into one correlated Chrome
``trace_event`` JSON: one process track per design, one thread lane
per worker assignment, one complete span per point, every span
carrying its run key and the shared ``trace_id`` — a 48-point campaign
as a single flamegraph-style view.  Synthetic span placement uses only
data recorded in the report (per-point ``elapsed_s``, point order), so
the merged trace is as deterministic as its inputs.
"""

from __future__ import annotations

import json
import uuid
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence


def mint_trace_id() -> str:
    """A fresh 16-hex-digit correlation id."""
    return uuid.uuid4().hex[:16]


# ----------------------------------------------------------------------
# campaign report -> one correlated timeline
# ----------------------------------------------------------------------
def campaign_trace_events(report: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """Chrome ``traceEvents`` for one campaign report payload.

    Lanes: pid = design (stable sort order), tid = the point's worker
    assignment when the report recorded one, else a per-design lane
    packed first-fit by elapsed time.  Timestamps are synthetic
    (cumulative per lane, microseconds) — the *shape* of the schedule,
    not wall-clock truth, which the report deliberately does not store.
    """
    points = [p for p in report.get("points", [])
              if isinstance(p, dict)]
    trace_id = str(report.get("trace_id") or "")
    designs = sorted({str((p.get("spec") or {}).get("design")
                          or str(p.get("label", "?")).split("/")[0])
                      for p in points})
    pid_of = {design: i + 1 for i, design in enumerate(designs)}

    events: List[Dict[str, Any]] = []
    for pid, design in zip(pid_of.values(), designs):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": f"design {design}"}})

    lane_clock: Dict[tuple, float] = {}
    for index, point in enumerate(points):
        spec = point.get("spec") or {}
        design = str(spec.get("design")
                     or str(point.get("label", "?")).split("/")[0])
        pid = pid_of.get(design, 0)
        assignment = point.get("assignments")
        if isinstance(assignment, list) and assignment:
            assignment = assignment[0]
        try:
            tid = int(assignment)
        except (TypeError, ValueError):
            tid = index % 4
        dur_us = max(1.0, float(point.get("elapsed_s") or 0.0) * 1e6)
        lane = (pid, tid)
        ts = lane_clock.get(lane, 0.0)
        lane_clock[lane] = ts + dur_us
        args: Dict[str, Any] = {
            "key": point.get("key"),
            "source": point.get("source"),
        }
        tid_trace = str(spec.get("trace_id") or trace_id)
        if tid_trace:
            args["trace_id"] = tid_trace
        if point.get("error"):
            args["error"] = str(point["error"]).strip().splitlines()[-1]
        events.append({
            "name": str(point.get("label") or f"point {index}"),
            "ph": "X", "ts": round(ts, 3), "dur": round(dur_us, 3),
            "pid": pid, "tid": tid, "args": args,
        })
    return events


def merge_chrome_traces(
    base_events: Sequence[Mapping[str, Any]],
    extra_traces: Sequence[Mapping[str, Any]] = (),
    metadata: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Merge trace fragments into one Chrome ``trace_event`` payload.

    ``extra_traces`` are whole Chrome trace dicts (e.g. per-run
    ``repro trace`` outputs); each gets its events re-homed onto a
    fresh pid block so process tracks never collide with the base
    campaign lanes or each other.
    """
    events: List[Dict[str, Any]] = [dict(ev) for ev in base_events]
    next_pid = 1 + max(
        [int(ev.get("pid", 0)) for ev in events], default=0)
    for trace in extra_traces:
        sub = trace.get("traceEvents")
        if not isinstance(sub, list):
            continue
        pid_map: Dict[int, int] = {}
        for ev in sub:
            if not isinstance(ev, dict):
                continue
            moved = dict(ev)
            old_pid = int(moved.get("pid", 0))
            if old_pid not in pid_map:
                pid_map[old_pid] = next_pid
                next_pid += 1
            moved["pid"] = pid_map[old_pid]
            events.append(moved)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": dict(metadata or {}),
    }


def write_campaign_trace(
    report: Mapping[str, Any], out_path: Any,
    extra_trace_paths: Sequence[Any] = (),
) -> Path:
    """Render one correlated campaign trace to ``out_path``.

    ``extra_trace_paths`` name per-run Chrome traces (``repro trace``
    outputs) to fold in; unreadable fragments are skipped — merging is
    observability and must not fail on a half-written file.
    """
    extras: List[Dict[str, Any]] = []
    for path in extra_trace_paths:
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        if isinstance(payload, dict):
            extras.append(payload)
    metadata = {
        "campaign": report.get("name"),
        "fingerprint": report.get("fingerprint"),
        "trace_id": report.get("trace_id") or "",
    }
    payload = merge_chrome_traces(
        campaign_trace_events(report), extras, metadata=metadata)
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, sort_keys=True) + "\n",
                   encoding="utf-8")
    return out
