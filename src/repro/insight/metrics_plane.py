"""Prometheus text exposition for ``GET /v1/metrics`` (stdlib only).

The experiment server and the warm worker runtime both keep plain-int
counters; this module renders them in the Prometheus text format
(version 0.0.4 — ``# HELP`` / ``# TYPE`` headers, escaped labels) so
any off-the-shelf scraper can watch a long-running ``repro serve``
without new dependencies.

Two layers:

* :class:`MetricFamily` + :func:`render_exposition` — the generic
  renderer (also unit-testable without a server);
* :func:`runtime_metric_families` — the warm-runtime view: the
  per-process workload-memo hit/miss counters (one ``kind`` per
  :class:`~repro.sweep.runtime.MemoStats` field), shared-workload-store
  segment accounting, and LPT-dispatch counts, all read from
  :func:`repro.sweep.runtime.runtime_counters`.  These are
  *server-process* numbers: pool workers keep their own memos, so the
  exported memo counters describe the parent's warm scope (the honest
  scope for a pull endpoint).

Everything here is read-only observability — scraping allocates
nothing in the simulator and cannot perturb run keys or results.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, List, Tuple

#: the content type Prometheus scrapers expect for text exposition.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


@dataclass
class MetricFamily:
    """One exported metric family (name, type, help, samples)."""

    name: str
    kind: str  # "counter" | "gauge"
    help: str
    samples: List[Tuple[Dict[str, str], float]] = field(
        default_factory=list)

    def add(self, value: float, **labels: str) -> "MetricFamily":
        self.samples.append(
            ({k: str(v) for k, v in labels.items()}, float(value)))
        return self


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(text: str) -> str:
    return (text.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_exposition(families: Iterable[MetricFamily]) -> str:
    """Render families as Prometheus text exposition (format 0.0.4)."""
    lines: List[str] = []
    for fam in families:
        lines.append(f"# HELP {fam.name} {_escape_help(fam.help)}")
        lines.append(f"# TYPE {fam.name} {fam.kind}")
        samples = fam.samples or [({}, 0.0)]
        for labels, value in samples:
            if labels:
                body = ",".join(
                    f'{k}="{_escape_label(v)}"'
                    for k, v in sorted(labels.items()))
                lines.append(f"{fam.name}{{{body}}} "
                             f"{_format_value(value)}")
            else:
                lines.append(f"{fam.name} {_format_value(value)}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# warm-runtime counters
# ----------------------------------------------------------------------
def runtime_metric_families() -> List[MetricFamily]:
    """The warm runtime's counters as metric families.

    Reads the passive snapshot :func:`repro.sweep.runtime.
    runtime_counters` — never instantiates memos or pools, so a scrape
    of an idle server reports zeros instead of allocating state.
    """
    from repro.sweep.runtime import MemoStats, runtime_counters

    snap = runtime_counters()
    memo_events = MetricFamily(
        "repro_runtime_memo_events_total", "counter",
        "Warm-scope workload-memo events by kind — MemoStats field "
        "names (this process only; pool workers keep their own memos).")
    for kind in (f.name for f in fields(MemoStats)):
        memo_events.add(snap.get(f"memo_{kind}", 0), kind=kind)
    families = [
        memo_events,
        MetricFamily(
            "repro_runtime_shm_segments", "gauge",
            "Shared-workload-store segments currently alive."
        ).add(snap.get("shm_segments_open", 0)),
        MetricFamily(
            "repro_runtime_shm_segments_created_total", "counter",
            "Shared-workload-store segments created since start."
        ).add(snap.get("shm_segments_created", 0)),
        MetricFamily(
            "repro_runtime_shm_bytes", "gauge",
            "Bytes currently pinned in shared workload segments."
        ).add(snap.get("shm_bytes_open", 0)),
        MetricFamily(
            "repro_runtime_lpt_orders_total", "counter",
            "LPT dispatch orderings computed from the history ledger."
        ).add(snap.get("lpt_orders", 0)),
        MetricFamily(
            "repro_runtime_lpt_predicted_points_total", "counter",
            "Points whose wall time the LPT planner predicted."
        ).add(snap.get("lpt_predicted_points", 0)),
        MetricFamily(
            "repro_runtime_warm_pools_started_total", "counter",
            "Persistent worker pools started by WorkerRuntime."
        ).add(snap.get("warm_pools_started", 0)),
    ]
    return families
