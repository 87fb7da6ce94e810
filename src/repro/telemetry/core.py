"""The :class:`Telemetry` facade and its disabled null sink.

One ``Telemetry`` object travels with one simulated machine.  It owns

* a :class:`~repro.telemetry.registry.MetricRegistry` (counters /
  gauges / histograms, mostly *pull* metrics bound to the simulator's
  ground-truth stat structs),
* a :class:`~repro.telemetry.sampler.Sampler` (per-timestamp time
  series: queue depths, traveller hit rate, NoC traffic, W-skew),
* a :class:`~repro.telemetry.timeline.Timeline` (phase and task
  spans, scheduler decisions, counter tracks) exportable as Chrome
  ``trace_event`` JSON.

Null-sink fast path
-------------------
``Telemetry.disabled()`` returns a shared :data:`NULL_TELEMETRY`
singleton whose ``enabled`` flag is False.  Every instrumented hot
path guards on that single attribute (``if tel.enabled: ...``), so a
disabled machine pays one branch per *phase* and one local bool test
per task — not per access — and the sampler/timeline never see a
callback.  The null object still exposes the full API (its hook
methods are no-ops), so call sites never need ``None`` checks.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence

import numpy as np

from repro.telemetry.registry import MetricRegistry
from repro.telemetry.sampler import Sampler
from repro.telemetry.timeline import DEFAULT_CAPACITY, Timeline

#: above this many units, per-unit counter tracks collapse to
#: min/mean/max aggregates (the full vectors stay in the sampler).
_PER_UNIT_TRACK_LIMIT = 32

#: telemetry-summary schema version.  Version 1 summaries (written
#: before the version field existed) carry no ``version`` key and are
#: read back as 1; bump this when the summary layout changes so the
#: diff engine can warn on cross-version comparisons instead of
#: silently comparing incompatible sidecars.
SUMMARY_VERSION = 2


@dataclass
class TelemetrySummary:
    """The JSON-able digest of one run's telemetry.

    This is what rides on :attr:`RunResult.telemetry
    <repro.analysis.metrics.RunResult.telemetry>` and what the sweep
    cache stores in the ``<key>.telemetry.json`` sidecar — pure data,
    picklable, no references back into the machine.
    """

    counters: Dict[str, float] = field(default_factory=dict)
    series: Dict[str, Dict[str, list]] = field(default_factory=dict)
    events: int = 0
    dropped_events: int = 0
    samples: int = 0
    link_matrix: Optional[list] = None
    meta: Dict[str, Any] = field(default_factory=dict)
    #: schema version of this summary; pre-versioning sidecars (no
    #: ``version`` key on disk) deserialize as 1.
    version: int = SUMMARY_VERSION

    def to_dict(self) -> Dict[str, Any]:
        return {
            "counters": dict(self.counters),
            "series": {k: dict(v) for k, v in self.series.items()},
            "events": self.events,
            "dropped_events": self.dropped_events,
            "samples": self.samples,
            "link_matrix": self.link_matrix,
            "meta": dict(self.meta),
            "version": self.version,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TelemetrySummary":
        return cls(
            counters=dict(data.get("counters", {})),
            series=dict(data.get("series", {})),
            events=int(data.get("events", 0)),
            dropped_events=int(data.get("dropped_events", 0)),
            samples=int(data.get("samples", 0)),
            link_matrix=data.get("link_matrix"),
            meta=dict(data.get("meta", {})),
            version=int(data.get("version", 1)),
        )

    def digest(self, max_counters: int = 32) -> Dict[str, Any]:
        """A compact identity + headline digest for cross-run records.

        The run-history ledger (:mod:`repro.observatory.history`)
        stores this instead of the full summary so ledger lines stay
        small enough for atomic concurrent appends.  ``sha`` is a
        content hash of the *whole* summary — two digests with equal
        hashes describe identical telemetry; the ``counters`` subset
        keeps system-level headline values (per-unit detail dropped).
        """
        blob = json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))
        per_unit = re.compile(r"(^|\.)u\d+(\.|$)")
        head: Dict[str, float] = {}
        for name in sorted(self.counters):
            if per_unit.search(name):
                continue
            head[name] = self.counters[name]
            if len(head) >= max_counters:
                break
        return {
            "sha": hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16],
            "counters": head,
            "events": self.events,
            "samples": self.samples,
            "version": self.version,
        }


class Telemetry:
    """Unified observability for one simulated machine run."""

    enabled: bool = True

    def __init__(
        self,
        sample_interval: int = 1,
        timeline_capacity: Optional[int] = DEFAULT_CAPACITY,
        max_decision_events: int = 20_000,
    ):
        self.registry = MetricRegistry()
        self.sampler = Sampler(interval=sample_interval)
        self.timeline = Timeline(capacity=timeline_capacity)
        self.max_decision_events = max_decision_events
        #: simulated-clock position, maintained by the executor so
        #: low-frequency probes (scheduler decisions) can stamp events
        #: without threading a clock argument everywhere.
        self.now_ns = 0.0
        self._freq_ghz = 1.0
        self._phase_start_ns: Dict[int, float] = {}
        self._decision_events = 0
        #: producer of the per-link traffic heatmap, bound by the
        #: interconnect when metering is on (see LinkMeter).
        self.link_meter = None

    # ------------------------------------------------------------------
    @staticmethod
    def disabled() -> "NullTelemetry":
        """The shared null sink (see module docstring)."""
        return NULL_TELEMETRY

    def bind(self, frequency_ghz: float, **meta: Any) -> None:
        """Attach clock conversion and trace metadata (design, workload)."""
        self._freq_ghz = float(frequency_ghz)
        self.timeline.metadata.update(meta)
        self.timeline.name_process(0, "ndp-system")

    def cycles_to_ns(self, cycles: float) -> float:
        return cycles / self._freq_ghz

    # ------------------------------------------------------------------
    # executor-facing hooks
    # ------------------------------------------------------------------
    def phase_begin(self, timestamp: int, clock_cycles: float,
                    queue_depths: Sequence[float]) -> None:
        """A bulk-synchronous phase is about to execute.

        ``queue_depths`` is the per-unit count of tasks assigned to
        this phase (post stealing/re-forwarding) — the queue-occupancy
        signal of the paper's load-balance argument.
        """
        now = self.cycles_to_ns(clock_cycles)
        self.now_ns = now
        self._phase_start_ns[timestamp] = now
        depths = np.asarray(queue_depths, dtype=np.float64)
        if self.sampler.due(timestamp):
            self.sampler.record_vector("queue.depth", timestamp, now, depths)
            if depths.size:
                if depths.size <= _PER_UNIT_TRACK_LIMIT:
                    values = {f"u{i}": float(d) for i, d in enumerate(depths)}
                else:
                    values = {
                        "max": float(depths.max()),
                        "mean": float(depths.mean()),
                        "min": float(depths.min()),
                    }
                self.timeline.counter("queue.depth", now, values)

    def phase_end(self, timestamp: int, clock_cycles: float,
                  tasks: int, steals: int) -> None:
        """The phase's barrier completed at ``clock_cycles``."""
        end = self.cycles_to_ns(clock_cycles)
        start = self._phase_start_ns.pop(timestamp, self.now_ns)
        self.now_ns = end
        self.timeline.complete(
            f"timestamp {timestamp}", start, max(0.0, end - start),
            tasks=tasks, steals=steals,
        )
        self.registry.counter("run.phases").inc()
        self.registry.counter("run.tasks_executed").add(tasks)
        self.registry.counter("run.steals").add(steals)
        self.sample(timestamp, end)

    def task_span(self, task_id: int, timestamp: int, unit: int,
                  spawner: int, start_cycles: float,
                  duration_cycles: float, stall_ns: float,
                  hint_lines: int, stolen: bool) -> None:
        """One executed task: a ``task <id>`` span on its unit's track.

        ``start_cycles`` is absolute run time, so the span nests inside
        its phase's ``timestamp N`` span.  The args carry the placement
        facts (spawner, stolen) that Figure 4's argument is about.
        """
        self.timeline.complete(
            f"task {task_id}", self.cycles_to_ns(start_cycles),
            self.cycles_to_ns(duration_cycles), tid=unit,
            timestamp=timestamp, spawner=spawner, stolen=stolen,
            stall_ns=stall_ns, hint_lines=hint_lines,
        )

    def sample(self, timestamp: int, now_ns: Optional[float] = None,
               force: bool = False) -> None:
        """Take a sampler row and mirror key series as counter tracks."""
        now = self.now_ns if now_ns is None else now_ns
        if not self.sampler.sample(timestamp, now, force=force):
            return
        # Mirror the freshest row of each scalar probe series onto the
        # timeline so Perfetto shows them as counter tracks.
        for name, series in self.sampler.scalar_series.items():
            if series.timestamps and series.timestamps[-1] == timestamp:
                self.timeline.counter(name, now, {"value": series.values[-1]})

    def run_end(self, clock_cycles: float, timestamp: int = 0) -> None:
        """Flush a final sample so totals appear even with interval > 1."""
        self.now_ns = self.cycles_to_ns(clock_cycles)
        self.sample(timestamp, self.now_ns, force=True)

    # ------------------------------------------------------------------
    # scheduler-facing hook
    # ------------------------------------------------------------------
    def decision(self, policy: str, task_id: int, spawner: int, chosen: int,
                 cost_mem: float = 0.0, cost_load: float = 0.0,
                 score: float = 0.0, weight: float = 0.0) -> None:
        """One task-placement decision (Equation 1 terms)."""
        reg = self.registry
        reg.counter("scheduler.decisions").inc()
        if chosen != spawner:
            reg.counter("scheduler.migrations").inc()
        reg.histogram("scheduler.cost_mem").observe(cost_mem)
        if self._decision_events >= self.max_decision_events:
            return
        self._decision_events += 1
        self.timeline.instant(
            "scheduler.decide", self.now_ns, tid=int(chosen),
            policy=policy, task=int(task_id), spawner=int(spawner),
            unit=int(chosen), cost_mem=round(float(cost_mem), 3),
            cost_load=round(float(cost_load), 4),
            score=round(float(score), 3), weight=round(float(weight), 3),
        )

    # ------------------------------------------------------------------
    # digest
    # ------------------------------------------------------------------
    def summary(self) -> TelemetrySummary:
        link = None
        if self.link_meter is not None:
            link = self.link_meter.unit_matrix.tolist()
        return TelemetrySummary(
            counters=self.registry.collect(),
            series=self.sampler.to_dict(),
            events=len(self.timeline),
            dropped_events=self.timeline.dropped,
            samples=self.sampler.samples_taken,
            link_matrix=link,
            meta=dict(self.timeline.metadata),
        )


class NullTelemetry(Telemetry):
    """The disabled sink: full API surface, no recording.

    ``enabled`` is False, so instrumented code skips its work; the
    hook methods are overridden to hard no-ops anyway, making the
    object safe even for call sites that forget the guard.  The
    embedded sampler/timeline stay permanently empty — the overhead
    test asserts ``sampler.callbacks_invoked == 0`` after a run.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(timeline_capacity=0)

    def bind(self, frequency_ghz: float, **meta: Any) -> None:
        pass

    def phase_begin(self, timestamp, clock_cycles, queue_depths) -> None:
        pass

    def phase_end(self, timestamp, clock_cycles, tasks, steals) -> None:
        pass

    def task_span(self, *args: Any) -> None:
        pass

    def sample(self, timestamp, now_ns=None, force=False) -> None:
        pass

    def run_end(self, clock_cycles, timestamp=0) -> None:
        pass

    def decision(self, *args: Any, **kwargs: Any) -> None:
        pass

    def summary(self) -> TelemetrySummary:
        return TelemetrySummary(meta={"enabled": False})


#: the shared null sink — every machine without explicit telemetry
#: uses this object, so the "is telemetry on?" check is one attribute
#: read on a long-lived singleton.
NULL_TELEMETRY = NullTelemetry()


def resolve_telemetry(telemetry: Optional[Telemetry]) -> Telemetry:
    """Normalize an optional telemetry argument to a usable object."""
    if telemetry is None:
        return NULL_TELEMETRY
    return telemetry
