"""Experiment specs: the JSON request format of the sweep service.

One spec fully describes one simulation point, the same cell a
:class:`~repro.sweep.runner.SweepPoint` names programmatically::

    {
      "design": "O",
      "workload": "pr",
      "workload_kwargs": {},              // optional factory kwargs
      "mesh": "4x4",                      // optional, scales topology
      "seed": 2023,                       // optional
      "config": {                         // optional section overrides
        "scheduler": {"hybrid_alpha": 2.0},
        "cache": {"num_camps": 7}
      },
      "faults": { ... FaultSchedule.to_dict() ... }   // optional
    }

Resolution is *key-preserving by construction*: the spec starts from
:func:`repro.config.experiment_config` and applies exactly the
transformations the CLI applies (``scaled`` for the mesh, section
``dataclasses.replace`` for overrides), so a spec submitted to the
server produces byte-for-byte the same run key — and therefore hits
the same cache entries — as the equivalent local ``repro run`` /
``repro sweep`` invocation.  Enum-typed fields accept their value
strings (``"style": "traveller"``); unknown sections, fields, designs
and workloads raise :class:`SpecError` with an actionable message
(answered as HTTP 400, never a server crash).

Since the campaign subsystem landed, all of the parsing and
resolution logic lives in :mod:`repro.campaign.resolver`; a spec is a
thin wrapper over it — a single experiment is a single-point
campaign.  The names re-exported here (``SpecError``,
``CONFIG_SECTIONS``) are the same objects the resolver defines, so
``isinstance`` checks and imports written against either module agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.campaign.resolver import (  # noqa: F401 (re-exports)
    CONFIG_SECTIONS,
    POINT_KEYS,
    SpecError,
    apply_sections as _apply_sections,
    coerce_field as _coerce_field,
    parse_mesh as _parse_mesh,
    resolve_system_config,
    validate_point,
)
from repro.config import SystemConfig
from repro.sweep.keys import UncacheableError, run_key

#: spec keys the parser understands; anything else is a typo worth 400.
_KNOWN_KEYS = set(POINT_KEYS)


@dataclass
class ExperimentSpec:
    """One validated, resolvable experiment request."""

    design: str
    workload: str
    workload_kwargs: Dict[str, Any] = field(default_factory=dict)
    mesh: Optional[str] = None
    seed: Optional[int] = None
    config: Dict[str, Any] = field(default_factory=dict)
    faults: Optional[Dict[str, Any]] = None
    label: str = ""
    #: end-to-end correlation id (repro.insight.trace).  Annotation
    #: only: serialized when set, but never part of :meth:`run_key` —
    #: two specs differing only in trace_id share one cache entry.
    trace_id: str = ""

    def __post_init__(self) -> None:
        if not self.label:
            self.label = f"{self.design}/{self.workload}"

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Any) -> "ExperimentSpec":
        """Parse and validate one spec payload (raises SpecError)."""
        return cls(**validate_point(data))

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"design": self.design,
                               "workload": self.workload}
        if self.workload_kwargs:
            out["workload_kwargs"] = self.workload_kwargs
        if self.mesh:
            out["mesh"] = self.mesh
        if self.seed is not None:
            out["seed"] = self.seed
        if self.config:
            out["config"] = self.config
        if self.faults is not None:
            out["faults"] = self.faults
        if self.label != f"{self.design}/{self.workload}":
            out["label"] = self.label
        if self.trace_id:
            out["trace_id"] = self.trace_id
        return out

    # ------------------------------------------------------------------
    def resolved_config(self) -> SystemConfig:
        """The full :class:`SystemConfig` this spec describes."""
        return resolve_system_config(mesh=self.mesh, config=self.config,
                                     seed=self.seed)

    def fault_schedule(self):
        """The :class:`~repro.faults.FaultSchedule`, or ``None``."""
        if self.faults is None:
            return None
        from repro.faults.schedule import FaultSchedule

        try:
            return FaultSchedule.from_dict(self.faults)
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"invalid fault schedule: {exc}")

    def run_key(self) -> str:
        """The content-addressed key of this spec — byte-identical to
        the key the local sweep engine computes for the same point.
        Keyed from the factory spec: no dataset is generated."""
        try:
            return run_key(self.design, self.workload,
                           self.resolved_config(),
                           faults=self.fault_schedule(),
                           workload_kwargs=self.workload_kwargs)
        except UncacheableError as exc:
            raise SpecError(f"spec is uncacheable: {exc}")
