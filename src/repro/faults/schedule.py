"""Declarative fault schedules and the resilience counters.

A :class:`FaultSchedule` names *what* goes wrong and *when*, separately
from the machinery that makes it happen (:mod:`repro.faults.controller`).
Schedules are plain frozen dataclasses so they

* serialize to/from JSON (campaign files, the ``repro faults`` CLI);
* participate in the sweep engine's content-addressed run keys via the
  generic ``extra`` payload — two runs with the same design, workload,
  config, *and schedule* share a cache entry, while fault-free runs
  keep byte-identical keys to a build without this subsystem;
* are reproducible: probabilistic triggers draw from a dedicated
  deterministic stream derived from the run seed, never from global
  state.

Fault taxonomy (Section "co-optimizing data access and load balance"
stress points):

``UNIT_FAIL``
    An NDP unit stops executing tasks.  Its queue is re-placed by the
    scheduler, its Traveller-cache lines are dropped, camps remap, and
    accesses homed in its vault become unreachable.  ``duration_phases``
    turns a permanent failure into a transient one.
``LINK_FAIL``
    One mesh link (an adjacent stack pair) goes down; the NoC reroutes
    minimally over the surviving links and the scheduling costs
    (``Interconnect.unit_costs``) follow.
``LINK_DEGRADE``
    The link survives but each traversal costs ``factor``x the healthy
    per-hop latency (routing may detour around it when profitable).
``VAULT_SLOW``
    A unit's DRAM channel serves each access at ``factor``x latency —
    the classic tail-latency vault without data loss.
"""

from __future__ import annotations

import enum
import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

#: child-seed word for the fault RNG stream: keeps fault draws
#: independent from the system RNG (traveller insertion) so adding a
#: schedule never perturbs healthy stochastic behavior.
FAULT_STREAM = 0xFA17


class FaultKind(enum.Enum):
    UNIT_FAIL = "unit_fail"
    LINK_FAIL = "link_fail"
    LINK_DEGRADE = "link_degrade"
    VAULT_SLOW = "vault_slow"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Exactly one trigger must be set: ``at_timestamp`` fires at that
    bulk-synchronous phase boundary; ``probability`` is drawn once per
    phase (in schedule order) until the event fires.  ``duration_phases
    = None`` makes the fault permanent; otherwise it recovers that many
    phases after firing.
    """

    kind: FaultKind
    unit: Optional[int] = None                 # UNIT_FAIL / VAULT_SLOW
    link: Optional[Tuple[int, int]] = None     # LINK_FAIL / LINK_DEGRADE
    at_timestamp: Optional[int] = None
    probability: float = 0.0
    duration_phases: Optional[int] = None
    factor: float = 1.0                        # degradation multiplier

    def validate(self) -> None:
        if (self.at_timestamp is None) == (self.probability <= 0.0):
            raise ValueError(
                "exactly one trigger required: at_timestamp or a "
                "positive probability"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability {self.probability} not in [0, 1]")
        if self.duration_phases is not None and self.duration_phases < 1:
            raise ValueError("duration_phases must be >= 1 (or None)")
        if self.kind in (FaultKind.UNIT_FAIL, FaultKind.VAULT_SLOW):
            if self.unit is None:
                raise ValueError(f"{self.kind.value} needs a unit id")
        else:
            if self.link is None or len(self.link) != 2:
                raise ValueError(
                    f"{self.kind.value} needs a (stack, stack) link"
                )
        if self.kind is FaultKind.VAULT_SLOW and self.factor <= 1.0:
            raise ValueError("VAULT_SLOW needs factor > 1")
        if self.kind is FaultKind.LINK_DEGRADE and self.factor <= 1.0:
            raise ValueError("LINK_DEGRADE needs factor > 1")

    def to_dict(self) -> Dict[str, Any]:
        d = asdict(self)
        d["kind"] = self.kind.value
        if self.link is not None:
            d["link"] = list(self.link)
        return {k: v for k, v in d.items() if v is not None}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultEvent":
        link = data.get("link")
        ev = cls(
            kind=FaultKind(data["kind"]),
            unit=data.get("unit"),
            link=tuple(int(x) for x in link) if link is not None else None,
            at_timestamp=data.get("at_timestamp"),
            probability=float(data.get("probability", 0.0)),
            duration_phases=data.get("duration_phases"),
            factor=float(data.get("factor", 1.0)),
        )
        ev.validate()
        return ev


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered, immutable collection of fault events."""

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))

    def validate(self) -> None:
        for ev in self.events:
            ev.validate()

    def __bool__(self) -> bool:
        return bool(self.events)

    def __len__(self) -> int:
        return len(self.events)

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {"events": [ev.to_dict() for ev in self.events]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSchedule":
        return cls(events=tuple(
            FaultEvent.from_dict(e) for e in data.get("events", [])
        ))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "FaultSchedule":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    # -- convenience constructors --------------------------------------
    @classmethod
    def unit_failures(cls, units: Iterable[int], at_timestamp: int = 1,
                      duration_phases: Optional[int] = None,
                      ) -> "FaultSchedule":
        return cls(events=tuple(
            FaultEvent(FaultKind.UNIT_FAIL, unit=int(u),
                       at_timestamp=at_timestamp,
                       duration_phases=duration_phases)
            for u in units
        ))


@dataclass
class ResilienceStats:
    """What the machine endured and how it recovered (RunResult field)."""

    unit_failures: int = 0
    unit_recoveries: int = 0
    link_failures: int = 0
    link_degradations: int = 0
    link_recoveries: int = 0
    vault_slowdowns: int = 0
    vault_recoveries: int = 0
    #: queued tasks re-placed off dead units — zero lost tasks means
    #: tasks_executed matches the healthy run despite this being > 0.
    tasks_reexecuted: int = 0
    #: detection + re-placement cycles charged to the run clock.
    recovery_cycles: float = 0.0
    #: accesses whose home vault was dead or partitioned away.
    unreachable_accesses: int = 0
    #: camp-mapping rebuilds triggered by liveness changes.
    camp_remap_events: int = 0
    #: Traveller-cache lines dropped with their failed unit.
    camp_lines_invalidated: int = 0
    #: makespan ratio vs the same config with no faults (filled by
    #: ``repro faults`` from its healthy point; 0 everywhere else).
    slowdown_vs_healthy: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ResilienceStats":
        names = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in names})


def make_random_schedule(
    num_units: int,
    mesh_links: Sequence[Tuple[int, int]],
    unit_fails: int = 0,
    link_fails: int = 0,
    vault_slowdowns: int = 0,
    seed: int = 2023,
    first_timestamp: int = 1,
    timestamp_spread: int = 3,
    vault_factor: float = 4.0,
    duration_phases: Optional[int] = None,
) -> FaultSchedule:
    """Draw a reproducible random campaign from a seed.

    Victims and trigger timestamps come from a ``default_rng`` seeded
    with ``[seed, FAULT_STREAM]`` — the same seed always produces the
    same schedule, independent of any other RNG use in the run.
    """
    rng = np.random.default_rng([int(seed), FAULT_STREAM])
    events = []
    spread = max(1, timestamp_spread)

    def draw_ts() -> int:
        return first_timestamp + int(rng.integers(0, spread))

    if unit_fails:
        if unit_fails >= num_units:
            raise ValueError("cannot fail every unit")
        victims = rng.choice(num_units, size=unit_fails, replace=False)
        for u in sorted(int(v) for v in victims):
            events.append(FaultEvent(
                FaultKind.UNIT_FAIL, unit=u, at_timestamp=draw_ts(),
                duration_phases=duration_phases,
            ))
    if link_fails:
        if link_fails > len(mesh_links):
            raise ValueError("more link failures than mesh links")
        picks = rng.choice(len(mesh_links), size=link_fails, replace=False)
        for i in sorted(int(p) for p in picks):
            events.append(FaultEvent(
                FaultKind.LINK_FAIL, link=tuple(mesh_links[i]),
                at_timestamp=draw_ts(), duration_phases=duration_phases,
            ))
    if vault_slowdowns:
        victims = rng.choice(num_units, size=vault_slowdowns, replace=False)
        for u in sorted(int(v) for v in victims):
            events.append(FaultEvent(
                FaultKind.VAULT_SLOW, unit=u, at_timestamp=draw_ts(),
                factor=vault_factor, duration_phases=duration_phases,
            ))
    schedule = FaultSchedule(events=tuple(events))
    schedule.validate()
    return schedule
