"""Fault-injection & resilience subsystem.

Declarative, seeded fault schedules (:class:`FaultSchedule`) applied to
a running machine at bulk-synchronous phase boundaries by the
:class:`FaultController`, with recovery machinery threaded through the
schedulers, the Traveller camps, the NoC, and the executor — see
``docs/resilience.md``.
"""

from repro.faults.controller import FaultController
from repro.faults.schedule import (
    FAULT_STREAM,
    FaultEvent,
    FaultKind,
    FaultSchedule,
    ResilienceStats,
    make_random_schedule,
)

__all__ = [
    "FAULT_STREAM",
    "FaultController",
    "FaultEvent",
    "FaultKind",
    "FaultSchedule",
    "ResilienceStats",
    "make_random_schedule",
]
