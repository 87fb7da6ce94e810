"""Task-based runtime: the Swarm-like programming/execution model.

Implements Section 3.1 of the paper — tasks with timestamps and hints,
bulk-synchronous execution over per-unit task lists, and the periodic
workload-information exchange.
"""

from repro.runtime.task import Task, TaskHint, TaskContext
from repro.runtime.workload_exchange import WorkloadExchange

__all__ = [
    "Task",
    "TaskHint",
    "TaskContext",
    "WorkloadExchange",
]
