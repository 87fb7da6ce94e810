"""Workload protocol: how an application plugs into the simulator.

A workload owns a (seeded, deterministic) dataset and knows how to

1. allocate its *primary data* into the machine's home memory regions
   (``setup`` — returns the run's mutable state),
2. produce the root tasks of timestamp 0 (``root_tasks``); further
   tasks are spawned by task bodies via ``ctx.enqueue_task``,
3. apply bulk updates at each timestamp barrier (``on_barrier``), and
4. check its final answer against an independent reference
   (``verify`` — raises on mismatch).

Task *hints* list the physical addresses of every primary-data element
the task touches, exactly as the paper's programmers supply them from
the application's own index structures.  The scheduler and the access
kernel memoize what they derive from a hint on the hint object, so a
workload that runs an element more than once builds one hint per
element and reuses it (:class:`ElementHints`): the first-touch work is
then done once per element per run, not once per task.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.runtime.task import Task, TaskHint


class Workload(abc.ABC):
    """Base class for the eight ported applications."""

    #: short name used in figures ("pr", "bfs", ...)
    name: str = "workload"

    #: How primary-data elements are distributed across the units'
    #: home memories.  ``"blocked"`` (contiguous ranges, the partition
    #: used by Tesseract-style graph frameworks and the source of the
    #: paper's data hotspots) or ``"round_robin"``.  Instances may
    #: override the class default.
    layout: str = "blocked"

    @abc.abstractmethod
    def setup(self, system) -> Any:
        """Allocate primary data on ``system``; return run state."""

    @abc.abstractmethod
    def root_tasks(self, state) -> List[Task]:
        """Tasks of the first timestamp."""

    def on_barrier(self, timestamp: int, state) -> None:
        """Bulk-apply updates at the end of ``timestamp`` (default: none)."""

    def verify(self, state) -> None:
        """Raise AssertionError if the computed answer is wrong."""


def vertex_hint(addresses: np.ndarray, v: int,
                neighbors: np.ndarray) -> TaskHint:
    """The standard graph-workload hint: the vertex's own record plus
    its neighbors' records (used by pr, bfs, sssp and cc)."""
    out = np.empty(neighbors.shape[0] + 1, dtype=np.int64)
    out[0] = addresses[v]
    out[1:] = addresses[neighbors]
    return TaskHint(addresses=out)


class ElementHints:
    """One :class:`TaskHint` per primary-data element, built by
    ``build(i)`` on first use and shared by every task of element ``i``
    (root and spawned) for the rest of the run.

    Lifetime: one run.  Keep the table on the run state that
    :meth:`Workload.setup` returns, never on the workload instance or
    anything else a second run could reach.  Some of the scheduler's
    hint memos (``_hmean``, ``_ldpick`` and, without camps, ``_wsum``)
    are keyed only on ``SchedulerContext.cost_epoch``, which restarts
    at 0 on every machine, so a hint carried into another run would
    silently read the previous machine's rows.
    """

    __slots__ = ("_hints", "_build")

    def __init__(self, count: int, build: Callable[[int], TaskHint]):
        self._hints: List[Optional[TaskHint]] = [None] * count
        self._build = build

    def __getitem__(self, i: int) -> TaskHint:
        hint = self._hints[i]
        if hint is None:
            hint = self._hints[i] = self._build(i)
        return hint


def vertex_hints(graph, addresses: np.ndarray) -> ElementHints:
    """Per-vertex :func:`vertex_hint` table of ``graph`` (pr, sssp, cc)."""
    return ElementHints(
        graph.num_vertices,
        lambda v: vertex_hint(addresses, v, graph.neighbors(v)),
    )


#: name -> zero-argument factory producing the default-sized workload.
WORKLOAD_FACTORIES: Dict[str, Callable[[], Workload]] = {}


def register_workload(name: str):
    """Class decorator registering a default factory under ``name``."""

    def deco(cls):
        cls.name = name
        WORKLOAD_FACTORIES[name] = cls
        return cls

    return deco


def make_workload(name: str, **kwargs) -> Workload:
    """Instantiate a registered workload by its figure name.

    The (name, kwargs) spec is recorded on the instance so the sweep
    engine can derive its content-addressed run key from the spec alone
    (cheap and identical for equal calls) instead of hashing the
    generated dataset — see ``repro.sweep.keys.workload_token``.
    """
    if name not in WORKLOAD_FACTORIES:
        raise KeyError(
            f"unknown workload {name!r}; available: {sorted(WORKLOAD_FACTORIES)}"
        )
    workload = WORKLOAD_FACTORIES[name](**kwargs)
    workload._factory_spec = (name, dict(kwargs))
    return workload
