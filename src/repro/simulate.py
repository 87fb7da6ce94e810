"""One-call simulation helpers: the public entry points most users need.

    from repro import simulate, compare_designs
    result = simulate("O", "pr")
    results = compare_designs(["B", "Sl", "O"], "pr")

Every run builds a fresh machine (caches cold, counters zero) from the
paper's Table 1 configuration, optionally overridden.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.analysis.metrics import RunResult
from repro.config import SystemConfig, default_config, experiment_config
from repro.core.system import DESIGN_POINTS, build_system
from repro.telemetry import Telemetry
import repro.workloads  # noqa: F401  (imports register the workload factories)
from repro.workloads.base import Workload, make_workload

WorkloadLike = Union[str, Workload]

#: the designs of Table 2 in presentation order (H is analytic).
ALL_DESIGNS = ("B", "Sm", "Sl", "Sh", "C", "O")

#: the workloads of Section 6 in Figure 6 order.
ALL_WORKLOADS = ("pr", "bfs", "sssp", "astar", "gcn", "kmeans", "knn", "spmv")

#: the workload subset shown in the detailed figures (8, 9, 11-18).
DETAIL_WORKLOADS = ("pr", "bfs", "gcn", "knn", "spmv")


def _resolve_workload(workload: WorkloadLike, **kwargs) -> Workload:
    if isinstance(workload, Workload):
        return workload
    return make_workload(workload, **kwargs)


def simulate(
    design: str,
    workload: WorkloadLike,
    config: Optional[SystemConfig] = None,
    verify: bool = False,
    telemetry: Optional[Telemetry] = None,
    fault_schedule=None,
    **workload_kwargs,
) -> RunResult:
    """Run one (design, workload) pair and return its metrics.

    ``workload`` is a registered name ("pr", "bfs", ...) or a prepared
    :class:`~repro.workloads.base.Workload` instance (which can be
    reused across designs so every design sees the identical dataset).
    With ``verify=True`` the workload's answer is checked against its
    independent reference implementation after the run.

    ``config`` defaults to :func:`repro.config.experiment_config` — the
    Table 1 machine with the workload-exchange interval scaled to the
    reduced dataset sizes (see the constant's docstring).

    Pass a :class:`~repro.telemetry.Telemetry` to instrument the run:
    the returned result then carries a ``telemetry`` summary and the
    Telemetry object itself holds the full timeline/series for export.

    Pass a :class:`~repro.faults.FaultSchedule` to run the machine
    under injected failures; the result then carries ``resilience``
    counters.
    """
    wl = _resolve_workload(workload, **workload_kwargs)
    if config is None:
        config = experiment_config()
    system = build_system(design, config, telemetry=telemetry,
                          fault_schedule=fault_schedule)
    t0 = time.perf_counter()
    result = system.run(wl, verify=verify)
    wall_s = time.perf_counter() - t0
    # Cross-run bookkeeping (docs/observability.md): one compact line
    # in the history ledger.  Best-effort and non-semantic — the result
    # object, run keys, and cached bytes are untouched, and a disabled
    # or unwritable ledger never fails the run.
    from repro.observatory.history import record_run

    record_run(result, config=config, workload=wl, wall_s=wall_s,
               source="simulate", fault_schedule=fault_schedule)
    return result


def compare_designs(
    designs: Sequence[str],
    workload: WorkloadLike,
    config: Optional[SystemConfig] = None,
    cache: object = "default",
    **workload_kwargs,
) -> Dict[str, RunResult]:
    """Run the same workload (same dataset) across several designs.

    Each (design, workload, config) point routes through the on-disk
    result cache (``repro.sweep``): previously simulated points load
    from ``.repro_cache/`` instead of re-running.  Simulations are
    deterministic, so a hit is bit-identical to a live run.  Pass
    ``cache=False`` (or set ``REPRO_NO_CACHE``) to force live runs.
    """
    from repro.sweep.runner import cached_simulate

    wl = _resolve_workload(workload, **workload_kwargs)
    return {d: cached_simulate(d, wl, config, cache=cache) for d in designs}
