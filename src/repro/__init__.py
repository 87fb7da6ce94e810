"""ABNDP reproduction: co-optimizing data access and load balance in NDP.

A from-scratch Python implementation of the system described in

    Boyu Tian, Qihang Chen, Mingyu Gao.
    "ABNDP: Co-optimizing Data Access and Load Balance in Near-Data
    Processing." ASPLOS 2023.

The package contains a task-grain discrete-event simulator of a
3D-stacked NDP machine (``repro.arch``, ``repro.runtime``), the paper's
two contributions — the Traveller Cache distributed DRAM cache and the
hybrid task scheduler (``repro.core``) — the eight evaluated workloads
(``repro.workloads``), and the analysis utilities behind every table
and figure (``repro.analysis``).

Quick start::

    import repro
    result = repro.simulate("O", "pr")       # full ABNDP on Page Rank
    base = repro.simulate("B", "pr")
    print(result.speedup_over(base))
"""

from repro.config import (
    CacheConfig,
    CacheStyle,
    CampMapping,
    CoreConfig,
    MemoryConfig,
    NocConfig,
    ReplacementPolicy,
    SchedulerConfig,
    SchedulingPolicy,
    SramConfig,
    SystemConfig,
    TopologyConfig,
    default_config,
    describe_config,
    experiment_config,
)
from repro.analysis.metrics import RunResult
from repro.core.host import HostModel
from repro.core.system import DESIGN_POINTS, DesignPoint, NdpSystem, build_system
from repro.simulate import (
    ALL_DESIGNS,
    ALL_WORKLOADS,
    DETAIL_WORKLOADS,
    compare_designs,
    simulate,
)
from repro.workloads.base import WORKLOAD_FACTORIES, Workload, make_workload

# Fault-injection & resilience subsystem (docs/resilience.md).
from repro.faults import (
    FaultEvent,
    FaultKind,
    FaultSchedule,
    ResilienceStats,
    make_random_schedule,
)

# The sweep engine: parallel grid runs + the content-addressed result
# cache.
from repro import sweep
from repro.sweep import (
    ResultCache,
    SweepRunner,
    cached_simulate,
    run_point,
)

__version__ = "1.0.0"

__all__ = [
    # configuration
    "SystemConfig",
    "TopologyConfig",
    "CoreConfig",
    "MemoryConfig",
    "NocConfig",
    "SramConfig",
    "CacheConfig",
    "SchedulerConfig",
    "CacheStyle",
    "CampMapping",
    "ReplacementPolicy",
    "SchedulingPolicy",
    "default_config",
    "describe_config",
    "experiment_config",
    # machines and designs
    "NdpSystem",
    "DesignPoint",
    "DESIGN_POINTS",
    "build_system",
    "HostModel",
    # running
    "simulate",
    "compare_designs",
    "sweep",
    "cached_simulate",
    "run_point",
    "SweepRunner",
    "ResultCache",
    "ALL_DESIGNS",
    "ALL_WORKLOADS",
    "DETAIL_WORKLOADS",
    # workloads
    "Workload",
    "make_workload",
    "WORKLOAD_FACTORIES",
    # faults & resilience
    "FaultEvent",
    "FaultKind",
    "FaultSchedule",
    "ResilienceStats",
    "make_random_schedule",
    # results
    "RunResult",
    "__version__",
]
