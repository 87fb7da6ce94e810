"""repro.sweep — parallel sweep engine with a content-addressed cache.

The execution layer under every grid in the repo.  Grid commands and
scripts build a campaign document and run it through
:func:`repro.campaign.run_campaign`, which hands the expanded points to
:class:`SweepRunner`:

* :mod:`repro.sweep.keys` — deterministic run keys (config + design +
  workload + simulator version salt);
* :mod:`repro.sweep.cache` — the on-disk JSON result store under
  ``.repro_cache/`` with hit/miss/invalidation accounting;
* :mod:`repro.sweep.serialize` — exact RunResult round-tripping;
* :mod:`repro.sweep.runner` — cached single-point runs and the
  multiprocessing grid runner with per-point failure capture and
  typed progress events;
* :mod:`repro.sweep.runtime` — the warm worker runtime: persistent
  pools, a per-process workload memo, the shared-memory workload store
  and history-informed LPT point ordering.

See ``docs/experiments.md`` for the end-to-end workflow.
"""

from __future__ import annotations

from repro.sweep.cache import (
    CacheStats,
    ResultCache,
    default_cache,
    resolve_cache,
)
from repro.sweep.keys import (
    SIMULATOR_VERSION,
    UncacheableError,
    canonicalize,
    run_key,
    stable_hash,
)
from repro.sweep.runner import (
    PointOutcome,
    SweepPoint,
    SweepReport,
    SweepRunner,
    cached_simulate,
    matrix_points,
    run_point,
)
from repro.sweep.runtime import (
    ProcessMemos,
    SharedWorkloadStore,
    WorkerRuntime,
    active_memos,
    lpt_order,
    process_memos,
    warm_memos,
)
from repro.sweep.serialize import result_from_dict, result_to_dict

__all__ = [
    "CacheStats",
    "ResultCache",
    "default_cache",
    "resolve_cache",
    "SIMULATOR_VERSION",
    "UncacheableError",
    "canonicalize",
    "run_key",
    "stable_hash",
    "PointOutcome",
    "SweepPoint",
    "SweepReport",
    "SweepRunner",
    "cached_simulate",
    "matrix_points",
    "run_point",
    "ProcessMemos",
    "SharedWorkloadStore",
    "WorkerRuntime",
    "active_memos",
    "lpt_order",
    "process_memos",
    "warm_memos",
    "result_from_dict",
    "result_to_dict",
]
