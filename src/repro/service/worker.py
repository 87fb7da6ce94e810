"""The service's worker-side job runner (one sweep point per job).

Runs inside the server's ``ProcessPoolExecutor`` (or, with
``workers=0``, a thread), so everything here must be importable at
module level and the payload picklable.  Mirrors
:func:`repro.sweep.runtime._warm_worker`: simulate live, ship the result
back as the exact JSON dict the cache stores, report crashes as data
instead of raising.

Every *execution* (not cache hit, not dedup attach) appends one line
``<unix_ts> <pid> <key>`` to an execution log next to the cache root.
The log is the service's ground truth for "how many simulations
actually ran" — the dedup tests and the CI ``serve-smoke`` job assert
on it, because a server-side counter could lie about what the worker
pool did.  Best-effort like every observability channel: an
unwritable log never fails the job.
"""

from __future__ import annotations

import os
import time
import traceback
from typing import Any, Dict, Optional, Tuple

#: execution-log filename, created inside the cache root.
EXEC_LOG_NAME = "service_executions.log"

JobPayload = Tuple[str, str, Tuple, Any, Optional[Dict[str, Any]],
                   Optional[str]]


def make_payload(key: str, design: str, workload: str,
                 workload_kwargs: Dict[str, Any], config: Any,
                 faults: Optional[Dict[str, Any]],
                 exec_log: Optional[str]) -> JobPayload:
    """Build the picklable payload :func:`run_job` consumes."""
    return (key, design, ("factory", workload, dict(workload_kwargs)),
            config, faults, exec_log)


def record_execution(exec_log: Optional[str], key: str) -> None:
    """Append one worker-side execution line (best-effort)."""
    if not exec_log:
        return
    try:
        from repro.sweep.locking import FileLock, lock_path_for

        with FileLock(lock_path_for(exec_log)):
            with open(exec_log, "a") as fh:
                fh.write(f"{time.time():.3f} {os.getpid()} {key}\n")
    except OSError:
        pass


def count_executions(exec_log: str, key: Optional[str] = None) -> int:
    """Worker executions recorded so far (optionally for one key)."""
    try:
        with open(exec_log) as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    except OSError:
        return 0
    if key is None:
        return len(lines)
    return sum(1 for ln in lines if ln.split()[-1] == key)


def run_job(payload: JobPayload) -> Tuple[str, Optional[Dict],
                                          Optional[str], float]:
    """Simulate one spec; returns ``(key, result_dict, error, dt)``.

    Exactly one of ``result_dict`` / ``error`` is set.  Never raises:
    a crashing simulation is data the server reports, not a dead
    worker.
    """
    key, design, wl_spec, config, faults, exec_log = payload
    t0 = time.time()
    try:
        from repro.sweep.runner import _live_simulate
        from repro.sweep.runtime import resolve_workload_spec
        from repro.sweep.serialize import result_to_dict

        record_execution(exec_log, key)
        # In a warm pool worker this memoizes the materialized workload
        # per process; cold (threads / no initializer) it is exactly
        # ``make_workload(name, **kwargs)``.
        workload = resolve_workload_spec(wl_spec)
        schedule = None
        if faults is not None:
            from repro.faults.schedule import FaultSchedule

            schedule = FaultSchedule.from_dict(faults)
        result = _live_simulate(design, workload, config,
                                fault_schedule=schedule)
        return key, result_to_dict(result), None, time.time() - t0
    except BaseException:
        return key, None, traceback.format_exc(), time.time() - t0
