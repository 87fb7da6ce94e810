"""Performance benchmark harness (``python -m repro bench``).

Times seeded (design x workload) simulation points and writes a
``BENCH_<n>.json`` record at the repository root, the perf trajectory
of the simulator itself: ``BENCH_0.json`` is the pre-optimization
per-line baseline, ``BENCH_1.json`` the fused access kernel, and each
later record follows its own hot-path work.  ``docs/performance.md``
explains how to read the records.

Methodology
-----------
* One shared workload instance per workload name: the dataset is built
  once, so the timings cover simulation, not graph generation.
* One untimed warmup run before the matrix absorbs import and
  allocator effects.
* Every point is simulated ``repeats`` times and the **best** wall and
  CPU times are kept — the usual best-of-N defence against scheduler
  noise on shared machines.  Within-file ratios are stable; absolute
  seconds across machines are not comparable.
* ``tasks/s`` and ``accesses/s`` are derived from the RunResult of the
  timed run (``tasks_executed``; L1-entered reads plus DRAM writes), so
  the throughput numbers always describe exactly the simulated work.
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.config import SystemConfig, experiment_config

#: file-name pattern of benchmark records at the repository root.
_BENCH_RE = re.compile(r"^BENCH_(\d+)\.json$")

#: schema tag of the payload written by :func:`write_bench`.
SCHEMA = "repro-bench-v1"


def _accesses(result) -> int:
    """Memory accesses resolved by the run: every read entering the
    hierarchy (counted at the L1, the first probe of every access flow)
    plus the output writes that go straight to DRAM."""
    return int(result.sram.l1_accesses) + int(result.dram.writes)


def bench_points(
    designs: Sequence[str],
    workloads: Sequence[str],
    config: Optional[SystemConfig] = None,
    repeats: int = 2,
    warmup: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict:
    """Time the (design x workload) matrix.

    Returns the ``BENCH_<n>.json`` payload (see module docstring for
    the methodology).  Simulations always run live — a result cache
    would time disk reads, not the simulator.
    """
    from repro.simulate import simulate
    from repro.workloads.base import make_workload

    cfg = config if config is not None else experiment_config()
    shared = {name: make_workload(name) for name in workloads}
    if warmup:
        simulate(designs[0], shared[workloads[0]], config=cfg)

    points: List[Dict] = []
    for wname in workloads:
        for design in designs:
            best_wall = best_cpu = float("inf")
            result = None
            for _ in range(max(1, repeats)):
                w0 = time.perf_counter()
                c0 = time.process_time()
                result = simulate(design, shared[wname], config=cfg)
                cpu = time.process_time() - c0
                wall = time.perf_counter() - w0
                best_wall = min(best_wall, wall)
                best_cpu = min(best_cpu, cpu)
            accesses = _accesses(result)
            point = {
                "design": design,
                "workload": wname,
                "wall_s": round(best_wall, 4),
                "cpu_s": round(best_cpu, 4),
                "tasks": int(result.tasks_executed),
                "accesses": accesses,
                "tasks_per_s": round(result.tasks_executed / best_wall, 1),
                "accesses_per_s": round(accesses / best_wall, 1),
                "makespan_cycles": result.makespan_cycles,
            }
            points.append(point)
            if progress:
                progress(
                    f"{design:3} {wname:8} {best_wall:7.2f}s "
                    f"{point['tasks_per_s']:12,.0f} tasks/s "
                    f"{point['accesses_per_s']:14,.0f} accesses/s"
                )

    from repro.observatory.history import git_revision, hostname

    wall = sum(p["wall_s"] for p in points)
    tasks = sum(p["tasks"] for p in points)
    accesses = sum(p["accesses"] for p in points)
    return {
        "schema": SCHEMA,
        # trajectory provenance: which commit produced the record, and
        # on which machine (absolute seconds only compare within a host)
        "git_rev": git_revision(),
        "hostname": hostname(),
        "designs": list(designs),
        "workloads": list(workloads),
        "repeats": repeats,
        "seed": cfg.seed,
        "mesh": f"{cfg.topology.mesh_rows}x{cfg.topology.mesh_cols}",
        "points": points,
        "totals": {
            "wall_s": round(wall, 4),
            "tasks": tasks,
            "accesses": accesses,
            "tasks_per_s": round(tasks / wall, 1) if wall else 0.0,
            "accesses_per_s": round(accesses / wall, 1) if wall else 0.0,
        },
    }


def bench_warm_sweep(
    designs: Sequence[str] = ("C", "O"),
    workloads: Sequence[str] = ("pr", "knn"),
    config: Optional[SystemConfig] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict:
    """Time one uncached sweep twice on one
    :class:`~repro.sweep.runtime.WorkerRuntime`: a first pass (memos
    filling) and a second (steady state — memos hot).

    Unlike :func:`bench_points` the workloads are *not* pre-shared:
    amortizing workload generation and pool startup across points is
    exactly what the warm runtime claims to do, so it
    stays inside the timed region.  Both passes must agree bit-for-bit
    with plain :func:`~repro.simulate.simulate` of every point
    (``identical``) — a disagreement means the memo layer broke
    determinism and the record should never be committed.
    """
    from repro.simulate import simulate
    from repro.sweep.runner import SweepPoint, SweepRunner
    from repro.sweep.runtime import WorkerRuntime
    from repro.sweep.serialize import result_to_dict

    cfg = config if config is not None else experiment_config()
    points = [
        SweepPoint(design=d, workload=w, config=cfg, label=f"{d}/{w}")
        for w in workloads
        for d in designs
    ]

    def one_pass(runtime, label: str):
        t0 = time.perf_counter()
        report = SweepRunner(cache=False, jobs=1,
                             runtime=runtime).run(points)
        dt = time.perf_counter() - t0
        if report.failures:
            raise RuntimeError(
                f"warm-sweep bench pass {label!r} failed: "
                f"{report.failures[0].error}")
        blobs = [
            json.dumps(result_to_dict(o.result), sort_keys=True)
            for o in report.outcomes
        ]
        if progress:
            progress(f"warm-sweep {label:22} {dt:7.2f}s "
                     f"({len(points)} points)")
        return dt, blobs

    with WorkerRuntime(jobs=1) as rt:
        first_s, first_blobs = one_pass(rt, "warm runtime pass 1")
        steady_s, steady_blobs = one_pass(rt, "warm runtime pass 2")
    plain_blobs = [
        json.dumps(result_to_dict(simulate(p.design, p.materialize(),
                                           config=cfg)), sort_keys=True)
        for p in points
    ]
    return {
        "designs": list(designs),
        "workloads": list(workloads),
        "mesh": f"{cfg.topology.mesh_rows}x{cfg.topology.mesh_cols}",
        "points": len(points),
        "warm_first_s": round(first_s, 4),
        "warm_steady_s": round(steady_s, 4),
        "identical": plain_blobs == first_blobs == steady_blobs,
    }


def bench_mesh_point(
    mesh: str = "8x8",
    design: str = "O",
    workload: str = "pr",
    progress: Optional[Callable[[str], None]] = None,
) -> Dict:
    """Time one live point on a scaled mesh (the trajectory's first
    8x8 record — ROADMAP's larger-mesh validation item)."""
    from repro.simulate import simulate
    from repro.workloads.base import make_workload

    rows, cols = (int(v) for v in mesh.lower().split("x"))
    cfg = experiment_config().scaled(rows, cols)
    wl = make_workload(workload)
    w0 = time.perf_counter()
    c0 = time.process_time()
    result = simulate(design, wl, config=cfg)
    cpu = time.process_time() - c0
    wall = time.perf_counter() - w0
    if progress:
        progress(f"{design:3} {workload:8} mesh={mesh} {wall:7.2f}s")
    return {
        "mesh": mesh,
        "design": design,
        "workload": workload,
        "wall_s": round(wall, 4),
        "cpu_s": round(cpu, 4),
        "tasks": int(result.tasks_executed),
        "accesses": _accesses(result),
        "makespan_cycles": result.makespan_cycles,
    }


def next_bench_path(root: Path) -> Path:
    """First unused ``BENCH_<n>.json`` path under ``root`` (created
    on demand, so ``repro bench --out DIR`` works on a fresh DIR)."""
    root.mkdir(parents=True, exist_ok=True)
    taken = {
        int(m.group(1))
        for p in root.iterdir()
        if (m := _BENCH_RE.match(p.name))
    }
    n = 0
    while n in taken:
        n += 1
    return root / f"BENCH_{n}.json"


def write_bench(payload: Dict, path: Path) -> Path:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
