#!/usr/bin/env python
"""Where does the scheduler actually put the work?

Runs three designs on the same skewed KNN workload with telemetry on,
reads the executor's ``task <id>`` spans (``tid`` = executing unit,
``args`` = spawner, stolen, ...) and compares, per design:

* how many tasks ran away from the unit that spawned them,
* how far (in distance cost) the scheduler moved them, and
* the per-unit *active cycle* distribution (Figure 9's metric), as a
  box plot — note B's task COUNTS are flat (one task per query) while
  its cycles are not: the imbalance lives in the task durations.

This is the mechanism view behind Figure 9: B leaves tasks at their
data and inherits the dataset's skew; Sl steals them blindly; O spreads
them deliberately across the camps.

Run:  python examples/trace_analysis.py
"""

import numpy as np

import repro
from repro.analysis.plotting import box_plot, sparkline
from repro.config import experiment_config
from repro.core.system import build_system
from repro.telemetry import Telemetry


def traced_run(design: str, workload):
    telemetry = Telemetry()
    system = build_system(design, experiment_config(), telemetry=telemetry)
    state = workload.setup(system)
    system.executor.run(workload.root_tasks(state), state=state,
                        on_barrier=workload.on_barrier)
    spans = [e for e in telemetry.timeline if e.name.startswith("task ")]
    cycles = np.array([u.active_cycles for u in system.units])
    return system, spans, cycles


def main() -> None:
    distributions = {}
    print("Tracing task placement on the skewed KNN workload...\n")
    print(f"{'design':7} {'tasks':>6} {'migrated':>9} {'stolen':>7} "
          f"{'avg move (ns)':>14}")
    for design in ("B", "Sl", "O"):
        workload = repro.make_workload("knn")
        system, spans, cycles = traced_run(design, workload)
        spawners = np.array([e.args["spawner"] for e in spans])
        units = np.array([e.tid for e in spans])
        moves = system.interconnect.unit_costs(spawners, units)
        stolen = np.array([e.args["stolen"] for e in spans])
        print(f"{design:7} {len(spans):6} "
              f"{np.mean(spawners != units):9.0%} "
              f"{np.mean(stolen):7.0%} "
              f"{np.mean(moves):14.1f}")
        distributions[design] = cycles

    print()
    print(box_plot(
        "per-unit active cycles (same workload, three designs)",
        distributions,
    ))
    print()
    for design, cycles in distributions.items():
        print(f"  {design} unit cycles: {sparkline(np.sort(cycles))}")
    print("\nB's cycle distribution mirrors the query skew (hot leaves =")
    print("long tasks); Sl and O flatten it, O while keeping moves short.")


if __name__ == "__main__":
    main()
