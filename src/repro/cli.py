"""Command-line interface.

    python -m repro describe                 # print the Table 1 machine
    python -m repro designs                  # print the Table 2 matrix
    python -m repro run -d O -w pr           # one simulation
    python -m repro trace O pr --out t.json  # instrumented run -> Chrome
                                             # trace (Perfetto-loadable)
    python -m repro compare -w knn           # all designs on one workload
    python -m repro sweep                    # the full Figure 6/7/8 matrix
                                             # + sweep_results.json
                                             # (`matrix` is an alias)
    python -m repro sweep alpha -w pr        # a Section 7.2 parameter sweep
    python -m repro faults O pr --units 4    # resilience campaign under
                                             # injected failures
    python -m repro campaign run \
        campaigns/full_matrix.json           # a committed declarative
                                             # campaign file (validate /
                                             # expand / report too)
    python -m repro bench                    # time the simulator itself
                                             # -> BENCH_<n>.json
    python -m repro report campaign_out/x    # bottleneck classification
                                             # matrix (DAMOV-style) over
                                             # a campaign/sweep/ledger
    python -m repro diff -1 -2               # compare the two newest
                                             # runs in the history ledger
    python -m repro regress                  # perf-regression scan over
                                             # the BENCH_*.json trajectory
    python -m repro run -d O -w pr --profile # cProfile a live run
    python -m repro serve                    # sweep-as-a-service: HTTP
                                             # server over the result cache
    python -m repro compact                  # compact the history ledger,
                                             # prune orphaned cache temps

Every grid command (``compare``, ``sweep``/``matrix``, ``faults``,
``campaign run``) compiles its flags into one in-memory campaign
document (docs/campaigns.md) and runs it through ``run_campaign``, so a
flag set and the equivalent campaign file share run keys and cache
entries.  ``sweep``, ``campaign run``, ``diff`` and ``regress
--history`` accept ``--server URL`` to run through a shared ``repro
serve`` instance instead of the local machine — submissions dedupe by
run key across all of the server's clients (see docs/service.md).

Every simulation routes through the content-addressed result cache in
``.repro_cache/`` (``--no-cache`` bypasses it) and drops a one-line
record into the run-history ledger (``.repro_cache/history.jsonl``;
disable with ``REPRO_NO_HISTORY``); grid commands fan out over
``--jobs`` worker processes with a live progress line on TTYs
(``--quiet`` / ``--no-progress`` / ``--progress-jsonl`` adjust it).
Results can be exported with ``--csv out.csv`` / ``--json out.json``.
See ``docs/observability.md`` for the cross-run workflow.
"""

from __future__ import annotations

import argparse
import dataclasses
import json as _json
import sys
from typing import Dict, List, Optional

import repro
from repro.analysis import export
from repro.analysis.metrics import RunResult
from repro.analysis.plotting import bar_chart
from repro.analysis.stats import geomean
from repro.campaign.resolver import resolve_system_config
from repro.config import SystemConfig, describe_config
from repro.sweep import SIMULATOR_VERSION, cached_simulate


def _point_from_args(args) -> Dict[str, object]:
    """The experiment-point fields the config flags set.

    This is the one flag-to-point mapping: grid commands put it in
    their campaign's ``base`` layer, and single runs resolve it with
    :func:`resolve_system_config`, so every entry point keys a flag
    set identically.
    """
    point: Dict[str, object] = {}
    if args.mesh:
        point["mesh"] = args.mesh
    sections = {
        "scheduler": {"hybrid_alpha": args.alpha,
                      "exchange_interval_cycles": args.interval},
        "cache": {"num_camps": args.camps,
                  "bypass_probability": args.bypass},
    }
    config = {}
    for name, fields in sections.items():
        given = {k: v for k, v in fields.items() if v is not None}
        if given:
            config[name] = given
    if config:
        point["config"] = config
    return point


def _config_from_args(args) -> SystemConfig:
    return resolve_system_config(**_point_from_args(args))


def _cache_from_args(args):
    """The ``cache=`` argument for the sweep engine (False = bypass)."""
    return False if getattr(args, "no_cache", False) else "default"


def _log_from_args(args):
    """The status logger honouring ``--quiet`` / ``-v`` (stderr)."""
    from repro.observatory.logging import from_flags

    return from_flags(quiet=getattr(args, "quiet", False),
                      verbose=getattr(args, "verbose", 0))


def _events_from_args(args, log):
    """The per-point event consumer for grid runs, or None.

    ``--quiet`` silences the status renderer (a ``--progress-jsonl``
    stream still records); ``--no-progress`` downgrades the live TTY
    line to plain per-point lines.  Both renderers write to stderr, so
    stdout stays parseable.
    """
    from repro.observatory.progress import (JsonlProgress, SweepProgress,
                                            tee)

    consumers = []
    if not log.quiet:
        live = False if getattr(args, "no_progress", False) else None
        consumers.append(SweepProgress(live=live))
    jsonl = getattr(args, "progress_jsonl", None)
    if jsonl:
        consumers.append(JsonlProgress(jsonl))
    return tee(*consumers) if consumers else None


def _telemetry_from_args(args):
    """A live Telemetry when any tracing flag was given, else None."""
    trace_out = getattr(args, "trace_out", None)
    interval = getattr(args, "sample_interval", None)
    if trace_out is None and interval is None:
        return None
    from repro.telemetry import Telemetry

    return Telemetry(sample_interval=interval if interval else 1)


def _write_trace(telemetry, out: Optional[str],
                 jsonl: Optional[str] = None,
                 trace_id: str = "") -> None:
    tl = telemetry.timeline
    if out:
        tl.write_chrome(out)
        if trace_id:
            # Stamp the correlation id at write time only — never into
            # timeline.metadata, which summary() copies into the
            # byte-stable telemetry sidecar.
            _stamp_trace_file(out, trace_id)
        print(f"wrote {out} ({len(tl)} events, {tl.dropped} dropped; "
              f"open at chrome://tracing or https://ui.perfetto.dev)")
    if jsonl:
        tl.write_jsonl(jsonl)
        print(f"wrote {jsonl}")


def _stamp_trace_file(path: str, trace_id: str) -> None:
    """Add the trace_id to a written Chrome trace's otherData."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = _json.load(fh)
        if isinstance(payload, dict):
            payload.setdefault("otherData", {})["trace_id"] = trace_id
            with open(path, "w", encoding="utf-8") as fh:
                _json.dump(payload, fh)
    except (OSError, ValueError):
        pass  # annotation only — never fail the run over it


def _export(args, results: List[RunResult]) -> None:
    if getattr(args, "csv", None):
        export.write_csv(args.csv, results)
        print(f"wrote {args.csv}")
    if getattr(args, "json", None):
        export.write_json(args.json, results)
        print(f"wrote {args.json}")


def _print_comparison(results: Dict[str, RunResult]) -> None:
    base = results.get("B") or next(iter(results.values()))
    header = (f"{'design':7} {'speedup':>8} {'hops/B':>8} {'imbal':>7} "
              f"{'energy/B':>9} {'hit':>5}")
    print(header)
    print("-" * len(header))
    for design, r in results.items():
        hops = r.hops_ratio_over(base) if base.inter_hops else 0.0
        print(f"{design:7} {r.speedup_over(base):8.2f} {hops:8.2f} "
              f"{r.load_imbalance():7.2f} "
              f"{r.energy_ratio_over(base):9.2f} {r.cache.hit_rate:5.0%}")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def cmd_describe(args) -> int:
    if getattr(args, "run", None):
        return _describe_run(args.run, args)
    print(describe_config(_config_from_args(args)))
    tel = _telemetry_from_args(args)
    if tel is None:
        print("telemetry: disabled (null sink; enable with "
              "`run --trace-out` / `--sample-interval`, or `repro trace`)")
    else:
        print(f"telemetry: enabled "
              f"(sample interval = {tel.sampler.interval} timestamps)")
    return 0


def _describe_run(ref: str, args) -> int:
    """``repro describe --run REF``: one recorded run's status line,
    including its bottleneck class when a telemetry sidecar exists."""
    from repro.observatory.diffing import (_bottleneck_profile,
                                           resolve_ref)

    handle = resolve_ref(ref, cache=_cache_from_args(args))
    print(f"run {handle.describe()}")
    profile = _bottleneck_profile(handle)
    if profile is None:
        print("bottleneck: unclassifiable (no metrics for this "
              "reference — its cache entry and ledger line are gone)")
        return 0
    if handle.telemetry:
        print(f"bottleneck: {profile.describe()}")
    else:
        print(f"bottleneck: {profile.describe()} — no telemetry "
              f"sidecar, so NoC attribution is the mean-link lower "
              f"bound; re-run via `repro sweep` (sidecars record "
              f"automatically) or `repro trace` for link-level detail")
    return 0


def cmd_designs(args) -> int:
    for name, point in repro.DESIGN_POINTS.items():
        print(f"{name:3} policy={point.policy.value:16} "
              f"cache={point.cache.value:10} {point.description}")
    return 0


def cmd_run(args) -> int:
    cfg = _config_from_args(args)
    telemetry = _telemetry_from_args(args)
    profiling = args.profile or args.profile_out
    if profiling:
        import cProfile

        prof = cProfile.Profile()
        prof.enable()
    if args.verify or telemetry is not None or profiling:
        # Verification re-runs the workload's reference algorithm
        # against the just-computed answer, tracing needs the live
        # telemetry object, and profiling a cache replay would time
        # disk I/O — all three require a live run.
        result = repro.simulate(args.design, args.workload, cfg,
                                verify=args.verify, telemetry=telemetry)
    else:
        result = cached_simulate(args.design, args.workload, cfg,
                                 cache=_cache_from_args(args))
    if profiling:
        import pstats

        prof.disable()
        pstats.Stats(prof).sort_stats("cumulative").print_stats(25)
        if args.profile_out:
            prof.dump_stats(args.profile_out)
            print(f"wrote {args.profile_out} "
                  f"(inspect with `python -m pstats {args.profile_out}` "
                  f"or snakeviz)")
    print(result.summary())
    if args.verify:
        print("answer verified against the reference implementation")
    if telemetry is not None:
        from repro.insight.trace import mint_trace_id

        _write_trace(telemetry, getattr(args, "trace_out", None),
                     trace_id=mint_trace_id())
    _export(args, [result])
    return 0


def cmd_trace(args) -> int:
    from repro.telemetry import Telemetry

    cfg = _config_from_args(args)
    telemetry = Telemetry(sample_interval=args.sample_interval)
    result = repro.simulate(args.design, args.workload, cfg,
                            telemetry=telemetry)
    print(result.summary())
    from repro.insight.trace import mint_trace_id

    _write_trace(telemetry, args.out, getattr(args, "jsonl", None),
                 trace_id=mint_trace_id())
    return 0


# ----------------------------------------------------------------------
# grid commands: each builds one campaign document and runs it here
# ----------------------------------------------------------------------
def _run_campaign(args, campaign, expansion, sets=None, events=None):
    """Run an expanded campaign: through ``run_campaign`` locally, or
    ``run_campaign_via_server`` with ``--server``.  Every grid command
    (``compare``, ``sweep``/``matrix``, ``faults``, ``campaign run``)
    executes here; failed points are logged, not raised."""
    from repro.campaign import run_campaign, run_campaign_via_server
    from repro.insight.trace import mint_trace_id

    log = _log_from_args(args)
    log.info(f"campaign {campaign.name!r}: {len(expansion.points)} "
             f"point(s), fingerprint {expansion.fingerprint}")
    if expansion.duplicates_dropped:
        log.detail(f"{expansion.duplicates_dropped} duplicate "
                   f"point(s) dropped during expansion")
    if events is None:
        events = _events_from_args(args, log)
    trace_id = mint_trace_id()
    log.detail(f"trace id {trace_id}")
    if getattr(args, "server", None):
        from repro.service.client import ServiceClient

        client = ServiceClient(args.server)
        log.detail(f"submitting campaign to {client.base_url}")
        report = run_campaign_via_server(client, campaign, sets=sets,
                                         events=events, trace_id=trace_id)
    else:
        report = run_campaign(campaign, expansion,
                              cache=_cache_from_args(args),
                              jobs=args.jobs, events=events,
                              trace_id=trace_id)
    for o in report.failures:
        log.error(f"FAILED {o.point.label}: "
                  f"{(o.error or 'unknown').strip().splitlines()[-1]}")
    return report


def _run_grid(args, name: str, base: Dict[str, object],
              axes: Dict[str, list]):
    """Build the campaign a grid command's flags describe and run it.

    ``base`` holds the command's own point keys; the config flags join
    it through :func:`_point_from_args`.
    """
    from repro.campaign import CampaignSpec

    campaign = CampaignSpec.from_dict({
        "name": name, "base": dict(_point_from_args(args), **base),
        "axes": axes})
    return _run_campaign(args, campaign, campaign.expand())


def cmd_compare(args) -> int:
    report = _run_grid(args, "compare", {"workload": args.workload},
                       {"design": list(repro.ALL_DESIGNS)})
    if report.failures:
        return 1
    results = {o.result.design: o.result for o in report.outcomes}
    _print_comparison(results)
    base = results["B"]
    print()
    print(bar_chart(
        f"speedup over B ({args.workload})",
        {d: r.speedup_over(base) for d, r in results.items()},
        baseline="B",
    ))
    _export(args, list(results.values()))
    return 0


#: ``sweep PARAM``: the point path each Section 7.2 parameter sweeps,
#: and its values.
_SWEEPS = {
    "alpha": ("config.scheduler.hybrid_alpha",
              [0.0, 1.0, 2.0, 3.0, 4.0, 6.0]),
    "interval": ("config.scheduler.exchange_interval_cycles",
                 [62, 125, 250, 500, 1000, 2000]),
    "camps": ("config.cache.num_camps", [1, 3, 7, 15]),
    "bypass": ("config.cache.bypass_probability",
               [0.0, 0.2, 0.4, 0.6, 0.8]),
}


def _geomean_table(grid, designs, workloads) -> Dict[str, Dict[str, float]]:
    """Geomean speedup/energy/hops ratios over B, per design.

    Workloads whose baseline makes no inter-stack accesses (a hop
    ratio of zero would zero the whole product) are excluded from the
    hops geomean, matching the paper's Figure 8 treatment.
    """
    out = {"speedup": {}, "energy": {}, "hops": {}}
    for d in designs:
        if d == "B":
            continue
        rows = [(grid[w][d], grid[w]["B"]) for w in workloads]
        out["speedup"][d] = geomean([r.speedup_over(b) for r, b in rows])
        out["energy"][d] = geomean([r.energy_ratio_over(b) for r, b in rows])
        hop_rows = [
            r.hops_ratio_over(b) for r, b in rows
            if b.inter_hops and r.inter_hops
        ]
        out["hops"][d] = geomean(hop_rows) if hop_rows else 0.0
    return out


def cmd_sweep(args) -> int:
    """``python -m repro sweep PARAM``: one Section 7.2 parameter over
    its value list; without PARAM (or as ``matrix``), the design x
    workload matrix."""
    if args.parameter is None:
        return _sweep_matrix(args)
    path, values = _SWEEPS[args.parameter]
    report = _run_grid(args, f"sweep-{args.parameter}",
                       {"design": args.design, "workload": args.workload},
                       {path: values})
    for o in report.outcomes:
        if o.ok:
            r = o.result
            print(f"{args.parameter}={o.point.assignments[path]:<8} "
                  f"makespan={r.makespan_cycles:12,.0f} "
                  f"hops={r.inter_hops:10,} hit={r.cache.hit_rate:.0%}",
                  flush=True)
    _export(args, [o.result for o in report.outcomes if o.ok])
    return 1 if report.failures else 0


def _sweep_matrix(args) -> int:
    """The full design x workload matrix with machine-readable output
    (``sweep_results.json``)."""
    from repro.sweep.cache import resolve_cache

    designs = (args.designs.split(",") if args.designs
               else list(repro.ALL_DESIGNS))
    workloads = (args.workloads.split(",") if args.workloads
                 else list(repro.ALL_WORKLOADS))
    report = _run_grid(args, "sweep", {},
                       {"workload": workloads, "design": designs})
    # the process-wide cache run_campaign used (None with --no-cache)
    store = None if args.server else resolve_cache(_cache_from_args(args))
    grid = report.results()
    complete = [w for w in workloads
                if "B" in grid.get(w, {})
                and all(d in grid[w] for d in designs)]

    for metric, fn in (
        ("speedup", lambda r, b: r.speedup_over(b)),
        ("energy", lambda r, b: r.energy_ratio_over(b)),
        ("hops", lambda r, b: r.hops_ratio_over(b)),
    ):
        print(f"\n{metric} over B:")
        print(f"{'workload':9}" + "".join(f"{d:>7}" for d in designs))
        for w in complete:
            base = grid[w]["B"]
            print(f"{w:9}" + "".join(
                f"{fn(grid[w][d], base):7.2f}" for d in designs
            ))
    if complete:
        gm = _geomean_table(grid, designs, complete)
        print("\ngeomean over B:")
        for metric in ("speedup", "energy", "hops"):
            print(f"  {metric:8}" + " ".join(
                f"{d}:{v:5.2f}" for d, v in gm[metric].items()
            ))
    else:
        gm = {"speedup": {}, "energy": {}, "hops": {}}
    print()
    print(report.summary())

    payload = {
        "meta": {
            "simulator_version": SIMULATOR_VERSION,
            "designs": designs,
            "workloads": workloads,
            "elapsed_s": report.elapsed_s,
            "cache": dataclasses.asdict(store.stats)
            if store is not None else None,
        },
        "points": [
            dict(export.result_row(o.result),
                 source=o.source, key=o.key, elapsed_s=o.elapsed_s)
            for o in report.outcomes if o.ok
        ],
        "failures": [
            {"label": o.point.label, "error": o.error}
            for o in report.failures
        ],
        "geomean_over_B": gm,
    }
    with open(args.output, "w") as fh:
        _json.dump(payload, fh, indent=2)
    print(f"wrote {args.output}")
    _export(args, [o.result for o in report.outcomes if o.ok])
    return 1 if report.failures else 0


def cmd_faults(args) -> int:
    """``python -m repro faults O pr --units 4 --links 2``: a resilience
    campaign — one healthy reference plus one faulted point per
    schedule, on a ``faults`` axis."""
    from repro.campaign import CampaignSpec
    from repro.faults import FaultSchedule

    schedules = []
    for path in args.schedule or []:
        schedule = FaultSchedule.load(path)
        if not schedule:
            raise ValueError(f"schedule {path!r} is empty")
        schedules.append(schedule.to_dict())
    if args.units or args.links or args.vaults:
        random = {"unit_fails": args.units, "link_fails": args.links,
                  "vault_slowdowns": args.vaults}
        if args.seed is not None:
            random["seed"] = args.seed
        schedules.append({"random": random})
    if not schedules:
        print("error: give --schedule FILE and/or --units/--links/--vaults",
              file=sys.stderr)
        return 2

    campaign = CampaignSpec.from_dict({
        "name": "faults",
        "base": dict(_point_from_args(args), design=args.design,
                     workload=args.workload),
        "axes": {"faults": [None, *schedules]}})
    expansion = campaign.expand()
    if args.dump_schedule:
        next(p.spec.fault_schedule() for p in expansion.points
             if p.spec.faults).dump(args.dump_schedule)
        print(f"wrote {args.dump_schedule}")

    report = _run_campaign(args, campaign, expansion)
    healthy_outcome, *faulted = report.outcomes
    if not healthy_outcome.ok:
        print("error: the healthy reference failed", file=sys.stderr)
        return 1
    healthy = healthy_outcome.result
    header = (f"{'point':24} {'makespan':>14} {'slowdn':>7} {'lost':>5} "
              f"{'reexec':>7} {'unreach':>8} {'recov_cyc':>10}")
    print(header)
    print("-" * len(header))
    print(f"{healthy_outcome.point.label[:24]:24} "
          f"{healthy.makespan_cycles:14,.0f} "
          f"{1.0:7.2f} {0:5} {'-':>7} {'-':>8} {'-':>10}")
    lost_any = False
    for o in faulted:
        if not o.ok:
            continue
        r, res = o.result, o.result.resilience
        lost = healthy.tasks_executed - r.tasks_executed
        lost_any = lost_any or lost != 0
        if healthy.makespan_cycles > 0:
            res.slowdown_vs_healthy = (r.makespan_cycles
                                       / healthy.makespan_cycles)
        print(f"{o.point.label[:24]:24} {r.makespan_cycles:14,.0f} "
              f"{res.slowdown_vs_healthy:7.2f} {lost:5} "
              f"{res.tasks_reexecuted:7} {res.unreachable_accesses:8} "
              f"{res.recovery_cycles:10,.0f}")
    if lost_any:
        print("error: tasks were lost under faults", file=sys.stderr)
    else:
        print(f"\nzero lost tasks across {len(faulted)} "
              f"faulted run(s)")
    _export(args, [o.result for o in report.outcomes if o.ok])
    return 1 if (lost_any or report.failures) else 0


def _campaign_events(args, log, campaign, out_dir):
    """Event consumers for a campaign run: the usual progress flags
    plus the campaign file's own ``telemetry.progress_jsonl``."""
    from pathlib import Path

    from repro.observatory.progress import JsonlProgress, tee

    consumers = []
    base = _events_from_args(args, log)
    if base is not None:
        consumers.append(base)
    telemetry = campaign.doc.get("telemetry") or {}
    jsonl = telemetry.get("progress_jsonl")
    if jsonl and not getattr(args, "progress_jsonl", None):
        path = Path(jsonl)
        if not path.is_absolute():
            path = Path(out_dir) / path
        path.parent.mkdir(parents=True, exist_ok=True)
        consumers.append(JsonlProgress(str(path)))
    return tee(*consumers) if consumers else None


def _campaign_out_dir(args, campaign):
    artifacts = campaign.doc.get("artifacts") or {}
    return (getattr(args, "out", None) or artifacts.get("dir")
            or f"campaign_out/{campaign.name}")


def cmd_campaign(args) -> int:
    """``python -m repro campaign run|validate|expand|report``: the
    declarative front door (docs/campaigns.md).  ``validate`` and
    ``expand`` keep stdout machine-parseable with ``--json``; status
    goes to the stderr logger."""
    from repro.campaign import load_campaign, parse_set_args

    log = _log_from_args(args)
    sets = parse_set_args(getattr(args, "set", None))

    if args.action == "validate":
        rows, ok = [], True
        for path in args.file:
            row = {"file": str(path), "ok": True, "error": ""}
            try:
                campaign = load_campaign(path)
                expansion = campaign.expand(sets=sets)
                row.update(name=campaign.name,
                           points=len(expansion.points),
                           fingerprint=expansion.fingerprint,
                           duplicates_dropped=
                           expansion.duplicates_dropped)
                log.detail(f"{path}: {len(expansion.points)} point(s), "
                           f"fingerprint {expansion.fingerprint}")
            except ValueError as exc:
                ok = False
                row.update(ok=False, error=str(exc))
                log.error(f"invalid campaign {path}: {exc}")
            rows.append(row)
        if args.json_out:
            print(_json.dumps({"ok": ok, "campaigns": rows}, indent=2,
                              sort_keys=True))
        else:
            for row in rows:
                status = "ok " if row["ok"] else "BAD"
                detail = (f"{row.get('name')}: {row.get('points')} "
                          f"point(s) [{row.get('fingerprint')}]"
                          if row["ok"] else row["error"])
                print(f"{status} {row['file']} — {detail}")
        return 0 if ok else 2

    if args.action == "expand":
        campaign = load_campaign(args.file)
        expansion = campaign.expand(sets=sets)
        log.detail(f"{campaign.name}: {len(expansion.points)} point(s), "
                   f"{expansion.duplicates_dropped} duplicate(s) "
                   f"dropped")
        points = [{"label": p.label, "key": p.spec.run_key(),
                   "spec": p.spec.to_dict()}
                  for p in expansion.points]
        if args.json_out:
            print(_json.dumps({
                "name": campaign.name,
                "fingerprint": expansion.fingerprint,
                "duplicates_dropped": expansion.duplicates_dropped,
                "points": points,
            }, indent=2, sort_keys=True))
        else:
            for point in points:
                print(f"{point['key'][:12]}  {point['label']}")
            print(f"{len(points)} point(s), fingerprint "
                  f"{expansion.fingerprint}")
        return 0

    if args.action == "report":
        from repro.campaign import CampaignReport
        from pathlib import Path

        path = Path(args.path)
        if path.is_dir():
            path = path / "report.json"
        payload = CampaignReport.load(path)
        if args.json_out:
            print(_json.dumps(payload, indent=2, sort_keys=True))
            return 0
        print(f"campaign {payload.get('name')!r} "
              f"[{payload.get('fingerprint')}] — spec "
              f"{payload.get('spec_path') or '<inline>'} "
              f"(sha256 {str(payload.get('spec_sha256'))[:12]})")
        for point in payload.get("points", []):
            key = (point.get("key") or "")[:12]
            metrics = point.get("metrics") or {}
            makespan = metrics.get("makespan_cycles")
            tail = (f"makespan={makespan:,.0f}"
                    if isinstance(makespan, (int, float))
                    else f"error: {point.get('error')}")
            print(f"  {key:12}  {point.get('source', ''):6} "
                  f"{point.get('label', ''):28} {tail}")
        return 0

    # action == "run"
    campaign = load_campaign(args.file)
    out_dir = _campaign_out_dir(args, campaign)
    report = _run_campaign(
        args, campaign, campaign.expand(sets=sets), sets=sets,
        events=_campaign_events(args, log, campaign, out_dir))
    report_path = report.write(out_dir,
                               artifacts=campaign.doc.get("artifacts"))
    print(report.summary())
    print(f"wrote {report_path}")
    _export(args, [o.result for o in report.outcomes if o.ok])
    return 1 if report.failures else 0


def cmd_report(args) -> int:
    """``python -m repro report ARTIFACT``: DAMOV-style bottleneck
    classification over a campaign report.json, a ``repro sweep``
    export, or a history-ledger slice (docs/insight.md).  Points whose
    run keys still resolve in the result cache are refined with the
    full per-unit cycle vector and the telemetry sidecar."""
    from pathlib import Path

    from repro.insight import build_report
    from repro.sweep.cache import resolve_cache

    source = Path(args.input)
    if source.is_dir():
        source = source / "report.json"
    cache = resolve_cache(_cache_from_args(args))
    report = build_report(source, cache=cache, last=args.last)
    if not report.points:
        print(f"error: no classifiable points in {source} (every point "
              f"failed, or the artifact holds no metric rows)",
              file=sys.stderr)
        return 2
    if args.out:
        for path in report.write(args.out, formats=args.format,
                                 with_heatmap=args.heatmap):
            print(f"wrote {path}")
    elif args.format == "json":
        print(report.to_json(), end="")
    else:
        print(report.to_markdown())
        if args.heatmap:
            print(report.heatmap())
    if args.trace_out:
        from repro.insight.trace import write_campaign_trace

        try:
            payload = _json.loads(source.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ValueError(
                f"--trace-out needs a readable campaign report: {exc}")
        if not isinstance(payload, dict) or "points" not in payload:
            raise ValueError(
                "--trace-out needs a campaign report.json input (the "
                "correlated timeline is built from its per-point "
                "record)")
        out = write_campaign_trace(payload, args.trace_out,
                                   extra_trace_paths=args.merge_trace
                                   or ())
        print(f"wrote {out} (open at chrome://tracing or "
              f"https://ui.perfetto.dev)")
    return 0


def cmd_bench(args) -> int:
    """``python -m repro bench``: time the simulator itself (see
    docs/performance.md) and record a ``BENCH_<n>.json`` at the repo
    root."""
    from pathlib import Path

    from repro.bench import (
        bench_mesh_point,
        bench_points,
        bench_warm_sweep,
        next_bench_path,
        write_bench,
    )

    log = _log_from_args(args)
    designs = (args.designs.split(",") if args.designs
               else list(repro.ALL_DESIGNS))
    workloads = args.workloads.split(",") if args.workloads else ["pr"]
    payload = bench_points(
        designs, workloads, config=_config_from_args(args),
        repeats=args.repeats, progress=log.info,
    )
    if args.warm:
        # warm-runtime trajectory + the first large-mesh point
        # (docs/performance.md): a WorkerRuntime filling then steady,
        # plus one live 8x8 run.
        payload["warm_runtime"] = bench_warm_sweep(
            config=_config_from_args(args), progress=log.info)
        payload["mesh_scaling"] = bench_mesh_point(
            mesh="8x8", progress=log.info)
        if not payload["warm_runtime"]["identical"]:
            print("error: warm-runtime passes were not bit-identical "
                  "to plain simulate() — refusing to record",
                  file=sys.stderr)
            return 1
    if args.output:
        out = Path(args.output)
    else:
        out = next_bench_path(Path(args.out) if args.out else Path.cwd())
    write_bench(payload, out)
    from repro.observatory.history import record_bench

    record_bench(payload, out)
    t = payload["totals"]
    print(f"wrote {out} (total {t['wall_s']:.2f}s, "
          f"{t['tasks_per_s']:,.0f} tasks/s, "
          f"{t['accesses_per_s']:,.0f} accesses/s)")
    return 0


def cmd_diff(args) -> int:
    """``python -m repro diff A B``: structured run-to-run comparison.

    A and B are history indices (``-1`` = newest run), run-key
    prefixes, or paths to cached run JSON; see docs/observability.md.
    """
    from repro.observatory.diffing import diff_refs

    if getattr(args, "server", None):
        from repro.service.client import (RemoteCache, RemoteLedger,
                                          ServiceClient)

        client = ServiceClient(args.server)
        diff = diff_refs(args.a, args.b, ledger=RemoteLedger(client),
                         cache=RemoteCache(client),
                         threshold=args.threshold / 100.0)
    else:
        diff = diff_refs(args.a, args.b, cache=_cache_from_args(args),
                         threshold=args.threshold / 100.0)
    if args.json_out:
        print(_json.dumps(diff.to_dict(), indent=2, sort_keys=True))
    else:
        print(diff.render(verbose=getattr(args, "verbose", 0) >= 1))
    if args.fail_on_delta and not diff.identical:
        return 1
    return 0


def cmd_regress(args) -> int:
    """``python -m repro regress``: perf-regression detection.

    Default mode scans the ``BENCH_*.json`` trajectory under ``--dir``
    (tolerance bands + change-point scan, compatible records only);
    ``--against BASELINE`` instead band-checks one candidate record
    against a chosen baseline; ``--history`` adds a wall-time scan of
    the run-history ledger.  ``--fail-on-regression`` makes the exit
    code a CI gate.
    """
    from pathlib import Path

    from repro.observatory import regression as reg

    log = _log_from_args(args)
    tol = args.tolerance / 100.0
    reports = []
    if args.against:
        try:
            baseline = _json.loads(Path(args.against).read_text())
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot read baseline {args.against}: {exc}")
        if args.candidate:
            try:
                candidate = _json.loads(Path(args.candidate).read_text())
            except (OSError, ValueError) as exc:
                raise ValueError(
                    f"cannot read candidate {args.candidate}: {exc}")
            cand_name = args.candidate
        else:
            records = reg.load_bench_dir(Path(args.dir))
            if not records:
                raise ValueError(
                    f"no BENCH_*.json under {args.dir!r} to use as the "
                    f"candidate — run `python -m repro bench` first or "
                    f"pass --candidate PATH"
                )
            cand_name, candidate = records[-1]
        log.detail(f"comparing {cand_name} against {args.against} "
                   f"(band ±{tol:.0%})")
        reports.append(reg.compare_bench(
            baseline, candidate, tolerance=tol,
            baseline_name=args.against, candidate_name=cand_name,
        ))
    else:
        records = reg.load_bench_dir(Path(args.dir))
        if not records and not (args.history or
                                getattr(args, "server", None)):
            raise ValueError(
                f"no BENCH_*.json records under {args.dir!r} — run "
                f"`python -m repro bench` first (or pass --history to "
                f"scan the run ledger)"
            )
        reports.append(reg.scan_bench_trajectory(records, tolerance=tol))
    if args.history or getattr(args, "server", None):
        # --server reads the *server's* ledger (its clients' runs);
        # it implies the history scan.
        ledger = None
        if getattr(args, "server", None):
            from repro.service.client import RemoteLedger, ServiceClient

            ledger = RemoteLedger(ServiceClient(args.server))
        reports.append(reg.scan_history(ledger=ledger, tolerance=tol))
    report = reg.merge_reports(*reports)
    if args.json_out:
        print(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    if args.fail_on_regression and not report.ok:
        return 1
    return 0


def cmd_serve(args) -> int:
    """``python -m repro serve``: the sweep-as-a-service server.

    Clients (``--server URL`` on grid/diff/regress commands, or plain
    HTTP) share this process's result cache and history ledger;
    identical submissions dedupe by run key.  See docs/service.md.
    """
    import asyncio
    import os

    from repro.service.server import ExperimentServer

    if args.cache_dir:
        # env (not a constructor arg) so pool workers inherit it and
        # self-record history into the same root.
        os.environ["REPRO_CACHE_DIR"] = args.cache_dir
    server = ExperimentServer(host=args.host, port=args.port,
                              workers=args.workers)

    class _Announce:
        def set(self) -> None:
            mode = ("in-process threads" if args.workers == 0
                    else f"{server.pool_width()} worker process(es)")
            print(f"experiment server on http://{server.host}:"
                  f"{server.port} ({mode}, cache root "
                  f"{server.cache.root}) — Ctrl-C to stop", flush=True)

    try:
        asyncio.run(server.serve(ready=_Announce()))
    except KeyboardInterrupt:
        print("\nstopped")
    return 0


def cmd_compact(args) -> int:
    """``python -m repro compact``: bound the history ledger and sweep
    orphaned cache temp files (storage maintenance; see
    docs/service.md)."""
    from repro.observatory.history import default_ledger
    from repro.sweep.cache import default_cache

    stats = default_ledger().compact(max_bytes=args.max_bytes)
    print(f"history: {stats.summary()}")
    pruned = default_cache().prune_tmp()
    print(f"cache: {pruned} orphaned temp file(s) pruned")
    return 1 if stats.failed else 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ABNDP (ASPLOS'23) reproduction - NDP simulator CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--mesh", help="stack mesh, e.g. 2x2 / 4x4 / 8x8")
        p.add_argument("--alpha", type=float, help="hybrid weight alpha")
        p.add_argument("--interval", type=int,
                       help="workload exchange interval (cycles)")
        p.add_argument("--camps", type=int, help="camp locations C")
        p.add_argument("--bypass", type=float, help="bypass probability")

    def add_telemetry(p):
        p.add_argument("--trace-out", metavar="PATH",
                       help="write a Chrome trace_event JSON of the run "
                            "(forces a live, instrumented simulation)")
        p.add_argument("--sample-interval", type=int, default=None,
                       metavar="N",
                       help="timestamps between telemetry time-series "
                            "samples (implies instrumentation)")

    def add_verbosity(p):
        p.add_argument("-q", "--quiet", action="store_true",
                       help="suppress status/progress output (results "
                            "still print to stdout)")
        p.add_argument("-v", "--verbose", action="count", default=0,
                       help="more status detail (repeatable)")

    def add_progress(p):
        add_verbosity(p)
        p.add_argument("--no-progress", action="store_true",
                       help="plain per-point lines instead of the live "
                            "single-line TTY status")
        p.add_argument("--progress-jsonl", metavar="PATH", default=None,
                       help="append machine-readable per-point progress "
                            "events to PATH (one JSON object per line)")

    def add_server(p):
        p.add_argument("--server", metavar="URL", default=None,
                       help="run through a shared `repro serve` "
                            "instance instead of this machine "
                            "(submissions dedupe by run key)")

    def add_common(p, workload=True, design=False):
        add_config(p)
        p.add_argument("--csv", help="export results to a CSV file")
        p.add_argument("--json", help="export results to a JSON file")
        p.add_argument("--no-cache", action="store_true",
                       help="bypass the on-disk result cache")
        p.add_argument("-j", "--jobs", type=int, default=None,
                       help="worker processes for grid runs "
                            "(default: all cores)")
        if workload:
            p.add_argument("-w", "--workload", default="pr",
                           choices=sorted(repro.WORKLOAD_FACTORIES))
        if design:
            p.add_argument("-d", "--design", default="O",
                           choices=list(repro.ALL_DESIGNS))

    p_describe = sub.add_parser("describe", help="print the configuration")
    add_common(p_describe, workload=False)
    add_telemetry(p_describe)
    p_describe.add_argument(
        "--run", metavar="REF", default=None,
        help="describe one recorded run instead (history index, "
             "run-key prefix, or run JSON path): identity line plus "
             "its bottleneck class when a telemetry sidecar exists")
    sub.add_parser("designs", help="print the Table 2 design matrix")

    p_run = sub.add_parser("run", help="simulate one design/workload")
    add_common(p_run, design=True)
    add_telemetry(p_run)
    p_run.add_argument("--verify", action="store_true",
                       help="check the computed answer")
    p_run.add_argument("--profile", action="store_true",
                       help="cProfile the simulation (live run) and "
                            "print the top 25 functions by cumulative "
                            "time")
    p_run.add_argument("--profile-out", metavar="PATH", default=None,
                       help="also dump the raw profile to PATH "
                            "(pstats format; implies --profile)")

    p_trace = sub.add_parser(
        "trace",
        help="instrumented run exporting a Chrome/Perfetto timeline",
    )
    p_trace.add_argument("design", choices=list(repro.ALL_DESIGNS))
    p_trace.add_argument("workload",
                         choices=sorted(repro.WORKLOAD_FACTORIES))
    p_trace.add_argument("--out", default="trace.json",
                         help="Chrome trace_event JSON output path "
                              "(default: trace.json)")
    p_trace.add_argument("--jsonl", metavar="PATH",
                         help="also write one-event-per-line JSONL")
    p_trace.add_argument("--sample-interval", type=int, default=1,
                         metavar="N",
                         help="timestamps between time-series samples")
    add_config(p_trace)

    add_common(sub.add_parser("compare",
                              help="all designs on one workload"))
    p_faults = sub.add_parser(
        "faults",
        help="resilience campaign: healthy reference vs runs under "
             "injected unit/link/vault faults",
    )
    p_faults.add_argument("design", choices=list(repro.ALL_DESIGNS))
    p_faults.add_argument("workload",
                          choices=sorted(repro.WORKLOAD_FACTORIES))
    p_faults.add_argument("--schedule", action="append", metavar="FILE",
                          help="fault schedule JSON (repeatable; see "
                               "FaultSchedule.dump)")
    p_faults.add_argument("--units", type=int, default=0,
                          help="random permanent NDP-unit failures")
    p_faults.add_argument("--links", type=int, default=0,
                          help="random permanent NoC link failures")
    p_faults.add_argument("--vaults", type=int, default=0,
                          help="random DRAM-vault latency slowdowns")
    p_faults.add_argument("--seed", type=int, default=None,
                          help="fault-stream seed (default: config seed)")
    p_faults.add_argument("--dump-schedule", metavar="PATH",
                          help="write the generated schedule to a JSON file")
    add_common(p_faults, workload=False)
    add_progress(p_faults)

    p_bench = sub.add_parser(
        "bench",
        help="benchmark the simulator itself and record BENCH_<n>.json",
    )
    p_bench.add_argument("--designs",
                         help="comma-separated design subset "
                              "(default: all six)")
    p_bench.add_argument("--workloads",
                         help="comma-separated workload subset "
                              "(default: pr)")
    p_bench.add_argument("--repeats", type=int, default=2,
                         help="timed repetitions per point; the best "
                              "is kept (default: 2)")
    p_bench.add_argument("--output", metavar="PATH", default=None,
                         help="record path (default: next free "
                              "BENCH_<n>.json under --out)")
    p_bench.add_argument("--out", metavar="DIR", default=None,
                         help="directory for the auto-numbered "
                              "BENCH_<n>.json (default: current "
                              "directory; created on demand)")
    p_bench.add_argument("--warm", action="store_true",
                         help="additionally record the warm-runtime "
                              "trajectory (WorkerRuntime filling/steady) "
                              "and one 8x8 mesh point")
    add_config(p_bench)
    add_verbosity(p_bench)

    p_sweep = sub.add_parser(
        "sweep", aliases=["matrix"],
        help="the full design x workload matrix (no argument; parallel, "
             "cached, emits sweep_results.json) or a Section 7.2 "
             "parameter sweep",
    )
    p_sweep.add_argument("parameter", nargs="?", default=None,
                         choices=sorted(_SWEEPS))
    p_sweep.add_argument("--designs",
                         help="comma-separated design subset (matrix mode)")
    p_sweep.add_argument("--workloads",
                         help="comma-separated workload subset (matrix mode)")
    p_sweep.add_argument("--output", default="sweep_results.json",
                         help="machine-readable matrix output path")
    add_common(p_sweep, design=True)
    add_progress(p_sweep)
    add_server(p_sweep)

    p_campaign = sub.add_parser(
        "campaign",
        help="declarative campaigns: run/validate/expand committed "
             "campaigns/*.json specs (see docs/campaigns.md)",
    )
    csub = p_campaign.add_subparsers(dest="action", required=True)

    def add_sets(p):
        p.add_argument("--set", action="append", metavar="PATH=VALUE",
                       default=None,
                       help="override a campaign or point value "
                            "(repeatable; JSON-parsed, applied last; "
                            "also binds $RUNTIME_VALUE placeholders)")

    pc_run = csub.add_parser(
        "run", help="expand a campaign and run every point (local "
                    "sweep engine, or --server URL)")
    pc_run.add_argument("file", help="campaign JSON file")
    add_sets(pc_run)
    pc_run.add_argument("--out", metavar="DIR", default=None,
                        help="artifact directory for report.json "
                             "(default: the campaign's artifacts.dir, "
                             "else campaign_out/<name>)")
    pc_run.add_argument("--csv", help="export results to a CSV file")
    pc_run.add_argument("--json", help="export results to a JSON file")
    pc_run.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache")
    pc_run.add_argument("-j", "--jobs", type=int, default=None,
                        help="worker processes (default: all cores)")
    add_progress(pc_run)
    add_server(pc_run)

    pc_validate = csub.add_parser(
        "validate", help="load and expand campaign files, reporting "
                         "errors without running anything")
    pc_validate.add_argument("file", nargs="+",
                             help="campaign JSON file(s)")
    add_sets(pc_validate)
    pc_validate.add_argument("--json", dest="json_out",
                             action="store_true",
                             help="machine-readable verdicts on stdout")
    add_verbosity(pc_validate)

    pc_expand = csub.add_parser(
        "expand", help="print the expanded point list (labels, run "
                       "keys, resolved specs) without running")
    pc_expand.add_argument("file", help="campaign JSON file")
    add_sets(pc_expand)
    pc_expand.add_argument("--json", dest="json_out",
                           action="store_true",
                           help="machine-readable expansion on stdout")
    add_verbosity(pc_expand)

    pc_report = csub.add_parser(
        "report", help="render an archived campaign report.json")
    pc_report.add_argument("path",
                           help="artifact directory or report.json path")
    pc_report.add_argument("--json", dest="json_out",
                           action="store_true",
                           help="dump the raw report payload")
    add_verbosity(pc_report)

    p_report = sub.add_parser(
        "report",
        help="bottleneck classification report (DAMOV-style) over a "
             "campaign report.json, sweep export, or history ledger "
             "(see docs/insight.md)",
    )
    p_report.add_argument(
        "input",
        help="campaign artifact dir or report.json, `repro sweep` "
             "output JSON, or a history .jsonl ledger")
    p_report.add_argument("--out", metavar="DIR", default=None,
                          help="write insight.json / insight.md under "
                               "DIR instead of printing to stdout")
    p_report.add_argument("--format", choices=["json", "md", "both"],
                          default="both",
                          help="renderings to emit (default: both; "
                               "stdout mode prints markdown unless "
                               "--format json)")
    p_report.add_argument("--heatmap", action="store_true",
                          help="also render the ASCII memory-intensity "
                               "heatmap")
    p_report.add_argument("--last", type=int, default=None, metavar="N",
                          help="only the newest N records of a ledger "
                               "or sweep input")
    p_report.add_argument("--trace-out", metavar="PATH", default=None,
                          help="merge the campaign's per-point record "
                               "into one correlated Chrome trace at "
                               "PATH (campaign report inputs only)")
    p_report.add_argument("--merge-trace", action="append",
                          metavar="PATH", default=None,
                          help="extra per-run Chrome trace fragments "
                               "to fold into --trace-out (repeatable)")
    p_report.add_argument("--no-cache", action="store_true",
                          help="classify from the artifact alone, "
                               "without result-cache refinement")
    add_verbosity(p_report)

    p_diff = sub.add_parser(
        "diff",
        help="compare two recorded runs (history indices like -1/-2, "
             "run-key prefixes, or cached-run JSON paths)",
    )
    p_diff.add_argument("a", help="baseline run reference")
    p_diff.add_argument("b", help="candidate run reference")
    p_diff.add_argument("--threshold", type=float, default=0.1,
                        metavar="PCT",
                        help="relative change (percent) below which a "
                             "delta is noise (default: 0.1)")
    p_diff.add_argument("--json", dest="json_out", action="store_true",
                        help="emit the structured diff as JSON")
    p_diff.add_argument("--fail-on-delta", action="store_true",
                        help="exit 1 when any semantic metric differs")
    p_diff.add_argument("--no-cache", action="store_true",
                        help="resolve references without the result cache")
    add_verbosity(p_diff)
    add_server(p_diff)

    p_regress = sub.add_parser(
        "regress",
        help="perf-regression scan over BENCH_*.json records "
             "(tolerance bands + change-point detection)",
    )
    p_regress.add_argument("--against", metavar="BASELINE",
                           help="band-check one candidate record against "
                                "this baseline BENCH_*.json instead of "
                                "scanning the whole trajectory")
    p_regress.add_argument("--candidate", metavar="PATH", default=None,
                           help="candidate record for --against "
                                "(default: the newest BENCH_<n>.json "
                                "under --dir)")
    p_regress.add_argument("--dir", default=".", metavar="DIR",
                           help="directory holding the BENCH_*.json "
                                "trajectory (default: current directory)")
    p_regress.add_argument("--tolerance", type=float, default=10.0,
                           metavar="PCT",
                           help="allowed regression band, percent "
                                "(default: 10)")
    p_regress.add_argument("--history", action="store_true",
                           help="also scan wall times in the run-history "
                                "ledger")
    p_regress.add_argument("--json", dest="json_out", action="store_true",
                           help="emit the report as JSON")
    p_regress.add_argument("--fail-on-regression", action="store_true",
                           help="exit 1 when any regression is flagged")
    add_verbosity(p_regress)
    add_server(p_regress)

    p_serve = sub.add_parser(
        "serve",
        help="sweep-as-a-service: HTTP server over the shared result "
             "cache (spec dedup by run key, process-pool fan-out, "
             "NDJSON progress streams)",
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8642,
                         help="bind port; 0 picks an ephemeral one "
                              "(default: 8642)")
    p_serve.add_argument("--workers", type=int, default=None,
                         help="simulation worker processes (default: "
                              "all cores; 0 = in-process threads, for "
                              "tests)")
    p_serve.add_argument("--cache-dir", metavar="DIR", default=None,
                         help="result-cache root to serve "
                              "(default: .repro_cache, or "
                              "REPRO_CACHE_DIR)")

    p_compact = sub.add_parser(
        "compact",
        help="compact the history ledger (merge rotated generation, "
             "drop corrupt lines) and prune orphaned cache temp files",
    )
    p_compact.add_argument("--max-bytes", type=int, default=None,
                           help="byte budget for the compacted ledger "
                                "(default: the 8 MB rotation bound)")

    return parser


_COMMANDS = {
    "describe": cmd_describe,
    "designs": cmd_designs,
    "run": cmd_run,
    "trace": cmd_trace,
    "compare": cmd_compare,
    "faults": cmd_faults,
    "bench": cmd_bench,
    "sweep": cmd_sweep,
    "matrix": cmd_sweep,  # argparse alias of `sweep`
    "campaign": cmd_campaign,
    "report": cmd_report,
    "diff": cmd_diff,
    "regress": cmd_regress,
    "serve": cmd_serve,
    "compact": cmd_compact,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
