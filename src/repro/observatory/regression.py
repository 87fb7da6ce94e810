"""Perf-regression detection over the ``BENCH_*.json`` trajectory.

Two complementary detectors, both deterministic (no permutation
tests — CI gates must not flake):

* **Tolerance bands** — a candidate record is compared against a
  baseline per metric; a relative move beyond the band *in the bad
  direction* (wall time up, throughput down) is a regression.
  Semantic fields (``makespan_cycles``, ``tasks``, ``accesses`` of
  shared points) are held to near-exact equality: the simulator is
  seeded and deterministic, so any drift there is a behaviour change,
  not noise — the strictest and most portable part of the gate.
* **Change-point scan** — an e-divisive-lite pass over a metric
  series: every candidate split is scored by the Welch statistic
  ``|mean(left) - mean(right)| / se`` and a split is flagged when the
  score clears ``z_threshold`` *and* the mean shift clears
  ``min_rel`` (both guards, so flat-but-noisy series pass and
  zero-noise steps are still caught).  This is the means-only core of
  the e-divisive method MongoDB's DSI uses for its perf CI.

Records compare only within *compatible groups* (same engine *tier*,
mesh, seed, design/workload sets): new records and old scalar/batched
records are all exact-tier and produce identical results, so an engine
change among them only shows up as a wall time, while records of any
other engine (the removed statistical ``vector`` tier) form their own
group and are never compared semantically with exact-tier records.  Cross-machine
absolute seconds are only trusted as far as the caller's tolerance
allows (see the ``regression-gate`` CI step for the documented band).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.config import engine_tier
from repro.observatory.history import HistoryLedger, default_ledger

#: default relative tolerance for wall/throughput metrics (10%).
DEFAULT_TOLERANCE = 0.10

#: near-exact band for semantic (deterministic) fields.
SEMANTIC_RTOL = 1e-9

#: Welch-statistic threshold for the change-point scan.
Z_THRESHOLD = 3.0

#: minimum relative mean shift a change point must also clear.
MIN_REL_SHIFT = 0.05

#: metric -> +1 when "up is bad", -1 when "down is bad".
BAD_DIRECTION = {
    "wall_s": +1,
    "cpu_s": +1,
    "tasks_per_s": -1,
    "accesses_per_s": -1,
}

_BENCH_RE = re.compile(r"^BENCH_(\d+)\.json$")


# ----------------------------------------------------------------------
# findings
# ----------------------------------------------------------------------
@dataclass
class Finding:
    """One checked comparison (pass or fail)."""

    metric: str
    kind: str                 # "semantic" | "tolerance" | "change-point"
    baseline: float
    candidate: float
    rel_change: float
    regression: bool
    message: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "metric": self.metric, "kind": self.kind,
            "baseline": self.baseline, "candidate": self.candidate,
            "rel_change": self.rel_change if math.isfinite(self.rel_change)
            else None,
            "regression": self.regression, "message": self.message,
        }


@dataclass
class RegressionReport:
    """Everything the detector checked and what it flagged."""

    findings: List[Finding] = field(default_factory=list)
    checks: int = 0
    notes: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[Finding]:
        return [f for f in self.findings if f.regression]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "checks": self.checks,
            "regressions": len(self.regressions),
            "findings": [f.to_dict() for f in self.findings],
            "notes": list(self.notes),
        }

    def summary(self) -> str:
        if self.ok:
            return (f"no regressions across {self.checks} checks"
                    + (f" ({len(self.findings)} notable moves, all "
                       f"improvements or in-band)" if self.findings
                       else ""))
        worst = max(self.regressions,
                    key=lambda f: abs(f.rel_change)
                    if math.isfinite(f.rel_change) else math.inf)
        return (f"{len(self.regressions)} regression(s) across "
                f"{self.checks} checks; worst: {worst.message}")

    def render(self) -> str:
        lines = []
        for note in self.notes:
            lines.append(f"note: {note}")
        for f in self.findings:
            mark = "REGRESSION" if f.regression else "ok"
            lines.append(f"  [{mark:10}] {f.message}")
        lines.append(self.summary())
        return "\n".join(lines)


def _rel(baseline: float, candidate: float) -> float:
    if baseline == 0:
        return 0.0 if candidate == 0 else math.inf
    return (candidate - baseline) / abs(baseline)


# ----------------------------------------------------------------------
# change-point scan (e-divisive-lite on means)
# ----------------------------------------------------------------------
@dataclass
class ChangePoint:
    """One detected shift in a metric series."""

    index: int           #: first point of the *after* segment
    before_mean: float
    after_mean: float
    score: float         #: Welch statistic of the split

    @property
    def rel_change(self) -> float:
        return _rel(self.before_mean, self.after_mean)


def _welch_score(left: Sequence[float], right: Sequence[float]) -> float:
    nl, nr = len(left), len(right)
    ml = sum(left) / nl
    mr = sum(right) / nr
    vl = sum((x - ml) ** 2 for x in left) / nl
    vr = sum((x - mr) ** 2 for x in right) / nr
    se = math.sqrt(vl / nl + vr / nr)
    gap = abs(mr - ml)
    if se == 0.0:
        return math.inf if gap > 0 else 0.0
    return gap / se


def changepoints(
    series: Sequence[float],
    z_threshold: float = Z_THRESHOLD,
    min_rel: float = MIN_REL_SHIFT,
    min_segment: int = 2,
) -> List[ChangePoint]:
    """Detect mean shifts in ``series`` (recursive best-split scan).

    Returns change points in series order; empty for flat or
    noisy-but-flat series.  Deterministic by construction.
    """
    out: List[ChangePoint] = []

    def scan(offset: int, xs: Sequence[float]) -> None:
        n = len(xs)
        if n < 2 * min_segment:
            return
        best_k, best_score = -1, 0.0
        for k in range(min_segment, n - min_segment + 1):
            score = _welch_score(xs[:k], xs[k:])
            if score > best_score:
                best_k, best_score = k, score
        if best_k < 0 or best_score < z_threshold:
            return
        before = sum(xs[:best_k]) / best_k
        after = sum(xs[best_k:]) / (n - best_k)
        rel = _rel(before, after)
        if not math.isfinite(rel) or abs(rel) < min_rel:
            return
        scan(offset, xs[:best_k])
        out.append(ChangePoint(
            index=offset + best_k, before_mean=before,
            after_mean=after, score=best_score,
        ))
        scan(offset + best_k, xs[best_k:])

    scan(0, list(series))
    out.sort(key=lambda cp: cp.index)
    return out


# ----------------------------------------------------------------------
# record-vs-record tolerance comparison
# ----------------------------------------------------------------------
def _group_signature(payload: Dict[str, Any]) -> Tuple:
    """Records compare only within identical signatures.

    The engine enters by *tier*, not by name: new records (no engine)
    and old scalar/batched records are one "exact" trajectory, while a
    record of any other engine (the removed vector tier) is its own
    group — comparing its wall times against an exact record would
    misattribute the engine switch as a perf move.
    """
    return (
        engine_tier(payload.get("engine")), payload.get("mesh"),
        payload.get("seed"),
        tuple(payload.get("designs", [])),
        tuple(payload.get("workloads", [])),
    )


def _points_by_cell(payload: Dict[str, Any]) -> Dict[Tuple, Dict]:
    return {
        (p.get("design"), p.get("workload")): p
        for p in payload.get("points", [])
    }


def compare_bench(
    baseline: Dict[str, Any],
    candidate: Dict[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
    baseline_name: str = "baseline",
    candidate_name: str = "candidate",
) -> RegressionReport:
    """Tolerance-band comparison of two ``BENCH_*.json`` payloads.

    Semantic fields of shared (design, workload) points must match to
    :data:`SEMANTIC_RTOL` when seed and mesh agree; wall/throughput
    fields are held to ``tolerance`` in the bad direction only (a
    faster candidate is an improvement, never flagged).  Records of
    differing engine tiers are treated like differing seeds or meshes:
    their semantic fields are not compared.
    """
    report = RegressionReport()
    base_pts = _points_by_cell(baseline)
    cand_pts = _points_by_cell(candidate)
    shared = sorted(set(base_pts) & set(cand_pts))
    if not shared:
        report.notes.append(
            f"{baseline_name} and {candidate_name} share no "
            f"(design, workload) points — nothing compared"
        )
        return report

    tiers = (engine_tier(baseline.get("engine")),
             engine_tier(candidate.get("engine")))
    comparable_semantics = False
    if tiers[0] != tiers[1]:
        report.notes.append(
            f"engine tiers differ ({tiers[0]} vs {tiers[1]}) — semantic "
            "equality of makespan/tasks/accesses was not checked"
        )
    elif (baseline.get("seed") != candidate.get("seed")
          or baseline.get("mesh") != candidate.get("mesh")):
        report.notes.append(
            "seed/mesh differ between the records — semantic equality "
            "of makespan/tasks/accesses was not checked"
        )
    else:
        comparable_semantics = True

    for cell in shared:
        design, workload = cell
        b, c = base_pts[cell], cand_pts[cell]
        if comparable_semantics:
            for metric in ("makespan_cycles", "tasks", "accesses"):
                if metric not in b or metric not in c:
                    continue
                report.checks += 1
                rel = _rel(float(b[metric]), float(c[metric]))
                bad = (not math.isfinite(rel)
                       or abs(rel) > SEMANTIC_RTOL)
                if bad or abs(rel) > 0:
                    report.findings.append(Finding(
                        metric=f"{design}/{workload}.{metric}",
                        kind="semantic",
                        baseline=float(b[metric]),
                        candidate=float(c[metric]),
                        rel_change=rel, regression=bad,
                        message=(
                            f"{design}/{workload} {metric}: "
                            f"{b[metric]:,} -> {c[metric]:,} — the "
                            f"simulator is deterministic, this is a "
                            f"behaviour change" if bad else
                            f"{design}/{workload} {metric} unchanged"
                        ),
                    ))
        for metric, direction in BAD_DIRECTION.items():
            if metric not in b or metric not in c:
                continue
            report.checks += 1
            rel = _rel(float(b[metric]), float(c[metric]))
            bad = math.isfinite(rel) and direction * rel > tolerance
            if bad or abs(rel) > tolerance:
                report.findings.append(Finding(
                    metric=f"{design}/{workload}.{metric}",
                    kind="tolerance",
                    baseline=float(b[metric]),
                    candidate=float(c[metric]),
                    rel_change=rel, regression=bad,
                    message=(
                        f"{design}/{workload} {metric}: "
                        f"{b[metric]} -> {c[metric]} ({rel:+.1%}, "
                        f"band ±{tolerance:.0%}"
                        + (", bad direction)" if bad
                           else ", improvement)")
                    ),
                ))

    bt, ct = baseline.get("totals", {}), candidate.get("totals", {})
    for metric, direction in BAD_DIRECTION.items():
        if metric not in bt or metric not in ct:
            continue
        report.checks += 1
        rel = _rel(float(bt[metric]), float(ct[metric]))
        bad = math.isfinite(rel) and direction * rel > tolerance
        if bad or abs(rel) > tolerance:
            report.findings.append(Finding(
                metric=f"totals.{metric}", kind="tolerance",
                baseline=float(bt[metric]), candidate=float(ct[metric]),
                rel_change=rel, regression=bad,
                message=(
                    f"totals.{metric}: {bt[metric]} -> {ct[metric]} "
                    f"({rel:+.1%}, band ±{tolerance:.0%}"
                    + (", bad direction)" if bad else ", improvement)")
                ),
            ))
    return report


# ----------------------------------------------------------------------
# trajectories: BENCH_*.json directories and the history ledger
# ----------------------------------------------------------------------
def load_bench_dir(directory: Path) -> List[Tuple[str, Dict[str, Any]]]:
    """``(name, payload)`` for every ``BENCH_<n>.json``, index order."""
    records = []
    for path in sorted(Path(directory).iterdir()
                       if Path(directory).is_dir() else []):
        m = _BENCH_RE.match(path.name)
        if not m:
            continue
        try:
            records.append((int(m.group(1)), path.name,
                            json.loads(path.read_text())))
        except (OSError, ValueError):
            continue
    records.sort(key=lambda r: r[0])
    return [(name, payload) for _, name, payload in records]


def scan_bench_trajectory(
    records: Sequence[Tuple[str, Dict[str, Any]]],
    tolerance: float = DEFAULT_TOLERANCE,
    metrics: Sequence[str] = ("wall_s", "tasks_per_s"),
) -> RegressionReport:
    """Regression scan over an ordered ``BENCH_*.json`` trajectory.

    Records are grouped by compatibility signature (engine, mesh,
    seed, point sets); within each group every metric series gets a
    change-point scan, and the newest record is band-checked against
    the mean of its predecessors.  Singleton groups (e.g. the one
    scalar record before an engine switch) contribute nothing — an
    engine migration is not a regression.
    """
    report = RegressionReport()
    groups: Dict[Tuple, List[Tuple[str, Dict[str, Any]]]] = {}
    for name, payload in records:
        groups.setdefault(_group_signature(payload), []).append(
            (name, payload))
    for signature, group in groups.items():
        label = f"tier={signature[0]} mesh={signature[1]}"
        if len(group) < 2:
            report.notes.append(
                f"{label}: {len(group)} record(s) — trajectory too "
                f"short to scan"
            )
            continue
        for metric in metrics:
            direction = BAD_DIRECTION.get(metric, +1)
            series = [float(p.get("totals", {}).get(metric, 0.0))
                      for _, p in group]
            names = [name for name, _ in group]
            # newest vs the mean of everything before it
            prior = series[:-1]
            prior_mean = sum(prior) / len(prior)
            report.checks += 1
            rel = _rel(prior_mean, series[-1])
            bad = math.isfinite(rel) and direction * rel > tolerance
            if bad or abs(rel) > tolerance:
                report.findings.append(Finding(
                    metric=f"{label} totals.{metric}", kind="tolerance",
                    baseline=prior_mean, candidate=series[-1],
                    rel_change=rel, regression=bad,
                    message=(
                        f"{names[-1]} totals.{metric} {series[-1]:.4g} "
                        f"vs prior mean {prior_mean:.4g} ({rel:+.1%}, "
                        f"band ±{tolerance:.0%}"
                        + (", bad direction)" if bad
                           else ", improvement)")
                    ),
                ))
            # change-point scan over the whole series
            report.checks += 1
            for cp in changepoints(series):
                bad = direction * cp.rel_change > 0
                report.findings.append(Finding(
                    metric=f"{label} totals.{metric}",
                    kind="change-point",
                    baseline=cp.before_mean, candidate=cp.after_mean,
                    rel_change=cp.rel_change, regression=bad,
                    message=(
                        f"change point at {names[cp.index]} in "
                        f"totals.{metric}: mean {cp.before_mean:.4g} -> "
                        f"{cp.after_mean:.4g} ({cp.rel_change:+.1%}"
                        + (", bad direction)" if bad
                           else ", improvement)")
                    ),
                ))
    return report


def scan_history(
    ledger: Optional[HistoryLedger] = None,
    tolerance: float = DEFAULT_TOLERANCE,
    min_runs: int = 4,
) -> RegressionReport:
    """Wall-time regression scan over the run-history ledger.

    Runs group by (design, workload, config fingerprint, engine
    *tier*) — the same simulation repeated over time.  New records and
    old scalar/batched records share the exact tier (bit-identical
    work, comparable wall times); records of any other engine (the
    removed vector tier) are their own group, so they never join an
    exact-tier series.
    Each group's wall-time series gets the change-point scan plus a
    newest-vs-prior-mean band check.
    """
    ledger = ledger if ledger is not None else default_ledger()
    report = RegressionReport()
    groups: Dict[Tuple, List] = {}
    for rec in ledger.records():
        if rec.source not in ("simulate", "campaign") or rec.wall_s <= 0:
            continue
        sig = (rec.design, rec.workload, rec.config_fingerprint,
               engine_tier(rec.engine))
        groups.setdefault(sig, []).append(rec)
    for sig, recs in groups.items():
        if len(recs) < min_runs:
            continue
        label = f"{sig[0]}/{sig[1]}@{sig[3] or 'engine?'}"
        series = [r.wall_s for r in recs]
        report.checks += 1
        prior = series[:-1]
        prior_mean = sum(prior) / len(prior)
        rel = _rel(prior_mean, series[-1])
        if math.isfinite(rel) and rel > tolerance:
            report.findings.append(Finding(
                metric=f"{label}.wall_s", kind="tolerance",
                baseline=prior_mean, candidate=series[-1],
                rel_change=rel, regression=True,
                message=(
                    f"{label} latest wall {series[-1]:.3f}s vs prior "
                    f"mean {prior_mean:.3f}s ({rel:+.1%}, band "
                    f"±{tolerance:.0%})"
                ),
            ))
        report.checks += 1
        for cp in changepoints(series):
            if cp.rel_change <= 0:
                continue  # runs got faster — not a regression
            report.findings.append(Finding(
                metric=f"{label}.wall_s", kind="change-point",
                baseline=cp.before_mean, candidate=cp.after_mean,
                rel_change=cp.rel_change, regression=True,
                message=(
                    f"{label} wall-time change point at run "
                    f"#{cp.index}: mean {cp.before_mean:.3f}s -> "
                    f"{cp.after_mean:.3f}s ({cp.rel_change:+.1%})"
                ),
            ))
    if not groups:
        report.notes.append("history ledger holds no timed runs yet")
    return report


def merge_reports(*reports: RegressionReport) -> RegressionReport:
    merged = RegressionReport()
    for rep in reports:
        merged.findings.extend(rep.findings)
        merged.notes.extend(rep.notes)
        merged.checks += rep.checks
    return merged
