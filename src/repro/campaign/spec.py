"""Campaign files: load, validate, and expand into experiment points.

A campaign document is a JSON object (YAML is accepted too when PyYAML
happens to be installed — never required)::

    {
      "name": "full_matrix",
      "description": "the standard 48-point grid",
      "base":      { ... one experiment-point layer ... },
      "axes":      {"workload": ["pr", "bfs"], "design": ["B", "O"]},
      "include":   [ {point fragments appended after the grid} ],
      "exclude":   [ {"design": "C", "workload": "pr"} ],
      "overrides": { ... point layer applied after the axes ... },
      "schedules": { ... named fault schedules for ${schedules.x} ... },
      "telemetry": {"progress_jsonl": "events.jsonl"},
      "artifacts": {"dir": "campaign_out/full_matrix", "csv": true}
    }

Expansion is deterministic: axes cross-product in declaration order
(first axis outermost), then ``include`` entries in order.  Each point
is the deep merge of ``base`` < its axis assignments < ``overrides`` <
CLI ``--set`` entries, the same precedence the docs promise.  Dotted
axis names (``"config.cache.num_camps"``) assign into nested config
sections.  ``${path.to.key}`` cross-references and ``$RUNTIME_VALUE``
placeholders are resolved before expansion by
:func:`repro.campaign.resolver.interpolate`.

A ``faults`` value on a point may be a literal
``FaultSchedule.to_dict()`` payload or the declarative
``{"random": {"unit_fails": 4, ...}}`` form, which is materialized
through :func:`repro.faults.make_random_schedule` against the point's
*resolved* topology and seed — so the same campaign file scales with
``mesh`` and stays reproducible.
"""

from __future__ import annotations

import copy
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.campaign.resolver import (
    POINT_KEYS,
    SpecError,
    deep_merge,
    get_path,
    interpolate,
    resolve_system_config,
    set_path,
    split_path,
)

#: top-level campaign-document keys.
DOC_KEYS = ("name", "description", "base", "axes", "matrix", "include",
            "exclude", "overrides", "schedules", "telemetry", "artifacts")

#: keyword arguments ``{"random": {...}}`` fault blocks may carry —
#: everything :func:`repro.faults.make_random_schedule` takes except
#: the topology, which comes from the point's resolved config.
RANDOM_FAULT_KEYS = ("unit_fails", "link_fails", "vault_slowdowns",
                     "seed", "first_timestamp", "timestamp_spread",
                     "vault_factor", "duration_phases")


@dataclass
class CampaignPoint:
    """One expanded point: a resolvable spec plus its provenance."""

    index: int
    label: str
    spec: Any  # ExperimentSpec (typed loosely to avoid an import cycle)
    assignments: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Expansion:
    """The result of expanding one campaign document."""

    points: List[CampaignPoint]
    fingerprint: str
    duplicates_dropped: int = 0

    def __len__(self) -> int:
        return len(self.points)


def _expect(value: Any, kind: type, path: str, what: str) -> Any:
    if value is not None and not isinstance(value, kind):
        raise SpecError(f"{path}: expected {what}, "
                        f"got {type(value).__name__}")
    return value


def _fault_label(value: Any) -> str:
    """A compact, stable label fragment for a faults assignment."""
    if not value:
        return "healthy"
    if isinstance(value, dict) and "random" in value:
        params = value["random"] or {}
        parts = "".join(
            f"{tag}{params[name]}"
            for tag, name in (("u", "unit_fails"), ("l", "link_fails"),
                              ("v", "vault_slowdowns"))
            if params.get(name))
        return parts or "healthy"
    from repro.sweep.keys import stable_hash

    return "f" + stable_hash(value)[:6]


def _axis_label_fragment(axis: str, value: Any) -> str:
    short = split_path(axis)[-1]
    if axis == "faults" or short == "faults":
        return _fault_label(value)
    if isinstance(value, (dict, list)):
        from repro.sweep.keys import stable_hash

        return f"{short}={stable_hash(value)[:6]}"
    return f"{short}={value}"


def _materialize_faults(point: Dict[str, Any], label: str) -> None:
    """Normalize a point's ``faults`` value in place.

    ``None`` / empty disappears, a declarative ``{"random": {...}}``
    block becomes the seed-derived :class:`FaultSchedule` payload, and
    a literal ``{"events": [...]}`` payload passes through untouched.
    """
    faults = point.get("faults")
    if not faults:
        point.pop("faults", None)
        return
    if not isinstance(faults, dict) or "random" not in faults:
        return
    extra = set(faults) - {"random"}
    if extra:
        raise SpecError(
            f"{label}: faults.random cannot be combined with "
            f"{sorted(extra)}")
    params = faults["random"] or {}
    if not isinstance(params, dict):
        raise SpecError(f"{label}: faults.random must be an object")
    unknown = set(params) - set(RANDOM_FAULT_KEYS)
    if unknown:
        raise SpecError(
            f"{label}: unknown faults.random key(s) {sorted(unknown)}; "
            f"expected a subset of {sorted(RANDOM_FAULT_KEYS)}")
    cfg = resolve_system_config(
        mesh=point.get("mesh"), config=point.get("config"),
        seed=point.get("seed"))
    from repro.arch.topology import Topology
    from repro.faults.schedule import make_random_schedule

    topo = Topology(cfg.topology, num_groups=cfg.cache.num_groups())
    kwargs = dict(params)
    kwargs.setdefault("seed", cfg.seed)
    try:
        schedule = make_random_schedule(
            topo.num_units, topo.mesh_links(), **kwargs)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{label}: faults.random: {exc}")
    if schedule:
        point["faults"] = schedule.to_dict()
    else:
        point.pop("faults", None)


@dataclass
class CampaignSpec:
    """One loaded (but not yet expanded) campaign document."""

    name: str
    description: str = ""
    doc: Dict[str, Any] = field(default_factory=dict)
    path: Optional[Path] = None
    source_sha256: str = ""

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Any,
                  path: Optional[Path] = None,
                  source_sha256: str = "") -> "CampaignSpec":
        if not isinstance(data, dict):
            raise SpecError("campaign must be a JSON object")
        unknown = set(data) - set(DOC_KEYS)
        if unknown:
            raise SpecError(
                f"unknown campaign key(s) {sorted(unknown)}; expected "
                f"a subset of {sorted(DOC_KEYS)}")
        if "axes" in data and "matrix" in data:
            raise SpecError(
                "give either 'axes' or its alias 'matrix', not both")
        name = data.get("name")
        if not name or not isinstance(name, str):
            raise SpecError("name: campaign needs a non-empty string name")
        _expect(data.get("description"), str, "description", "a string")
        _expect(data.get("base"), dict, "base", "an object")
        _expect(data.get("overrides"), dict, "overrides", "an object")
        _expect(data.get("schedules"), dict, "schedules", "an object")
        _expect(data.get("telemetry"), dict, "telemetry", "an object")
        _expect(data.get("artifacts"), dict, "artifacts", "an object")
        axes = _expect(data.get("axes", data.get("matrix")), dict,
                       "axes", "an object of value lists")
        for axis, values in (axes or {}).items():
            if not isinstance(values, list) or not values:
                raise SpecError(
                    f"axes.{axis}: expected a non-empty list of values")
            if split_path(axis)[0] not in POINT_KEYS:
                raise SpecError(
                    f"axes.{axis}: unknown point key; the first path "
                    f"segment must be one of {sorted(POINT_KEYS)}")
        for section in ("include", "exclude"):
            entries = _expect(data.get(section), list, section,
                              "a list of objects")
            for i, entry in enumerate(entries or []):
                _expect(entry, dict, f"{section}.{i}", "an object")
        return cls(name=name,
                   description=str(data.get("description") or ""),
                   doc=copy.deepcopy(data), path=path,
                   source_sha256=source_sha256)

    def to_dict(self) -> Dict[str, Any]:
        return copy.deepcopy(self.doc)

    # ------------------------------------------------------------------
    def expand(self, sets: Optional[Mapping[str, Any]] = None,
               env: Optional[Mapping[str, str]] = None) -> Expansion:
        """Resolve and expand this campaign into experiment points.

        ``sets`` is the parsed ``--set`` map: entries whose first path
        segment is a campaign key patch the document before
        interpolation (and double as ``$RUNTIME_VALUE`` bindings);
        entries whose first segment is a point key are the final
        override layer on every point.
        """
        from repro.service.spec import ExperimentSpec

        sets = dict(sets or {})
        doc_sets, point_sets = {}, {}
        for key, value in sets.items():
            head = split_path(key)[0]
            if head in DOC_KEYS:
                doc_sets[key] = value
            elif head in POINT_KEYS:
                point_sets[key] = value
            else:
                raise SpecError(
                    f"--set {key}: unknown path; the first segment must "
                    f"be a campaign key ({sorted(DOC_KEYS)}) or a point "
                    f"key ({sorted(POINT_KEYS)})")

        doc = copy.deepcopy(self.doc)
        for key, value in doc_sets.items():
            set_path(doc, key, value)
        doc = interpolate(doc, runtime=sets, env=env)

        base = doc.get("base") or {}
        overrides = doc.get("overrides") or {}
        axes: Dict[str, List[Any]] = \
            doc.get("axes", doc.get("matrix")) or {}
        self._check_point_layer(base, "base")
        self._check_point_layer(overrides, "overrides")

        combos: List[Dict[str, Any]]
        if axes:
            combos = [dict(zip(axes.keys(), values))
                      for values in itertools.product(*axes.values())]
        elif doc.get("include"):
            combos = []  # include-only: the includes are the points
        else:
            combos = [{}]

        raw_points: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []
        for combo in combos:
            point = copy.deepcopy(base)
            for axis, value in combo.items():
                set_path(point, axis, copy.deepcopy(value))
            if self._excluded(point, doc.get("exclude") or []):
                continue
            point = deep_merge(point, overrides)
            raw_points.append((point, dict(combo)))
        for i, entry in enumerate(doc.get("include") or []):
            self._check_point_layer(entry, f"include.{i}")
            point = deep_merge(deep_merge(base, entry), overrides)
            raw_points.append((point, {"include": i}))

        points: List[CampaignPoint] = []
        seen: Dict[str, int] = {}
        duplicates = 0
        for point, assignments in raw_points:
            for key, value in point_sets.items():
                set_path(point, key, value)
            label = self._label_for(point, assignments, axes)
            _materialize_faults(point, label)
            if "label" not in point:
                point["label"] = label
            identity = json.dumps(point, sort_keys=True, default=str)
            if identity in seen:
                duplicates += 1
                continue
            seen[identity] = len(points)
            try:
                spec = ExperimentSpec.from_dict(point)
            except SpecError as exc:
                raise SpecError(f"point {label!r}: {exc}") from None
            points.append(CampaignPoint(
                index=len(points), label=spec.label,
                spec=spec, assignments=assignments))

        from repro.sweep.keys import stable_hash

        fingerprint = stable_hash({
            "name": self.name,
            "points": [p.spec.to_dict() for p in points],
        })[:16]
        return Expansion(points=points, fingerprint=fingerprint,
                         duplicates_dropped=duplicates)

    # ------------------------------------------------------------------
    @staticmethod
    def _check_point_layer(layer: Any, path: str) -> None:
        if not isinstance(layer, dict):
            raise SpecError(f"{path}: expected an object")
        unknown = set(layer) - set(POINT_KEYS)
        if unknown:
            raise SpecError(
                f"{path}: unknown point key(s) {sorted(unknown)}; "
                f"expected a subset of {sorted(POINT_KEYS)}")

    @staticmethod
    def _excluded(point: Dict[str, Any],
                  excludes: List[Dict[str, Any]]) -> bool:
        sentinel = object()
        for entry in excludes:
            flat: Dict[str, Any] = {}

            def _flatten(node: Any, prefix: str) -> None:
                if isinstance(node, dict) and node:
                    for k, v in node.items():
                        _flatten(v, f"{prefix}.{k}" if prefix else str(k))
                else:
                    flat[prefix] = node

            _flatten(entry, "")
            if flat and all(
                    get_path(point, path, sentinel) == value
                    for path, value in flat.items()):
                return True
        return False

    @staticmethod
    def _label_for(point: Dict[str, Any], assignments: Dict[str, Any],
                   axes: Dict[str, Any]) -> str:
        if point.get("label"):
            return str(point["label"])
        stem = f"{point.get('design')}/{point.get('workload')}"
        extras = [_axis_label_fragment(axis, assignments.get(axis))
                  for axis in axes
                  if axis in assignments
                  and axis not in ("design", "workload")]
        if "include" in assignments:
            extras.append(f"include{assignments['include']}")
        return stem + ("" if not extras else " " + " ".join(extras))


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------
def load_campaign(path: Any) -> CampaignSpec:
    """Load a campaign file (JSON; YAML accepted when PyYAML exists)."""
    import hashlib

    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise SpecError(f"cannot read campaign file {path}: {exc}")
    digest = hashlib.sha256(raw).hexdigest()
    text = raw.decode("utf-8")
    try:
        data = json.loads(text)
    except ValueError as json_exc:
        data = None
        if path.suffix.lower() in (".yml", ".yaml"):
            try:
                import yaml  # type: ignore
            except ImportError:
                raise SpecError(
                    f"{path}: YAML campaign but PyYAML is not "
                    f"installed; use JSON") from None
            try:
                data = yaml.safe_load(text)
            except yaml.YAMLError as exc:
                raise SpecError(f"{path}: invalid YAML: {exc}") from None
        if data is None:
            raise SpecError(
                f"{path}: invalid JSON: {json_exc}") from None
    try:
        return CampaignSpec.from_dict(data, path=path,
                                      source_sha256=digest)
    except SpecError as exc:
        raise SpecError(f"{path}: {exc}") from None
