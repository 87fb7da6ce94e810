"""The campaign resolver: one point's worth of config resolution, plus
the DSI-style document machinery campaigns are built from.

Two layers live here on purpose:

* **Point resolution** — the key-preserving transformation from a spec
  dict (``design`` / ``workload`` / ``mesh`` / ``seed`` / config-section
  overrides) to a validated
  :class:`~repro.config.SystemConfig`.  This is the code that used to
  live inside :class:`repro.service.spec.ExperimentSpec`; the spec is
  now a thin wrapper over these functions, so a single experiment spec
  is literally a single-point campaign.  The transformations are
  exactly the ones the CLI applies (``scaled`` for the mesh, section
  ``dataclasses.replace`` for overrides), which is what makes a
  campaign point's run key byte-identical to the equivalent ``repro
  run`` / ``repro sweep`` invocation.

* **Document machinery** — what a campaign *file* needs on top of a
  point: ``${section.key}`` cross-references with cycle detection,
  ``$RUNTIME_VALUE`` substitution from ``--set key=value`` / the
  environment, deep merges for the override layers, and dotted-path
  get/set used by axes and ``--set``.

Everything raises :class:`SpecError` (a ``ValueError``): a malformed
spec or campaign is a *client* error — the CLI renders it as one line,
the server answers HTTP 400, and nothing crashes.
"""

from __future__ import annotations

import dataclasses
import enum
import inspect
import json
import os
import re
import typing
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.config import SystemConfig, experiment_config

#: config sections a spec may override (every SystemConfig section).
CONFIG_SECTIONS = ("topology", "core", "memory", "noc", "sram", "cache",
                   "scheduler")

#: the keys one experiment point understands — in a spec dict, in a
#: campaign ``base`` / ``overrides`` layer, and as the first segment of
#: an axis or ``--set`` path.
POINT_KEYS = ("design", "workload", "workload_kwargs", "mesh", "seed",
              "config", "faults", "label", "trace_id")

#: environment prefix for ``$RUNTIME_VALUE`` lookups: the placeholder
#: at document path ``base.seed`` reads ``REPRO_CAMPAIGN_BASE_SEED``.
ENV_PREFIX = "REPRO_CAMPAIGN_"

#: ``${path.to.key}`` — path segments only, so prose mentioning
#: ``${schedules.*}`` in a description stays literal text.
_REF_RE = re.compile(r"\$\{([A-Za-z0-9_][A-Za-z0-9_.\-]*)\}")


class SpecError(ValueError):
    """A malformed experiment spec or campaign (client error)."""


# ----------------------------------------------------------------------
# point resolution (the former ExperimentSpec internals)
# ----------------------------------------------------------------------
def coerce_field(section: Any, name: str, value: Any) -> Any:
    """Coerce a JSON value onto a config dataclass field's type.

    Enums accept their ``.value`` strings; float fields return a
    ``float`` (integers included); scalar fields reject
    clearly-wrong JSON types up front (a string where a number belongs)
    with a path-qualified message instead of letting
    ``dataclasses.replace`` produce something the config's
    ``validate()`` reports obliquely later.
    """
    hints = typing.get_type_hints(type(section))
    target = hints.get(name)
    if target is None:
        return value
    origin = typing.get_origin(target)
    if origin is Union:  # Optional[...] fields like hybrid_alpha
        args = [a for a in typing.get_args(target) if a is not type(None)]
        if len(args) == 1:
            target = args[0]
        if value is None:
            return value
    if isinstance(target, type) and issubclass(target, enum.Enum) \
            and not isinstance(value, target):
        try:
            return target(value)
        except ValueError:
            choices = sorted(m.value for m in target)
            raise SpecError(
                f"config.{name}: {value!r} is not one of {choices}"
            )
    if target is int and not (isinstance(value, int)
                              and not isinstance(value, bool)):
        raise SpecError(f"config.{name}: expected int, got {value!r}")
    if target is float:
        if not (isinstance(value, (int, float))
                and not isinstance(value, bool)):
            raise SpecError(f"config.{name}: expected float, got {value!r}")
        # A JSON integer in a float field is that float: ``3`` and
        # ``3.0`` must resolve to one config and one run key.
        return float(value)
    if target is bool and not isinstance(value, bool):
        raise SpecError(f"config.{name}: expected bool, got {value!r}")
    if target is str and not isinstance(value, str):
        raise SpecError(f"config.{name}: expected str, got {value!r}")
    return value


def apply_sections(cfg: SystemConfig,
                   overrides: Dict[str, Any]) -> SystemConfig:
    """Apply ``{section: {field: value}}`` overrides to a config."""
    if not isinstance(overrides, dict):
        raise SpecError(f"config must be an object of sections, "
                        f"got {type(overrides).__name__}")
    for section_name, fields in overrides.items():
        if section_name not in CONFIG_SECTIONS:
            raise SpecError(
                f"unknown config section {section_name!r}; expected one "
                f"of {sorted(CONFIG_SECTIONS)}"
            )
        if not isinstance(fields, dict):
            raise SpecError(
                f"config.{section_name} must be an object of fields"
            )
        section = getattr(cfg, section_name)
        known = {f.name for f in dataclasses.fields(section)}
        coerced = {}
        for name, value in fields.items():
            if name not in known:
                raise SpecError(
                    f"unknown field {name!r} in config.{section_name}; "
                    f"expected one of {sorted(known)}"
                )
            coerced[name] = coerce_field(section, name, value)
        try:
            cfg = cfg.with_(**{
                section_name: dataclasses.replace(section, **coerced)
            })
        except (TypeError, ValueError) as exc:
            raise SpecError(f"config.{section_name}: {exc}")
    return cfg


def parse_mesh(mesh: str) -> Tuple[int, int]:
    try:
        rows, cols = (int(v) for v in str(mesh).lower().split("x"))
        return rows, cols
    except ValueError:
        raise SpecError(f"mesh must look like '4x4', got {mesh!r}")


def resolve_system_config(
    mesh: Optional[str] = None,
    config: Optional[Dict[str, Any]] = None,
    seed: Optional[int] = None,
) -> SystemConfig:
    """The full :class:`SystemConfig` one experiment point describes.

    Field-for-field the CLI's transformations, in the CLI's order —
    this is the key-preserving core every spec and campaign point
    resolves through.
    """
    cfg = experiment_config()
    if mesh:
        cfg = cfg.scaled(*parse_mesh(mesh))
    cfg = apply_sections(cfg, config or {})
    if seed is not None:
        cfg = cfg.with_(seed=seed)
    try:
        return cfg.validate()
    except ValueError as exc:
        raise SpecError(f"invalid configuration: {exc}")


def bind_workload_kwargs(factory: Any, name: str,
                         kwargs: Dict[str, Any]) -> None:
    """Reject ``kwargs`` the workload factory's signature cannot take.

    Run keys are computed from the factory spec without calling the
    factory, so a misspelled kwarg would otherwise surface only when a
    worker builds the dataset.
    """
    signature = inspect.signature(factory)
    try:
        signature.bind(**kwargs)
    except TypeError as exc:
        raise SpecError(
            f"workload_kwargs for {name!r}: {exc}; expected a subset "
            f"of {sorted(signature.parameters)}"
        )


def validate_point(data: Any) -> Dict[str, Any]:
    """Parse and validate one experiment-point payload.

    Returns the normalized constructor kwargs for
    :class:`repro.service.spec.ExperimentSpec`; raises
    :class:`SpecError` with the same actionable messages the service
    has always answered as HTTP 400.
    """
    if not isinstance(data, dict):
        raise SpecError("spec must be a JSON object")
    unknown = set(data) - set(POINT_KEYS)
    if unknown:
        raise SpecError(
            f"unknown spec key(s) {sorted(unknown)}; expected a "
            f"subset of {sorted(POINT_KEYS)}"
        )
    from repro.core.system import DESIGN_POINTS
    from repro.workloads.base import WORKLOAD_FACTORIES

    design = data.get("design")
    if design not in DESIGN_POINTS:
        raise SpecError(
            f"unknown design {design!r}; expected one of "
            f"{sorted(DESIGN_POINTS)}"
        )
    workload = data.get("workload")
    if workload not in WORKLOAD_FACTORIES:
        raise SpecError(
            f"unknown workload {workload!r}; expected one of "
            f"{sorted(WORKLOAD_FACTORIES)}"
        )
    kwargs = data.get("workload_kwargs") or {}
    if not isinstance(kwargs, dict):
        raise SpecError("workload_kwargs must be an object")
    bind_workload_kwargs(WORKLOAD_FACTORIES[workload], workload, kwargs)
    seed = data.get("seed")
    if seed is not None and not isinstance(seed, int):
        raise SpecError(f"seed must be an integer, got {seed!r}")
    faults = data.get("faults")
    if faults is not None and not isinstance(faults, dict):
        raise SpecError("faults must be a FaultSchedule object")
    return {
        "design": design, "workload": workload,
        "workload_kwargs": dict(kwargs),
        "mesh": data.get("mesh"), "seed": seed,
        "config": dict(data.get("config") or {}),
        "faults": faults, "label": str(data.get("label") or ""),
        # Non-semantic correlation annotation: accepted and carried,
        # never hashed into the run key (see repro.insight.trace).
        "trace_id": str(data.get("trace_id") or ""),
    }


# ----------------------------------------------------------------------
# dotted paths and deep merges
# ----------------------------------------------------------------------
_MISSING = object()


def split_path(path: str) -> List[str]:
    segments = [s for s in str(path).split(".") if s]
    if not segments:
        raise SpecError(f"empty path {path!r}")
    return segments


def get_path(tree: Any, path: str, default: Any = _MISSING) -> Any:
    """Read ``tree["a"]["b"]...`` for a dotted path (lists by index)."""
    node = tree
    for seg in split_path(path):
        if isinstance(node, list):
            try:
                node = node[int(seg)]
                continue
            except (ValueError, IndexError):
                node = _MISSING
        elif isinstance(node, dict) and seg in node:
            node = node[seg]
            continue
        else:
            node = _MISSING
        if node is _MISSING:
            if default is _MISSING:
                raise SpecError(f"no such key {path!r} (at {seg!r})")
            return default
    return node


def set_path(tree: Dict[str, Any], path: str, value: Any) -> None:
    """Assign into nested dicts along a dotted path, creating levels."""
    segments = split_path(path)
    node = tree
    for seg in segments[:-1]:
        child = node.get(seg)
        if not isinstance(child, dict):
            child = {}
            node[seg] = child
        node = child
    node[segments[-1]] = value


def deep_merge(base: Any, override: Any) -> Any:
    """Merge ``override`` onto ``base``: dicts recursively, everything
    else (lists included) replaced wholesale.  Inputs are not mutated."""
    if isinstance(base, dict) and isinstance(override, dict):
        merged = {k: v for k, v in base.items()}
        for key, value in override.items():
            if key in merged:
                merged[key] = deep_merge(merged[key], value)
            else:
                merged[key] = value
        return merged
    if isinstance(override, dict):
        return {k: deep_merge(None, v) if isinstance(v, dict) else v
                for k, v in override.items()}
    if isinstance(override, list):
        return list(override)
    return override


# ----------------------------------------------------------------------
# --set parsing and $RUNTIME_VALUE / ${...} resolution
# ----------------------------------------------------------------------
def parse_scalar(text: str) -> Any:
    """``--set`` / environment values: JSON when it parses, str else."""
    try:
        return json.loads(text)
    except ValueError:
        return text


def parse_set_args(entries: Optional[List[str]]) -> Dict[str, Any]:
    """``["a.b=1", "c=x"]`` → ``{"a.b": 1, "c": "x"}``."""
    out: Dict[str, Any] = {}
    for entry in entries or []:
        key, sep, value = str(entry).partition("=")
        key = key.strip()
        if not sep or not key:
            raise SpecError(
                f"--set needs key=value, got {entry!r}")
        out[key] = parse_scalar(value)
    return out


def runtime_env_key(path: str) -> str:
    """Document path → environment variable name for a placeholder."""
    return ENV_PREFIX + re.sub(r"[^A-Za-z0-9]+", "_", path).upper()


def interpolate(doc: Any, runtime: Optional[Mapping[str, Any]] = None,
                env: Optional[Mapping[str, str]] = None) -> Any:
    """Resolve ``${path.to.key}`` references and ``$RUNTIME_VALUE``
    placeholders across a whole campaign document.

    * A string that is exactly one reference is replaced by the
      referenced value with its type intact (so
      ``"${schedules.u4}"`` splices a whole schedule object);
      embedded references interpolate as text.
    * References chase through other references; a cycle raises a
      :class:`SpecError` naming the chain.
    * ``$RUNTIME_VALUE`` at document path ``p`` resolves from
      ``runtime[p]`` (the CLI's ``--set p=value``), then from the
      environment variable :func:`runtime_env_key` of ``p``; a missing
      binding is an error that spells out both fixes.
    """
    runtime = runtime or {}
    env = os.environ if env is None else env
    memo: Dict[str, Any] = {}
    stack: List[str] = []

    def resolve_ref(ref: str) -> Any:
        if ref in memo:
            return memo[ref]
        if ref in stack:
            chain = " -> ".join(stack[stack.index(ref):] + [ref])
            raise SpecError(f"circular ${{...}} reference: {chain}")
        stack.append(ref)
        try:
            value = resolve(get_path(doc, ref), ref)
        finally:
            stack.pop()
        memo[ref] = value
        return value

    def resolve(value: Any, path: str) -> Any:
        if isinstance(value, str):
            if value == "$RUNTIME_VALUE":
                if path in runtime:
                    return runtime[path]
                env_key = runtime_env_key(path)
                if env_key in env:
                    return parse_scalar(env[env_key])
                raise SpecError(
                    f"{path}: $RUNTIME_VALUE has no runtime binding — "
                    f"pass --set {path}=VALUE or export {env_key}"
                )
            whole = _REF_RE.fullmatch(value)
            if whole:
                return resolve_ref(whole.group(1))

            def _sub(match: "re.Match[str]") -> str:
                ref_value = resolve_ref(match.group(1))
                if isinstance(ref_value, (dict, list)):
                    raise SpecError(
                        f"{path}: ${{{match.group(1)}}} is not a scalar "
                        f"and cannot be embedded in a string"
                    )
                return str(ref_value)

            return _REF_RE.sub(_sub, value)
        if isinstance(value, dict):
            return {k: resolve(v, f"{path}.{k}" if path else str(k))
                    for k, v in value.items()}
        if isinstance(value, list):
            return [resolve(v, f"{path}.{i}")
                    for i, v in enumerate(value)]
        return value

    return resolve(doc, "")
