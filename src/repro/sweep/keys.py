"""Content-addressed run keys.

A *run key* is a stable SHA-256 digest over everything that determines
the outcome of one simulation:

* the resolved :class:`~repro.config.SystemConfig` (every field, via
  its canonical serialization),
* the design string ("B", "Sm", ..., "O"),
* the workload identity — either its factory spec (name + explicit
  keyword arguments), given directly as a name plus kwargs or recorded
  on an instance built through
  :func:`repro.workloads.base.make_workload`, or a structural hash of
  the instance's public attributes (datasets included) otherwise,
* a simulator version salt (:data:`SIMULATOR_VERSION`).

Because the simulator is deterministic (every RNG is seeded from the
config and the workload), two runs with the same key produce
bit-identical :class:`~repro.analysis.metrics.RunResult` values — which
is what makes the on-disk result cache (:mod:`repro.sweep.cache`)
sound.

Bump :data:`SIMULATOR_VERSION` whenever a change alters simulation
*outcomes* (timing models, scheduler behaviour, dataset generators,
default workload parameters): the salt is the cache's global
invalidation lever.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any, Dict, Optional, Union

import numpy as np

from repro.config import SystemConfig

#: Salt mixed into every run key.  Bump on any behaviour change of the
#: simulator or the default datasets; every cached result is then
#: automatically ignored (a clean miss, not an error).
SIMULATOR_VERSION = "abndp-sim-1"

#: Version of the key layout itself (payload structure, not behaviour).
KEY_SCHEMA = 1


class UncacheableError(TypeError):
    """Raised when an object cannot be canonicalized into a run key.

    Callers treat it as "run live, skip the cache" — it is never a
    failure of the simulation itself.
    """


def canonicalize(obj: Any) -> Any:
    """Reduce ``obj`` to a deterministic JSON-able structure.

    Handles primitives, enums, dataclasses (field order is the class
    declaration order), numpy scalars and arrays (hashed by dtype,
    shape and raw bytes), dicts (sorted by key), lists/tuples, and any
    object exposing a ``cache_token()`` method.  Raises
    :class:`UncacheableError` for everything else.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, enum.Enum):
        return {"__enum__": [type(obj).__name__, obj.value]}
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        digest = hashlib.sha256(
            np.ascontiguousarray(obj).tobytes()
        ).hexdigest()
        return {"__ndarray__": [obj.dtype.str, list(obj.shape), digest]}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": type(obj).__name__,
            "fields": {
                f.name: canonicalize(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, dict):
        try:
            items = sorted(obj.items())
        except TypeError as exc:
            raise UncacheableError(f"unsortable dict keys in {obj!r}") from exc
        return {str(k): canonicalize(v) for k, v in items}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    token = getattr(obj, "cache_token", None)
    if callable(token):
        return {"__token__": [type(obj).__name__, token()]}
    raise UncacheableError(
        f"cannot canonicalize {type(obj).__name__!r} for a run key"
    )


def stable_hash(obj: Any) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``obj``."""
    payload = json.dumps(
        canonicalize(obj), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def workload_token(
    workload: Union[str, Any],
    kwargs: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The workload part of a run key.

    A name plus factory ``kwargs`` keys the factory spec without
    building anything (no kwargs: the default factory product); an
    instance built by :func:`~repro.workloads.base.make_workload` keys
    the spec it recorded, so the instance and the equivalent
    name+kwargs call share cache entries; any other instance is keyed
    structurally — its public attributes, datasets and all, are hashed.
    ``kwargs`` only qualify a name: an instance already carries them.
    """
    if isinstance(workload, str):
        return {"factory": workload, "kwargs": canonicalize(kwargs or {})}
    if kwargs:
        raise TypeError("workload kwargs qualify a workload name, "
                        f"not a {type(workload).__name__} instance")
    spec = getattr(workload, "_factory_spec", None)
    if spec is not None:
        name, kwargs = spec
        return {"factory": name, "kwargs": canonicalize(kwargs)}
    state = {
        k: v for k, v in vars(workload).items() if not k.startswith("_")
    }
    return {
        "class": type(workload).__qualname__,
        "state": canonicalize(state),
    }


def run_key(
    design: str,
    workload: Union[str, Any],
    config: SystemConfig,
    faults: Any = None,
    workload_kwargs: Optional[Dict[str, Any]] = None,
) -> str:
    """The content-addressed key of one (design, workload, config) run.

    ``workload`` is a factory name (qualified by ``workload_kwargs``)
    or an instance — see :func:`workload_token`; a name and the
    :func:`~repro.workloads.base.make_workload` product of the same
    spec get byte-identical keys, so keying a name never needs the
    dataset.

    ``faults`` is a :class:`~repro.faults.FaultSchedule`; a non-empty
    one joins the key under ``extra``, while ``None`` and an empty
    schedule keep the fault-free key the simulator had before fault
    injection existed.

    Raises :class:`UncacheableError` when the workload cannot be
    identified deterministically (e.g. it holds a non-hashable custom
    object); callers should then run live and skip the cache.
    """
    payload = {
        "schema": KEY_SCHEMA,
        "sim": SIMULATOR_VERSION,
        "design": design,
        "workload": workload_token(workload, workload_kwargs),
        "config": config.canonical_dict(),
        "extra": canonicalize({"faults": faults}) if faults else None,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
