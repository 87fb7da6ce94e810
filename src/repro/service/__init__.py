"""Sweep-as-a-service: the asyncio experiment server and its clients.

``python -m repro serve`` exposes the sweep engine over HTTP: clients
submit experiment specs as JSON, the server dedupes them by
content-addressed run key (cached → immediate; in flight → attach;
new → run on a :class:`~repro.sweep.runtime.WorkerRuntime` pool,
the one local sweeps use), streams typed progress events as
NDJSON, and serves the shared result cache, history ledger, diff and
regression endpoints read-only.  See docs/service.md.

Layout:

* :mod:`repro.service.protocol` — minimal HTTP/1.1 over asyncio
  streams (request parsing, JSON / NDJSON responses);
* :mod:`repro.service.spec` — the JSON experiment-spec format and its
  key-preserving resolution to a :class:`~repro.config.SystemConfig`;
* :mod:`repro.service.server` — :class:`ExperimentServer` itself;
* :mod:`repro.service.client` — stdlib thin client, the remote
  ledger/cache adapters behind ``--server``, and the grid runner.
"""

from repro.service.spec import ExperimentSpec, SpecError

__all__ = ["ExperimentSpec", "SpecError"]
