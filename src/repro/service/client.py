"""Thin client for the experiment server (stdlib ``urllib`` only).

Two layers:

* :class:`ServiceClient` — one method per endpoint, JSON in/out, plus
  an NDJSON event iterator for ``/v1/events``;
* :class:`RemoteLedger` / :class:`RemoteCache` — duck-typed stand-ins
  for :class:`~repro.observatory.history.HistoryLedger` and
  :class:`~repro.sweep.cache.ResultCache` that read through the
  server, so the *existing* diff engine and regression detector run
  unchanged against a remote observatory (``repro diff --server``,
  ``repro regress --server``).  Fetched entries spool into a local
  temp directory mirroring the cache layout, so path-based logic
  (telemetry sidecars, staleness warnings) keeps working.

Grids go through :func:`repro.campaign.run_campaign_via_server`.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.parse
import urllib.request
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.service.spec import ExperimentSpec


class ServiceError(ValueError):
    """An error answer (or no answer) from the experiment server.

    A ``ValueError`` so the CLI's top-level handler renders it as a
    one-line ``error: …`` (exit 2) instead of a traceback.
    """

    def __init__(self, message: str, status: int = 0):
        super().__init__(message)
        self.status = status


class ServiceClient:
    """One experiment server, addressed by base URL."""

    def __init__(self, base_url: str, timeout: float = 600.0):
        self.base_url = base_url.rstrip("/")
        if "://" not in self.base_url:
            self.base_url = "http://" + self.base_url
        self.timeout = timeout

    # ------------------------------------------------------------------
    def _open(self, method: str, path: str,
              query: Optional[Dict[str, Any]] = None,
              body: Optional[Dict[str, Any]] = None):
        url = self.base_url + path
        if query:
            url += "?" + urllib.parse.urlencode(
                {k: v for k, v in query.items() if v is not None})
        data = json.dumps(body).encode("utf-8") if body is not None \
            else (b"" if method == "POST" else None)
        request = urllib.request.Request(
            url, data=data, method=method,
            headers={"Content-Type": "application/json"})
        try:
            return urllib.request.urlopen(request, timeout=self.timeout)
        except urllib.error.HTTPError as exc:
            detail = ""
            try:
                detail = json.loads(exc.read().decode("utf-8"))\
                    .get("error", "")
            except (ValueError, OSError):
                pass
            raise ServiceError(
                f"{method} {path}: HTTP {exc.code}"
                + (f" — {detail}" if detail else ""),
                status=exc.code) from None
        except (urllib.error.URLError, OSError) as exc:
            raise ServiceError(
                f"cannot reach experiment server at {self.base_url}: "
                f"{getattr(exc, 'reason', exc)}") from None

    def _json(self, method: str, path: str,
              query: Optional[Dict[str, Any]] = None,
              body: Optional[Dict[str, Any]] = None) -> Any:
        with self._open(method, path, query=query, body=body) as resp:
            return json.loads(resp.read().decode("utf-8"))

    def _bytes(self, path: str,
               query: Optional[Dict[str, Any]] = None) -> bytes:
        with self._open("GET", path, query=query) as resp:
            return resp.read()

    # ------------------------------------------------------------------
    # endpoint methods
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self._json("GET", "/v1/health")

    def stats(self) -> Dict[str, Any]:
        return self._json("GET", "/v1/stats")

    def metrics(self) -> Tuple[str, str]:
        """Scrape ``/v1/metrics``: ``(content_type, exposition_text)``."""
        with self._open("GET", "/v1/metrics") as resp:
            content_type = resp.headers.get("Content-Type", "")
            return content_type, resp.read().decode("utf-8")

    def submit(self, spec: Any, wait: bool = True) -> Dict[str, Any]:
        """Submit one spec (an :class:`ExperimentSpec` or plain dict).

        ``wait=True`` long-polls until the point is terminal; the
        answer carries ``key`` and ``status`` (``cached`` / ``done`` /
        ``failed`` / ``submitted`` / ``attached``).
        """
        body = spec.to_dict() if isinstance(spec, ExperimentSpec) \
            else dict(spec)
        return self._json("POST", "/v1/submit",
                          query={"wait": 1 if wait else None}, body=body)

    def campaign(self, doc: Dict[str, Any],
                 sets: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Expand and intake a whole campaign document server-side.

        Answers ``{name, fingerprint, total, pool, points: [...]}``
        with one ``{label, key, status, attached, spec}`` row per
        deduped point (``status`` as in :meth:`submit`).
        """
        body: Dict[str, Any] = {"campaign": dict(doc)}
        if sets:
            body["set"] = dict(sets)
        return self._json("POST", "/v1/campaign", body=body)

    def result_bytes(self, key: str, telemetry: bool = False) -> bytes:
        """The stored entry for ``key``, exactly as the server holds it."""
        return self._bytes(f"/v1/result/{key}",
                           query={"telemetry": 1 if telemetry else None})

    def result(self, key: str):
        """The cached :class:`~repro.analysis.metrics.RunResult`."""
        from repro.sweep.serialize import result_from_dict

        payload = json.loads(self.result_bytes(key).decode("utf-8"))
        return result_from_dict(payload["result"])

    def events(self, key: str) -> Iterator[Dict[str, Any]]:
        """Iterate the NDJSON progress stream for one run key."""
        with self._open("GET", f"/v1/events/{key}") as resp:
            for line in resp:
                line = line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))

    def history(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        return self._json("GET", "/v1/history",
                          query={"limit": limit})["records"]

    def diff(self, ref_a: str, ref_b: str,
             threshold: Optional[float] = None) -> Dict[str, Any]:
        return self._json("GET", "/v1/diff", query={
            "a": ref_a, "b": ref_b, "threshold": threshold})

    def regress(self, tolerance: Optional[float] = None) -> Dict[str, Any]:
        return self._json("GET", "/v1/regress",
                          query={"tolerance": tolerance})

    def shutdown(self) -> Dict[str, Any]:
        return self._json("POST", "/v1/shutdown")


# ----------------------------------------------------------------------
# remote observatory adapters (duck-typed ledger / cache)
# ----------------------------------------------------------------------
class RemoteLedger:
    """A read-only :class:`HistoryLedger` look-alike over the server.

    Implements exactly the surface the diff engine and the regression
    detector consume: ``records()``, ``find_key()``, ``path``.
    """

    def __init__(self, client: ServiceClient):
        self.client = client
        self.path = f"{client.base_url}/v1/history"

    def records(self):
        from repro.observatory.history import RunRecord

        return [RunRecord.from_dict(d) for d in self.client.history()]

    def find_key(self, key_prefix: str):
        for record in reversed(self.records()):
            if record.key and record.key.startswith(key_prefix):
                return record
        return None

    def __len__(self) -> int:
        return len(self.records())


class RemoteCache:
    """A read-only :class:`ResultCache` look-alike over the server.

    Entries (and telemetry sidecars) are fetched once per key and
    spooled under a local temp root in the cache's own on-disk layout,
    so ``path_for`` / ``telemetry_path_for`` return real files and the
    diff engine's sidecar handling works untouched.
    """

    def __init__(self, client: ServiceClient,
                 spool: Optional[Path] = None):
        import tempfile

        self.client = client
        self.root = Path(spool) if spool is not None else Path(
            tempfile.mkdtemp(prefix="repro-remote-cache-"))
        self._fetched: Dict[str, bool] = {}

    # layout mirrors ResultCache
    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def telemetry_path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.telemetry.json"

    def _ensure(self, key: str) -> None:
        if self._fetched.get(key):
            return
        self._fetched[key] = True
        for telemetry, path in ((False, self.path_for(key)),
                                (True, self.telemetry_path_for(key))):
            try:
                blob = self.client.result_bytes(key, telemetry=telemetry)
            except ServiceError as exc:
                if exc.status == 404:
                    continue
                raise
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(blob)

    def load(self, key: str):
        from repro.sweep.serialize import result_from_dict

        self._ensure(key)
        try:
            payload = json.loads(self.path_for(key).read_text())
            return result_from_dict(payload["result"])
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def load_telemetry(self, key: str) -> Optional[Dict[str, Any]]:
        self._ensure(key)
        try:
            payload = json.loads(
                self.telemetry_path_for(key).read_text())
            return payload if isinstance(payload, dict) else None
        except (OSError, ValueError):
            return None

