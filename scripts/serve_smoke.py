#!/usr/bin/env python3
"""CI smoke test for the experiment server (`python -m repro serve`).

Exercises the full service loop the way a user would, across real
process boundaries:

1. start the server CLI as a subprocess (ephemeral port, a scratch
   cache root, a real worker-process pool);
2. submit one small point through the thin client -> it simulates and
   lands in the shared cache (worker-side execution log shows exactly
   one execution);
3. resubmit the identical spec -> answered ``cached`` with zero new
   worker executions, and the served bytes equal the on-disk entry;
4. submit a slower point without waiting, SIGKILL the worker running
   it (its pid is on its execution-log line) -> that job ends
   ``failed``, and a resubmit runs on a fresh pool and ends ``done``;
5. POST /v1/shutdown -> the server process exits cleanly (code 0).

Exits non-zero with a diagnostic on the first violated check.
Run from the repository root:  PYTHONPATH=src python scripts/serve_smoke.py
"""

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.service.client import ServiceClient  # noqa: E402
from repro.sweep.cache import ResultCache  # noqa: E402
from repro.sweep.runtime import EXEC_LOG_NAME, count_executions  # noqa: E402

SPEC = {"design": "O", "workload": "pr", "mesh": "2x2"}
#: runs for over a second, long enough to kill its worker mid-job
SLOW_SPEC = {"design": "O", "workload": "pr", "mesh": "4x4"}
START_TIMEOUT_S = 60.0


def fail(message: str) -> None:
    print(f"serve-smoke: FAIL — {message}")
    sys.exit(1)


def ok(message: str) -> None:
    print(f"serve-smoke: ok — {message}")


def wait_for_url(proc: subprocess.Popen) -> str:
    """Read the server's announce line and pull the base URL out."""
    deadline = time.monotonic() + START_TIMEOUT_S
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            if proc.poll() is not None:
                fail(f"server exited early with code {proc.returncode}")
            time.sleep(0.1)
            continue
        print(f"  server: {line.rstrip()}")
        match = re.search(r"http://[\d.]+:\d+", line)
        if match:
            return match.group(0)
    fail("server never announced its URL")


def worker_pid(exec_log: str, key: str) -> int:
    """The pid on the execution-log line of ``key``, once written."""
    deadline = time.monotonic() + START_TIMEOUT_S
    while time.monotonic() < deadline:
        try:
            with open(exec_log) as fh:
                for line in fh:
                    fields = line.split()  # <ts> <pid> <key>
                    if len(fields) == 3 and fields[2] == key:
                        return int(fields[1])
        except OSError:
            pass
        time.sleep(0.02)
    fail(f"no execution-log line for {key[:12]}…")


def main() -> None:
    cache_root = Path(tempfile.mkdtemp(prefix="repro-serve-smoke-"))
    exec_log = str(cache_root / EXEC_LOG_NAME)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2", "--cache-dir", str(cache_root)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env={**os.environ,
                        "PYTHONPATH": str(ROOT / "src"),
                        "PYTHONUNBUFFERED": "1"},
    )
    try:
        url = wait_for_url(proc)
        client = ServiceClient(url, timeout=300.0)

        health = client.health()
        if not health.get("ok") or health.get("mode") != "processes":
            fail(f"unexpected health answer {health}")
        ok(f"server up at {url} ({health['pool']}-wide process pool)")

        cold = client.submit(SPEC, wait=True)
        if cold.get("status") != "done":
            fail(f"cold submit did not simulate: {cold}")
        executed = count_executions(exec_log)
        if executed != 1:
            fail(f"expected exactly 1 worker execution, log shows "
                 f"{executed}")
        key = cold["key"]
        ok(f"cold submit simulated once (key {key[:12]}…, "
           f"{cold.get('elapsed_s', 0.0):.2f}s)")

        warm = client.submit(SPEC, wait=True)
        if warm.get("status") != "cached":
            fail(f"warm resubmit was not served from cache: {warm}")
        if warm.get("key") != key:
            fail(f"warm key {warm.get('key')!r} != cold key {key!r}")
        executed = count_executions(exec_log)
        if executed != 1:
            fail(f"warm resubmit re-executed: log shows {executed}")
        ok("warm resubmit answered from cache, no new execution")

        served = client.result_bytes(key)
        disk = ResultCache(root=cache_root).path_for(key).read_bytes()
        if served != disk:
            fail("served result bytes differ from the on-disk entry")
        payload = json.loads(served)
        if payload.get("key") != key:
            fail(f"served payload names key {payload.get('key')!r}")
        ok(f"served bytes identical to cache entry ({len(served)} B)")

        slow_key = client.submit(SLOW_SPEC, wait=False)["key"]
        pid = worker_pid(exec_log, slow_key)
        os.kill(pid, signal.SIGKILL)
        kinds = [e["event"] for e in client.events(slow_key)]
        if "failed" not in kinds:
            fail(f"job of killed worker {pid} did not fail: {kinds}")
        ok(f"killed worker {pid} mid-job; its job ended failed")
        again = client.submit(SLOW_SPEC, wait=True)
        if again.get("status") != "done":
            fail(f"resubmit after the worker kill did not run: {again}")
        ok("resubmit ran on a fresh pool and ended done")

        client.shutdown()
        proc.wait(timeout=30.0)
        if proc.returncode != 0:
            fail(f"server exited with code {proc.returncode}")
        ok("clean shutdown")
        print("serve-smoke: PASS")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10.0)


if __name__ == "__main__":
    main()
