"""Shared fixtures: small machines and datasets that keep tests fast."""

import collections
import dataclasses
import functools
import threading

import pytest

from repro.config import (
    CacheConfig,
    CacheStyle,
    SchedulerConfig,
    SystemConfig,
    TopologyConfig,
    default_config,
)


@pytest.fixture
def table1_config() -> SystemConfig:
    """The paper's full-size Table 1 configuration."""
    return default_config()


@pytest.fixture
def small_config() -> SystemConfig:
    """A 2x2-stack machine (32 units) for fast end-to-end tests."""
    return default_config().scaled(2, 2)


@pytest.fixture
def tiny_cacheless_config() -> SystemConfig:
    """2x2 stacks, no remote-data cache."""
    cfg = default_config().scaled(2, 2)
    return cfg.with_(
        cache=dataclasses.replace(cfg.cache, style=CacheStyle.NONE)
    ).validate()


def _wrap_factories(monkeypatch, make_wrapper):
    import repro  # noqa: F401  (registers every workload)
    from repro.workloads.base import WORKLOAD_FACTORIES

    for name, factory in list(WORKLOAD_FACTORIES.items()):
        # functools.wraps keeps the signature spec validation binds to
        monkeypatch.setitem(WORKLOAD_FACTORIES, name, functools.wraps(
            factory)(make_wrapper(name, factory)))


@pytest.fixture
def factory_calls(monkeypatch):
    """Counts every workload-factory call (dataset generation) in this
    process, as ``{name: calls}``."""
    calls = collections.Counter()

    def counting(name, factory):
        def call(**kwargs):
            calls[name] += 1
            return factory(**kwargs)
        return call

    _wrap_factories(monkeypatch, counting)
    return calls


@pytest.fixture
def no_factories(monkeypatch):
    """Every workload factory raises: the code under test must never
    generate a dataset."""
    def raising(name, factory):
        def call(**kwargs):
            raise AssertionError(f"workload factory {name!r} called")
        return call

    _wrap_factories(monkeypatch, raising)


@pytest.fixture
def bounded():
    """``bounded(fn, timeout)``: ``fn()`` on a daemon thread, joined
    with a timeout, so a hang fails the test instead of the suite."""
    def run(fn, timeout=120.0):
        box = {}

        def target():
            try:
                box["value"] = fn()
            except BaseException as exc:  # re-raised on the test thread
                box["error"] = exc

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        thread.join(timeout)
        assert not thread.is_alive(), f"still running after {timeout} s"
        if "error" in box:
            raise box["error"]
        return box["value"]
    return run
