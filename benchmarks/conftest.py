"""Session fixtures: one warm worker pool and one full-matrix run."""

import pytest

from repro.sweep.runtime import WorkerRuntime

from .common import campaign_results


@pytest.fixture(scope="session")
def runtime():
    """The worker pool every figure campaign of the session runs on."""
    with WorkerRuntime() as rt:
        yield rt


@pytest.fixture(scope="session")
def full_matrix(runtime):
    """``{workload: {design: RunResult}}`` over all 48 default points,
    shared by Figures 2 and 6–9."""
    return campaign_results("full_matrix", runtime)
