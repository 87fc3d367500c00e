"""Fixtures shared by the test modules."""

import os
import time

import pytest

from paoiq.experiments import SweepConfig, run_sweep


@pytest.fixture(scope="session")
def table_sweeps():
    """Shared default-grid sweeps used by the Table-II criteria."""
    t0 = time.perf_counter()
    single = run_sweep(SweepConfig(scenario="single", master_seed=0))
    two = run_sweep(SweepConfig(scenario="two", master_seed=0))
    return {"single": single, "two": two, "elapsed": time.perf_counter() - t0}


@pytest.fixture
def no_child_outlives():
    """Fail a test that leaves a child process behind, reaped or not."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pid of the caller of each ``os.fork`` in this process."""
    calls = []
    fork = os.fork

    def spy():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", spy)
    return calls
