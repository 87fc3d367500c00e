"""Fixtures shared by the test modules."""

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
