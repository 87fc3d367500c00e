"""Fixtures shared by the test modules."""

import errno
import os
import threading
import time

import pytest

from paoiq import simulator
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


@pytest.fixture
def refused_forks(monkeypatch):
    """Make ``os.fork`` fail with EAGAIN; the pid of the caller of each attempt."""
    calls = []

    def refuse():
        calls.append(os.getpid())
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", refuse)
    return calls


@pytest.fixture
def fail_replicate():
    """``fail(monkeypatch, in_parent)`` makes ``simulator.replicate``, the
    global a grid's blocks call, raise in this process or only in its children."""
    parent = os.getpid()

    def fail(monkeypatch, in_parent):
        replicate = simulator.replicate

        def failing(*args):
            if (os.getpid() == parent) == in_parent:
                raise RuntimeError(f"replicate failed in pid {os.getpid()}")
            return replicate(*args)

        monkeypatch.setattr(simulator, "replicate", failing)

    return fail


@pytest.fixture
def another_thread():
    """A second thread, alive until the test ends."""
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    yield
    release.set()
    thread.join(timeout=60)
    assert not thread.is_alive()
