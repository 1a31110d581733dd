import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "fast",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("fast")


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


@pytest.fixture
def scan_workers(monkeypatch):
    """Make the ridge scan see at least two usable CPUs, so its u grid is
    split across threads and merged even on a one-CPU host; call the
    fixture's value with n to make it see n CPUs instead."""
    from fringescale import wft

    def force(n):
        monkeypatch.setattr(wft, "_usable_cpus", lambda: n)

    force(max(2, wft._usable_cpus()))
    return force


@pytest.fixture
def thread_starts(monkeypatch):
    """The list of threads started from now on, in the order they start."""
    started, start = [], threading.Thread.start

    def record(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", record)
    return started
