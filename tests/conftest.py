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
def split_workers(monkeypatch):
    """Make the wavelet sweep split every stage of a plane, however small,
    across at least two workers, even on a one-CPU host; call the
    fixture's value with n to make it see n CPUs instead."""
    from fringescale import cwt
    from fringescale.core import _usable_cpus

    def force(n):
        monkeypatch.setattr(cwt, "_usable_cpus", lambda: n)

    monkeypatch.setattr(cwt, "SPLIT_MIN", 1)
    force(max(2, _usable_cpus()))
    return force
