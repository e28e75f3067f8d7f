"""Shared fixtures.

Heavy objects (the machine, the characterizer with its run cache, the
consolidation study) are session-scoped: many analysis tests share the
same measurements, mirroring how the experiment drivers reuse them.
"""

import pytest

from repro.analysis import Characterizer, ConsolidationStudy
from repro.sim import Machine


@pytest.fixture(scope="session")
def machine():
    return Machine()


@pytest.fixture(scope="session")
def characterizer(machine):
    return Characterizer(machine)


@pytest.fixture(scope="session")
def study(machine):
    return ConsolidationStudy(machine)


@pytest.fixture()
def fresh_machine():
    """A private machine for tests that mutate configuration."""
    return Machine()


@pytest.fixture()
def force_pool(monkeypatch):
    """Let ``parallel_map`` start up to four workers on any host: it
    caps workers at the CPUs this process may use."""
    from repro.exec import pool

    monkeypatch.setattr(pool, "usable_cpus", lambda: 4)
