"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.topology import ApplicationTopology
from repro.datacenter.builder import build_cloud, build_datacenter, build_testbed
from repro.datacenter.model import Level
from repro.datacenter.state import DataCenterState
from repro.errors import PermanentAPIError


@pytest.fixture
def testbed():
    """The paper's 16-host single-rack cluster."""
    return build_testbed()


@pytest.fixture
def small_dc():
    """A small pod-less data center: 4 racks x 4 hosts."""
    return build_datacenter(num_racks=4, hosts_per_rack=4)


@pytest.fixture
def podded_cloud():
    """A 2-DC cloud with pods, exercising every hierarchy level."""
    return build_cloud(
        num_datacenters=2, pods_per_dc=2, racks_per_pod=2, hosts_per_rack=2
    )


@pytest.fixture
def small_state(small_dc):
    return DataCenterState(small_dc)


def make_three_tier(
    web: int = 2, app: int = 2, db: int = 2, with_zones: bool = True
) -> ApplicationTopology:
    """A small three-tier topology used across tests."""
    topo = ApplicationTopology("three-tier")
    for i in range(web):
        topo.add_vm(f"web{i}", vcpus=1, mem_gb=1)
    for i in range(app):
        topo.add_vm(f"app{i}", vcpus=2, mem_gb=2)
    for i in range(db):
        topo.add_vm(f"db{i}", vcpus=4, mem_gb=4)
        topo.add_volume(f"vol{i}", size_gb=50)
        topo.connect(f"db{i}", f"vol{i}", bw_mbps=200)
    for i in range(web):
        for j in range(app):
            topo.connect(f"web{i}", f"app{j}", bw_mbps=100)
    for i in range(app):
        for j in range(db):
            topo.connect(f"app{i}", f"db{j}", bw_mbps=50)
    if with_zones and db >= 2:
        topo.add_zone(
            "db-diversity", Level.HOST, [f"db{i}" for i in range(db)]
        )
    return topo


@pytest.fixture
def three_tier():
    return make_three_tier()


class ScriptedInjector:
    """Duck-typed injector that fails exactly the scripted call numbers."""

    def __init__(self, fail_calls, error=PermanentAPIError):
        self.fail_calls = set(fail_calls)
        self.error = error
        self.calls = 0

    def before_api_call(self, service, method):
        self.calls += 1
        if self.calls in self.fail_calls:
            raise self.error(
                f"scripted fault on call {self.calls} ({service}.{method})"
            )


def wedge_after(monkeypatch, owner, method, n):
    """Make the ``n``-th call of ``owner.method`` raise a RuntimeError --
    a non-library failure, as from a wedged surrogate -- and pass every
    other call through."""
    real = getattr(owner, method)
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == n:
            raise RuntimeError("surrogate wedged")
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, method, flaky)
