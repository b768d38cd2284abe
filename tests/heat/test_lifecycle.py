"""Tests for the full Heat stack lifecycle: create, update, delete."""

from __future__ import annotations

import pytest

from repro.core.scheduler import Ostro
from repro.datacenter.state import DataCenterState
from repro.errors import PlacementError, SchedulerError, TemplateError
from repro.heat.engine import HeatEngine
from repro.heat.template import template_from_topology
from repro.heat.wrapper import OstroHeatWrapper
from tests.conftest import make_three_tier, wedge_after


@pytest.fixture
def wrapper(small_dc):
    return OstroHeatWrapper(Ostro(small_dc))


@pytest.fixture
def engine(small_dc):
    return HeatEngine(DataCenterState(small_dc))


class TestWrapperLifecycle:
    def test_update_grows_stack_in_place(self, wrapper):
        topo = make_three_tier()
        wrapper.handle(template_from_topology(topo), "shop", algorithm="eg")
        original = wrapper.ostro.deployed("shop").placement

        grown = topo.copy()
        grown.add_vm("cache", 2, 4)
        grown.connect("cache", "app0", 80)
        response = wrapper.update(
            template_from_topology(grown), "shop", algorithm="eg"
        )
        assert "cache" in response.result.placement.assignments
        for name in topo.nodes:
            assert response.result.placement.host_of(name) == original.host_of(
                name
            )
        hints = response.annotated_template["resources"]["cache"][
            "properties"
        ]["scheduler_hints"]
        assert "force_host" in hints

    def test_delete_releases_everything(self, wrapper):
        pristine = wrapper.ostro.state.snapshot()
        topo = make_three_tier()
        wrapper.handle(template_from_topology(topo), "shop", algorithm="eg")
        wrapper.delete("shop")
        assert wrapper.ostro.state.snapshot() == pristine

    def test_update_unknown_stack(self, wrapper):
        with pytest.raises(PlacementError):
            wrapper.update(
                template_from_topology(make_three_tier()), "ghost"
            )


class TestEngineLifecycle:
    def test_delete_restores_state(self, engine):
        pristine = engine.state.snapshot()
        template = template_from_topology(make_three_tier())
        engine.deploy(template, "s1")
        engine.delete_stack("s1")
        assert engine.state.snapshot() == pristine
        assert "s1" not in engine.stacks

    def test_delete_unknown_stack(self, engine):
        with pytest.raises(TemplateError, match="unknown stack"):
            engine.delete_stack("ghost")

    def test_update_unknown_stack(self, engine):
        template = template_from_topology(make_three_tier())
        with pytest.raises(TemplateError, match="unknown stack"):
            engine.update_stack(template, "ghost")

    def test_duplicate_stack_name_rejected(self, engine):
        template = template_from_topology(make_three_tier())
        engine.deploy(template, "s1")
        with pytest.raises(SchedulerError, match="already exists"):
            engine.deploy(template, "s1")

    def test_update_stack_replaces_resources(self, engine):
        topo = make_three_tier()
        template = template_from_topology(topo)
        engine.deploy(template, "s1")
        grown = topo.copy()
        grown.add_vm("extra", 1, 1)
        stack = engine.update_stack(template_from_topology(grown), "s1")
        assert "extra" in stack.servers
        assert len(engine.stacks) == 1

    def test_failed_update_rolls_back_to_old_stack(self, engine, small_dc):
        topo = make_three_tier()
        template = template_from_topology(topo)
        engine.deploy(template, "s1")
        before = engine.state.snapshot()
        monster = topo.copy()
        monster.add_vm("monster", 1000, 1000)
        with pytest.raises(SchedulerError):
            engine.update_stack(template_from_topology(monster), "s1")
        assert engine.state.snapshot() == before
        assert "s1" in engine.stacks
        assert "web0" in engine.stacks["s1"].servers


class TestUnexpectedErrorRollback:
    """Non-library exceptions mid-transaction must also restore state.

    A RuntimeError escaping a surrogate API call is not an admission
    verdict and must not leak half-applied capacity: the state
    transaction rolls back on every exception, not just library ones."""

    def test_deploy_restores_state(self, engine, monkeypatch):
        pristine = engine.state.snapshot()
        wedge_after(monkeypatch, engine.nova, "create_server", 2)
        with pytest.raises(RuntimeError):
            engine.deploy(
                template_from_topology(make_three_tier()), "s1"
            )
        assert engine.state.snapshot() == pristine
        assert "s1" not in engine.stacks

    def test_delete_restores_state_and_stack(self, engine, monkeypatch):
        engine.deploy(template_from_topology(make_three_tier()), "s1")
        deployed = engine.state.snapshot()
        wedge_after(monkeypatch, engine.nova, "delete_server", 2)
        with pytest.raises(RuntimeError):
            engine.delete_stack("s1")
        assert engine.state.snapshot() == deployed
        assert "s1" in engine.stacks

    def test_update_restores_state_and_old_stack(
        self, engine, monkeypatch
    ):
        engine.deploy(template_from_topology(make_three_tier()), "s1")
        old = engine.stacks["s1"]
        deployed = engine.state.snapshot()
        wedge_after(monkeypatch, engine.nova, "create_server", 2)
        with pytest.raises(RuntimeError):
            engine.update_stack(
                template_from_topology(make_three_tier()), "s1"
            )
        assert engine.state.snapshot() == deployed
        assert engine.stacks["s1"] is old
