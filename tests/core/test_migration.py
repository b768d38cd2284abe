"""Tests for the migration planner."""

from __future__ import annotations

import pytest

from repro.core.migration import MigrationStep, apply_plan, plan_migration
from repro.core.placement import Assignment, Placement
from repro.core.scheduler import Ostro
from repro.core.topology import ApplicationTopology
from repro.errors import MigrationAborted, PlacementError


def placement_for(topology, mapping, cloud):
    """Build a Placement from {node: (host, disk)} (unchecked; tests only)."""
    return Placement(
        app_name=topology.name,
        assignments={
            name: Assignment(name, host, disk)
            for name, (host, disk) in mapping.items()
        },
        reserved_bw_mbps=0,
        new_active_hosts=0,
        hosts_used=len({h for h, _ in mapping.values()}),
    )


def deployed(topology, mapping, cloud):
    """A scheduler with `mapping` committed, and that placement."""
    ostro = Ostro(cloud)
    placement = placement_for(topology, mapping, cloud)
    ostro.commit(topology, placement)
    return ostro, placement


def committed(topology, mapping, cloud):
    """A live state with `mapping` committed."""
    ostro, placement = deployed(topology, mapping, cloud)
    return ostro.state, placement


class TestDirectMoves:
    def test_noop_when_placements_equal(self, small_dc):
        t = ApplicationTopology("m")
        t.add_vm("a", 2, 2)
        state, old = committed(t, {"a": (0, None)}, small_dc)
        plan = plan_migration(t, state, old, old)
        assert len(plan) == 0

    def test_single_move(self, small_dc):
        t = ApplicationTopology("m")
        t.add_vm("a", 2, 2)
        state, old = committed(t, {"a": (0, None)}, small_dc)
        new = placement_for(t, {"a": (5, None)}, small_dc)
        plan = plan_migration(t, state, old, new)
        assert plan.steps == [MigrationStep("a", 5)]

    def test_volume_move(self, small_dc):
        t = ApplicationTopology("m")
        t.add_vm("a", 2, 2)
        t.add_volume("v", 100)
        t.connect("a", "v", 50)
        state, old = committed(t, {"a": (0, None), "v": (0, 0)}, small_dc)
        new = placement_for(t, {"a": (0, None), "v": (3, 3)}, small_dc)
        plan = plan_migration(t, state, old, new)
        (step,) = plan.steps
        assert step.to_disk == 3

    def test_dependency_ordering(self, small_dc):
        """b must vacate host 1 before a can move in (capacity 16)."""
        t = ApplicationTopology("m")
        t.add_vm("a", 10, 4)
        t.add_vm("b", 10, 4)
        state, old = committed(
            t, {"a": (0, None), "b": (1, None)}, small_dc
        )
        new = placement_for(t, {"a": (1, None), "b": (2, None)}, small_dc)
        plan = plan_migration(t, state, old, new)
        order = [s.node for s in plan.steps]
        assert order == ["b", "a"]
        assert plan.bounces == []


class TestCycles:
    def test_swap_needs_a_bounce(self, small_dc):
        """a and b swap hosts; both hosts are too full to hold two VMs."""
        t = ApplicationTopology("m")
        t.add_vm("a", 10, 4)
        t.add_vm("b", 10, 4)
        state, old = committed(
            t, {"a": (0, None), "b": (1, None)}, small_dc
        )
        new = placement_for(t, {"a": (1, None), "b": (0, None)}, small_dc)
        plan = plan_migration(t, state, old, new)
        assert len(plan.bounces) == 1
        assert len(plan.moves) == 2
        # bounce first, then the two final moves
        assert plan.steps[0].bounce

    def test_blocked_cycle_without_room_raises(self, small_dc):
        t = ApplicationTopology("m")
        t.add_vm("a", 10, 4)
        t.add_vm("b", 10, 4)
        state, old = committed(
            t, {"a": (0, None), "b": (1, None)}, small_dc
        )
        # fill every other host so no bounce target exists
        for h in range(2, small_dc.num_hosts):
            state.place_vm(h, state.free_cpu[h], 0.1)
        new = placement_for(t, {"a": (1, None), "b": (0, None)}, small_dc)
        with pytest.raises(PlacementError, match="bounce|blocked"):
            plan_migration(t, state, old, new)

    def test_bounce_budget_respected(self, small_dc):
        t = ApplicationTopology("m")
        t.add_vm("a", 10, 4)
        t.add_vm("b", 10, 4)
        state, old = committed(
            t, {"a": (0, None), "b": (1, None)}, small_dc
        )
        new = placement_for(t, {"a": (1, None), "b": (0, None)}, small_dc)
        with pytest.raises(PlacementError):
            plan_migration(t, state, old, new, max_bounces=0)


class TestBandwidthDuringMigration:
    def test_transit_bandwidth_gates_the_plan(self, small_dc):
        """The intermediate configuration must carry the pair's flow: with
        enough NIC headroom the move sequence works; with too little, no
        one-at-a-time sequence exists (the flow would have to transit the
        drained NIC while the pair is split) and the planner says so."""

        def scenario(free_mbps):
            t = ApplicationTopology("m")
            t.add_vm("a", 2, 2)
            t.add_vm("b", 2, 2)
            t.connect("a", "b", 800)
            ostro, old = deployed(
                t, {"a": (0, None), "b": (0, None)}, small_dc
            )
            nic4 = small_dc.hosts[4].link_index
            ostro.state.reserve_path(
                (nic4,), small_dc.link_capacity_mbps[nic4] - free_mbps
            )
            new = placement_for(
                t, {"a": (4, None), "b": (4, None)}, small_dc
            )
            return t, ostro, old, new

        # 900 Mbps free: the 800 Mbps flow fits during the split phase
        t, ostro, old, new = scenario(900)
        plan = plan_migration(t, ostro.state, old, new)
        apply_plan(ostro, "m", old, new, plan)
        assert ostro.deployed("m").placement is new
        # 500 Mbps free: provably stuck -- whoever moves first needs 800
        # through the drained NIC while the partner is elsewhere
        t, ostro, old, new = scenario(500)
        with pytest.raises(PlacementError, match="blocked"):
            plan_migration(t, ostro.state, old, new)

    def test_infeasible_target_rejected(self, small_dc):
        t = ApplicationTopology("m")
        t.add_vm("a", 2, 2)
        state, old = committed(t, {"a": (0, None)}, small_dc)
        state.place_vm(5, 15, 30)  # host 5 nearly full
        new = placement_for(t, {"a": (5, None)}, small_dc)
        with pytest.raises(PlacementError):
            plan_migration(t, state, old, new)


class TestApplyPlan:
    def test_apply_moves_live_state(self, small_dc):
        t = ApplicationTopology("m")
        t.add_vm("a", 4, 4)
        ostro, old = deployed(t, {"a": (0, None)}, small_dc)
        new = placement_for(t, {"a": (7, None)}, small_dc)
        plan = plan_migration(t, ostro.state, old, new)
        apply_plan(ostro, "m", old, new, plan)
        assert ostro.state.free_cpu[0] == 16
        assert ostro.state.free_cpu[7] == 12
        assert ostro.deployed("m").placement is new
        assert ostro.verify_state() == []

    def test_stale_plan_detected(self, small_dc):
        t = ApplicationTopology("m")
        t.add_vm("a", 4, 4)
        ostro, old = deployed(t, {"a": (0, None)}, small_dc)
        new = placement_for(t, {"a": (7, None)}, small_dc)
        plan = plan_migration(t, ostro.state, old, new)
        ostro.state.place_vm(7, 14, 1)  # someone took the target meanwhile
        before = ostro.state.snapshot()
        with pytest.raises(MigrationAborted, match="no longer fits") as info:
            apply_plan(ostro, "m", old, new, plan)
        assert info.value.executed == 0
        assert ostro.state.snapshot() == before
        assert ostro.deployed("m").placement.host_of("a") == 0

    def test_moved_app_is_a_stale_plan(self, small_dc):
        t = ApplicationTopology("m")
        t.add_vm("a", 4, 4)
        ostro, old = deployed(t, {"a": (0, None)}, small_dc)
        new = placement_for(t, {"a": (7, None)}, small_dc)
        plan = plan_migration(t, ostro.state, old, new)
        elsewhere = placement_for(t, {"a": (3, None)}, small_dc)
        with pytest.raises(MigrationAborted, match="stale plan"):
            apply_plan(ostro, "m", elsewhere, new, plan)

    def test_removing_after_the_move_restores_the_pristine_state(
        self, small_dc
    ):
        t = ApplicationTopology("m")
        t.add_vm("a", 10, 4)
        t.add_vm("b", 10, 4)
        t.connect("a", "b", 300)
        ostro = Ostro(small_dc)
        pristine = ostro.state.snapshot()
        old = placement_for(t, {"a": (0, None), "b": (1, None)}, small_dc)
        ostro.commit(t, old)
        new = placement_for(t, {"a": (1, None), "b": (0, None)}, small_dc)
        plan = plan_migration(t, ostro.state, old, new)
        assert plan.bounces  # the swap parks one VM on the way
        apply_plan(ostro, "m", old, new, plan)
        ostro.remove("m")
        assert ostro.state.snapshot() == pristine

    def test_incomplete_new_placement_rejected(self, small_dc):
        t = ApplicationTopology("m")
        t.add_vm("a", 2, 2)
        t.add_vm("b", 2, 2)
        state, old = committed(
            t, {"a": (0, None), "b": (1, None)}, small_dc
        )
        partial_new = placement_for(t, {"a": (2, None)}, small_dc)
        with pytest.raises(PlacementError, match="does not cover"):
            plan_migration(t, state, old, partial_new)
