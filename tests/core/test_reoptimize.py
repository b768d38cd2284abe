"""Tests for Ostro.reoptimize: fresh placement + live migration."""

from __future__ import annotations

import pytest

from repro.core.migration import replan
from repro.core.placement import Assignment, Placement
from repro.core.scheduler import Ostro
from repro.core.topology import ApplicationTopology
from repro.core.validate import placement_violations
from repro.datacenter.builder import build_datacenter
from repro.errors import PlacementError
from tests.conftest import make_three_tier


def spread_chain():
    """Three 6-vCPU VMs chained a-b-c, committed one per host on hosts
    0, 1 and 2 of a two-rack data center."""
    ostro = Ostro(build_datacenter(num_racks=2))
    topo = ApplicationTopology("tri")
    for name in "abc":
        topo.add_vm(name, 6, 6)
    topo.connect("a", "b", 100)
    topo.connect("b", "c", 100)
    spread = Placement(
        app_name="tri",
        assignments={n: Assignment(n, h) for h, n in enumerate("abc")},
        reserved_bw_mbps=0,
        new_active_hosts=3,
        hosts_used=3,
    )
    ostro.commit(topo, spread)
    return ostro, topo


def chatty_pair():
    t = ApplicationTopology("pair")
    t.add_vm("a", 2, 2)
    t.add_vm("b", 2, 2)
    t.connect("a", "b", 500)
    return t


class TestReoptimize:
    def test_improves_a_deliberately_bad_placement(self, small_dc):
        """Commit a placement that splits a chatty pair across racks, then
        let reoptimize co-locate them and migrate."""
        from repro.core.placement import Assignment, Placement

        ostro = Ostro(small_dc)
        topo = chatty_pair()
        bad = Placement(
            app_name="pair",
            assignments={
                "a": Assignment("a", 0),
                "b": Assignment("b", 12),  # different rack: 4-hop flow
            },
            reserved_bw_mbps=500 * 4,
            new_active_hosts=2,
            hosts_used=2,
        )
        ostro.commit(topo, bad)
        result, plan = ostro.reoptimize("pair", algorithm="eg")
        assert result.reserved_bw_mbps == 0.0  # co-located now
        assert len(plan.moves) >= 1
        deployed = ostro.deployed("pair").placement
        assert deployed.host_of("a") == deployed.host_of("b")

    def test_migrated_state_is_consistent(self, small_dc):
        from repro.core.placement import Assignment, Placement

        ostro = Ostro(small_dc)
        topo = chatty_pair()
        bad = Placement(
            app_name="pair",
            assignments={
                "a": Assignment("a", 0),
                "b": Assignment("b", 12),
            },
            reserved_bw_mbps=2000,
            new_active_hosts=2,
            hosts_used=2,
        )
        pristine = ostro.state.snapshot()
        ostro.commit(topo, bad)
        ostro.reoptimize("pair", algorithm="eg")
        # removing the app after migration restores the pristine state
        ostro.remove("pair")
        assert ostro.state.snapshot() == pristine

    def test_already_optimal_placement_stays_put(self, small_dc):
        ostro = Ostro(small_dc)
        topo = chatty_pair()
        ostro.place(topo, algorithm="eg")
        before = ostro.deployed("pair").placement
        result, plan = ostro.reoptimize("pair", algorithm="eg")
        assert len(plan) == 0
        after = ostro.deployed("pair").placement
        assert after.assignments == before.assignments

    def test_unknown_application(self, small_dc):
        with pytest.raises(PlacementError):
            Ostro(small_dc).reoptimize("ghost")

    def test_three_tier_roundtrip(self, small_dc):
        ostro = Ostro(small_dc)
        topo = make_three_tier()
        ostro.place(topo, algorithm="egc")  # link-blind initial placement
        before = ostro.deployed("three-tier").placement
        result, plan = ostro.reoptimize("three-tier", algorithm="eg")
        deployed = ostro.deployed("three-tier").placement
        if plan.steps:
            assert deployed.assignments == result.placement.assignments
        else:
            assert deployed.assignments == before.assignments
        # every diversity zone still holds after migration
        for zone in topo.zones:
            members = sorted(zone.members)
            for i, m1 in enumerate(members):
                for m2 in members[i + 1 :]:
                    assert small_dc.separated_at(
                        deployed.host_of(m1), deployed.host_of(m2), zone.level
                    )


class TestKeepValue:
    """Keeping and moving are valued against the same released state."""

    def test_strictly_better_fresh_placement_is_adopted(self):
        """Keeping the spread chain is worth 0.70 like-for-like (three
        hosts only it keeps active); the fresh placement scores 0.4167.
        Valuing the kept hosts as already active (u_c = 0, i.e. 0.30)
        refused the move and reported 0 moves."""
        ostro, _ = spread_chain()
        result, plan = ostro.reoptimize("tri", algorithm="eg")
        assert result.objective_value == pytest.approx(5 / 12)
        assert len(plan.steps) > 0
        deployed = ostro.deployed("tri").placement
        assert deployed.assignments == result.placement.assignments
        assert len({a.host for a in deployed.assignments.values()}) < 3
        assert ostro.verify_state() == []

    def test_no_op_update_reports_the_replan_keep_value(self):
        ostro, topo = spread_chain()
        _, keep, _ = replan(ostro, "tri", "eg")
        assert keep == pytest.approx(0.70)
        outcome = ostro.update(topo.copy(), algorithm="eg")
        assert outcome.result.objective_value == keep

    def test_replan_is_read_only(self):
        ostro, topo = spread_chain()
        before = ostro.state.snapshot()
        result, _, released = replan(ostro, "tri", "eg")
        assert ostro.state.snapshot() == before
        # the clone has the app released: the fresh placement fits there
        assert released.snapshot() != before
        assert (
            placement_violations(
                topo, ostro.cloud, released, result.placement
            )
            == []
        )
