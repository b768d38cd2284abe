"""Optimality-gap oracle: the bound must never exceed a feasible score.

The oracle (:mod:`repro.core.oracle`) certifies a lower bound on the
optimal fresh-placement objective via a rack-granular MILP relaxation.
Its one load-bearing property is *validity*: the bound can be loose, but
it must never exceed the objective value of any feasible placement an
algorithm finds. These tests check validity on the reference scenarios
and on hypothesis-generated inputs, plus the closed-form pieces the
relaxation is assembled from -- including the regression where an
unrealizable separation distance (e.g. "different datacenters" in a
single-DC cloud) used to enter the cost minima as 0 and collapse the
whole bound to zero.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import oracle
from repro.core.greedy import EG
from repro.core.objective import Objective
from repro.datacenter.builder import build_cloud, build_datacenter
from repro.datacenter.loadgen import apply_random_load
from repro.datacenter.state import DataCenterState
from repro.errors import PlacementError
from tests.conftest import make_three_tier
from tests.test_properties import small_cloud, topologies

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestMinHopsAtDistance:
    def test_unrealizable_distance_is_inf_not_zero(self):
        # single-DC, single-pod cloud: d=3 and d=4 cannot occur; a 0
        # would poison every min() chain below it
        cloud = build_datacenter(num_racks=4, hosts_per_rack=4)
        g = oracle._hop_minima(cloud)
        assert g[0] == 0.0
        assert g[1] > 0.0
        assert g[2] > 0.0
        assert math.isinf(g[3]) or g[3] > 0.0
        assert math.isinf(g[4])

    def test_every_level_realizable_in_full_hierarchy(self):
        cloud = build_cloud(
            num_datacenters=2, pods_per_dc=2, racks_per_pod=2,
            hosts_per_rack=2,
        )
        g = oracle._hop_minima(cloud)
        assert g[0] == 0.0
        assert all(0.0 < v < math.inf for v in g[1:])


class TestLinkLevelCosts:
    G = [0.0, 2.0, 4.0, 6.0, 8.0]

    def test_monotone_outward(self):
        far, dc, pod, rack = oracle._link_level_costs(self.G, 0, 2, 4, 8)
        assert rack <= pod <= dc <= far
        assert rack == 2.0  # d=0 excluded: co-location is modeled apart

    def test_forced_distance_excludes_inner_levels(self):
        _, _, pod, rack = oracle._link_level_costs(self.G, 2, 2, 4, 8)
        assert rack == pod == 4.0  # same-rack impossible, inherits pod

    def test_single_dc_folds_far(self):
        far, dc, _, _ = oracle._link_level_costs(self.G, 0, 1, 4, 8)
        assert far == dc

    def test_single_rack_folds_everything(self):
        g = [0.0, 2.0, math.inf, math.inf, math.inf]
        far, dc, pod, rack = oracle._link_level_costs(g, 0, 1, 1, 1)
        assert far == dc == pod == rack == 2.0

    def test_inf_sentinel_never_wins_a_min(self):
        g = [0.0, 2.0, 4.0, 6.0, math.inf]
        far, *_ = oracle._link_level_costs(g, 0, 1, 4, 8)
        assert math.isfinite(far)


class TestCapacityPieces:
    def test_pair_can_colocate_respects_each_resource(self):
        host_max = (8.0, 16.0, 100.0)
        a = (4.0, 8.0, 0.0)
        assert oracle._pair_can_colocate(a, (4.0, 8.0, 0.0), host_max)
        assert not oracle._pair_can_colocate(a, (5.0, 1.0, 0.0), host_max)
        assert not oracle._pair_can_colocate(a, (1.0, 9.0, 0.0), host_max)

    def test_component_min_hosts_ceils_per_resource(self):
        demands = {"a": (6.0, 1.0, 0.0), "b": (6.0, 1.0, 0.0),
                   "c": (6.0, 1.0, 0.0)}
        # 18 cpu over 8-cpu hosts -> at least 3 hosts
        k = oracle._component_min_hosts(
            ["a", "b", "c"], demands, (8.0, 32.0, 100.0)
        )
        assert k == 3
        assert oracle._component_min_hosts(
            ["a"], demands, (8.0, 32.0, 100.0)
        ) == 1

    def test_component_min_hosts_infeasible_resource(self):
        demands = {"a": (1.0, 1.0, 50.0)}
        k = oracle._component_min_hosts(["a"], demands, (8.0, 32.0, 0.0))
        assert math.isinf(k)

    def test_link_components_partition_links(self):
        topo = make_three_tier()
        plinks = oracle._positive_links(topo)
        comps = oracle._link_components(topo)
        seen = sorted(li for comp in comps for li in comp)
        assert seen == list(range(len(plinks)))


class TestBoundValidity:
    def _check(self, topo, cloud, state):
        objective = Objective.for_topology(topo, cloud)
        try:
            result = EG().place(topo, cloud, state, objective)
        except PlacementError:
            return  # no feasible witness; any bound is vacuously valid
        bound = oracle.lower_bound(
            topo, cloud, state, objective, time_limit_s=10.0
        )
        achieved = objective.score(
            result.reserved_bw_mbps, result.new_active_hosts
        )
        assert bound.score <= achieved + 1e-9
        assert bound.bw_mbps <= result.reserved_bw_mbps + 1e-9
        assert bound.new_hosts <= result.new_active_hosts + 1e-9

    def test_three_tier_bound_valid_and_nonvacuous(self, small_dc):
        topo = make_three_tier(web=4, app=4, db=2)
        state = DataCenterState(small_dc)
        self._check(topo, small_dc, state)

    def test_bound_positive_when_demand_forces_spreading(self):
        # 6 VMs x 4 vcpus on 8-cpu hosts: >= 3 hosts, so a connected
        # topology must keep >= 2 links crossing hosts
        from repro.core.topology import ApplicationTopology

        cloud = build_datacenter(
            num_racks=2, hosts_per_rack=2, cpu_cores=8, mem_gb=16
        )
        topo = ApplicationTopology("chain")
        for i in range(6):
            topo.add_vm(f"vm{i}", vcpus=4, mem_gb=1)
        for i in range(5):
            topo.connect(f"vm{i}", f"vm{i + 1}", bw_mbps=100)
        state = DataCenterState(cloud)
        objective = Objective.for_topology(topo, cloud)
        bound = oracle.lower_bound(
            topo, cloud, state, objective, time_limit_s=10.0
        )
        assert bound.score > 0.0
        self._check(topo, cloud, state)

    @SETTINGS
    @given(topo=topologies(max_vms=5, max_volumes=2), seed=st.integers(0, 30))
    def test_bound_never_exceeds_eg(self, topo, seed):
        cloud = small_cloud()
        state = DataCenterState(cloud)
        apply_random_load(state, fraction_hosts=0.4, seed=seed)
        self._check(topo, cloud, state)


class TestGapPayload:
    def test_payload_shape(self, small_dc):
        topo = make_three_tier()
        state = DataCenterState(small_dc)
        objective = Objective.for_topology(topo, small_dc)
        bound = oracle.lower_bound(
            topo, small_dc, state, objective, time_limit_s=10.0
        )
        payload = oracle.gap_payload(bound)
        assert set(payload) == {
            "score_lower_bound",
            "reserved_bw_mbps_lower_bound",
            "new_active_hosts_lower_bound",
            "solver",
            "status",
        }
        assert payload["solver"] in ("milp", "milp-dual", "closed-form")


@pytest.mark.skipif(oracle.HAVE_SCIPY, reason="exercises the no-scipy path")
class TestClosedFormFallback:  # pragma: no cover - env dependent
    def test_closed_form_only(self, small_dc):
        topo = make_three_tier()
        state = DataCenterState(small_dc)
        objective = Objective.for_topology(topo, small_dc)
        bound = oracle.lower_bound(topo, small_dc, state, objective)
        assert bound.solver == "closed-form"
