"""Property-based tests for the migration planner."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.greedy import EG, EGBW, EGC
from repro.core.migration import apply_plan, plan_migration
from repro.core.scheduler import Ostro
from repro.core.validate import placement_violations
from repro.datacenter.builder import build_datacenter
from repro.datacenter.state import DataCenterState
from repro.errors import PlacementError
from tests.test_properties import topologies

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestMigrationProperties:
    @SETTINGS
    @given(
        topo=topologies(max_vms=4, max_volumes=1),
        seed=st.integers(0, 20),
        algo_pair=st.sampled_from([(0, 1), (1, 0), (2, 0), (0, 2)]),
    )
    def test_plan_between_algorithm_outputs_is_executable(
        self, topo, seed, algo_pair
    ):
        """Any two algorithms' placements of the same app are connected by
        an executable plan, executing it records the new placement, and the
        app can then be cleanly removed."""
        algorithms = [EG(), EGC(), EGBW()]
        cloud = build_datacenter(num_racks=3, hosts_per_rack=3)
        base = DataCenterState(cloud)
        try:
            old = algorithms[algo_pair[0]].place(topo, cloud, base)
            new = algorithms[algo_pair[1]].place(topo, cloud, base)
        except PlacementError:
            return
        ostro = Ostro(cloud)
        ostro.commit(topo, old.placement)
        try:
            plan = plan_migration(
                topo, ostro.state, old.placement, new.placement
            )
        except PlacementError:
            return  # no safe one-at-a-time sequence exists: acceptable
        apply_plan(ostro, topo.name, old.placement, new.placement, plan)
        assert ostro.deployed(topo.name).placement is new.placement
        # the final state equals "new placement committed on fresh state"
        reference = Ostro(cloud)
        reference.commit(topo, new.placement)
        assert ostro.state.snapshot() == reference.state.snapshot()
        # and removing the app restores the pristine state
        ostro.remove(topo.name)
        assert ostro.state.snapshot() == base.snapshot()
        # and the new placement validates against a pristine base
        assert (
            placement_violations(topo, cloud, DataCenterState(cloud), new.placement)
            == []
        )

    @SETTINGS
    @given(topo=topologies(max_vms=3, max_volumes=1), seed=st.integers(0, 10))
    def test_plan_is_idempotent_on_identical_placements(self, topo, seed):
        cloud = build_datacenter(num_racks=2, hosts_per_rack=3)
        base = DataCenterState(cloud)
        try:
            result = EG().place(topo, cloud, base)
        except PlacementError:
            return
        ostro = Ostro(cloud)
        ostro.commit(topo, result.placement)
        plan = plan_migration(
            topo, ostro.state, result.placement, result.placement
        )
        assert len(plan) == 0
