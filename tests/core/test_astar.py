"""Tests for BA* (bounded A*)."""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import obs
from repro.core import astar
from repro.core.astar import BAStar, node_equivalence_classes
from repro.core.base import SearchStats
from repro.core.deadline import DBAStar
from repro.core.greedy import EG
from repro.core.heuristic import LowerBoundEstimator
from repro.core.objective import Objective
from repro.core.placement import PartialPlacement
from repro.core.topology import ApplicationTopology
from repro.datacenter.builder import build_datacenter
from repro.datacenter.loadgen import apply_random_load
from repro.datacenter.model import Level
from repro.datacenter.network import PathResolver
from repro.datacenter.state import DataCenterState
from repro.errors import PlacementError
from tests.conftest import make_three_tier
from tests.core.test_greedy import verify_placement_feasible
from tests.test_properties import SETTINGS, small_cloud, topologies


class TestEquivalenceClasses:
    def test_identical_unlinked_nodes_merge(self):
        t = ApplicationTopology()
        t.add_vm("a", 1, 1)
        t.add_vm("b", 1, 1)
        t.add_vm("c", 2, 2)
        classes = node_equivalence_classes(t)
        assert classes["a"] == classes["b"]
        assert classes["a"] != classes["c"]

    def test_zone_membership_separates(self):
        t = ApplicationTopology()
        t.add_vm("a", 1, 1)
        t.add_vm("b", 1, 1)
        t.add_vm("c", 1, 1)
        t.add_zone("z", Level.HOST, ["a", "b"])
        classes = node_equivalence_classes(t)
        assert classes["a"] == classes["b"]  # same zone set
        assert classes["a"] != classes["c"]

    def test_neighbor_structure_separates(self):
        t = ApplicationTopology()
        t.add_vm("a", 1, 1)
        t.add_vm("b", 1, 1)
        t.add_vm("hub", 2, 2)
        t.connect("a", "hub", 100)
        classes = node_equivalence_classes(t)
        assert classes["a"] != classes["b"]

    def test_mutually_linked_twins_merge(self):
        t = ApplicationTopology()
        t.add_vm("a", 1, 1)
        t.add_vm("b", 1, 1)
        t.add_vm("hub", 2, 2)
        t.connect("a", "hub", 100)
        t.connect("b", "hub", 100)
        classes = node_equivalence_classes(t)
        assert classes["a"] == classes["b"]

    def test_pair_linked_to_each_other(self):
        t = ApplicationTopology()
        t.add_vm("a", 1, 1)
        t.add_vm("b", 1, 1)
        t.connect("a", "b", 100)
        classes = node_equivalence_classes(t)
        assert classes["a"] == classes["b"]


class TestBAStar:
    def test_feasible_and_complete(self, three_tier, small_dc):
        base = DataCenterState(small_dc)
        result = BAStar().place(three_tier, small_dc, base)
        assert set(result.placement.assignments) == set(three_tier.nodes)
        verify_placement_feasible(three_tier, small_dc, base, result.placement)

    def test_never_worse_than_eg(self, small_dc):
        # BA* bounds itself with EG, so its objective can't be worse.
        for seed in range(4):
            state = DataCenterState(small_dc)
            apply_random_load(state, fraction_hosts=0.4, seed=seed)
            topo = make_three_tier(web=2, app=2, db=2)
            objective = Objective.for_topology(topo, small_dc)
            eg = EG().place(topo, small_dc, state, objective)
            bastar = BAStar().place(topo, small_dc, state, objective)
            assert (
                bastar.objective_value <= eg.objective_value + 1e-9
            ), f"seed={seed}"

    def test_finds_optimal_on_tiny_instance(self):
        cloud = build_datacenter(num_racks=2, hosts_per_rack=2)
        t = ApplicationTopology()
        t.add_vm("a", 10, 10)
        t.add_vm("b", 10, 10)
        t.add_vm("c", 2, 2)
        t.connect("a", "b", 100)
        t.connect("b", "c", 40)
        t.add_zone("z", Level.HOST, ["a", "b"])
        result = BAStar().place(t, cloud)
        # optimum: a,b in same rack (2 hops for the 100 Mbps link),
        # c co-located with b (0 hops)
        assert result.reserved_bw_mbps == 100 * 2
        assert result.new_active_hosts == 2

    def test_symmetry_reduction_preserves_value(self, small_dc):
        topo = make_three_tier(web=2, app=2, db=2)
        state = DataCenterState(small_dc)
        apply_random_load(state, fraction_hosts=0.3, seed=1)
        objective = Objective.for_topology(topo, small_dc)
        with_sym = BAStar(symmetry_reduction=True).place(
            topo, small_dc, state, objective
        )
        without = BAStar(symmetry_reduction=False).place(
            topo, small_dc, state, objective
        )
        assert with_sym.objective_value == pytest.approx(
            without.objective_value, abs=1e-9
        )

    def test_expansion_cap_returns_incumbent(self, three_tier, small_dc):
        result = BAStar(max_expansions=1).place(three_tier, small_dc)
        assert set(result.placement.assignments) == set(three_tier.nodes)

    def test_infeasible_raises(self, small_dc):
        t = ApplicationTopology()
        t.add_vm("huge", 1000, 1000)
        with pytest.raises(PlacementError):
            BAStar().place(t, small_dc)

    def test_stats_populated(self, three_tier, small_dc):
        result = BAStar().place(three_tier, small_dc)
        assert result.stats.eg_bound_runs >= 1
        assert result.stats.runtime_s > 0

    def test_input_state_not_mutated(self, three_tier, small_dc):
        state = DataCenterState(small_dc)
        before = state.snapshot()
        BAStar().place(three_tier, small_dc, state)
        assert state.snapshot() == before

    def test_respects_pinned(self, three_tier, small_dc):
        result = BAStar().place(
            three_tier, small_dc, pinned={"web0": (9, None)}
        )
        assert result.placement.host_of("web0") == 9


def _search(algorithm, topo, cloud, state):
    """Run one placement; returns (result or None, bound_updated trail)."""
    recorder = obs.TelemetryRecorder(record_span_events=False)
    with obs.use(recorder):
        try:
            result = algorithm.place(topo, cloud, state)
        except PlacementError:
            result = None
    trail = [
        (e.fields["source"], e.fields["bound"].hex())
        for e in recorder.events.of_type("bound_updated")
    ]
    return result, trail


class TestWalkedTrajectorySkip:
    """A bound re-run from a start an earlier EG run of the same search
    already walked is skipped, and the search cannot tell."""

    @SETTINGS
    @given(
        topo=topologies(),
        seed=st.integers(0, 50),
        cap=st.sampled_from([None, 5, 20]),
    )
    def test_skip_is_exact(self, topo, seed, cap):
        cloud = small_cloud()
        state = DataCenterState(cloud)
        apply_random_load(state, fraction_hosts=0.4, seed=seed)
        result, trail = _search(BAStar(max_expansions=cap), topo, cloud, state)
        # the reference never skips: no two starts share a key
        with mock.patch.object(astar, "_path_key", lambda *_: object()):
            reference, ref_trail = _search(
                BAStar(max_expansions=cap), topo, cloud, state
            )
        assert (result is None) == (reference is None)
        if result is None:
            return
        assert result.placement == reference.placement
        assert result.objective_value.hex() == reference.objective_value.hex()
        assert result.stats.paths_expanded == reference.stats.paths_expanded
        assert result.stats.paths_pruned == reference.stats.paths_pruned
        assert trail == ref_trail
        assert result.stats.eg_bound_runs <= reference.stats.eg_bound_runs

    def test_no_start_runs_twice(self, three_tier, small_dc, monkeypatch):
        starts = []
        real = astar.run_greedy_from

        def spy(partial, order, *args, **kwargs):
            starts.append((partial.placement_key(), tuple(order)))
            return real(partial, order, *args, **kwargs)

        monkeypatch.setattr(astar, "run_greedy_from", spy)
        result = BAStar().place(three_tier, small_dc)
        assert result.stats.eg_bound_runs == len(starts)
        assert len(set(starts)) == len(starts)
        # only the initial bound starts from the root: the root pop's
        # re-run would walk the same trajectory
        assert [key for key, _ in starts].count(frozenset()) == 1

    @staticmethod
    def _continue(topo, cloud, fake, monkeypatch):
        monkeypatch.setattr(astar, "run_greedy_from", fake)
        partial = PartialPlacement(
            topo, DataCenterState(cloud), PathResolver(cloud)
        )
        partial.assign("web0", 0)
        walked: set = set()
        BAStar()._eg_continue(
            partial,
            ["web1", "app0"],
            Objective.for_topology(topo, cloud),
            LowerBoundEstimator(cloud),
            SearchStats(),
            walked,
        )
        return walked

    def test_clean_run_indexes_every_prefix(
        self, three_tier, small_dc, monkeypatch
    ):
        def fake(partial, order, objective, estimator, config, stats):
            for name in order:
                partial.assign(name, 1)

        walked = self._continue(three_tier, small_dc, fake, monkeypatch)
        web0, web1, app0 = ("web0", 0, None), ("web1", 1, None), (
            "app0", 1, None
        )
        assert walked == {
            astar._path_key([web0], ["web1", "app0"]),
            astar._path_key([web0, web1], ["app0"]),
            astar._path_key([web0, web1, app0], []),
        }

    def test_backjumped_run_indexes_no_prefix(
        self, three_tier, small_dc, monkeypatch
    ):
        def fake(partial, order, objective, estimator, config, stats):
            stats.backtracks += 1  # a budget a fresh run would still have
            for name in order:
                partial.assign(name, 1)

        walked = self._continue(three_tier, small_dc, fake, monkeypatch)
        assert walked == {
            astar._path_key([("web0", 0, None)], ["web1", "app0"])
        }

    def test_retry_order_run_indexes_no_prefix(
        self, three_tier, small_dc, monkeypatch
    ):
        calls = []

        def fake(partial, order, objective, estimator, config, stats):
            calls.append(list(order))
            if len(calls) == 1:
                raise PlacementError("stuck on the weight order")
            for name in order:
                partial.assign(name, 1)

        walked = self._continue(three_tier, small_dc, fake, monkeypatch)
        assert calls[1] != calls[0]  # the bandwidth order completed it
        assert walked == {
            astar._path_key([("web0", 0, None)], ["web1", "app0"])
        }

    def test_dba_guard_is_seeded_by_the_initial_bound(
        self, three_tier, small_dc, monkeypatch
    ):
        algo = DBAStar(deadline_s=5.0, max_expansions=30)
        seen = []
        guard = algo._allow_bound_rerun

        def spy(last_duration_s):
            seen.append(last_duration_s)
            return guard(last_duration_s)

        monkeypatch.setattr(algo, "_allow_bound_rerun", spy)
        algo.place(three_tier, small_dc)
        assert algo._last_eg_duration > 0
        assert seen and all(duration > 0 for duration in seen)
