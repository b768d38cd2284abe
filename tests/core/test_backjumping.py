"""Tests for greedy dead-end recovery (backjumping + NIC-aware estimate).

Regression tests for the failure mode found while reproducing the Fig. 7
sweeps: pure greedy drains a host's NIC that a later, low-bandwidth node
needs, leaving that node with no feasible host anywhere.
"""

from __future__ import annotations

import pytest

from repro.core.base import SearchStats
from repro.core.candidates import candidate_targets
from repro.core.greedy import EG, GreedyConfig, backtracking_place
from repro.core.heuristic import EstimatorConfig
from repro.core.placement import PartialPlacement
from repro.core.topology import ApplicationTopology
from repro.datacenter.builder import build_datacenter
from repro.datacenter.loadgen import apply_table_iv_load
from repro.datacenter.network import PathResolver
from repro.datacenter.state import DataCenterState
from repro.errors import PlacementError
from tests.core.test_greedy import verify_placement_feasible


class TestBacktrackingPlace:
    def _setup(self, small_dc):
        """A trap that needs backjumping: host 0's NIC is drained to 50
        Mbps, and 'c' must be host-separated from its 100 Mbps neighbor
        'a'. If 'a' lands on host 0 (first-fit order), 'c' has no feasible
        host anywhere -- only revisiting 'a''s decision helps."""
        from repro.datacenter.model import Level

        topo = ApplicationTopology("bj")
        topo.add_vm("a", 1, 1)
        topo.add_vm("b", 1, 1)
        topo.add_vm("c", 1, 1)
        topo.connect("a", "c", 100)
        topo.add_zone("z", Level.HOST, ["a", "c"])
        state = DataCenterState(small_dc)
        nic0 = small_dc.hosts[0].link_index
        state.reserve_path((nic0,), small_dc.link_capacity_mbps[nic0] - 50)
        partial = PartialPlacement(topo, state, PathResolver(small_dc))
        return topo, partial

    def _first_fit_rank(self, partial):
        def rank(node_name):
            return candidate_targets(partial, node_name, dedup=False)

        return rank

    def test_jump_unwinds_conflicting_neighbor(self, small_dc):
        topo, partial = self._setup(small_dc)
        stats = SearchStats()
        backtracking_place(
            partial, ["a", "b", "c"], self._first_fit_rank(partial), 10, stats
        )
        assert len(partial.assignments) == 3
        assert stats.backtracks >= 1
        # 'a' was moved off the drained host
        assert partial.host_of("a") != 0
        assert partial.host_of("a") != partial.host_of("c")

    def test_budget_zero_fails_fast(self, small_dc):
        topo, partial = self._setup(small_dc)
        stats = SearchStats()
        with pytest.raises(PlacementError):
            backtracking_place(
                partial, ["a", "b", "c"], self._first_fit_rank(partial), 0, stats
            )

    def test_unwinds_restore_state(self, small_dc):
        topo, partial = self._setup(small_dc)
        stats = SearchStats()
        snapshot = partial.state.snapshot()

        def rank_nothing(node_name):
            return []

        with pytest.raises(PlacementError):
            backtracking_place(partial, ["a"], rank_nothing, 5, stats)
        assert partial.state.snapshot() == snapshot

    def test_backjump_walks_into_a_lazy_tail(self, small_dc, monkeypatch):
        """With ``max_full_candidates=1`` the estimate-scored head of 'a'
        is one host; the jump back to 'a' must take the first target of
        the proxy-ranked tail -- built only now -- exactly as when the
        whole ranking was a list."""
        from repro.core import greedy
        from repro.core.objective import Objective

        def run(preselect_fn):
            monkeypatch.setattr(greedy, "preselect", preselect_fn)
            topo, partial = self._setup(small_dc)
            stats = SearchStats()
            greedy.run_greedy_from(
                partial, ["a", "b", "c"],
                Objective.for_topology(topo, small_dc),
                greedy.LowerBoundEstimator(small_dc),
                GreedyConfig(dedup=False, max_full_candidates=1),
                stats,
            )
            return partial.freeze().assignments, stats

        lazy_preselect = greedy.preselect
        pulled = []

        def counting(*args):
            head, tail = lazy_preselect(*args)
            return head, (pulled.append(t) or t for t in tail)

        def eager(*args):
            head, tail = lazy_preselect(*args)
            return head, iter(list(tail))

        lazy_assignments, lazy_stats = run(counting)
        eager_assignments, eager_stats = run(eager)
        assert lazy_stats.backtracks >= 1
        # every idle host costs the same: the head is host 0 (the trap),
        # the tail starts at host 1
        assert lazy_assignments["a"].host == 1
        assert lazy_assignments == eager_assignments
        assert lazy_stats == eager_stats
        # one record per retry of a node, not one per feasible host
        assert 1 <= len(pulled) <= lazy_stats.backtracks


class TestBacktracksAccumulate:
    def test_restart_cascade_reports_the_sum(self, small_dc):
        """Both strategies backjump once on the drained-NIC trap: the first
        then exhausts its one-jump budget, the second succeeds. The search
        made two jumps and reports two."""
        from repro.core.greedy import greedy_with_restarts
        from repro.core.heuristic import LowerBoundEstimator
        from repro.core.objective import Objective

        topo, partial = TestBacktrackingPlace()._setup(small_dc)

        def lowest_host_first(_partial):
            return lambda target: target.host

        stats = SearchStats()
        placed = greedy_with_restarts(
            topo, partial.state, partial.resolver,
            Objective.for_topology(topo, small_dc),
            LowerBoundEstimator(small_dc),
            GreedyConfig(dedup=False, max_full_candidates=1, max_backtracks=1),
            stats, {},
            strategies=[
                (["a", "b", "c"], lowest_host_first),
                (["a", "c", "b"], lowest_host_first),
            ],
        )
        assert len(placed.assignments) == 3
        assert stats.restarts == 1
        assert stats.backtracks == 2


class TestNicAwareDeadEndAvoidance:
    """The Table-IV scenario that used to strand tier-1 nodes."""

    @pytest.fixture(scope="class")
    def loaded_dc(self):
        cloud = build_datacenter(num_racks=8)
        state = DataCenterState(cloud)
        apply_table_iv_load(state, seed=0)
        return cloud, state

    def test_multitier_places_without_exhausting_backjumps(self, loaded_dc):
        from repro.workloads.multitier import build_multitier

        cloud, state = loaded_dc
        topo = build_multitier(total_vms=50, heterogeneous=True)
        config = GreedyConfig(
            max_full_candidates=8, estimator=EstimatorConfig(max_nodes=24)
        )
        result = EG(config).place(topo, cloud, state)
        verify_placement_feasible(topo, cloud, state, result.placement)
        # the NIC-aware estimate avoids the trap proactively
        assert result.stats.backtracks <= 20

    def test_estimator_flags_stranded_future(self, loaded_dc):
        """Directly: a partial placement whose NICs cannot carry a future
        node's links estimates to infinity."""
        from repro.core.heuristic import LowerBoundEstimator

        cloud, _ = loaded_dc
        state = DataCenterState(cloud)
        topo = ApplicationTopology("strand")
        topo.add_vm("u", 1, 1)
        topo.add_vm("v", 1, 1)
        topo.connect("u", "v", 500)
        # u sits on a host whose NIC is nearly dead and whose CPU is full
        host = 0
        state.consume_background(
            host,
            vcpus=state.free_cpu[host] - 1,
            mem_gb=1,
            nic_mbps=cloud.hosts[host].nic_bw_mbps - 100,
        )
        partial = PartialPlacement(topo, state, PathResolver(cloud))
        partial.assign("u", host)  # consumes the last CPU
        estimator = LowerBoundEstimator(cloud)  # informative: tracks NICs
        est_bw, _ = estimator.estimate(partial, ["v"])
        assert est_bw == float("inf")
