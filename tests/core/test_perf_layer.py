"""Tests for the search hot-path performance layer.

Covers the regression fixes and invariants the performance work relies on:

* the NIC-tracking estimator limits its bandwidth sum to the ``max_nodes``
  head (the docstring's promise; previously it summed every located node);
* ``SearchStats.eg_bound_runs`` counts greedy runs actually executed (a
  stuck first order triggers a bandwidth-ordered retry, which is a second
  run);
* ``candidate_targets(limit=..., dedup=True)`` honors the limit while
  still folding multiplicities over the full host scan;
* assign/unassign on a :class:`PartialPlacement` is a bit-exact no-op in
  LIFO order (the invariant ``PythonScorer.score`` relies on to score on
  the search path itself);
* the admissible estimator never exceeds the bandwidth of any feasible
  completion on exhaustively enumerable topologies (hypothesis).
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import astar as astar_module
from repro.core.astar import BAStar, node_equivalence_classes
from repro.core.base import SearchStats
from repro.core.candidates import candidate_targets
from repro.core.greedy import GreedyConfig
from repro.core.heuristic import EstimatorConfig, LowerBoundEstimator
from repro.core.objective import Objective
from repro.core.placement import PartialPlacement
from repro.core.topology import ApplicationTopology
from repro.datacenter.builder import build_datacenter
from repro.datacenter.network import PathResolver
from repro.datacenter.state import DataCenterState
from repro.errors import PlacementError


def make_partial(topo, cloud, state=None):
    return PartialPlacement(
        topo,
        state if state is not None else DataCenterState(cloud),
        PathResolver.for_cloud(cloud),
    )


def star_topology(spokes, hub_bw=100, vcpus=1):
    """A hub VM linked to ``spokes`` VMs with decreasing bandwidth.

    With ``vcpus=8`` on the 16-core test hosts, only one spoke fits next
    to the hub, so the estimator must spread the rest over (host-
    separated) imaginary hosts and their flows reserve real bandwidth.
    """
    topo = ApplicationTopology("star")
    topo.add_vm("hub", vcpus=vcpus, mem_gb=1)
    for i in range(spokes):
        topo.add_vm(f"s{i}", vcpus=vcpus, mem_gb=1)
        topo.connect("hub", f"s{i}", bw_mbps=hub_bw - i)
    return topo


class TestMaxNodesHeadLimit:
    """The informative estimator's bandwidth sum stops at the head."""

    def test_beyond_head_links_contribute_zero(self, small_dc):
        topo = star_topology(6, vcpus=8)
        partial = make_partial(topo, small_dc)
        partial.assign("hub", 0)
        remaining = [f"s{i}" for i in range(6)]

        unlimited = LowerBoundEstimator(
            small_dc, EstimatorConfig(max_nodes=None)
        )
        limited = LowerBoundEstimator(
            small_dc, EstimatorConfig(max_nodes=3)
        )
        full_bw, _ = unlimited.estimate(partial, remaining)
        head_bw, _ = limited.estimate(partial, remaining)
        # All six spokes link to the placed hub, so the unlimited sum is
        # strictly positive; truncating to the 3 highest-bandwidth spokes
        # must drop the other three flows from the sum.
        assert full_bw > 0.0
        assert head_bw < full_bw

    def test_head_limit_only_loosens_the_bound(self, small_dc):
        topo = star_topology(5, vcpus=8)
        partial = make_partial(topo, small_dc)
        partial.assign("hub", 0)
        remaining = [f"s{i}" for i in range(5)]
        estimates = []
        for cap in (1, 2, 3, None):
            estimator = LowerBoundEstimator(
                small_dc, EstimatorConfig(max_nodes=cap)
            )
            estimates.append(estimator.estimate(partial, remaining)[0])
        # larger heads see more flows: the bound tightens monotonically
        assert estimates == sorted(estimates)


class TestEgBoundRunCounting:
    def test_retry_counts_as_second_run(self, small_dc, three_tier, monkeypatch):
        calls = []

        def fake_run_greedy_from(partial, order, *args, **kwargs):
            calls.append(list(order))
            if len(calls) == 1:
                raise PlacementError("stuck on the weight order")
            for name in order:
                partial.assign(name, 0)

        monkeypatch.setattr(
            astar_module, "run_greedy_from", fake_run_greedy_from
        )
        algo = BAStar(GreedyConfig())
        partial = make_partial(three_tier, small_dc)
        stats = SearchStats()
        estimator = LowerBoundEstimator(small_dc)
        recorder = obs.TelemetryRecorder(record_span_events=False)
        with obs.use(recorder):
            algo._eg_continue(
                partial,
                ["web0", "web1", "app0"],
                Objective.for_topology(three_tier, small_dc),
                estimator,
                stats,
                set(),
            )
        assert len(calls) == 2  # weight order failed, bandwidth order ran
        assert stats.eg_bound_runs == 2
        metric = recorder.registry.get("ostro_eg_bound_runs_total")
        assert metric is not None and metric.value() == 2.0

    def test_single_run_counts_once(self, small_dc, three_tier):
        algo = BAStar(GreedyConfig())
        partial = make_partial(three_tier, small_dc)
        stats = SearchStats()
        estimator = LowerBoundEstimator(small_dc)
        outcome = algo._eg_continue(
            partial,
            ["web0"],
            Objective.for_topology(three_tier, small_dc),
            estimator,
            stats,
            set(),
        )
        assert outcome is not None
        assert stats.eg_bound_runs == 1


class TestCandidateLimitWithDedup:
    def test_limit_truncates_classes_keeping_multiplicities(self, small_dc):
        topo = ApplicationTopology("pair")
        topo.add_vm("a", vcpus=1, mem_gb=1)
        topo.add_vm("b", vcpus=1, mem_gb=1)
        topo.connect("a", "b", bw_mbps=100)
        partial = make_partial(topo, small_dc)
        partial.assign("a", 0)  # break host symmetry by distance to host 0

        unlimited = candidate_targets(partial, "b", dedup=True)
        assert len(unlimited) > 2  # the scenario actually has >2 classes
        for limit in (1, 2, len(unlimited), len(unlimited) + 5):
            limited = candidate_targets(partial, "b", dedup=True, limit=limit)
            assert limited == unlimited[:limit]

    def test_limit_without_dedup_still_early_exits(self, small_dc):
        topo = ApplicationTopology("solo")
        topo.add_vm("a", vcpus=1, mem_gb=1)
        partial = make_partial(topo, small_dc)
        limited = candidate_targets(partial, "a", dedup=False, limit=3)
        assert [t.host for t in limited] == [0, 1, 2]
        assert all(t.multiplicity == 1 for t in limited)


class TestExactUndo:
    """assign/unassign must be a bit-exact no-op in LIFO order."""

    def test_lifo_roundtrip_is_bit_exact(self, small_dc):
        topo = ApplicationTopology("chain")
        # awkward float requirements maximize the chance that naive
        # arithmetic reversal (a - v + v) would leave round-off residue
        for i in range(4):
            topo.add_vm(f"n{i}", vcpus=0.1 + 0.1 * i, mem_gb=0.3)
        for i in range(3):
            topo.connect(f"n{i}", f"n{i + 1}", bw_mbps=33.3)
        partial = make_partial(topo, small_dc)
        before = partial.state.snapshot()
        hosts = [0, 0, 1, 5]
        for i, host in enumerate(hosts):
            partial.assign(f"n{i}", host)
        for i in reversed(range(4)):
            partial.unassign(f"n{i}")
        assert partial.state.snapshot() == before  # exact, not approximate
        assert partial.ubw == 0.0

    def test_out_of_order_undo_stays_consistent(self, small_dc):
        topo = ApplicationTopology("tri")
        for i in range(3):
            topo.add_vm(f"n{i}", vcpus=0.1, mem_gb=0.1)
        topo.connect("n0", "n1", bw_mbps=10)
        topo.connect("n1", "n2", bw_mbps=10)
        partial = make_partial(topo, small_dc)
        for i in range(3):
            partial.assign(f"n{i}", 0)
        # remove the middle node first: later records must not be exact-
        # restored from saved values that still embed n1's reservation
        partial.unassign("n1")
        partial.unassign("n2")
        partial.unassign("n0")
        snap = partial.state.snapshot()
        fresh = DataCenterState(small_dc).snapshot()
        for got_row, want_row in zip(snap, fresh):
            for got, want in zip(got_row, want_row):
                assert got == pytest.approx(want)


class TestSignatureEquivalenceClasses:
    def test_matches_naive_pairwise_construction(self):
        # the naive reference implementation the optimization replaced
        def naive(topology):
            names = list(topology.nodes)
            reqs = {n: topology.requirement_vector(n) for n in names}
            zones = {
                n: frozenset(z.name for z in topology.zones_of(n))
                for n in names
            }
            nbrs = {n: frozenset(topology.neighbors(n)) for n in names}

            def interchangeable(a, b):
                if reqs[a] != reqs[b] or zones[a] != zones[b]:
                    return False
                bw_ab = {bw for other, bw in nbrs[a] if other == b}
                bw_ba = {bw for other, bw in nbrs[b] if other == a}
                if bw_ab != bw_ba:
                    return False
                rest_a = {(o, bw) for o, bw in nbrs[a] if o != b}
                rest_b = {(o, bw) for o, bw in nbrs[b] if o != a}
                return rest_a == rest_b

            class_of, next_class = {}, 0
            for name in names:
                for other, cid in class_of.items():
                    if interchangeable(name, other):
                        class_of[name] = cid
                        break
                else:
                    class_of[name] = next_class
                    next_class += 1
            return class_of

        from repro.datacenter.model import Level
        from tests.conftest import make_three_tier

        topologies = [
            make_three_tier(),
            make_three_tier(web=4, app=1, db=3, with_zones=False),
            star_topology(5),
            star_topology(4, hub_bw=50),
        ]
        # symmetric pair: two interchangeable *adjacent* nodes
        sym = ApplicationTopology("sym-pair")
        sym.add_vm("x", 1, 1)
        sym.add_vm("y", 1, 1)
        sym.add_vm("z", 2, 2)
        sym.connect("x", "y", 100)
        sym.connect("x", "z", 50)
        sym.connect("y", "z", 50)
        sym.add_zone("xy", Level.HOST, ["x", "y"])
        topologies.append(sym)
        for topo in topologies:
            assert node_equivalence_classes(topo) == naive(topo)


def _enumerate_min_completion_bw(partial, remaining, hosts):
    """Brute-force the cheapest feasible completion's added bandwidth."""
    base = partial.ubw
    best = None
    for combo in itertools.product(hosts, repeat=len(remaining)):
        applied = []
        try:
            for name, host in zip(remaining, combo):
                partial.assign(name, host)
                applied.append(name)
            added = partial.ubw - base
            if best is None or added < best:
                best = added
        except PlacementError:
            pass
        finally:
            for name in reversed(applied):
                partial.unassign(name)
    return best


@st.composite
def tiny_topologies(draw):
    n = draw(st.integers(min_value=3, max_value=5))
    topo = ApplicationTopology("tiny")
    for i in range(n):
        topo.add_vm(
            f"v{i}",
            vcpus=draw(st.sampled_from([1, 2])),
            mem_gb=draw(st.sampled_from([1, 2])),
        )
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for i, j in draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=6)
    ):
        topo.connect(f"v{i}", f"v{j}", bw_mbps=draw(st.sampled_from([50, 100, 200])))
    return topo


class TestAdmissibleEstimatorProperty:
    @settings(max_examples=30, deadline=None)
    @given(topo=tiny_topologies(), first_host=st.integers(0, 3))
    def test_never_exceeds_any_feasible_completion(self, topo, first_host):
        cloud = build_datacenter(num_racks=2, hosts_per_rack=2)
        partial = make_partial(topo, cloud)
        estimator = LowerBoundEstimator(
            cloud, EstimatorConfig(optimistic_colocation=True)
        )
        names = list(topo.nodes)
        hosts = range(cloud.num_hosts)

        # at the root: the estimate bounds every complete placement
        est_bw, est_c = estimator.estimate(partial, names)
        assert est_c == 0  # imaginary hosts are never charged to u_c
        optimal = _enumerate_min_completion_bw(partial, names, hosts)
        if optimal is not None:
            assert est_bw <= optimal + 1e-6

        # and after committing the first node to a concrete host
        partial.assign(names[0], first_host)
        est_bw, _ = estimator.estimate(partial, names[1:])
        optimal = _enumerate_min_completion_bw(partial, names[1:], hosts)
        if optimal is not None:
            assert est_bw <= optimal + 1e-6
