"""Cross-kernel bit-exactness: numpy scoring must equal the reference.

The array kernel (:mod:`repro.core.kernel`) promises *bit-identical*
results to the pure-Python reference -- same scores, same candidate
sets, same placements -- because it replays the same float operations in
the same order. These tests drive both kernels over fixed and
hypothesis-generated inputs and compare everything observable:
objective values, placement fingerprints, and the deterministic work
counters. The ``crosscheck`` kernel additionally asserts equality at
every internal comparison point and raises :class:`KernelMismatch` on
the first divergence, so merely completing a crosscheck run is itself
the strongest assertion.
"""

from __future__ import annotations

import dataclasses
import gc
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import kernel, scorer
from repro.core.astar import BAStar
from repro.core.greedy import EG, EGBW, EGC, GreedyConfig
from repro.core.objective import Objective
from repro.core.scheduler import Ostro
from repro.datacenter.loadgen import apply_random_load
from repro.datacenter.state import DataCenterState
from repro.errors import PlacementError
from repro.lint.symbols import VOLATILE_EVENT_KEYS
from tests.conftest import make_three_tier
from tests.test_properties import small_cloud, topologies

pytestmark = pytest.mark.skipif(
    not kernel.HAVE_NUMPY, reason="numpy kernel unavailable"
)

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _placement_blob(result):
    return sorted(
        (a.node, a.host, a.disk)
        for a in result.placement.assignments.values()
    )


def _run(algorithm, topo, cloud, state, kernel_name):
    with kernel.use_kernel(kernel_name):
        return algorithm.place(topo, cloud, state)


class TestKernelSelection:
    def test_set_kernel_rejects_unknown(self):
        with pytest.raises(ValueError):
            kernel.set_kernel("fortran")

    def test_use_kernel_restores_previous(self):
        before = kernel.get_kernel()
        with kernel.use_kernel("python"):
            assert kernel.get_kernel() == "python"
        assert kernel.get_kernel() == before

    @pytest.mark.parametrize("name, scorer_type", [
        ("python", scorer.PythonScorer),
        ("numpy", scorer.NumpyScorer),
        ("crosscheck", scorer.CrosscheckScorer),
    ])
    def test_each_kernel_yields_its_scorer(self, name, scorer_type):
        with kernel.use_kernel(name):
            assert type(scorer.active_scorer()) is scorer_type

    def test_environment_selects_the_kernel(self, monkeypatch):
        monkeypatch.setattr(kernel, "_kernel", None)
        monkeypatch.setenv("REPRO_KERNEL", " Crosscheck ")
        assert kernel.get_kernel() == "crosscheck"
        assert type(scorer.active_scorer()) is scorer.CrosscheckScorer

    def test_misspelt_environment_kernel_fails_loudly(self, monkeypatch):
        monkeypatch.setattr(kernel, "_kernel", None)
        monkeypatch.setenv("REPRO_KERNEL", "crosschek")
        with pytest.raises(ValueError, match="crosschek.*'crosscheck'"):
            scorer.active_scorer()

    @pytest.mark.parametrize("name", ["numpy", "crosscheck"])
    def test_numpy_kernels_without_numpy_fail_loudly(self, monkeypatch, name):
        monkeypatch.setattr(kernel, "_kernel", None)
        monkeypatch.setattr(kernel, "HAVE_NUMPY", False)
        monkeypatch.setenv("REPRO_KERNEL", name)
        with pytest.raises(ValueError, match="requires numpy"):
            scorer.active_scorer()
        monkeypatch.delenv("REPRO_KERNEL")
        assert type(scorer.active_scorer()) is scorer.PythonScorer


class _PerturbedScorer(scorer.NumpyScorer):
    """The array kernel with one of its three results off by the least
    possible amount: a dropped candidate, or one float moved one ulp."""

    def __init__(self, point):
        self.point = point

    def candidates(self, partial, node_name, dedup, limit):
        found = super().candidates(partial, node_name, dedup, limit)
        return found[:-1] if self.point == "candidates" else found

    def immediate_costs(self, partial, objective, node_name, targets):
        costs = super().immediate_costs(partial, objective, node_name, targets)
        if self.point == "immediate_costs":
            costs[0] = math.nextafter(costs[0], math.inf)
        return costs

    def score(self, partial, node_name, targets, rest, objective, estimator):
        batch = super().score(
            partial, node_name, targets, rest, objective, estimator
        )
        if self.point == "score" and batch:
            value, est_bw, est_c = batch[0]
            batch[0] = (math.nextafter(value, math.inf), est_bw, est_c)
        return batch


class TestCrosscheckTrips:
    """Crosscheck must be able to fail: each comparison point, perturbed
    on the fast side only, raises :class:`KernelMismatch`."""

    def _place(self, monkeypatch, small_dc, point):
        monkeypatch.setitem(
            scorer._SCORERS, "crosscheck",
            scorer.CrosscheckScorer(fast=_PerturbedScorer(point)),
        )
        # the cap makes the search preselect, so immediate costs are used
        algorithm = EG(GreedyConfig(max_full_candidates=2))
        return _run(
            algorithm, make_three_tier(), small_dc,
            DataCenterState(small_dc), "crosscheck",
        )

    def test_unperturbed_fast_side_passes(self, monkeypatch, small_dc):
        self._place(monkeypatch, small_dc, None)

    @pytest.mark.parametrize("point, message", [
        ("candidates", "candidate set mismatch"),
        ("immediate_costs", "immediate cost mismatch"),
        ("score", "batch score mismatch"),
    ])
    def test_each_comparison_point_trips(
        self, monkeypatch, small_dc, point, message
    ):
        with pytest.raises(kernel.KernelMismatch, match=message):
            self._place(monkeypatch, small_dc, point)


def _trajectory(algorithm, topo, cloud, state, kernel_name):
    """(result, event stream without the volatile keys) of one run."""
    with obs.use(obs.TelemetryRecorder()) as rec:
        result = _run(algorithm, topo, cloud, state, kernel_name)
    events = [
        (
            event.type,
            {
                key: value
                for key, value in event.fields.items()
                if key not in VOLATILE_EVENT_KEYS
            },
        )
        for event in rec.events.events
    ]
    return result, events


class TestStateViewCache:
    def test_scratch_states_die_with_their_search(self, small_dc):
        """The mirror cache is keyed weakly by state; a view holding its
        state strongly kept every scratch clone of every search alive."""

        def live():
            gc.collect()
            states = sum(
                isinstance(o, DataCenterState) for o in gc.get_objects()
            )
            return states, len(kernel.StateView._CACHE)

        ostro = Ostro(small_dc)
        topo = make_three_tier()

        def place_and_remove():
            ostro.place(topo, "ba*", commit=True)
            ostro.remove(topo.name)

        with kernel.use_kernel("numpy"):
            place_and_remove()  # whatever the long-lived state caches
            before = live()
            for _ in range(5):
                place_and_remove()
            assert live() == before


class TestFixedTopologyEquivalence:
    @pytest.mark.parametrize("algo_factory", [
        EG, EGC, EGBW, lambda: BAStar(max_expansions=200),
    ])
    def test_three_tier_bit_identical(self, small_dc, algo_factory):
        topo = make_three_tier()
        state = DataCenterState(small_dc)
        apply_random_load(state, fraction_hosts=0.3, seed=7)
        (py, py_events), (np_, np_events) = (
            _trajectory(algo_factory(), topo, small_dc, state, name)
            for name in ("python", "numpy")
        )
        assert py.objective_value == np_.objective_value
        assert _placement_blob(py) == _placement_blob(np_)
        assert dataclasses.replace(
            py.stats, runtime_s=0.0
        ) == dataclasses.replace(np_.stats, runtime_s=0.0)
        assert py_events and py_events == np_events

    def test_three_tier_crosscheck_clean(self, small_dc):
        topo = make_three_tier()
        state = DataCenterState(small_dc)
        apply_random_load(state, fraction_hosts=0.3, seed=7)
        # KernelMismatch (an AssertionError) would propagate out of place()
        result = _run(BAStar(max_expansions=200), topo, small_dc, state,
                      "crosscheck")
        assert set(result.placement.assignments) == set(topo.nodes)


class TestReferenceScenarioFingerprints:
    """The bench scenarios' placements must not depend on the kernel."""

    @pytest.mark.parametrize("scenario", ["multitier", "mesh", "qfs"])
    def test_bench_scenario_bit_identical(self, scenario):
        from repro import bench

        case = next(c for c in bench.REFERENCE_CASES if c.name == scenario)
        label, algorithm, opt_items, _gated = case.algorithms[0]  # EG
        assert label == "eg"
        fingerprints = {}
        for name in ("python", "numpy"):
            with kernel.use_kernel(name):
                result, _wall = bench._run_once(
                    case, algorithm, dict(opt_items)
                )
            fingerprints[name] = bench.placement_fingerprint(result)
        assert fingerprints["python"] == fingerprints["numpy"]

    def test_vnf_chain_bit_identical(self, small_dc):
        from repro.workloads.vnf import build_vnf_chain

        topo = build_vnf_chain()
        state = DataCenterState(small_dc)
        apply_random_load(state, fraction_hosts=0.2, seed=11)
        py = _run(EG(), topo, small_dc, state, "python")
        np_ = _run(EG(), topo, small_dc, state, "numpy")
        assert py.objective_value == np_.objective_value
        assert _placement_blob(py) == _placement_blob(np_)


class TestPropertyEquivalence:
    @SETTINGS
    @given(topo=topologies(), seed=st.integers(0, 50), algo_i=st.integers(0, 2))
    def test_greedy_placements_bit_identical(self, topo, seed, algo_i):
        cloud = small_cloud()
        state = DataCenterState(cloud)
        apply_random_load(state, fraction_hosts=0.4, seed=seed)
        algo_factory = [EG, EGC, EGBW][algo_i]
        outcomes = {}
        for name in ("python", "numpy"):
            try:
                outcomes[name] = _run(algo_factory(), topo, cloud, state, name)
            except PlacementError:
                outcomes[name] = None
        py, np_ = outcomes["python"], outcomes["numpy"]
        if py is None or np_ is None:
            assert py is None and np_ is None
            return
        assert py.objective_value == np_.objective_value
        assert _placement_blob(py) == _placement_blob(np_)
        assert py.stats.candidates_scored == np_.stats.candidates_scored

    @SETTINGS
    @given(topo=topologies(max_vms=4, max_volumes=2), seed=st.integers(0, 20))
    def test_bastar_placements_bit_identical(self, topo, seed):
        cloud = small_cloud()
        state = DataCenterState(cloud)
        apply_random_load(state, fraction_hosts=0.3, seed=seed)
        outcomes = {}
        for name in ("python", "numpy"):
            try:
                outcomes[name] = _run(
                    BAStar(max_expansions=150), topo, cloud, state, name
                )
            except PlacementError:
                outcomes[name] = None
        py, np_ = outcomes["python"], outcomes["numpy"]
        if py is None or np_ is None:
            assert py is None and np_ is None
            return
        assert py.objective_value == np_.objective_value
        assert _placement_blob(py) == _placement_blob(np_)
        assert py.stats.paths_expanded == np_.stats.paths_expanded

    @SETTINGS
    @given(topo=topologies(max_vms=5, max_volumes=2), seed=st.integers(0, 30))
    def test_crosscheck_never_trips(self, topo, seed):
        cloud = small_cloud()
        state = DataCenterState(cloud)
        apply_random_load(state, fraction_hosts=0.4, seed=seed)
        objective = Objective.for_topology(topo, cloud)
        try:
            with kernel.use_kernel("crosscheck"):
                EG().place(topo, cloud, state, objective)
        except PlacementError:
            pass  # infeasible inputs may fail; KernelMismatch must not
