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
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import kernel, scorer
from repro.core.astar import BAStar
from repro.core.greedy import EG, EGBW, EGC, GreedyConfig, preselect
from repro.core.objective import Objective
from repro.core.placement import PartialPlacement
from repro.core.scheduler import Ostro
from repro.datacenter.builder import build_cloud, build_datacenter
from repro.datacenter.loadgen import apply_random_load
from repro.datacenter.model import Cloud, DataCenter, Disk, Host, Pod, Rack
from repro.datacenter.network import PathResolver
from repro.datacenter.state import DataCenterState
from repro.errors import PlacementError, ReproError
from repro.lint.symbols import VOLATILE_EVENT_KEYS
from repro.workloads.multitier import build_multitier
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


def _mixed_cloud():
    """A DC mixing two pods with a pod-less rack, beside a pod-less DC."""
    def rack(name, hosts):
        return Rack(name=name, hosts=[
            Host(name=f"{name}-h{i}", cpu_cores=16, mem_gb=32,
                 disks=[Disk(f"{name}-d{i}", 1000.0)])
            for i in range(hosts)
        ])

    return Cloud([
        DataCenter(
            name="dc1",
            pods=[Pod(name="p1", racks=[rack("r1", 2), rack("r2", 1)]),
                  Pod(name="p2", racks=[rack("r3", 2)])],
            racks=[rack("r4", 2)],
        ),
        DataCenter(name="dc2", racks=[rack("r5", 1), rack("r6", 2)]),
    ])


#: pod-less, podded multi-DC and mixed clouds
CLOUD_SHAPES = (
    small_cloud,
    lambda: build_cloud(
        num_datacenters=2, pods_per_dc=2, racks_per_pod=2, hosts_per_rack=2
    ),
    _mixed_cloud,
)


def _random_partial(topo, seed, picks, shape=0):
    """A partial placement of a prefix of ``topo`` on a loaded small
    cloud: node ``i`` goes to feasible target number ``picks[i]``
    (modulo how many there are), until the picks or the targets run out."""
    cloud = CLOUD_SHAPES[shape]()
    state = DataCenterState(cloud)
    apply_random_load(state, fraction_hosts=0.4, seed=seed)
    partial = PartialPlacement(
        topo, state, PathResolver.for_cloud(cloud), own_state=True
    )
    reference = scorer.PythonScorer()
    for name, pick in zip(topo.nodes, picks):
        found = reference.candidates(partial, name, False, None)
        if not found:
            break
        target = found[pick % len(found)]
        partial.assign(name, target.host, target.disk)
    return partial


class TestCandidateBlock:
    """Both scorers fill the same columns; records appear on demand."""

    @SETTINGS
    @given(
        topo=topologies(),
        seed=st.integers(0, 50),
        picks=st.lists(st.integers(0, 24), max_size=6),
        dedup=st.booleans(),
        limit=st.one_of(st.none(), st.integers(1, 6)),
        shape=st.integers(0, len(CLOUD_SHAPES) - 1),
    )
    def test_columns_equal_the_specification(
        self, topo, seed, picks, dedup, limit, shape
    ):
        """Picks reach every host of every shape, so placed hosts sit at
        every distance from the candidates: the per-level dedup key must
        partition exactly as the specification's distance rows."""
        partial = _random_partial(topo, seed, picks, shape)
        for name in topo.nodes:  # VM and volume nodes alike
            if partial.is_placed(name):
                continue
            fast = scorer.NumpyScorer().candidates(partial, name, dedup, limit)
            spec = scorer.PythonScorer().candidates(partial, name, dedup, limit)
            assert (fast.hosts, fast.disks, fast.multiplicities) == (
                spec.hosts, spec.disks, spec.multiplicities
            )
            records = list(fast)
            assert records == list(spec) == [fast[i] for i in range(len(fast))]
            assert all(type(t) is scorer.CandidateTarget for t in records)
            assert all(type(h) is int for h in fast.hosts)
            assert fast == spec == records and fast[:2] == records[:2]
            assert scorer.CandidateBlock.of(records) == fast

    @SETTINGS
    @given(
        topo=topologies(),
        seed=st.integers(0, 50),
        picks=st.lists(st.integers(0, 8), max_size=4),
        dedup=st.booleans(),
        cap=st.integers(1, 5),
        kernel_name=st.sampled_from(["python", "numpy"]),
    )
    def test_preselect_head_and_tail_are_the_full_ranking(
        self, topo, seed, picks, dedup, cap, kernel_name
    ):
        """Head + lazy tail == sorting every record by immediate cost,
        ties in scan order (idle hosts of one rack tie all the time)."""
        partial = _random_partial(topo, seed, picks)
        objective = Objective.for_topology(topo, partial.state.cloud)
        with kernel.use_kernel(kernel_name):
            active = scorer.active_scorer()
        for name in topo.nodes:
            if partial.is_placed(name):
                continue
            block = active.candidates(partial, name, dedup, None)
            costs = active.immediate_costs(partial, objective, name, block)
            ranked = [
                target for _, _, target in sorted(
                    zip(costs, range(len(block)), block)
                )
            ]
            head, tail = preselect(active, partial, objective, name, block, cap)
            assert isinstance(head, list) and iter(tail) is tail
            if len(block) <= cap:
                assert (head, list(tail)) == (list(block), [])
            else:
                assert (head, list(tail)) == (ranked[:cap], ranked[cap:])

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_crosscheck_names_the_first_differing_index(self, small_dc, at):
        class OffByOne(scorer.NumpyScorer):
            def candidates(self, partial, node_name, dedup, limit):
                found = super().candidates(partial, node_name, dedup, limit)
                found.multiplicities[at] += 1
                found.multiplicities[-1] += 1
                return found

        topo = make_three_tier()
        partial = PartialPlacement(
            topo, DataCenterState(small_dc), PathResolver.for_cloud(small_dc)
        )
        checked = scorer.CrosscheckScorer(fast=OffByOne())
        name = next(iter(topo.nodes))
        assert len(scorer.PythonScorer().candidates(partial, name, False, None)) > 3
        with pytest.raises(
            kernel.KernelMismatch, match=f"candidate set mismatch .* at index {at} "
        ):
            checked.candidates(partial, name, False, None)


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


def _elements(value):
    """Array elements held by an attribute value, containers included."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (tuple, list)):
        return sum(_elements(v) for v in value)
    return value.size if hasattr(value, "size") else 0


class TestCloudArraysMemory:
    def test_eg_peak_is_linear_in_hosts(self):
        """9600 hosts: an (H, H) distance matrix alone is 88 MiB."""
        cloud = build_datacenter(num_racks=600)
        state = DataCenterState(cloud)
        topo = build_multitier(20)
        gc.collect()
        tracemalloc.start()
        try:
            with kernel.use_kernel("numpy"):
                EG().place(topo, cloud, state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("shape", range(len(CLOUD_SHAPES)))
    def test_no_attribute_grows_past_hosts_plus_links(self, shape):
        """Tables are at most 5 x (H + links) elements, and the row memo
        keeps at most ``_ROW_MEMO_CAP`` hosts' three H-element rows."""
        cloud = CLOUD_SHAPES[shape]()
        with kernel.use_kernel("numpy"):
            Ostro(cloud).place(make_three_tier(), "ba*")
        arrays = kernel.CloudArrays.for_cloud(cloud)
        assert arrays._rows  # the search asked for rows
        bound = 5 * (cloud.num_hosts + cloud.num_links)
        for name, value in vars(arrays).items():
            if name == "_rows":
                assert len(value) <= kernel._ROW_MEMO_CAP
                assert _elements(value) == 3 * cloud.num_hosts * len(value)
            else:
                assert _elements(value) <= bound, name


class TestStateViewCache:
    def test_scratch_states_die_with_their_search(self, small_dc):
        """The view cache is keyed weakly by state; a view holding its
        state strongly kept every scratch clone of every search alive
        (its columns hold the state's buffers, which is fine)."""

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


_MUTATIONS = (
    "place_vm", "unplace_vm", "place_volume", "unplace_volume",
    "reserve_path", "release_path", "assign", "unassign_last",
    "unassign_any", "restore", "rollback", "fail_host", "restore_host",
    "fail_link", "restore_link", "background",
)


class _MutationDriver:
    """Applies named mutations to one long-lived state, remembering what
    it reserved so that every release is a legal one."""

    def __init__(self):
        self.cloud = small_cloud()
        self.state = DataCenterState(self.cloud)
        self.topo = make_three_tier()
        self.snapshot = self.state.snapshot()
        self.forget_reservations()

    def forget_reservations(self):
        self.vms, self.volumes, self.paths = [], [], []
        self.partial = PartialPlacement(
            self.topo, self.state, PathResolver.for_cloud(self.cloud),
            own_state=True,
        )

    def apply(self, op, arg):
        state, cloud = self.state, self.cloud
        host = arg % cloud.num_hosts
        disk = arg % len(cloud.disks)
        link = arg % len(cloud.link_capacity_mbps)
        if op == "place_vm":
            state.place_vm(host, 1 + arg % 3, 2)
            self.vms.append((host, 1 + arg % 3, 2))
        elif op == "unplace_vm" and self.vms:
            state.unplace_vm(*self.vms.pop(arg % len(self.vms)))
        elif op == "place_volume":
            state.place_volume(disk, 10 + arg % 50)
            self.volumes.append((disk, 10 + arg % 50))
        elif op == "unplace_volume" and self.volumes:
            state.unplace_volume(*self.volumes.pop(arg % len(self.volumes)))
        elif op == "reserve_path":
            path = cloud.path(host, (arg // 7) % cloud.num_hosts)
            state.reserve_path(path, 25.0)
            self.paths.append(path)
        elif op == "release_path" and self.paths:
            state.release_path(self.paths.pop(arg % len(self.paths)), 25.0)
        elif op == "assign":
            unplaced = [
                n for n in self.topo.nodes if not self.partial.is_placed(n)
            ]
            if unplaced:
                name = unplaced[arg % len(unplaced)]
                found = scorer.PythonScorer().candidates(
                    self.partial, name, False, None
                )
                if found:
                    target = found[arg % len(found)]
                    self.partial.assign(name, target.host, target.disk)
        elif op in ("unassign_last", "unassign_any") and self.partial.assignments:
            placed = list(self.partial.assignments)
            index = -1 if op == "unassign_last" else arg % len(placed)
            self.partial.unassign(placed[index])
        elif op == "restore":
            if arg % 2:
                self.snapshot = state.snapshot()
            else:
                # back to a state that knows none of the later reservations
                state.restore(self.snapshot)
                self.forget_reservations()
        elif op == "rollback":
            with pytest.raises(ZeroDivisionError):
                with state.transaction():
                    state.place_vm(host, 1, 1)
                    state.reserve_path(cloud.path(host, 0), 5.0)
                    raise ZeroDivisionError
        elif op == "fail_host" and not state.host_is_down(host):
            state.fail_host(host)
        elif op == "restore_host" and state.down_hosts():
            state.restore_host(state.down_hosts()[arg % len(state.down_hosts())])
        elif op == "fail_link" and link not in state.down_links():
            state.fail_link(link)
        elif op == "restore_link" and state.down_links():
            # not a crashed host's NIC: restore_host owns that one
            nics = {cloud.hosts[h].link_index for h in state.down_hosts()}
            free = [k for k in state.down_links() if k not in nics]
            if free:
                state.restore_link(free[arg % len(free)])
        elif op == "background":
            state.consume_background(
                host, vcpus=1, mem_gb=1, nic_mbps=arg % 2 * 10.0,
                count_as_unit=False,
            )


_VIEW_COLUMNS = (
    ("cpu_free", "free_cpu"), ("mem_free", "free_mem"),
    ("disk_free", "free_disk"), ("bw_free", "free_bw"),
    ("units", "host_units"),
)


def _assert_view_is_the_store(view, state, context=None):
    for viewed, stored in _VIEW_COLUMNS:
        assert getattr(view, viewed).tolist() == list(
            getattr(state, stored)
        ), (context, viewed)


class TestStateViewIsTheStore:
    """The view aliases the state's buffers: one object per state, equal
    to the store after any mutation, with nothing to refresh."""

    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=st.lists(
        st.tuples(st.sampled_from(_MUTATIONS), st.integers(0, 10_000)),
        min_size=1, max_size=60,
    ))
    def test_view_equals_the_store_after_every_mutation(self, ops):
        driver = _MutationDriver()
        view = kernel.StateView.for_state(driver.state)
        columns = [getattr(view, viewed) for viewed, _ in _VIEW_COLUMNS]
        for op, arg in ops:
            try:
                driver.apply(op, arg)
            except ReproError:
                pass  # a refused mutation: whatever it left shows too
            assert kernel.StateView.for_state(driver.state) is view
            _assert_view_is_the_store(view, driver.state, op)
        for column, (viewed, _) in zip(columns, _VIEW_COLUMNS):
            assert getattr(view, viewed) is column  # never rebuilt

    @pytest.mark.parametrize("write", [
        lambda s: s.place_vm(2, 4, 8),
        lambda s: s.reserve_path(s.cloud.path(2, 9), 100.0),
        lambda s: s.restore(s.snapshot()),
        lambda s: s.fail_host(2),
        lambda s: (s.fail_host(2), s.restore_host(2)),
        lambda s: (s.fail_link(0), s.restore_link(0)),
    ])
    def test_one_view_object_survives_narrow_and_wide_writes(
        self, small_dc, write
    ):
        state = DataCenterState(small_dc)
        state.place_volume(1, 10)
        view = kernel.StateView.for_state(state)
        cpu, bw = view.cpu_free, view.bw_free
        write(state)
        assert kernel.StateView.for_state(state) is view
        assert view.cpu_free is cpu and view.bw_free is bw
        _assert_view_is_the_store(view, state)
        assert (view.units > 0).tolist() == [
            state.host_is_active(h) for h in range(small_dc.num_hosts)
        ]

    def test_a_clones_view_is_independent_of_its_parents(self, small_dc):
        state = DataCenterState(small_dc)
        state.place_vm(0, 1, 1)
        view = kernel.StateView.for_state(state)
        clone = state.clone()
        clone_view = kernel.StateView.for_state(clone)
        assert clone_view is not view
        _assert_view_is_the_store(clone_view, clone)
        clone.place_vm(1, 1, 1)
        state.place_vm(2, 1, 1)
        _assert_view_is_the_store(clone_view, clone)
        _assert_view_is_the_store(view, state)
        assert clone_view.cpu_free.tolist() != view.cpu_free.tolist()

    def test_the_state_is_the_one_writer(self, small_dc):
        state = DataCenterState(small_dc)
        view = kernel.StateView.for_state(state)
        with pytest.raises(ValueError, match="read-only"):
            view.cpu_free[0] = 0.0
        # the exported buffers pin each column's length
        with pytest.raises(BufferError):
            state.free_cpu.append(0.0)
        # no coherence protocol beside the store
        for gone in ("version", "refresh", "active"):
            assert not hasattr(view, gone) and not hasattr(state, gone)

    def test_a_disk_less_cloud_has_an_empty_disk_column(self):
        hosts = [
            Host(name=f"h{i}", cpu_cores=4, mem_gb=8, disks=[],
                 nic_bw_mbps=1000.0)
            for i in range(3)
        ]
        cloud = Cloud([DataCenter(name="bare", racks=[
            Rack(name="rack", hosts=hosts, uplink_bw_mbps=10_000.0)
        ])])
        state = DataCenterState(cloud)
        view = kernel.StateView.for_state(state)
        assert view.disk_free.shape == (0,)
        _assert_view_is_the_store(view, state)
        state.restore(state.snapshot())
        topo = make_three_tier(db=0)  # VMs only
        numpy_result = _run(EG(), topo, cloud, state, "numpy")
        python_result = _run(EG(), topo, cloud, state, "python")
        assert _placement_blob(numpy_result) == _placement_blob(python_result)


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

        case = bench.REFERENCE_CASES[scenario]
        label, algorithm, opt_items, _gated = case.algorithms[0]  # EG
        assert label == "eg"
        fingerprints = {}
        for name in ("python", "numpy"):
            with kernel.use_kernel(name):
                result, _wall = bench.place_reference(
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
