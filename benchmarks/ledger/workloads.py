"""The four ledger workloads: seeded op lists over the public API.

Every workload is a closed loop with one client: the harness issues the
next op only after the previous one returned. The program only ever sees
inputs generated here from the seed. ``build`` is what ``setup_s`` times
(cloud, background load, topologies/traces/fault plans); ``warm_up`` is
the untimed prefix that fills caches; ``run_op`` is the timed region;
``check_op`` runs untimed and turns an op's return value into an
:class:`OpRecord` (fingerprint, quality, failure counts, violations).

Sizes are chosen so one lap of 110 ops takes 13-15 s on the 2-core
reference box; the op *count* is what the percentile rule needs and is
never reduced below 110 outside ``--ops`` smoke runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro.bench import placement_fingerprint
from repro.core.base import PlacementResult
from repro.core.greedy import GreedyConfig
from repro.core.heuristic import EstimatorConfig
from repro.core.scheduler import Ostro
from repro.core.topology import ApplicationTopology
from repro.core.validate import placement_violations
from repro.datacenter.builder import build_cloud, build_datacenter, build_testbed
from repro.datacenter.loadgen import apply_table_iv_load, apply_testbed_load
from repro.datacenter.model import Cloud
from repro.datacenter.state import DataCenterState
from repro.defrag import DefragConfig
from repro.errors import PlacementError
from repro.heat.engine import HeatEngine
from repro.heat.template import template_from_topology
from repro.heat.wrapper import OstroHeatWrapper
from repro.scaling import ScalingConfig
from repro.service.driver import ServiceConfig, ServiceReport, run_service
from repro.sim.arrivals import WorkloadTrace, default_app_factory
from repro.sim.chaos import run_chaos
from repro.sim.metrics import ChaosReport
from repro.sim.scenarios import make_fault_plan
from repro.workloads.mesh import build_mesh
from repro.workloads.multitier import build_multitier
from repro.workloads.qfs import build_qfs

#: ops per lap; the p90 rule needs >= 11 samples beyond the percentile
DEFAULT_OPS = 110

#: SearchStats fields summed into the ``core.search.*`` counters
SEARCH_FIELDS = (
    "candidates_scored", "paths_expanded", "paths_pruned",
    "eg_bound_runs", "backtracks", "restarts",
)


@dataclass
class OpRecord:
    """What one op produced, as the untimed checker saw it.

    Attributes:
        fingerprint: digest of the op's decisions.
        attempted / failed: the workload's ``failed_share`` terms.
        quality_sum / quality_n: the workload's ``quality_cost`` terms
            (the metric is the pooled mean).
        counts: exact-repeat counters the program itself returned.
        violations: correctness findings; any entry fails the run.
        op_failed: the op itself failed (raised), as opposed to the
            program deciding to refuse part of its input.
    """

    fingerprint: str
    attempted: int
    failed: int
    quality_sum: float
    quality_n: int
    counts: Dict[str, float] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    op_failed: bool = False


def failed_share(attempted: int, failed: int) -> float:
    """Failed over attempted; an empty denominator counts as no failure."""
    return failed / attempted if attempted else 0.0


def _search_counts(results: Sequence[PlacementResult]) -> Dict[str, float]:
    counts = {f"search.{name}": 0.0 for name in SEARCH_FIELDS}
    counts["search.scored_in_astar"] = 0.0
    for result in results:
        for name in SEARCH_FIELDS:
            counts[f"search.{name}"] += getattr(result.stats, name)
        if result.stats.paths_expanded:
            counts["search.scored_in_astar"] += result.stats.candidates_scored
    return counts


def _placement_record(
    topology: ApplicationTopology,
    cloud: Cloud,
    base_state: DataCenterState,
    outcome: Any,
    audit: List[str],
) -> OpRecord:
    """Record of one ``place`` op; ``outcome`` is a result or the error."""
    if isinstance(outcome, PlacementError):
        return OpRecord(
            fingerprint=f"{topology.name}:failed",
            attempted=1, failed=1, quality_sum=0.0, quality_n=0,
            counts=_search_counts(()), violations=list(audit), op_failed=True,
        )
    violations = placement_violations(
        topology, cloud, base_state, outcome.placement
    )
    return OpRecord(
        fingerprint=placement_fingerprint(outcome),
        attempted=1, failed=0,
        quality_sum=outcome.objective_value, quality_n=1,
        counts=_search_counts((outcome,)),
        violations=violations + list(audit),
    )


class Workload:
    """Interface of one workload; see the module docstring."""

    name = "abstract"

    def __init__(self, seed: int, ops: int = DEFAULT_OPS) -> None:
        self.seed = seed
        self.ops = ops

    def build(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def start_lap(self) -> None:
        """Bring the program back to its post-warm-up state."""

    def before_op(self, index: int) -> None:
        """Untimed preparation of op ``index``."""

    def run_op(self, index: int) -> Any:
        raise NotImplementedError

    def check_op(self, index: int, outcome: Any) -> OpRecord:
        raise NotImplementedError


def _cycled(pattern: Sequence[Any], count: int, rng: random.Random) -> List[Any]:
    """``count`` entries cycling through ``pattern``, then shuffled.

    The multiset of op kinds is the same for every seed (so medians are
    comparable across seeds); the seed decides order and per-op detail.
    """
    entries = [pattern[i % len(pattern)] for i in range(count)]
    rng.shuffle(entries)
    return entries


# ----------------------------------------------------------------------
# place-scale
# ----------------------------------------------------------------------


class PlaceScale(Workload):
    """The paper's headline cell: holistic placement onto 2400 hosts.

    One long-lived scheduler with the full-scale configuration set
    explicitly; a sliding window of 8 committed applications (the oldest
    is evicted, untimed, after each op). Op = ``Ostro.place(topology,
    algorithm, commit=True)``; two thirds EG, one third
    expansion-capped BA*. Per-candidate work scales with host count here
    and nowhere else.
    """

    name = "place-scale"
    WINDOW = 8
    BA_EXPANSIONS = 6
    #: 22-entry cycle (x5 = 110): 15 EG, 7 BA*. Sorted by cost the lap is
    #: 40 light ops, a dense band of 35 (the median falls inside it), and
    #: 35 BA* ops of one shape. About three in five of those take one full
    #: garbage collection (10-30 ms on a 0.17 s op), so they form two
    #: clusters; with 35 of them p90 (the 12th largest op) lies well inside
    #: the upper cluster, with 25 it flipped between the two from run to run
    PATTERN = (
        ("multitier", 15, "eg"), ("mesh", 20, "eg"), ("multitier", 15, "ba*"),
        ("multitier", 20, "eg"), ("mesh", 15, "eg"), ("multitier", 15, "ba*"),
        ("multitier", 15, "eg"), ("multitier", 20, "eg"), ("multitier", 15, "ba*"),
        ("mesh", 15, "eg"), ("multitier", 20, "eg"), ("multitier", 15, "ba*"),
        ("multitier", 15, "eg"), ("mesh", 20, "eg"), ("multitier", 15, "ba*"),
        ("mesh", 15, "eg"), ("multitier", 20, "eg"), ("multitier", 15, "ba*"),
        ("multitier", 15, "eg"), ("multitier", 20, "eg"), ("multitier", 15, "ba*"),
        ("mesh", 15, "eg"),
    )

    def build(self) -> None:
        rng = random.Random(self.seed)
        self.cloud = build_datacenter(num_racks=150)
        state = DataCenterState(self.cloud)
        apply_table_iv_load(state, seed=self.seed)
        self.ostro = Ostro(
            self.cloud,
            state=state,
            greedy_config=GreedyConfig(
                max_full_candidates=24,
                estimator=EstimatorConfig(max_nodes=32),
            ),
        )
        self.plan: List[Tuple[ApplicationTopology, str]] = []
        # warm-up prefix (fills the window) + the timed ops
        kinds = list(self.PATTERN[: self.WINDOW]) + _cycled(
            self.PATTERN, self.ops, rng
        )
        for i, (kind, size, algorithm) in enumerate(kinds):
            name = f"app-{i - self.WINDOW}"
            if kind == "mesh":
                topology = build_mesh(
                    total_vms=size, heterogeneous=True,
                    seed=rng.randrange(1 << 30), name=name,
                )
            else:
                topology = build_multitier(
                    total_vms=size, heterogeneous=True, name=name
                )
            self.plan.append((topology, algorithm))

    def _place(self, entry: Tuple[ApplicationTopology, str]) -> PlacementResult:
        topology, algorithm = entry
        if algorithm == "ba*":
            return self.ostro.place(
                topology, "ba*", commit=True,
                max_expansions=self.BA_EXPANSIONS,
            )
        return self.ostro.place(topology, algorithm, commit=True)

    def warm_up(self) -> None:
        for entry in self.plan[: self.WINDOW]:
            self._place(entry)
        self._base = self.ostro.state.snapshot()
        self._base_apps = dict(self.ostro.applications)

    def start_lap(self) -> None:
        self.ostro.state.restore(self._base)
        self.ostro.applications = dict(self._base_apps)
        self._window = [t.name for t, _ in self.plan[: self.WINDOW]]

    def before_op(self, index: int) -> None:
        self._before = self.ostro.state.clone()

    def run_op(self, index: int) -> Any:
        try:
            return self._place(self.plan[self.WINDOW + index])
        except PlacementError as exc:
            return exc

    def check_op(self, index: int, outcome: Any) -> OpRecord:
        topology, _ = self.plan[self.WINDOW + index]
        record = _placement_record(
            topology, self.cloud, self._before, outcome,
            self.ostro.verify_state(),
        )
        if not record.failed:
            self._window.append(topology.name)
            self.ostro.remove(self._window.pop(0))
        return record


# ----------------------------------------------------------------------
# place-deep
# ----------------------------------------------------------------------


class PlaceDeep(Workload):
    """The same ``core/`` used the other way: few hosts, deep BA* search.

    Half the ops take QFS through the Heat path the paper used
    (template -> wrapper -> engine deploy -> delete) on the 16-host
    testbed (theta_bw = 0.99; 25 deep searches on the idle testbed, 30
    shallower ones under background load); the other half place and
    remove mesh/multi-tier topologies on 24 racks. Every op returns the state to where it started, so every op
    starts from the same base. The frontier, scratch assign/unassign, EG
    bound re-runs and the estimator dominate; the host scan is tiny.
    """

    name = "place-deep"
    #: (chunk servers, max_expansions, background load). The 25 deep
    #: searches are of one shape and the heaviest ops of the lap, so p90
    #: (the 12th largest op) is their median, not a gap between op classes
    QFS_DEEP = ((6, 90, 0),)
    QFS_LOADED = tuple((servers, 50, 1) for servers in (4, 5, 6))
    DC_PATTERN = (("mesh", 15), ("multitier", 20), ("mesh", 20), ("multitier", 10))
    DC_EXPANSIONS = 25

    def build(self) -> None:
        rng = random.Random(self.seed)
        self.testbed = build_testbed()
        self.beds: List[Ostro] = []
        for loaded in (False, True):
            state = DataCenterState(self.testbed)
            if loaded:
                apply_testbed_load(state, seed=self.seed)
            self.beds.append(
                Ostro(self.testbed, state=state, theta_bw=0.99, theta_c=0.01)
            )
        self.dc = build_datacenter(num_racks=24)
        dc_state = DataCenterState(self.dc)
        apply_table_iv_load(dc_state, seed=self.seed)
        self.dc_ostro = Ostro(
            self.dc,
            state=dc_state,
            greedy_config=GreedyConfig(
                max_full_candidates=12,
                estimator=EstimatorConfig(max_nodes=24),
            ),
        )
        half = (self.ops + 1) // 2
        deep = (half * 5 + 10) // 11  # 25 of 55
        entries: List[Tuple[Any, ...]] = [
            ("qfs",) + entry
            for entry in _cycled(self.QFS_DEEP, deep, rng)
            + _cycled(self.QFS_LOADED, half - deep, rng)
        ] + [
            ("dc", kind, size, rng.randrange(1 << 30))
            for kind, size in _cycled(self.DC_PATTERN, self.ops - half, rng)
        ]
        rng.shuffle(entries)
        self.plan: List[Tuple[Any, ...]] = []
        for i, entry in enumerate(entries):
            name = f"stack-{i}"
            if entry[0] == "qfs":
                _, servers, expansions, loaded = entry
                topology = build_qfs(chunk_servers=servers, name=name)
                self.plan.append(("qfs", topology, expansions, loaded))
            else:
                _, kind, size, topo_seed = entry
                if kind == "mesh":
                    topology = build_mesh(
                        total_vms=size, heterogeneous=True,
                        seed=topo_seed, name=name,
                    )
                else:
                    topology = build_multitier(
                        total_vms=size, heterogeneous=True, name=name
                    )
                self.plan.append(("dc", topology, self.DC_EXPANSIONS, 0))

    def _ostro_for(self, entry: Tuple[Any, ...]) -> Ostro:
        return self.beds[entry[3]] if entry[0] == "qfs" else self.dc_ostro

    def _run(self, entry: Tuple[Any, ...]) -> Any:
        kind, topology, expansions, _ = entry
        ostro = self._ostro_for(entry)
        try:
            if kind == "dc":
                result = ostro.place(
                    topology, "ba*", commit=True, max_expansions=expansions
                )
                ostro.remove(topology.name)
                return result, None
            wrapper = OstroHeatWrapper(ostro)
            base = ostro.state.clone()
            response = wrapper.handle(
                template_from_topology(topology),
                stack_name=topology.name,
                algorithm="ba*",
                max_expansions=expansions,
            )
            stack = HeatEngine(base).deploy(
                response.annotated_template, topology.name
            )
            wrapper.delete(topology.name)
            return response.result, stack
        except PlacementError as exc:
            return exc, None

    def warm_up(self) -> None:
        seen = set()
        for entry in self.plan:
            key = (entry[0], entry[3], len(entry[1].nodes))
            if key not in seen:
                seen.add(key)
                self._run(entry)
        self._bases = {
            id(ostro): ostro.state.snapshot()
            for ostro in self.beds + [self.dc_ostro]
        }

    def run_op(self, index: int) -> Any:
        return self._run(self.plan[index])

    def check_op(self, index: int, outcome: Any) -> OpRecord:
        entry = self.plan[index]
        topology = entry[1]
        ostro = self._ostro_for(entry)
        result, stack = outcome
        audit = list(ostro.verify_state())
        if ostro.state.snapshot() != self._bases[id(ostro)]:
            audit.append(f"{topology.name}: op did not return to the base state")
        record = _placement_record(
            topology, ostro.cloud, ostro.state, result, audit
        )
        if stack is not None:
            for node, assignment in result.placement.assignments.items():
                expected = ostro.cloud.hosts[assignment.host].name
                if stack.host_of(node) != expected:
                    record.violations.append(
                        f"{topology.name}/{node}: deployed on "
                        f"{stack.host_of(node)}, placed on {expected}"
                    )
        return record


# ----------------------------------------------------------------------
# serve-storm
# ----------------------------------------------------------------------


def _uniform_tenant(app_id: int, rng: random.Random) -> ApplicationTopology:
    """The full storms' tenant: always 4 chained VMs of 2 vCPUs / 4 GB.

    Eight of these fill a testbed-class host exactly, so how many fit a
    cloud -- and therefore how many a full storm must reject -- does not
    depend on the seed. (Failed admissions cost ~20x successful ones; with
    ``default_app_factory`` tenants the count of failures per storm, and
    with it the storm's wall time, varied 3x between seeds.)
    """
    topo = ApplicationTopology(f"tenant-{app_id}")
    for i in range(4):
        topo.add_vm(f"vm{i}", vcpus=2, mem_gb=4)
    for i in range(1, 4):
        topo.connect(f"vm{i - 1}", f"vm{i}", 50)
    return topo


class ServeStorm(Workload):
    """Tiny searches through the whole admission pipeline.

    Op = ``run_service(trace, cloud, config)`` on one Poisson storm with
    bursts and three priority levels: 96 light storms of small 2-6-VM
    tenants (the skewed small-tenant mix of real clouds, one in five
    growing a tier mid-life) that fit the 64-host cloud, and 14 full
    storms of 144 uniform tenants that outlive the storm on a cloud that
    holds 128, so the last requests are rejected, batches fall back and
    escalate, and ``rollback_to`` runs. ``op_p50_ms`` is a light storm,
    ``op_p90_ms`` a full one. Per-request fixed costs and the service
    layers dominate; the searches themselves are tiny.
    """

    name = "serve-storm"
    #: (arrivals, mean lifetime in virtual seconds)
    LIGHT = (36, 400.0)
    FULL = (144, 1e5)
    #: 55-entry cycle (x2 = 110): 48 light + 7 full, interleaved so a
    #: short ``--ops`` run sees both
    PATTERN = tuple(
        "full" if i % 8 == 7 or i == 54 else "light" for i in range(55)
    )

    def build(self) -> None:
        rng = random.Random(self.seed)
        self.cloud = build_cloud(
            num_datacenters=1, pods_per_dc=4, racks_per_pod=2, hosts_per_rack=8
        )
        self.config = ServiceConfig(
            algorithm="eg", horizon_s=30.0, max_batch=16, deadline_s=180.0
        )
        self.kinds = _cycled(self.PATTERN, self.ops, rng)
        self.traces = [
            self._storm(kind, rng.randrange(1 << 30)) for kind in self.kinds
        ]
        self._warm = self._storm("light", rng.randrange(1 << 30))

    def _storm(self, kind: str, seed: int) -> WorkloadTrace:
        full = kind == "full"
        arrivals, lifetime_s = self.FULL if full else self.LIGHT
        return WorkloadTrace.poisson_storm(
            arrivals,
            _uniform_tenant if full else default_app_factory,
            mean_interarrival_s=12.0,
            mean_lifetime_s=lifetime_s,
            seed=seed,
            burst_every_s=240.0,
            burst_len_s=60.0,
            burst_factor=4.0,
            priority_levels=3,
            # no updates on a saturated cloud: progressive unpinning
            # there costs ~30x a normal update, so a handful of events
            # would decide the storm's wall time
            update_fraction=0.0 if full else 0.2,
        )

    def warm_up(self) -> None:
        run_service(self._warm, self.cloud, self.config)

    def run_op(self, index: int) -> ServiceReport:
        return run_service(self.traces[index], self.cloud, self.config)

    def check_op(self, index: int, outcome: ServiceReport) -> OpRecord:
        report = outcome
        violations = list(report.audit_violations)
        decided = (
            report.admitted + report.rejected + report.expired + report.cancelled
        )
        if decided != report.requests:
            violations.append(
                f"storm {index}: {decided} decisions for {report.requests} requests"
            )
        admitted = [
            o for o in report.outcomes
            if o.status == "admitted" and o.result is not None
        ]
        for o in admitted:
            missing = (
                o.request.topology.nodes.keys()
                - o.result.placement.assignments.keys()
            )
            if missing:
                violations.append(
                    f"{o.request.app_name}: nodes not placed: {sorted(missing)}"
                )
        updates = report.updates_applied + report.updates_failed
        counts = _search_counts([o.result for o in admitted])
        counts.update({
            "service.requests": report.requests,
            "service.updates": updates,
            "service.admitted": report.admitted,
            "service.updates_applied": report.updates_applied,
            "service.updates_failed": report.updates_failed,
            "service.peak_depth": report.peak_queue_depth,
            "service.wait_p99_s": report.latency_p99_s,
            "service.escalations": sum(report.escalations.values()),
            "service.batches": sum(report.batches.values()),
            **{f"service.batch_{k}": v for k, v in report.batches.items()},
        })
        return OpRecord(
            fingerprint=report.fingerprint,
            attempted=report.requests + updates,
            failed=report.rejected + report.expired + report.updates_failed,
            quality_sum=sum(o.result.objective_value for o in admitted),
            quality_n=len(admitted),
            counts=counts,
            violations=violations,
        )


# ----------------------------------------------------------------------
# lifecycle-chaos
# ----------------------------------------------------------------------


class LifecycleChaos(Workload):
    """The write side: mutation-heavy, search-light.

    Op = one seeded ``run_chaos``: deploys under injected API faults with
    retries, host crashes with evacuation, a background defragmenter and
    a threshold autoscaler with consolidating scale-in, audited after
    every step. Commit, evacuation, migration steps, scale-in and retry
    all snapshot/restore and mutate. ``links=0`` because link faults together
    with scaling and defrag hit a known defect (see README, probes/).
    """

    name = "lifecycle-chaos"
    APPS = 4
    APP_VMS = 10
    HOSTS_DOWN = 3
    #: virtual seconds a lost VM is charged in ``quality_cost`` (one
    #: scaling step)
    LOST_VM_S = 3600.0

    def build(self) -> None:
        rng = random.Random(self.seed)
        self.cloud = build_datacenter(num_racks=4)
        self.defrag = DefragConfig(algorithm="eg", max_moves_per_pass=16)
        self.seeds = [rng.randrange(1 << 30) for _ in range(self.ops + 1)]
        self.plans = [self._plan(s) for s in self.seeds]

    def _plan(self, seed: int) -> Any:
        return make_fault_plan(
            self.cloud, seed=seed, hosts=self.HOSTS_DOWN, links=0,
            steps=self.APPS, recover_after_steps=2, api_transient_rate=0.05,
        )

    def _chaos(self, index: int) -> ChaosReport:
        return run_chaos(
            self.plans[index],
            cloud=self.cloud,
            apps=self.APPS,
            app_vms=self.APP_VMS,
            algorithm="eg",
            defrag=self.defrag,
            scaling=ScalingConfig(
                policy="threshold", tier_prefix="tier1", scale_out_at=0.70,
                scale_in_at=0.35, step_fraction=0.34, cooldown_s=3600.0,
                seed=self.seeds[index], consolidate=True,
            ),
        )

    def warm_up(self) -> None:
        self._chaos(self.ops)  # the spare plan past the timed ones

    def run_op(self, index: int) -> ChaosReport:
        return self._chaos(index)

    def check_op(self, index: int, outcome: ChaosReport) -> OpRecord:
        report = outcome
        lost_vms = (report.apps_requested - report.apps_deployed) * self.APP_VMS
        return OpRecord(
            fingerprint=report.fingerprint,
            attempted=(
                report.apps_requested + report.nodes_moved + report.nodes_lost
                + report.scale_outs + report.scale_out_failures
            ),
            failed=(
                report.deploy_failures + report.nodes_lost
                + report.scale_out_failures
            ),
            quality_sum=report.defrag_move_seconds + self.LOST_VM_S * lost_vms,
            quality_n=1,
            counts={
                "chaos.evacuations": report.evacuations,
                "chaos.nodes_moved": report.nodes_moved,
                "chaos.nodes_lost": report.nodes_lost,
                "chaos.api_faults": report.api_faults,
                "chaos.defrag_moves": report.defrag_moves,
                "chaos.defrag_aborted": report.defrag_aborted_passes,
                "chaos.scale_evaluations": report.scale_evaluations,
                "chaos.scale_outs": report.scale_outs,
                "chaos.scale_ins": report.scale_ins,
            },
            violations=list(report.invariant_violations),
        )


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (PlaceScale, PlaceDeep, ServeStorm, LifecycleChaos)
}
