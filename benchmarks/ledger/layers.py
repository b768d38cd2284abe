"""The layer table: which public callables are wrapped, charged to which layer.

Layer names are the repo's module names. Observers read return values at
the same boundaries, so ratios are measured where the work happens.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from benchmarks.ledger.spans import Target, Tracer


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _observe_candidates(tracer: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    counters = tracer.counters
    counters["candidates.calls"] += 1
    counters["candidates.targets"] += len(result)
    counters["candidates.multiplicity"] += sum(t.multiplicity for t in result)


def _observe_batch_score(tracer: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    tracer.counters["kernel.batch_targets"] += len(_arg(args, kwargs, 2, "targets"))


def _observe_group(tracer: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    tracer.counters["batch.batches"] += len(result)
    tracer.counters["batch.members"] += sum(len(batch) for batch in result)


def _observe_rollback(tracer: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    # args[0] is the coordinator (self)
    tracer.counters["coordinator.rolled_back_apps"] += len(
        _arg(args, kwargs, 2, "app_names")
    )


def _observe_screen(tracer: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    tracer.counters["shard.screens"] += 1
    if result is None:
        tracer.counters["shard.screens_passed"] += 1


def _observe_plan(tracer: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    tracer.counters["planner.plans"] += 1
    if result.migrations:
        tracer.counters["planner.plans_accepted"] += 1


_OBSERVERS = {
    "core.candidates:candidate_targets": _observe_candidates,
    "core.kernel:batch_score": _observe_batch_score,
    "service.batch:BatchAdmissionEngine.group": _observe_group,
    "service.coordinator:ShardedCoordinator.rollback_to": _observe_rollback,
    "service.shard:PodShard.screen": _observe_screen,
    "defrag.planner:DefragPlanner.plan_pass": _observe_plan,
    "defrag.planner:DefragPlanner.plan_app": _observe_plan,
}

#: (layer, defining module, wrapped qualnames)
LAYER_TABLE: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("core.scheduler", "repro.core.scheduler", (
        "Ostro.place", "Ostro.commit", "Ostro.remove", "Ostro.update",
        "Ostro.reoptimize", "Ostro.verify_state",
    )),
    ("core.greedy", "repro.core.greedy", (
        "greedy_with_restarts", "run_greedy_from", "backtracking_place",
    )),
    # BAStar.place is the inherited PlacementAlgorithm.place, shadowed on
    # the subclass so EG's searches are not charged to core.astar
    ("core.astar", "repro.core.astar", (
        "BAStar.place", "node_equivalence_classes",
    )),
    ("core.candidates", "repro.core.candidates", ("candidate_targets",)),
    ("core.kernel", "repro.core.kernel", (
        "candidate_targets_numpy", "batch_score", "immediate_costs",
        "StateView.for_state",
    )),
    ("core.heuristic", "repro.core.heuristic", (
        "LowerBoundEstimator.__init__", "LowerBoundEstimator.estimate",
    )),
    ("core.placement", "repro.core.placement", (
        "PartialPlacement.assign", "PartialPlacement.unassign",
    )),
    ("core.constraints", "repro.core.constraints", (
        "feasible", "topology_obviously_infeasible",
    )),
    ("core.objective", "repro.core.objective", ("Objective.for_topology",)),
    ("core.topology", "repro.core.topology", (
        "ApplicationTopology.validate", "ApplicationTopology.copy",
    )),
    ("core.online", "repro.core.online", (
        "update_application", "evacuate_host", "add_vms_to_tier",
        "remove_vms_from_tier",
    )),
    ("core.migration", "repro.core.migration", ("plan_migration", "apply_plan")),
    ("core.validate", "repro.core.validate", (
        "state_invariant_violations", "conservation_violations",
    )),
    ("datacenter.state", "repro.datacenter.state", (
        "DataCenterState.snapshot", "DataCenterState.restore",
        "DataCenterState.clone", "DataCenterState.place_vm",
        "DataCenterState.unplace_vm", "DataCenterState.reserve_path",
        "DataCenterState.release_path",
    )),
    ("datacenter.network", "repro.datacenter.network", (
        "PathResolver.path", "PathResolver.distance_row",
        "PathResolver.for_cloud",
    )),
    ("datacenter.model", "repro.datacenter.model", (
        "Cloud.min_hops_for_distance",
    )),
    ("service.queue", "repro.service.queue", (
        "AdmissionQueue.submit", "AdmissionQueue.drain", "AdmissionQueue.cancel",
    )),
    ("service.batch", "repro.service.batch", (
        "BatchAdmissionEngine.admit_batch", "BatchAdmissionEngine.group",
    )),
    ("service.coordinator", "repro.service.coordinator", (
        "ShardedCoordinator.admit", "ShardedCoordinator.update",
        "ShardedCoordinator.remove", "ShardedCoordinator.rollback_to",
        "ShardedCoordinator.verify_state",
    )),
    ("service.shard", "repro.service.shard", (
        "PodShard.sync", "PodShard.masked_snapshot", "PodShard.screen",
        "PodShard.search",
    )),
    ("service.driver", "repro.service.driver", ("run_service",)),
    ("defrag.planner", "repro.defrag.planner", (
        "DefragPlanner.plan_pass", "DefragPlanner.plan_app",
        "DefragPlanner.fragmentation",
    )),
    ("defrag.executor", "repro.defrag.executor", (
        "DefragExecutor.execute", "run_defrag_tick",
    )),
    ("scaling.engine", "repro.scaling.engine", (
        "AutoScaler.evaluate", "AutoScaler.applied", "AutoScaler.failed",
    )),
    ("faults.injector", "repro.faults.injector", (
        "FaultInjector.before_api_call",
    )),
    ("faults.retry", "repro.faults.retry", ("retry_call",)),
    ("faults.recovery", "repro.faults.recovery", ("place_with_degradation",)),
    ("sim.chaos", "repro.sim.chaos", ("run_chaos",)),
    ("sim.utilization", "repro.sim.utilization", ("fragmentation_report",)),
    ("heat.template", "repro.heat.template", (
        "parse_template", "topology_from_template", "annotate_template",
    )),
    ("heat.wrapper", "repro.heat.wrapper", (
        "OstroHeatWrapper.handle", "OstroHeatWrapper.delete",
    )),
    ("heat.engine", "repro.heat.engine", (
        "HeatEngine.deploy", "HeatEngine.delete_stack",
    )),
    ("openstack.nova", "repro.openstack.nova", (
        "NovaScheduler.create_server", "NovaScheduler.delete_server",
    )),
    ("openstack.cinder", "repro.openstack.cinder", (
        "CinderScheduler.create_volume", "CinderScheduler.delete_volume",
    )),
)

#: every layer the ledger reports ``<layer>.calls`` / ``<layer>.self_s``
#: for; ``bench`` is the harness's own root span (glue between calls)
LAYERS: Tuple[str, ...] = tuple(layer for layer, _, _ in LAYER_TABLE) + ("bench",)


def targets() -> List[Target]:
    """Every wrapped callable, in table order."""
    found: List[Target] = []
    for layer, module, qualnames in LAYER_TABLE:
        for qualname in qualnames:
            label = f"{layer}:{qualname}"
            found.append(
                Target(layer, module, qualname, _OBSERVERS.get(label))
            )
    return found


def layer_of(label: str) -> str:
    """Layer a span label is charged to (``layer:qualname`` -> ``layer``)."""
    return label.partition(":")[0]


def layer_totals(by_label: Dict[str, Any]) -> Dict[str, Tuple[int, float]]:
    """(calls, self seconds) per layer from per-label totals."""
    out: Dict[str, Tuple[int, float]] = {layer: (0, 0.0) for layer in LAYERS}
    for label, totals in by_label.items():
        calls, self_s = out[layer_of(label)]
        out[layer_of(label)] = (calls + totals.calls, self_s + totals.self_s)
    return out
