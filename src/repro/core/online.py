"""Online adaptation of deployed applications (Section IV-E).

An application topology can be updated at runtime -- VMs added or removed,
requirements changed. Re-placing the whole topology from scratch would both
waste scheduler time and needlessly migrate running VMs, so
:func:`update_application` re-places *incrementally*: it releases the
deployed application, re-places it with every unchanged node **pinned** to
its current location, and when pinning makes the problem infeasible
progressively unpins -- first the topological neighbors of the
added/changed nodes (updates "can in fact spread out to a large portion of
the application nodes"), then everything.

**Host evacuation** (:func:`evacuate_host`) runs the same unpinning loop
with a crashed host's victims freed and the survivors pinned -- the
paper's runtime-adaptation story applied to failures instead of updates.
Tier scale-out/in (:func:`add_vms_to_tier`, :func:`remove_vms_from_tier`)
complete the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    Type,
    TypeVar,
    Union,
)

from repro import obs
from repro.core.base import PlacementResult
from repro.core.migration import StepHook, keep_value
from repro.core.placement import Placement
from repro.core.scheduler import DeployedApplication, Ostro
from repro.core.topology import ApplicationTopology
from repro.errors import DeadlineError, PlacementError, ReproError
from repro.faults.retry import retry_call

if TYPE_CHECKING:  # pragma: no cover - avoids a circular import
    from repro.defrag.executor import DefragStats
    from repro.defrag.planner import DefragConfig

R = TypeVar("R")


@dataclass
class UpdateResult:
    """Outcome of one online adaptation.

    Attributes:
        result: the placement result of the incremental re-placement.
        added: node names newly introduced by the update.
        removed: node names dropped by the update.
        changed: node names whose requirements changed.
        moved: previously deployed nodes whose host changed.
        unpin_rounds: how many progressive unpinning rounds were needed
            (0 = all unchanged nodes stayed pinned).
    """

    result: PlacementResult
    added: List[str] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)
    changed: List[str] = field(default_factory=list)
    moved: List[str] = field(default_factory=list)
    unpin_rounds: int = 0


def diff_topologies(
    old: ApplicationTopology, new: ApplicationTopology
) -> Tuple[List[str], List[str], List[str]]:
    """Return (added, removed, changed-requirements) node name lists."""
    added = sorted(new.nodes.keys() - old.nodes.keys())
    removed = sorted(old.nodes.keys() - new.nodes.keys())
    changed = sorted(
        name
        for name in new.nodes.keys() & old.nodes.keys()
        if new.node(name) != old.node(name)
    )
    return added, removed, changed


def update_application(
    ostro: "Ostro",
    new_topology: ApplicationTopology,
    algorithm: str = "dba*",
    max_unpin_rounds: int = 8,
    **options: Any,
) -> UpdateResult:
    """Incrementally re-place a deployed application after a topology update.

    Args:
        ostro: the :class:`repro.core.scheduler.Ostro` owning the app; the
            application is looked up by ``new_topology.name``.
        new_topology: the updated topology (same application name).
        algorithm: placement algorithm for the incremental search.
        max_unpin_rounds: bound on progressive unpinning expansions before
            falling back to a full re-placement.
        **options: forwarded to the algorithm factory (e.g. ``deadline_s``).

    Raises:
        PlacementError: when even a full re-placement is infeasible; the
            original deployment is restored in that case.
    """
    deployed = ostro.deployed(new_topology.name)
    old_topology = deployed.topology
    old_placement = deployed.placement
    added, removed, changed = diff_topologies(old_topology, new_topology)

    if not added and not removed and not changed:
        # Empty diff: a true no-op -- no search, no live-state mutation,
        # no update telemetry. The reported value is the like-for-like
        # keep value that reoptimize and defrag compare against.
        released = ostro.state.clone()
        ostro.release(old_topology, old_placement, released)
        value = keep_value(ostro, old_topology, old_placement, released)
        return UpdateResult(PlacementResult(old_placement, value))

    # Release the old deployment; we re-commit (old or new) before returning.
    ostro.remove(new_topology.name)

    keep = [
        name
        for name in new_topology.nodes
        if name in old_placement.assignments and name not in changed
    ]
    result, rounds, error = _place_unpinning(
        new_topology,
        old_placement,
        keep,
        set(added) | set(changed),
        lambda pinned: ostro.place(
            new_topology,
            algorithm=algorithm,
            commit=True,
            pinned=pinned,
            **options,
        ),
        (PlacementError,),
        max_unpin_rounds,
    )
    rec = obs.get_recorder()
    if error is not None:
        # Even the fully free search failed: restore the original.
        ostro.commit(old_topology, old_placement)
        if rec.enabled:
            rec.inc("ostro_update_failures_total")
            rec.event(
                "update_failed",
                app=new_topology.name,
                added=len(added),
                removed=len(removed),
                changed=len(changed),
                unpin_rounds=rounds,
            )
        raise error

    moved = [
        name
        for name in keep
        if result.placement.host_of(name) != old_placement.host_of(name)
    ]
    if rec.enabled:
        rec.inc("ostro_updates_total")
        rec.event(
            "update_applied",
            app=new_topology.name,
            added=len(added),
            removed=len(removed),
            changed=len(changed),
            moved=len(moved),
            unpin_rounds=rounds,
        )
    return UpdateResult(
        result=result,
        added=added,
        removed=removed,
        changed=changed,
        moved=moved,
        unpin_rounds=rounds,
    )


def _place_unpinning(
    topology: ApplicationTopology,
    placement: Placement,
    keep: Iterable[str],
    unpinned: Set[str],
    place: Callable[[Dict[str, Tuple[int, Optional[int]]]], R],
    errors: Tuple[Type[ReproError], ...],
    max_rounds: int,
) -> Tuple[Optional[R], int, Optional[ReproError]]:
    """Progressive unpinning: the one loop behind update and evacuation.

    Calls ``place(pinned)`` with every ``keep`` node outside ``unpinned``
    held at its (host, disk) in ``placement``. On one of ``errors``,
    ``unpinned`` grows by one hop of neighbors (to everything once it
    stops growing) and ``place`` runs again, at most ``max_rounds`` times.
    Returns ``(result, rounds, None)``, or ``(None, rounds, last_error)``
    when nothing was left to unpin or the rounds ran out.
    """
    rounds = 0
    while True:
        pinned = {
            name: (placement.assignments[name].host, placement.assignments[name].disk)
            for name in keep
            if name not in unpinned
        }
        try:
            return place(pinned), rounds, None
        except errors as exc:
            if not pinned or rounds >= max_rounds:
                return None, rounds, exc
            frontier = set(unpinned)
            for name in unpinned:
                if name in topology.nodes:
                    frontier.update(nbr for nbr, _ in topology.neighbors(name))
            unpinned = set(topology.nodes) if frontier == unpinned else frontier
            rounds += 1


@dataclass
class EvacuationReport:
    """Outcome of evacuating one crashed host.

    Attributes:
        host: name of the evacuated host.
        apps: names of the applications that had nodes on it.
        moved: ``"app/node"`` entries re-placed onto other hosts
            (victims, plus any survivors that had to move to make the
            evacuation feasible).
        failed: ``"app/node"`` victim entries that could not be
            re-placed anywhere; their application is left *removed* from
            the scheduler (its surviving reservations released) rather
            than half-committed.
        algorithms: app name -> the algorithm rung that produced its new
            placement (degradation may have stepped down the ladder).
        runtime_s: total scheduler runtime of the successful
            re-placements (the recovery-time metric of chaos runs).
    """

    host: str
    apps: List[str] = field(default_factory=list)
    moved: List[str] = field(default_factory=list)
    failed: List[str] = field(default_factory=list)
    algorithms: dict = field(default_factory=dict)
    runtime_s: float = 0.0


def evacuate_host(
    ostro: "Ostro",
    host: Union[int, str],
    algorithm: str = "dba*",
    max_unpin_rounds: int = 8,
    **options: Any,
) -> EvacuationReport:
    """Re-place every application with nodes on a crashed host.

    The host must already be failed in the state
    (:meth:`~repro.datacenter.state.DataCenterState.fail_host`), so the
    search cannot put anything back on it. Per affected application:
    victims (nodes assigned to the crashed host -- VMs on it and volumes
    on its disks) are freed while all surviving nodes stay pinned; if
    that is infeasible, pins are progressively released exactly as in
    :func:`update_application`. Placement runs under the degradation
    ladder (:func:`repro.faults.recovery.place_with_degradation`), so
    deadline pressure weakens the algorithm instead of failing the
    evacuation.

    Applications whose victims cannot be re-placed anywhere are left
    removed (reported in ``failed``) -- capacity stays conserved and the
    caller decides whether to retry after more capacity appears.

    Args:
        ostro: the scheduler owning the applications.
        host: index or name of the crashed host.
        algorithm: starting rung for each re-placement.
        max_unpin_rounds: progressive-unpinning bound per application.
        **options: forwarded algorithm options (e.g. ``deadline_s``).
    """
    from repro.faults.recovery import place_with_degradation

    cloud = ostro.cloud
    host_index = (
        cloud.host_by_name(host).index if isinstance(host, str) else host
    )
    host_name = cloud.hosts[host_index].name
    affected: List[Tuple[str, List[str]]] = []
    for app_name in sorted(ostro.applications):
        placement = ostro.applications[app_name].placement
        victims = sorted(
            name
            for name, assignment in placement.assignments.items()
            if assignment.host == host_index
        )
        if victims:
            affected.append((app_name, victims))

    report = EvacuationReport(host=host_name)
    for app_name, victims in affected:
        report.apps.append(app_name)
        deployed = ostro.applications[app_name]
        topology, old_placement = deployed.topology, deployed.placement
        ostro.remove(app_name)
        placed, _, error = _place_unpinning(
            topology,
            old_placement,
            old_placement.assignments,
            set(victims),
            lambda pinned: place_with_degradation(
                ostro,
                topology,
                algorithm=algorithm,
                commit=True,
                pinned=pinned,
                **options,
            ),
            (DeadlineError, PlacementError),
            max_unpin_rounds,
        )
        if error is not None:
            # nowhere to go; leave the app removed
            report.failed.extend(f"{app_name}/{v}" for v in victims)
            continue
        result, report.algorithms[app_name] = placed
        report.runtime_s += result.runtime_s
        report.moved.extend(
            f"{app_name}/{name}"
            for name in sorted(topology.nodes)
            if result.placement.host_of(name) != old_placement.host_of(name)
        )

    rec = obs.get_recorder()
    if rec.enabled:
        rec.inc("ostro_evacuations_total")
        if report.moved:
            rec.inc(
                "ostro_evacuated_nodes_total",
                len(report.moved),
                outcome="moved",
            )
        if report.failed:
            rec.inc(
                "ostro_evacuated_nodes_total",
                len(report.failed),
                outcome="failed",
            )
        rec.event(
            "host_evacuated",
            host=host_name,
            apps=len(report.apps),
            moved=len(report.moved),
            failed=len(report.failed),
        )
    return report


def tier_members(
    topology: ApplicationTopology, tier_prefix: str
) -> List[str]:
    """Sorted names of the VMs whose name starts with ``tier_prefix``."""
    return sorted(
        name
        for name in topology.nodes
        if name.startswith(tier_prefix) and topology.node(name).is_vm
    )


def _extra_index(name: str, tier_prefix: str) -> Optional[int]:
    """N of a ``<prefix>-extra<N>`` scale-out member (None otherwise)."""
    extra_prefix = f"{tier_prefix}-extra"
    if not name.startswith(extra_prefix):
        return None
    try:
        return int(name[len(extra_prefix):])
    except ValueError:
        return None


def add_vms_to_tier(
    topology: ApplicationTopology,
    tier_prefix: str,
    fraction: float,
    link_bw_mbps: Optional[float] = None,
    count: Optional[int] = None,
) -> ApplicationTopology:
    """Grow a tier of a topology by a fraction of small VMs (Section IV-E).

    Clones the topology and adds ``ceil(fraction * tier_size)`` VMs (or
    exactly ``count`` when given) whose requirements and link structure
    mirror the tier's first member. Used by the online-adaptation
    experiment ("adding 10% more small VMs on the first or second tier")
    and by the autoscaling scale-out path (:mod:`repro.scaling`).

    New members are named ``<prefix>-extra<N>`` with ``N`` continuing
    past the highest existing extra, so repeated growths never collide.
    A zero delta is a true no-op: the input topology is returned as-is,
    uncloned.
    """
    members = tier_members(topology, tier_prefix)
    if not members:
        raise PlacementError(f"no VMs with prefix {tier_prefix!r}")
    template_name = members[0]
    template = topology.node(template_name)
    if count is None:
        # ceil, as documented -- with a tiny slack so binary-float noise
        # in fraction * size (e.g. 0.2 * 15 = 3.0000000000000004) cannot
        # round a whole-number product up an extra step.
        count = math.ceil(fraction * len(members) - 1e-9)
    if count <= 0:
        return topology
    start = max([0] + [_extra_index(name, tier_prefix) or 0 for name in members])
    grown = topology.copy()
    for i in range(count):
        new_name = f"{tier_prefix}-extra{start + i + 1}"
        grown.add_vm(new_name, template.vcpus, template.mem_gb)
        for neighbor, bw in topology.neighbors(template_name):
            grown.connect(
                new_name,
                neighbor,
                bw if link_bw_mbps is None else link_bw_mbps,
            )
    return grown


@dataclass
class ScaleInResult:
    """Outcome of one :func:`remove_vms_from_tier` call.

    Attributes:
        removed: names of the released tier members (empty = no-op).
        remaining: tier members still deployed after the shrink.
        consolidated: True when the optional consolidation pass executed
            to completion (False when not requested, nothing beneficial
            was found, or a fault aborted it -- the shrink itself stands
            regardless).
        consolidation_moves: migration steps the consolidation executed.
    """

    removed: List[str] = field(default_factory=list)
    remaining: int = 0
    consolidated: bool = False
    consolidation_moves: int = 0


def _removal_preference(members: List[str], tier_prefix: str) -> Dict[str, int]:
    """Deterministic tie-break order for victim selection.

    Scale-out extras go first, last-added first (LIFO over the
    ``-extra<N>`` index), then original members in reverse name order --
    so absent load information a scale-in exactly unwinds prior
    scale-outs before touching the tier's original population.
    """
    extra = {name: _extra_index(name, tier_prefix) for name in members}
    extras = sorted(
        (name for name in members if extra[name] is not None),
        key=lambda name: -(extra[name] or 0),
    )
    originals = sorted(
        (name for name in members if extra[name] is None), reverse=True
    )
    return {name: rank for rank, name in enumerate(extras + originals)}


def remove_vms_from_tier(
    ostro: "Ostro",
    app_name: str,
    tier_prefix: str,
    fraction: float = 0.0,
    count: Optional[int] = None,
    loads: Optional[Dict[str, float]] = None,
    min_members: int = 1,
    consolidate: Optional["DefragConfig"] = None,
    defrag_stats: Optional["DefragStats"] = None,
    step_hook: Optional[StepHook] = None,
) -> ScaleInResult:
    """Scale a deployed application's tier *in*, releasing members live.

    The inverse of :func:`add_vms_to_tier` on a committed deployment:
    ``ceil(fraction * tier_size)`` members (or exactly ``count``) are
    selected least-loaded-first and their link bandwidth, then host
    capacity, released in one transaction -- gated (service ``"ostro"``,
    method ``"scale_in"``), retried and rolled back bit-exactly like
    :meth:`~repro.core.scheduler.Ostro.commit`. No search runs.

    Victim selection is fully deterministic: members sort by
    ``(load, preference)`` where ``loads`` maps member name to its
    current load (missing entries read 0.0) and the preference order
    unwinds prior scale-outs first (see :func:`_removal_preference`).
    At least ``min_members`` members always survive.

    With ``consolidate`` given (and enabled), the survivors get a
    single-application defragmentation pass
    (:meth:`repro.defrag.planner.DefragPlanner.plan_app`, executed by
    :class:`repro.defrag.executor.DefragExecutor`): scale-in is when a
    placement has just become sparser than it needs to be. A fault
    mid-consolidation aborts that pass; the shrink itself stands.

    Returns a :class:`ScaleInResult`; a resolved delta of zero returns
    immediately with no state mutation, no injector gate, and no events.
    """
    deployed = ostro.deployed(app_name)
    topology, placement = deployed.topology, deployed.placement
    members = tier_members(topology, tier_prefix)
    if not members:
        raise PlacementError(
            f"no VMs with prefix {tier_prefix!r} in {app_name!r}"
        )
    if count is None:
        count = math.ceil(fraction * len(members) - 1e-9)
    count = min(count, len(members) - max(0, min_members))
    if count <= 0:
        return ScaleInResult(remaining=len(members))

    preference = _removal_preference(members, tier_prefix)
    victims = sorted(
        members,
        key=lambda name: (
            (loads or {}).get(name, 0.0),
            preference[name],
        ),
    )[:count]
    victim_set = set(victims)

    shrunk = topology.copy()
    for name in victims:
        shrunk.remove_node(name)

    released_links = [
        link
        for link in topology.links
        if link.a in victim_set or link.b in victim_set
    ]

    def release_once() -> None:
        with ostro.state.transaction(app=app_name):
            if ostro.injector is not None:
                ostro.injector.before_api_call("ostro", "scale_in")
            for link in released_links:
                path = ostro.resolver.path(
                    placement.host_of(link.a), placement.host_of(link.b)
                )
                ostro.state.release_path(path, link.bw_mbps)
            for name in victims:
                node = topology.node(name)
                ostro.state.unplace_vm(
                    placement.host_of(name),
                    ostro.state.reserved_vcpus(node),
                    node.mem_gb,
                )

    retry_call(
        ostro.retry_policy, release_once, service="ostro", method="scale_in"
    )

    released_ubw = 0.0
    for link in released_links:
        path = ostro.resolver.path(
            placement.host_of(link.a), placement.host_of(link.b)
        )
        released_ubw += link.bw_mbps * len(path)
    kept_assignments = {
        name: assignment
        for name, assignment in placement.assignments.items()
        if name not in victim_set
    }
    kept_hosts = {a.host for a in kept_assignments.values()}
    vacated = len(
        {a.host for a in placement.assignments.values()} - kept_hosts
    )
    ostro.applications[app_name] = DeployedApplication(
        topology=shrunk,
        placement=Placement(
            app_name=app_name,
            assignments=kept_assignments,
            reserved_bw_mbps=placement.reserved_bw_mbps - released_ubw,
            new_active_hosts=max(0, placement.new_active_hosts - vacated),
            hosts_used=len(kept_hosts),
        ),
    )

    result = ScaleInResult(
        removed=victims, remaining=len(members) - len(victims)
    )
    rec = obs.get_recorder()
    if rec.enabled:
        rec.inc("ostro_scaling_vms_total", len(victims), direction="removed")
        rec.event(
            "scale_in",
            app=app_name,
            tier=tier_prefix,
            removed=len(victims),
            remaining=result.remaining,
        )

    if consolidate is not None and consolidate.enabled:
        from repro.defrag.executor import DefragExecutor, DefragStats
        from repro.defrag.planner import DefragPlanner

        plan = DefragPlanner(consolidate).plan_app(ostro, app_name)
        if plan.migrations:
            stats = defrag_stats if defrag_stats is not None else DefragStats()
            moves_before = stats.moves + stats.bounces
            executor = DefragExecutor(ostro, consolidate, step_hook=step_hook)
            result.consolidated = executor.execute(plan, stats)
            result.consolidation_moves = (
                stats.moves + stats.bounces - moves_before
            )
    return result
