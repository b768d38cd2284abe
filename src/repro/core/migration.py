"""Re-placement toolkit: search again, value keeping, plan, migrate.

The paper treats runtime adaptation (Section I) as one operation: release
an application, search again, compare against keeping the current
placement, migrate. This module holds the one implementation of each
part; :meth:`~repro.core.scheduler.Ostro.reoptimize`, the defragmenter
(:mod:`repro.defrag`) and scale-in consolidation are acceptance policies
over them.

* :func:`replan` searches again read-only on a released clone and values
  keeping the current placement (:func:`keep_value`) against that clone.
* :func:`plan_migration` turns (old, new) placements into moves that are
  safe one at a time: each round moves every node whose target has room
  (capacity plus bandwidth toward its neighbors' current hosts); a cycle
  is broken by *bouncing* one node to a temporary host (``max_bounces``).
  Plans are simulated on a clone as they are built.
* :func:`apply_plan` executes a plan against the live scheduler, one
  gated transaction per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro import obs
from repro.core.base import PlacementResult
from repro.core.objective import Objective
from repro.core.placement import Assignment, Placement
from repro.core.scheduler import DeployedApplication, Ostro, make_algorithm
from repro.core.topology import ApplicationTopology
from repro.datacenter.network import PathResolver
from repro.datacenter.state import DataCenterState
from repro.errors import CapacityError, MigrationAborted, PlacementError, ReproError
from repro.faults.retry import retry_call


@dataclass(frozen=True)
class MigrationStep:
    """One move of the plan.

    Attributes:
        node: node being moved.
        to_host: destination host index.
        to_disk: destination disk index (volumes only).
        bounce: True when this is a temporary cycle-breaking move rather
            than the node's final destination.
    """

    node: str
    to_host: int
    to_disk: Optional[int] = None
    bounce: bool = False


@dataclass
class MigrationPlan:
    """An ordered, feasibility-checked migration plan.

    Attributes:
        steps: moves in execution order.
        moves: final-destination moves (excludes bounces).
        bounces: cycle-breaking intermediate moves.
    """

    steps: List[MigrationStep] = field(default_factory=list)

    @property
    def moves(self) -> List[MigrationStep]:
        return [s for s in self.steps if not s.bounce]

    @property
    def bounces(self) -> List[MigrationStep]:
        return [s for s in self.steps if s.bounce]

    def __len__(self) -> int:
        return len(self.steps)


class _Simulator:
    """Executes candidate moves on a cloned state, tracking locations."""

    def __init__(
        self,
        topology: ApplicationTopology,
        state: DataCenterState,
        resolver: PathResolver,
        placement: Placement,
    ) -> None:
        self.topology = topology
        self.state = state
        self.resolver = resolver
        self.location: Dict[str, Tuple[int, Optional[int]]] = {
            name: (a.host, a.disk)
            for name, a in placement.assignments.items()
        }

    def _flows(
        self, node: str, host: int
    ) -> Iterator[Tuple[Tuple[int, ...], float]]:
        for neighbor, bw in self.topology.neighbors(node):
            if bw <= 0:
                continue
            nbr_host, _ = self.location[neighbor]
            yield self.resolver.path(host, nbr_host), bw

    def try_move(
        self, node: str, to_host: int, to_disk: Optional[int]
    ) -> bool:
        """Attempt one move; returns False (state untouched) if it does
        not fit.

        The move runs in a state transaction rather than undoing itself
        arithmetically: re-reserving the old flows can fail (a link on
        the old path went down since) where slot restore cannot.
        """
        from_host, from_disk = self.location[node]
        if (from_host, from_disk) == (to_host, to_disk):
            return True
        record = self.topology.node(node)
        state = self.state
        try:
            with state.transaction():
                # release the flows toward every neighbor, move the
                # occupancy, re-reserve the flows from the target
                for path, bw in self._flows(node, from_host):
                    state.release_path(path, bw)
                if record.is_vm:
                    vcpus = state.reserved_vcpus(record)
                    state.unplace_vm(from_host, vcpus, record.mem_gb)
                    state.place_vm(to_host, vcpus, record.mem_gb)
                else:
                    if to_disk is None:
                        raise CapacityError("volume move needs a disk")
                    state.unplace_volume(from_disk, record.size_gb)
                    state.place_volume(to_disk, record.size_gb)
                for path, bw in self._flows(node, to_host):
                    state.reserve_path(path, bw)
        except CapacityError:
            return False
        self.location[node] = (to_host, to_disk)
        return True

    def endpoint_down(self, step: MigrationStep) -> bool:
        """True when the step's source or target host has crashed."""
        state = self.state
        disks = state.cloud.disks
        from_host, from_disk = self.location[step.node]
        if self.topology.node(step.node).is_vm:
            source, target = from_host, step.to_host
        else:
            source = disks[from_disk].host.index
            target = (
                disks[step.to_disk].host.index
                if step.to_disk is not None
                else step.to_host
            )
        return state.host_is_down(source) or state.host_is_down(target)

    def find_bounce_target(
        self, node: str
    ) -> Optional[Tuple[int, Optional[int]]]:
        """Any host/disk with room for the node right now (first fit)."""
        record = self.topology.node(node)
        cloud = self.state.cloud
        if record.is_vm:
            needed = self.state.reserved_vcpus(record)
            for host in range(cloud.num_hosts):
                if host == self.location[node][0]:
                    continue
                if self.state.vm_fits(host, needed, record.mem_gb):
                    return host, None
            return None
        for disk_index, disk in enumerate(cloud.disks):
            if disk_index == self.location[node][1]:
                continue
            if self.state.volume_fits(disk_index, record.size_gb):
                return disk.host.index, disk_index
        return None


def keep_value(
    ostro: Ostro,
    topology: ApplicationTopology,
    placement: Placement,
    released: DataCenterState,
) -> float:
    """Objective value of keeping an existing placement where it is.

    Scored against ``released`` -- the state with this application's
    reservations released, the reference a fresh search scores against:
    u_bw over the resolver's current paths, u_c counting the hosts only
    this application keeps active. Re-deriving the identical placement
    therefore gains exactly 0.
    """
    ubw = 0.0
    for link in topology.links:
        path = ostro.resolver.path(
            placement.host_of(link.a), placement.host_of(link.b)
        )
        ubw += link.bw_mbps * len(path)
    hosts = {a.host for a in placement.assignments.values()}
    activated = sum(1 for host in hosts if not released.host_is_active(host))
    return Objective.for_topology(
        topology, ostro.cloud, ostro.theta_bw, ostro.theta_c
    ).score(ubw, activated)


def replan(
    ostro: Ostro, app_name: str, algorithm: str, **options: Any
) -> Tuple[PlacementResult, float, DataCenterState]:
    """Search a deployed application again without touching the live state.

    Releases the application on a clone of the live state and places it
    there from scratch (``options`` go to
    :func:`~repro.core.scheduler.make_algorithm`, e.g. ``deadline_s``).
    Returns ``(result, keep, released)``: the fresh placement, the
    :func:`keep_value` of the current one, and the released clone. Which
    gain ``keep - result.objective_value`` is worth a migration is the
    caller's policy. Raises :class:`~repro.errors.DeadlineError` for an
    unusable deadline and :class:`~repro.errors.PlacementError` when no
    placement exists.
    """
    deployed = ostro.deployed(app_name)
    topology, placement = deployed.topology, deployed.placement
    released = ostro.state.clone()
    ostro.release(topology, placement, released)
    objective = Objective.for_topology(
        topology, ostro.cloud, ostro.theta_bw, ostro.theta_c
    )
    options.setdefault("greedy_config", ostro.greedy_config)
    result = make_algorithm(algorithm, **options).place(
        topology, ostro.cloud, released, objective
    )
    return result, keep_value(ostro, topology, placement, released), released


def plan_migration(
    topology: ApplicationTopology,
    state: DataCenterState,
    old_placement: Placement,
    new_placement: Placement,
    max_bounces: int = 8,
) -> MigrationPlan:
    """Plan a safe move sequence from ``old_placement`` to ``new_placement``.

    Args:
        topology: the application being migrated.
        state: live availability state *with the old placement committed*
            (cloned internally; never mutated).
        old_placement / new_placement: full placements of the topology.
        max_bounces: cycle-breaking budget.

    Raises:
        PlacementError: when no safe sequence exists within the bounce
            budget (e.g. the cloud is too full to stage any intermediate
            configuration).
    """
    missing = topology.nodes.keys() - new_placement.assignments.keys()
    if missing:
        raise PlacementError(
            f"new placement does not cover nodes: {sorted(missing)}"
        )
    resolver = PathResolver(state.cloud)
    sim = _Simulator(topology, state.clone(), resolver, old_placement)
    plan = MigrationPlan()
    pending = sorted(
        name
        for name in topology.nodes
        if (
            old_placement.assignments[name].host,
            old_placement.assignments[name].disk,
        )
        != (
            new_placement.assignments[name].host,
            new_placement.assignments[name].disk,
        )
    )
    bounces = 0
    while pending:
        progressed = False
        for name in list(pending):
            target = new_placement.assignments[name]
            if sim.try_move(name, target.host, target.disk):
                plan.steps.append(
                    MigrationStep(
                        node=name, to_host=target.host, to_disk=target.disk
                    )
                )
                pending.remove(name)
                progressed = True
        if progressed:
            continue
        if bounces >= max_bounces:
            raise PlacementError(
                f"migration blocked after {bounces} bounces; "
                f"still pending: {pending}"
            )
        # cycle: bounce the first blocked node anywhere with room
        bounced = False
        for name in pending:
            spot = sim.find_bounce_target(name)
            if spot is None:
                continue
            host, disk = spot
            if sim.try_move(name, host, disk):
                plan.steps.append(
                    MigrationStep(
                        node=name, to_host=host, to_disk=disk, bounce=True
                    )
                )
                bounces += 1
                bounced = True
                break
        if not bounced:
            raise PlacementError(
                f"migration blocked: no bounce target for any of {pending}"
            )
    return plan


#: hook called before each executed step: (app_name, step_index, step).
#: Tests use it to inject faults at exact plan positions.
StepHook = Callable[[str, int, MigrationStep], None]


def step_gb(topology: ApplicationTopology, step: MigrationStep) -> float:
    """Gigabytes one step relocates (VM memory or volume size)."""
    record = topology.node(step.node)
    return record.mem_gb if record.is_vm else record.size_gb


def apply_plan(
    ostro: Ostro,
    app_name: str,
    old_placement: Placement,
    new_placement: Placement,
    plan: MigrationPlan,
    step_hook: Optional[StepHook] = None,
) -> None:
    """Execute a plan against the live scheduler, one gated step at a time.

    Each step is a surrogate API call: gated by the fault injector
    (service ``"defrag"``, method ``"migrate"``), retried under the
    scheduler's retry policy, and run in a state transaction, so a failed
    step restores the pre-step state bit-exactly. A step whose source or
    target host crashed since planning is refused before any capacity is
    touched. Every landed step is recorded in the application's placement
    (bounce spots included), so :meth:`~repro.core.scheduler.Ostro.
    verify_state` stays exact throughout; after the last step the
    recorded placement is ``new_placement``.

    Raises:
        MigrationAborted: stale plan (the application departed or moved
            since planning), endpoint host down, or a step rolled back.
            ``executed`` counts the landed steps; they stand.
    """
    deployed = ostro.applications.get(app_name)
    if (
        deployed is None
        or deployed.placement.assignments != old_placement.assignments
    ):
        raise MigrationAborted("stale plan")
    topology = deployed.topology
    state = ostro.state
    sim = _Simulator(topology, state, ostro.resolver, deployed.placement)
    rec = obs.get_recorder()
    for index, step in enumerate(plan.steps):
        if step_hook is not None:
            step_hook(app_name, index, step)
        if sim.endpoint_down(step):
            raise MigrationAborted("endpoint host down", executed=index)

        def move() -> None:
            if ostro.injector is not None:
                ostro.injector.before_api_call("defrag", "migrate")
            if not sim.try_move(step.node, step.to_host, step.to_disk):
                raise PlacementError(
                    f"migration step for {step.node!r} no longer fits; "
                    "re-plan against the current state"
                )

        try:
            with state.transaction():
                retry_call(
                    ostro.retry_policy, move, service="defrag", method="migrate"
                )
        except ReproError as exc:
            if rec.enabled:
                rec.inc("ostro_defrag_rollbacks_total")
                rec.event(
                    "defrag_step_rolled_back",
                    app=app_name,
                    node=step.node,
                    reason=str(exc),
                )
            raise MigrationAborted(str(exc), executed=index) from exc
        deployed.placement.assignments[step.node] = Assignment(
            node=step.node, host=step.to_host, disk=step.to_disk
        )
        if rec.enabled:
            moved_gb = step_gb(topology, step)
            rec.inc(
                "ostro_migration_steps_total",
                kind="bounce" if step.bounce else "move",
            )
            rec.inc("ostro_migration_moved_gb_total", moved_gb)
            rec.event(
                "migration_step",
                app=app_name,
                node=step.node,
                to_host=step.to_host,
                to_disk=step.to_disk,
                bounce=step.bounce,
                moved_gb=moved_gb,
            )
    # every step landed: record the clean new placement (assignments
    # already match it; this restores exact aggregate accounting)
    ostro.applications[app_name] = DeployedApplication(
        topology=topology, placement=new_placement
    )
