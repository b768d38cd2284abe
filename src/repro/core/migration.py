"""Migration planning between two placements of the same application.

The paper motivates placement decisions "not just at application
deployment time, but also at runtime if the infrastructure is being
managed adaptively and the resource assignments to applications can be
changed" (Section I). Changing assignments means *migrating* running VMs
and volumes — and a new placement cannot simply be applied wholesale: a
node's target host may be occupied by another node that has not moved out
yet, and every intermediate configuration must respect capacity and
bandwidth.

:func:`plan_migration` turns an (old placement, new placement) pair into
an ordered list of :class:`MigrationStep` moves that is safe to execute
one move at a time:

1. Nodes whose assignment is unchanged are untouched.
2. At each round, any node whose *target* currently has room (CPU/memory
   or disk, plus bandwidth for its links toward every neighbor's current
   location) is moved.
3. When no node can move directly — a cycle, e.g. two VMs swapping
   hosts — one blocked node is *bounced* to a temporary host with room,
   breaking the cycle at the cost of one extra move (bounded by
   ``max_bounces``).

The plan is validated by simulation on a cloned state as it is built, so
a returned plan is feasible by construction; :func:`apply_plan` executes
it against a live state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro import obs
from repro.core.placement import Placement
from repro.core.topology import ApplicationTopology
from repro.datacenter.network import PathResolver
from repro.datacenter.state import DataCenterState
from repro.errors import CapacityError, PlacementError


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


def apply_plan(
    topology: ApplicationTopology,
    state: DataCenterState,
    old_placement: Placement,
    plan: MigrationPlan,
) -> None:
    """Execute a plan against a live state (with the old placement
    committed), move by move; raises mid-way only if the plan is stale."""
    resolver = PathResolver(state.cloud)
    sim = _Simulator(topology, state, resolver, old_placement)
    rec = obs.get_recorder()
    for step in plan.steps:
        if not sim.try_move(step.node, step.to_host, step.to_disk):
            raise PlacementError(
                f"migration step for {step.node!r} no longer fits; "
                "re-plan against the current state"
            )
        if rec.enabled:
            record = topology.node(step.node)
            moved_gb = record.mem_gb if record.is_vm else record.size_gb
            rec.inc(
                "ostro_migration_steps_total",
                kind="bounce" if step.bounce else "move",
            )
            rec.inc("ostro_migration_moved_gb_total", moved_gb)
            rec.event(
                "migration_step",
                node=step.node,
                to_host=step.to_host,
                to_disk=step.to_disk,
                bounce=step.bounce,
                moved_gb=moved_gb,
            )
