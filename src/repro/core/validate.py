"""Independent validation of placements and of the live state.

:func:`validate_placement` re-derives every constraint of Section II-B for
a finished placement against a base availability state: capacity, path
bandwidth, diversity zones, latency bounds, and volume/disk consistency.
It shares no code with the search (reservations are replayed onto a fresh
clone), so it catches scheduler bugs rather than inheriting them — the
test suite and the benchmarks both validate through it, and downstream
users can check placements produced elsewhere.

:func:`state_invariant_violations` and :func:`conservation_violations`
guard against *capacity leaks* under failures: the first checks the
state's local invariants (no negative free resources, down elements fully
absorbed), the second re-derives what the free arrays *should* read from
the scheduler's baseline snapshot minus its committed reservations. The
chaos harness runs both after every event.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.core.placement import Placement
from repro.core.topology import ApplicationTopology
from repro.datacenter.model import Cloud
from repro.datacenter.network import PathResolver
from repro.datacenter.resources import EPSILON
from repro.datacenter.state import DataCenterState
from repro.errors import CapacityError

if TYPE_CHECKING:  # pragma: no cover - avoids a circular import
    from repro.core.scheduler import Ostro


class PlacementViolation(AssertionError):
    """A placement failed validation; ``str()`` lists every violation."""

    def __init__(self, violations: List[str]) -> None:
        super().__init__("\n".join(violations))
        self.violations = violations


def placement_violations(
    topology: ApplicationTopology,
    cloud: Cloud,
    base_state: DataCenterState,
    placement: Placement,
) -> List[str]:
    """Collect every constraint violation of a placement (empty = valid).

    Args:
        topology: the application supposedly placed.
        cloud: the physical structure.
        base_state: availability *before* this placement (cloned; not
            mutated).
        placement: the placement to validate.
    """
    violations: List[str] = []
    missing = topology.nodes.keys() - placement.assignments.keys()
    if missing:
        violations.append(f"nodes not placed: {sorted(missing)}")
        return violations

    state = base_state.clone()
    # capacity, replayed one node at a time
    for name in sorted(topology.nodes):
        node = topology.node(name)
        assignment = placement.assignments[name]
        try:
            if node.is_vm:
                if assignment.disk is not None:
                    violations.append(f"VM {name!r} carries a disk index")
                state.place_vm(
                    assignment.host,
                    state.reserved_vcpus(node),
                    node.mem_gb,
                )
            else:
                if assignment.disk is None:
                    violations.append(f"volume {name!r} has no disk")
                    continue
                disk = cloud.disks[assignment.disk]
                if disk.host.index != assignment.host:
                    violations.append(
                        f"volume {name!r}: disk {disk.name} is not on "
                        f"host {cloud.hosts[assignment.host].name}"
                    )
                    continue
                state.place_volume(assignment.disk, node.size_gb)
        except CapacityError as exc:
            violations.append(f"capacity: {exc}")

    # bandwidth, cumulatively over all links
    resolver = PathResolver(cloud)
    for link in topology.links:
        path = resolver.path(
            placement.host_of(link.a), placement.host_of(link.b)
        )
        try:
            state.reserve_path(path, link.bw_mbps)
        except CapacityError as exc:
            violations.append(
                f"bandwidth: link {link.a!r}-{link.b!r}: {exc}"
            )
        if link.max_hops is not None and len(path) > link.max_hops:
            violations.append(
                f"latency: link {link.a!r}-{link.b!r} spans {len(path)} "
                f"hops, bound {link.max_hops}"
            )

    # diversity zones, pairwise
    for zone in topology.zones:
        members = sorted(zone.members)
        for i, first in enumerate(members):
            for second in members[i + 1 :]:
                if not cloud.separated_at(
                    placement.host_of(first),
                    placement.host_of(second),
                    zone.level,
                ):
                    violations.append(
                        f"diversity: zone {zone.name!r} violated by "
                        f"{first!r} and {second!r}"
                    )
    return violations


def validate_placement(
    topology: ApplicationTopology,
    cloud: Cloud,
    base_state: DataCenterState,
    placement: Placement,
) -> None:
    """Raise :class:`PlacementViolation` unless the placement is valid."""
    violations = placement_violations(topology, cloud, base_state, placement)
    if violations:
        raise PlacementViolation(violations)


def state_invariant_violations(state: DataCenterState) -> List[str]:
    """The state's local conservation invariants (empty = OK).

    Delegates to
    :meth:`~repro.datacenter.state.DataCenterState.capacity_invariants`:
    free values within ``[0, nominal]``, non-negative unit counts, down
    elements fully absorbed.
    """
    return state.capacity_invariants()


def conservation_violations(ostro: "Ostro") -> List[str]:
    """Check the live state against baseline-minus-commitments (empty = OK).

    Re-derives, from the scheduler's :attr:`~repro.core.scheduler
    .Ostro.baseline` snapshot and its committed applications, what every
    free array entry should read, and compares against the live state
    (within :data:`EPSILON`, since replay ordering may differ in the last
    float bits). Down hosts/links are compared through their *effective*
    free values -- capacity absorbed while down must still be conserved.

    Any mismatch is a capacity leak: a failed transaction that released
    too little or too much, a double release, or a fault that resurrected
    dead capacity.
    """
    state = ostro.state
    cloud = state.cloud
    cpu0, mem0, disk0, bw0, units0 = ostro.baseline
    placed_cpu = [0.0] * len(cloud.hosts)
    placed_mem = [0.0] * len(cloud.hosts)
    placed_units = [0] * len(cloud.hosts)
    placed_disk = [0.0] * len(cloud.disks)
    placed_bw = [0.0] * cloud.num_links
    for app_name in sorted(ostro.applications):
        deployed = ostro.applications[app_name]
        topology, placement = deployed.topology, deployed.placement
        for name in sorted(topology.nodes):
            node = topology.node(name)
            assignment = placement.assignments[name]
            if node.is_vm:
                placed_cpu[assignment.host] += state.reserved_vcpus(node)
                placed_mem[assignment.host] += node.mem_gb
                placed_units[assignment.host] += 1
            else:
                placed_disk[assignment.disk] += node.size_gb
                placed_units[cloud.disks[assignment.disk].host.index] += 1
        for link in topology.links:
            path = ostro.resolver.path(
                placement.host_of(link.a), placement.host_of(link.b)
            )
            for index in path:
                placed_bw[index] += link.bw_mbps

    violations: List[str] = []
    for i, host in enumerate(cloud.hosts):
        expected_cpu = cpu0[i] - placed_cpu[i]
        actual_cpu = state.effective_free_cpu(i)
        if abs(actual_cpu - expected_cpu) > EPSILON:
            violations.append(
                f"conservation: host {host.name} free cpu {actual_cpu:.6f}, "
                f"expected {expected_cpu:.6f} (leak of "
                f"{actual_cpu - expected_cpu:+.6f} vCPU)"
            )
        expected_mem = mem0[i] - placed_mem[i]
        actual_mem = state.effective_free_mem(i)
        if abs(actual_mem - expected_mem) > EPSILON:
            violations.append(
                f"conservation: host {host.name} free mem {actual_mem:.6f}, "
                f"expected {expected_mem:.6f} (leak of "
                f"{actual_mem - expected_mem:+.6f} GB)"
            )
        expected_units = units0[i] + placed_units[i]
        if state.host_units[i] != expected_units:
            violations.append(
                f"conservation: host {host.name} unit count "
                f"{state.host_units[i]}, expected {expected_units}"
            )
    for j, disk in enumerate(cloud.disks):
        expected_disk = disk0[j] - placed_disk[j]
        actual_disk = state.effective_free_disk(j)
        if abs(actual_disk - expected_disk) > EPSILON:
            violations.append(
                f"conservation: disk {disk.name} free space "
                f"{actual_disk:.6f}, expected {expected_disk:.6f} GB"
            )
    for k in range(cloud.num_links):
        expected_bw = bw0[k] - placed_bw[k]
        actual_bw = state.effective_free_bw(k)
        if abs(actual_bw - expected_bw) > EPSILON:
            violations.append(
                f"conservation: link {cloud.link_names[k]} free bandwidth "
                f"{actual_bw:.6f}, expected {expected_bw:.6f} Mbps"
            )
    return violations
