"""Feasibility checks for placing one node (Section II-B2).

Three constraint families gate every candidate host:

* **capacity** -- vCPU/memory for VMs, disk space for volumes;
* **diversity** -- for every diversity zone the node belongs to, the
  candidate host must be separated from every already placed member at the
  zone's level;
* **bandwidth** -- every link on the path to every already placed neighbor
  must have enough free capacity, *cumulatively* across neighbors (two
  flows leaving the same NIC share that NIC's headroom).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.placement import PartialPlacement
from repro.core.topology import ApplicationTopology
from repro.datacenter.resources import EPSILON


def capacity_ok(
    partial: PartialPlacement,
    node_name: str,
    host: int,
    disk: Optional[int] = None,
) -> bool:
    """True if the node's CPU/memory (VM) or disk space (volume) fits."""
    node = partial.topology.node(node_name)
    if node.is_vm:
        return partial.state.vm_fits(
            host, partial.state.reserved_vcpus(node), node.mem_gb
        )
    if disk is None:
        return False
    return partial.state.volume_fits(disk, node.size_gb)


def diversity_ok(
    partial: PartialPlacement,
    node_name: str,
    host: int,
) -> bool:
    """True if all diversity zones of the node tolerate this host.

    Checks the candidate against every *already placed* member of every
    zone containing the node: the pair must be separated at the zone's
    level (different hosts / racks / pods / data centers).
    """
    cloud = partial.state.cloud
    for zone in partial.topology.zones_of(node_name):
        for member in zone.members:
            if member == node_name:
                continue
            assigned = partial.assignments.get(member)
            if assigned is None:
                continue
            if not cloud.separated_at(host, assigned.host, zone.level):
                return False
    return True


def bandwidth_demand(
    partial: PartialPlacement,
    node_name: str,
    host: int,
) -> Dict[int, float]:
    """Per-link bandwidth the node would reserve if placed on ``host``.

    Aggregates flows to every already placed neighbor, summing demand on
    shared links so the subsequent feasibility check is cumulative.
    """
    demand: Dict[int, float] = {}
    for neighbor, bw_mbps in partial.topology.neighbors(node_name):
        if bw_mbps <= 0:
            continue
        assigned = partial.assignments.get(neighbor)
        if assigned is None:
            continue
        for link in partial.resolver.path(host, assigned.host):
            demand[link] = demand.get(link, 0.0) + bw_mbps
    return demand


def bandwidth_ok(
    partial: PartialPlacement,
    node_name: str,
    host: int,
) -> bool:
    """True if all paths to placed neighbors have enough free bandwidth."""
    demand = bandwidth_demand(partial, node_name, host)
    free = partial.state.free_bw
    return all(needed <= free[link] + EPSILON for link, needed in demand.items())


def latency_ok(
    partial: PartialPlacement,
    node_name: str,
    host: int,
) -> bool:
    """True if every latency-bounded pipe to a placed neighbor holds.

    A pipe's ``max_hops`` caps the number of network links between its
    endpoints' hosts (the Section-VI latency requirement, with hop count
    as the fabric's latency proxy).
    """
    topology = partial.topology
    for neighbor, _ in topology.neighbors(node_name):
        assigned = partial.assignments.get(neighbor)
        if assigned is None:
            continue
        link = topology.link_between(node_name, neighbor)
        if link is None or link.max_hops is None:
            continue
        if len(partial.resolver.path(host, assigned.host)) > link.max_hops:
            return False
    return True


class NodeConstraintContext:
    """Host-independent constraint setup for one (partial, node) pair.

    Candidate generation checks the same node against hundreds of hosts;
    everything that does not depend on the candidate host -- which
    neighbors are placed and where, which zone members are placed, which
    pipes carry latency bounds -- is identical across those checks. This
    context hoists that setup out of the per-host loop; ``diversity_ok`` /
    ``latency_ok`` / ``bandwidth_ok`` then reduce to short loops over
    precollected (placed host, parameter) pairs, each exactly equivalent
    to its module-level namesake.
    """

    def __init__(self, partial: PartialPlacement, node_name: str) -> None:
        self.partial = partial
        topology = partial.topology
        assignments = partial.assignments
        #: (placed neighbor host, flow Mbps) for every positive-bandwidth
        #: link to an already placed neighbor
        self.flows: List[Tuple[int, float]] = []
        #: (placed neighbor host, max hops) for every latency-bounded pipe
        self.hop_limits: List[Tuple[int, int]] = []
        for neighbor, bw_mbps in topology.neighbors(node_name):
            assigned = assignments.get(neighbor)
            if assigned is None:
                continue
            if bw_mbps > 0:
                self.flows.append((assigned.host, bw_mbps))
            link = topology.link_between(node_name, neighbor)
            if link is not None and link.max_hops is not None:
                self.hop_limits.append((assigned.host, link.max_hops))
        #: (placed zone-member host, separation level) pairs
        self.separations: List[Tuple[int, object]] = []
        for zone in topology.zones_of(node_name):
            for member in zone.members:
                if member == node_name:
                    continue
                assigned = assignments.get(member)
                if assigned is not None:
                    self.separations.append((assigned.host, zone.level))

    def diversity_ok(self, host: int) -> bool:
        """Equivalent of :func:`diversity_ok` for this node."""
        if not self.separations:
            return True
        separated_at = self.partial.state.cloud.separated_at
        return all(
            separated_at(host, member_host, level)
            for member_host, level in self.separations
        )

    def latency_ok(self, host: int) -> bool:
        """Equivalent of :func:`latency_ok` for this node."""
        if not self.hop_limits:
            return True
        hop_count = self.partial.resolver.hop_count
        return all(
            hop_count(host, neighbor_host) <= max_hops
            for neighbor_host, max_hops in self.hop_limits
        )

    def bandwidth_ok(self, host: int) -> bool:
        """Equivalent of :func:`bandwidth_ok` for this node."""
        if not self.flows:
            return True
        path = self.partial.resolver.path
        demand: Dict[int, float] = {}
        for neighbor_host, bw_mbps in self.flows:
            for link in path(host, neighbor_host):
                demand[link] = demand.get(link, 0.0) + bw_mbps
        free = self.partial.state.free_bw
        return all(
            needed <= free[link] + EPSILON for link, needed in demand.items()
        )


def feasible(
    partial: PartialPlacement,
    node_name: str,
    host: int,
    disk: Optional[int] = None,
) -> bool:
    """All constraint families at once (capacity first: cheapest)."""
    return (
        capacity_ok(partial, node_name, host, disk)
        and diversity_ok(partial, node_name, host)
        and latency_ok(partial, node_name, host)
        and bandwidth_ok(partial, node_name, host)
    )


def topology_obviously_infeasible(
    topology: ApplicationTopology,
    partial: PartialPlacement,
) -> Optional[str]:
    """Cheap necessary-condition screen run before any search.

    Returns a human-readable reason when some node can never be placed on
    *any* host of an empty version of this cloud (VM larger than the
    biggest host, volume larger than the biggest disk, diversity zone wider
    than the number of separable units), or None when no obvious blocker
    exists. This keeps search algorithms from burning their budget on
    impossible inputs.
    """
    cloud = partial.state.cloud
    max_cpu, max_mem, max_disk, _ = cloud.largest_host()
    for name, node in topology.nodes.items():
        if node.is_vm:
            if node.vcpus > max_cpu or node.mem_gb > max_mem:
                return (
                    f"VM {name!r} ({node.vcpus} vCPU / {node.mem_gb} GB) "
                    "exceeds the largest host in the cloud"
                )
        elif node.size_gb > max_disk:
            return (
                f"volume {name!r} ({node.size_gb} GB) exceeds the largest "
                "disk in the cloud"
            )
    unit_counts = {
        0: len(cloud.hosts),
        1: len(cloud.racks),
        2: len(cloud.pods) if cloud.pods else len(cloud.racks),
        3: len(cloud.datacenters),
    }
    for zone in topology.zones:
        separable = unit_counts[int(zone.level)]
        if len(zone.members) > separable:
            return (
                f"diversity zone {zone.name!r} needs {len(zone.members)} "
                f"{zone.level.name.lower()}-separated nodes but the cloud "
                f"only has {separable}"
            )
    return None
