"""Placements and incremental placement state.

Two layers live here:

* :class:`PartialPlacement` -- the mutable object the search algorithms work
  on. It owns a :class:`~repro.datacenter.state.DataCenterState` clone and
  applies/undoes one node assignment at a time, incrementally maintaining
  the two usage totals of the objective (``u_bw`` reserved bandwidth and
  ``u_c`` newly activated hosts).
* :class:`Placement` -- the immutable result handed back to callers: the
  node -> (host, disk) mapping plus the accounting needed for the paper's
  tables (reserved bandwidth, newly active hosts, hosts used).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.topology import ApplicationTopology
from repro.datacenter.network import PathResolver
from repro.datacenter.state import DataCenterState
from repro.errors import CapacityError, PlacementError


@dataclass(frozen=True)
class Assignment:
    """Final location of one topology node.

    Attributes:
        node: node name.
        host: global host index.
        disk: global disk index for volumes, None for VMs.
    """

    node: str
    host: int
    disk: Optional[int] = None


@dataclass(frozen=True)
class Placement:
    """An immutable, fully accounted placement of a topology.

    Attributes:
        app_name: name of the placed application topology.
        assignments: node name -> :class:`Assignment`.
        reserved_bw_mbps: total bandwidth reserved across all links (u_bw).
        new_active_hosts: hosts activated by this placement (u_c).
        hosts_used: distinct hosts that received at least one node.
    """

    app_name: str
    assignments: Dict[str, Assignment]
    reserved_bw_mbps: float
    new_active_hosts: int
    hosts_used: int

    def host_of(self, node: str) -> int:
        """Host index assigned to a node."""
        return self.assignments[node].host

    def disk_of(self, node: str) -> Optional[int]:
        """Disk index assigned to a node (None for VMs)."""
        return self.assignments[node].disk


@dataclass
class _AppliedNode:
    """Undo record for one applied assignment.

    ``saved`` holds ``(kind, index, value)`` triples capturing the exact
    float stored in each touched state slot *before* this assignment
    mutated it (kinds: ``"cpu"``, ``"mem"``, ``"disk"``, ``"bw"``), and
    ``prev_ubw`` the accumulated bandwidth total before it. Restoring
    these on a LIFO undo makes assign/undo bit-exact: ``(a - v) + v`` is
    not guaranteed to equal ``a`` in IEEE arithmetic, so scratch-state
    scoring (assign, estimate, unassign on one shared object) would
    otherwise drift away from the clone-per-candidate state it must
    reproduce.
    """

    node: str
    host: int
    disk: Optional[int]
    flows: List[Tuple[Tuple[int, ...], float]] = field(default_factory=list)
    added_ubw: float = 0.0
    activated: bool = False
    saved: List[Tuple[str, int, float]] = field(default_factory=list)
    prev_ubw: float = 0.0
    seq: int = 0


class PartialPlacement:
    """Mutable placement-in-progress over a private state clone.

    Args:
        topology: the application being placed.
        state: availability state to build on; cloned unless ``own_state``
            is True (search code passes pre-cloned states to avoid copies).
        resolver: shared path resolver (memoized per cloud).
        own_state: when True, ``state`` is adopted without cloning.
    """

    def __init__(
        self,
        topology: ApplicationTopology,
        state: DataCenterState,
        resolver: PathResolver,
        own_state: bool = False,
    ) -> None:
        self.topology = topology
        self.state = state if own_state else state.clone()
        self.resolver = resolver
        self.assignments: Dict[str, Assignment] = {}
        self.ubw: float = 0.0
        self.newly_activated: Set[int] = set()
        self._applied: Dict[str, _AppliedNode] = {}
        # Monotonic assignment counter and exactness watermark: records
        # with seq <= _exact_floor lost bit-exact undo validity because an
        # out-of-order unassign happened after them (their saved slot
        # values may embed a since-reversed reservation).
        self._seq: int = 0
        self._exact_floor: int = -1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def uc(self) -> int:
        """Number of hosts this placement has newly activated."""
        return len(self.newly_activated)

    def is_placed(self, node: str) -> bool:
        """True if the node has been assigned."""
        return node in self.assignments

    def host_of(self, node: str) -> int:
        """Host index of an already placed node."""
        return self.assignments[node].host

    def placed_hosts(self) -> Set[int]:
        """Distinct host indices used so far."""
        return {a.host for a in self.assignments.values()}

    def placement_key(self) -> frozenset:
        """Hashable identity of the assignment set (for A* closed sets)."""
        return frozenset(
            (a.node, a.host, a.disk) for a in self.assignments.values()
        )

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def assign(self, node_name: str, host: int, disk: Optional[int] = None) -> None:
        """Place one node, reserving resources and neighbor bandwidth.

        Reserves host CPU/memory (VM) or disk capacity (volume), then
        bandwidth on the path to every *already placed* neighbor. The whole
        operation is atomic: on any capacity failure everything reserved so
        far is rolled back and :class:`PlacementError` is raised.
        """
        if node_name in self.assignments:
            raise PlacementError(f"node {node_name!r} is already placed")
        node = self.topology.node(node_name)
        record = _AppliedNode(node=node_name, host=host, disk=disk)
        state = self.state
        was_active = state.host_is_active(host)
        try:
            if node.is_vm:
                record.saved.append(("cpu", host, state.free_cpu[host]))
                record.saved.append(("mem", host, state.free_mem[host]))
                state.place_vm(host, state.reserved_vcpus(node), node.mem_gb)
            else:
                if disk is None:
                    raise PlacementError(
                        f"volume {node_name!r} needs a disk assignment"
                    )
                if state.cloud.disks[disk].host.index != host:
                    raise PlacementError(
                        f"disk {disk} does not belong to host {host}"
                    )
                record.saved.append(("disk", disk, state.free_disk[disk]))
                state.place_volume(disk, node.size_gb)
        except CapacityError as exc:
            record.saved.clear()
            raise PlacementError(str(exc), node_name=node_name) from exc

        touched_links: Set[int] = set()
        try:
            for neighbor, bw_mbps in self.topology.neighbors(node_name):
                placed = self.assignments.get(neighbor)
                if placed is None or bw_mbps <= 0:
                    continue
                path = self.resolver.path(host, placed.host)
                for link in path:
                    if link not in touched_links:
                        touched_links.add(link)
                        record.saved.append(("bw", link, state.free_bw[link]))
                self.state.reserve_path(path, bw_mbps)
                record.flows.append((path, bw_mbps))
                record.added_ubw += bw_mbps * len(path)
        except CapacityError as exc:
            # roll back everything this call reserved, bit-exactly
            for path, bw_mbps in record.flows:
                self.state.release_path(path, bw_mbps)
            if node.is_vm:
                self.state.unplace_vm(
                    host, self.state.reserved_vcpus(node), node.mem_gb
                )
            else:
                self.state.unplace_volume(disk, node.size_gb)
            self.state.restore_slots(record.saved)
            raise PlacementError(str(exc), node_name=node_name) from exc

        if not was_active:
            record.activated = True
            self.newly_activated.add(host)
        record.prev_ubw = self.ubw
        self.ubw += record.added_ubw
        self._seq += 1
        record.seq = self._seq
        self.assignments[node_name] = Assignment(node_name, host, disk)
        self._applied[node_name] = record

    def unassign(self, node_name: str) -> None:
        """Undo a previous :meth:`assign`, restoring the state exactly.

        When the node is the most recently assigned one and no
        out-of-order undo happened since its assignment (the only pattern
        the search loops use), every touched float slot is overwritten
        with the exact value saved at assign time, so an assign/unassign
        pair is a bit-exact no-op on the state. Out-of-order undo falls
        back to arithmetic reversal, which is correct up to float
        round-off -- and poisons the saved values of every still-applied
        later record (they may embed the reversed reservation), so those
        also fall back.
        """
        record = self._applied.get(node_name)
        if record is None:
            raise PlacementError(f"node {node_name!r} is not placed")
        is_last = record.seq == self._seq and record.seq > self._exact_floor
        del self._applied[node_name]
        del self.assignments[node_name]
        if is_last:
            self._seq = record.seq - 1
        elif self._applied:
            # out-of-order undo: later records lose exact-undo validity
            self._exact_floor = max(
                self._exact_floor,
                max(r.seq for r in self._applied.values()),
            )
        node = self.topology.node(node_name)
        for path, bw_mbps in record.flows:
            self.state.release_path(path, bw_mbps)
        if node.is_vm:
            self.state.unplace_vm(
                record.host, self.state.reserved_vcpus(node), node.mem_gb
            )
        else:
            self.state.unplace_volume(record.disk, node.size_gb)
        if is_last:
            self.state.restore_slots(record.saved)
            self.ubw = record.prev_ubw
        else:
            self.ubw -= record.added_ubw
        if record.activated:
            self.newly_activated.discard(record.host)

    def clone(self) -> "PartialPlacement":
        """Independent copy (state, assignments, accounting) for branching."""
        copy = PartialPlacement.__new__(PartialPlacement)
        copy.topology = self.topology
        copy.state = self.state.clone()
        copy.resolver = self.resolver
        copy.assignments = dict(self.assignments)
        copy.ubw = self.ubw
        copy.newly_activated = set(self.newly_activated)
        copy._applied = dict(self._applied)
        copy._seq = self._seq
        copy._exact_floor = self._exact_floor
        return copy

    # ------------------------------------------------------------------
    # finalization
    # ------------------------------------------------------------------

    def freeze(self) -> Placement:
        """Produce the immutable :class:`Placement` summary."""
        return Placement(
            app_name=self.topology.name,
            assignments=dict(self.assignments),
            reserved_bw_mbps=self.ubw,
            new_active_hosts=self.uc,
            hosts_used=len(self.placed_hosts()),
        )
