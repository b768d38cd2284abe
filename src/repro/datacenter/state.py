"""Mutable availability state of a data center.

A :class:`DataCenterState` tracks, in five typed buffers (``array('d')``,
``array('q')`` for the unit counts) indexed by the global indices assigned
in :class:`repro.datacenter.model.Cloud`:

* free vCPUs and memory per host,
* free capacity per disk,
* free bandwidth per network link,
* the number of placed units (VMs or volumes) per host, which defines
  whether a host is *active* (the paper's ``u_c`` counts newly activated
  hosts).

The search algorithms clone states when branching (``clone`` is five
buffer copies) and use reserve/release pairs when walking a single
search path. All mutating operations validate capacity and raise
:class:`repro.errors.CapacityError` on violation, leaving the state
unchanged.

The buffers are the one store: :class:`repro.core.kernel.StateView` is a
zero-copy NumPy view of them, so a write here is visible there with no
bookkeeping. The price is that every write is in place (``a[i] = v``,
``a[:] = same_length_array``): rebinding a column would detach the view,
and an exported buffer cannot change length.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro import obs
from repro.datacenter.model import Cloud

if TYPE_CHECKING:  # pragma: no cover - layering: core imports datacenter
    from repro.core.topology import VM
from repro.datacenter.resources import EPSILON
from repro.errors import CapacityError, DataCenterError, ReproError

#: copies of the five buffers, in :data:`_COLUMNS` order
Snapshot = Tuple[
    "array[float]", "array[float]", "array[float]", "array[float]", "array[int]"
]

_COLUMNS = ("free_cpu", "free_mem", "free_disk", "free_bw", "host_units")


class _DownHost:
    """Capacity absorbed by a failed host (see :meth:`DataCenterState.fail_host`).

    While a host is down its live free arrays read zero; the capacity that
    *would* be free had the host been up accumulates here instead, so
    :meth:`DataCenterState.restore_host` can reconstruct
    ``nominal - still-placed`` exactly.
    """

    __slots__ = ("free_vcpus", "free_mem_gb", "free_disk_gb", "nic_failed")

    def __init__(
        self,
        free_vcpus: float,
        free_mem_gb: float,
        free_disk_gb: Dict[int, float],
        nic_failed: bool,
    ) -> None:
        self.free_vcpus = free_vcpus
        self.free_mem_gb = free_mem_gb
        self.free_disk_gb = free_disk_gb
        self.nic_failed = nic_failed

    def copy(self) -> "_DownHost":
        return _DownHost(
            self.free_vcpus,
            self.free_mem_gb,
            dict(self.free_disk_gb),
            self.nic_failed,
        )


class DataCenterState:
    """Free-capacity bookkeeping for one cloud.

    Args:
        cloud: the static structure this state tracks.
    """

    def __init__(
        self, cloud: Cloud, best_effort_cpu_factor: float = 0.5
    ) -> None:
        self.cloud = cloud
        self.free_cpu = array("d", [h.cpu_cores for h in cloud.hosts])
        self.free_mem = array("d", [h.mem_gb for h in cloud.hosts])
        self.free_disk = array("d", [d.capacity_gb for d in cloud.disks])
        self.free_bw = array("d", cloud.link_capacity_mbps)
        self.host_units = array("q", [0] * len(cloud.hosts))
        #: fraction of its nominal vCPUs a best-effort VM reserves
        #: (Section VI's guaranteed-vs-best-effort CPU reservations)
        self.best_effort_cpu_factor = best_effort_cpu_factor
        # Fault model (repro.faults): capacity absorbed by down elements.
        # Both dicts stay empty in fault-free runs, so the hot-path guards
        # below reduce to one falsy check.
        self._down_hosts: Dict[int, _DownHost] = {}
        self._down_links: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # cloning / snapshots
    # ------------------------------------------------------------------

    def clone(self) -> "DataCenterState":
        """Return an independent copy sharing only the immutable cloud."""
        copy = DataCenterState.__new__(DataCenterState)
        copy.cloud = self.cloud
        copy.free_cpu = self.free_cpu[:]
        copy.free_mem = self.free_mem[:]
        copy.free_disk = self.free_disk[:]
        copy.free_bw = self.free_bw[:]
        copy.host_units = self.host_units[:]
        copy.best_effort_cpu_factor = self.best_effort_cpu_factor
        if self._down_hosts:
            copy._down_hosts = {
                h: rec.copy() for h, rec in self._down_hosts.items()
            }
        else:
            copy._down_hosts = {}
        copy._down_links = dict(self._down_links)
        return copy

    def reserved_vcpus(self, node: "VM") -> float:
        """vCPUs a VM node reserves under its CPU policy."""
        return node.effective_vcpus(self.best_effort_cpu_factor)

    def snapshot(self) -> Snapshot:
        """Copies of the five buffers (treat them as immutable).

        What :meth:`transaction` saves and :meth:`restore` loads; also a
        bit-exact state fingerprint (the conservation baseline, the
        shards' masked views, equality checks in tests).
        """
        return (
            self.free_cpu[:],
            self.free_mem[:],
            self.free_disk[:],
            self.free_bw[:],
            self.host_units[:],
        )

    def restore(self, snapshot: Snapshot) -> None:
        """Load the free arrays from a :meth:`snapshot`, bit-exactly.

        Slot assignment, not arithmetic: undoing ``x - a`` with ``+ a``
        can drift in the last float bit, this cannot. Rolling back a
        failed mutation is :meth:`transaction`'s job; OST009 confines
        direct calls to the state, the coordinator's batch rollback and
        the shards' masked-view load. The snapshot does *not* capture
        down-element bookkeeping (:meth:`transaction` saves it as well).
        A snapshot of another shape (taken on a different cloud) raises
        :class:`DataCenterError` before any slot is written.
        """
        columns = [getattr(self, name) for name in _COLUMNS]
        for name, column, saved in zip(_COLUMNS, columns, snapshot):
            if len(saved) != len(column):
                raise DataCenterError(
                    f"snapshot column {name} has {len(saved)} entries, "
                    f"the state has {len(column)}"
                )
        for column, saved in zip(columns, snapshot):
            if column:  # an exported buffer refuses even a no-op empty write
                column[:] = saved

    def restore_slots(self, saved: Iterable[Tuple[str, int, float]]) -> None:
        """Overwrite single free-array slots with values read earlier.

        ``saved`` holds ``(kind, index, value)`` triples, kind one of
        ``"cpu"``, ``"mem"``, ``"disk"``, ``"bw"``: the bit-exact undo of
        :class:`repro.core.placement.PartialPlacement`, for the same
        reason :meth:`restore` assigns instead of adding back.
        """
        for kind, index, value in saved:
            if kind == "bw":
                self.free_bw[index] = value
            elif kind == "cpu":
                self.free_cpu[index] = value
            elif kind == "mem":
                self.free_mem[index] = value
            elif kind == "disk":
                self.free_disk[index] = value
            else:
                raise ValueError(f"unknown resource kind {kind!r}")

    @contextmanager
    def transaction(self, app: Optional[str] = None) -> Iterator[None]:
        """All-or-nothing scope for a multi-step mutation.

        The one rollback mechanism: *any* exception leaving the block --
        scheduling failure, injected fault, exhausted retries, or a
        non-library error from a wedged surrogate -- puts the state back
        bit-exactly (free arrays and down-element records) and
        propagates. Whole-state snapshots make nesting trivial: an outer
        transaction restores over whatever an inner one left.

        Args:
            app: when given, a rolled-back :class:`ReproError` counts in
                ``ostro_rollbacks_total`` and emits one ``rollback``
                event naming this application.
        """
        saved = self.snapshot()
        down_hosts = {h: r.copy() for h, r in self._down_hosts.items()}
        down_links = dict(self._down_links)
        try:
            yield
        except BaseException as exc:
            self.restore(saved)
            self._down_hosts = down_hosts
            self._down_links = down_links
            if app is not None and isinstance(exc, ReproError):
                rec = obs.get_recorder()
                if rec.enabled:
                    rec.inc("ostro_rollbacks_total")
                    rec.event("rollback", app=app, reason=str(exc))
            raise

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def host_is_active(self, host: int) -> bool:
        """True if the host already runs at least one VM or volume."""
        return self.host_units[host] > 0

    def active_host_indices(self) -> List[int]:
        """Indices of all currently active hosts."""
        return [i for i, units in enumerate(self.host_units) if units > 0]

    def vm_fits(self, host: int, vcpus: float, mem_gb: float) -> bool:
        """True if a VM of the given size fits on the host right now."""
        return (
            vcpus <= self.free_cpu[host] + EPSILON
            and mem_gb <= self.free_mem[host] + EPSILON
        )

    def volume_fits(self, disk: int, size_gb: float) -> bool:
        """True if a volume of the given size fits on the disk right now."""
        return size_gb <= self.free_disk[disk] + EPSILON

    def path_bandwidth_free(self, path: Sequence[int]) -> float:
        """Smallest free bandwidth along a path (inf for the empty path)."""
        if not path:
            return float("inf")
        return min(self.free_bw[link] for link in path)

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------

    def place_vm(self, host: int, vcpus: float, mem_gb: float) -> None:
        """Reserve CPU and memory for a VM on a host."""
        if self._down_hosts and host in self._down_hosts:
            raise CapacityError(
                f"host {self.cloud.hosts[host].name} is down"
            )
        if not self.vm_fits(host, vcpus, mem_gb):
            raise CapacityError(
                f"VM ({vcpus} vCPU, {mem_gb} GB) does not fit on host "
                f"{self.cloud.hosts[host].name}: free "
                f"({self.free_cpu[host]:.2f} vCPU, {self.free_mem[host]:.2f} GB)"
            )
        self.free_cpu[host] -= vcpus
        self.free_mem[host] -= mem_gb
        self.host_units[host] += 1

    def unplace_vm(self, host: int, vcpus: float, mem_gb: float) -> None:
        """Release a VM reservation made with :meth:`place_vm`.

        Releasing on a *down* host absorbs the capacity into the host's
        down record instead of the live free arrays: the capacity died
        with the host and must not become placeable until
        :meth:`restore_host`.
        """
        if self._down_hosts:
            rec = self._down_hosts.get(host)
            if rec is not None:
                rec.free_vcpus += vcpus
                rec.free_mem_gb += mem_gb
                self.host_units[host] -= 1
                if self.host_units[host] < 0:
                    raise CapacityError(
                        "unbalanced unplace_vm on down host "
                        f"{self.cloud.hosts[host].name}"
                    )
                return
        self.free_cpu[host] += vcpus
        self.free_mem[host] += mem_gb
        self.host_units[host] -= 1
        if self.host_units[host] < 0:
            raise CapacityError(
                f"unbalanced unplace_vm on host {self.cloud.hosts[host].name}"
            )

    def place_volume(self, disk: int, size_gb: float) -> None:
        """Reserve disk space for a volume, activating the owning host."""
        if (
            self._down_hosts
            and self.cloud.disks[disk].host.index in self._down_hosts
        ):
            raise CapacityError(
                f"disk {self.cloud.disks[disk].name}: owning host is down"
            )
        if not self.volume_fits(disk, size_gb):
            raise CapacityError(
                f"volume ({size_gb} GB) does not fit on disk "
                f"{self.cloud.disks[disk].name}: free {self.free_disk[disk]:.2f} GB"
            )
        self.free_disk[disk] -= size_gb
        host = self.cloud.disks[disk].host.index
        self.host_units[host] += 1

    def unplace_volume(self, disk: int, size_gb: float) -> None:
        """Release a volume reservation made with :meth:`place_volume`.

        As with :meth:`unplace_vm`, releases on a down host are absorbed
        into the down record rather than returned to the live free space.
        """
        if self._down_hosts:
            owner = self.cloud.disks[disk].host.index
            rec = self._down_hosts.get(owner)
            if rec is not None:
                rec.free_disk_gb[disk] += size_gb
                self.host_units[owner] -= 1
                if self.host_units[owner] < 0:
                    raise CapacityError(
                        "unbalanced unplace_volume on down host "
                        f"{self.cloud.hosts[owner].name}"
                    )
                return
        self.free_disk[disk] += size_gb
        host = self.cloud.disks[disk].host.index
        self.host_units[host] -= 1
        if self.host_units[host] < 0:
            raise CapacityError(
                f"unbalanced unplace_volume on disk {self.cloud.disks[disk].name}"
            )

    def reserve_path(self, path: Iterable[int], mbps: float) -> None:
        """Reserve bandwidth on every link of a path (all-or-nothing)."""
        if mbps <= 0:
            return
        links = list(path)
        for link in links:
            if self.free_bw[link] + EPSILON < mbps:
                raise CapacityError(
                    f"insufficient bandwidth on {self.cloud.link_names[link]}: "
                    f"need {mbps} Mbps, free {self.free_bw[link]:.2f} Mbps"
                )
        for link in links:
            self.free_bw[link] -= mbps

    def release_path(self, path: Iterable[int], mbps: float) -> None:
        """Release bandwidth reserved with :meth:`reserve_path`.

        Bandwidth released on a *down* link (failed switch uplink or a
        crashed host's NIC) is absorbed into the link's down record; it
        becomes free again only on :meth:`restore_link`.
        """
        if mbps <= 0:
            return
        if self._down_links:
            for link in path:
                absorbed = self._down_links.get(link)
                if absorbed is None:
                    self.free_bw[link] += mbps
                else:
                    self._down_links[link] = absorbed + mbps
        else:
            for link in path:
                self.free_bw[link] += mbps

    def can_reserve(self, demand_per_link: dict) -> bool:
        """True if all per-link demands fit simultaneously."""
        return all(
            needed <= self.free_bw[link] + EPSILON
            for link, needed in demand_per_link.items()
        )

    # ------------------------------------------------------------------
    # fault model (used by repro.faults)
    # ------------------------------------------------------------------

    def host_is_down(self, host: int) -> bool:
        """True if the host is currently failed (see :meth:`fail_host`)."""
        return host in self._down_hosts

    def down_hosts(self) -> List[int]:
        """Indices of currently failed hosts, ascending."""
        return sorted(self._down_hosts)

    def down_links(self) -> List[int]:
        """Indices of currently failed links, ascending."""
        return sorted(self._down_links)

    def effective_free_cpu(self, host: int) -> float:
        """Free vCPUs the host has -- or would have, were it not down."""
        rec = self._down_hosts.get(host)
        return self.free_cpu[host] if rec is None else rec.free_vcpus

    def effective_free_mem(self, host: int) -> float:
        """Free memory (GB) the host has, counting absorbed-while-down."""
        rec = self._down_hosts.get(host)
        return self.free_mem[host] if rec is None else rec.free_mem_gb

    def effective_free_disk(self, disk: int) -> float:
        """Free space (GB) of a disk, counting absorbed-while-down."""
        rec = self._down_hosts.get(self.cloud.disks[disk].host.index)
        if rec is None:
            return self.free_disk[disk]
        return rec.free_disk_gb.get(disk, 0.0)

    def effective_free_bw(self, link: int) -> float:
        """Free bandwidth (Mbps) of a link, counting absorbed-while-down."""
        absorbed = self._down_links.get(link)
        return self.free_bw[link] if absorbed is None else absorbed

    def fail_host(self, host: int) -> None:
        """Crash a host.

        Its free CPU/memory and the free space of its local disks drop to
        zero (absorbed into a down record), and its NIC link is failed, so
        every placement path — all of which check the free arrays — avoids
        the host with no algorithm changes. VMs/volumes already placed on
        the host remain recorded; evacuating them is the caller's job
        (see :func:`repro.core.online.evacuate_host`).
        """
        if host in self._down_hosts:
            raise DataCenterError(
                f"host {self.cloud.hosts[host].name} is already down"
            )
        host_obj = self.cloud.hosts[host]
        free_disk_gb: Dict[int, float] = {}
        for d in host_obj.disks:
            free_disk_gb[d.index] = self.free_disk[d.index]
            self.free_disk[d.index] = 0.0
        # Fail the NIC only if it is not already down (e.g. via an explicit
        # fail_link), and remember which, so restore_host undoes exactly
        # what fail_host did.
        nic_failed = host_obj.link_index not in self._down_links
        record = _DownHost(
            self.free_cpu[host], self.free_mem[host], free_disk_gb, nic_failed
        )
        self.free_cpu[host] = 0.0
        self.free_mem[host] = 0.0
        if nic_failed:
            self.fail_link(host_obj.link_index)
        self._down_hosts[host] = record

    def restore_host(self, host: int) -> None:
        """Bring a failed host back, bit-exactly.

        The free values recorded at :meth:`fail_host`, plus anything
        absorbed by releases while down, are assigned back into the live
        arrays (slot assignment, not arithmetic, so a fail/restore pair is
        a bit-exact no-op on an otherwise untouched state).
        """
        record = self._down_hosts.pop(host, None)
        if record is None:
            raise DataCenterError(
                f"host {self.cloud.hosts[host].name} is not down"
            )
        self.free_cpu[host] = record.free_vcpus
        self.free_mem[host] = record.free_mem_gb
        for disk, free in record.free_disk_gb.items():
            self.free_disk[disk] = free
        if record.nic_failed:
            self.restore_link(self.cloud.hosts[host].link_index)

    def fail_link(self, link: int) -> None:
        """Fail a network link: its free bandwidth drops to zero.

        Failing a ToR uplink or pod uplink cuts all cross-subtree traffic
        through that switch, since every path crossing it reserves on this
        link index. Existing reservations remain accounted; releases while
        down are absorbed (:meth:`release_path`).
        """
        if link in self._down_links:
            raise DataCenterError(
                f"link {self.cloud.link_names[link]} is already down"
            )
        self._down_links[link] = self.free_bw[link]
        self.free_bw[link] = 0.0

    def restore_link(self, link: int) -> None:
        """Bring a failed link back with its absorbed free bandwidth."""
        absorbed = self._down_links.pop(link, None)
        if absorbed is None:
            raise DataCenterError(
                f"link {self.cloud.link_names[link]} is not down"
            )
        self.free_bw[link] = absorbed

    def capacity_invariants(self) -> List[str]:
        """Check conservation invariants; return violations (empty = OK).

        Catches capacity leaks: free values outside ``[0, nominal]``
        (beyond :data:`EPSILON`), negative unit counts, and down elements
        whose live free capacity was resurrected while they were down.
        Called by :func:`repro.core.validate.state_invariant_violations`
        and after every event in chaos runs.
        """
        problems: List[str] = []
        cloud = self.cloud
        for i, host in enumerate(cloud.hosts):
            rec = self._down_hosts.get(i)
            if rec is not None:
                if self.free_cpu[i] != 0.0 or self.free_mem[i] != 0.0:
                    problems.append(
                        f"down host {host.name} has non-zero live free "
                        f"cpu/mem ({self.free_cpu[i]}, {self.free_mem[i]})"
                    )
                if rec.free_vcpus > host.cpu_cores + EPSILON:
                    problems.append(
                        f"down host {host.name}: absorbed free cpu "
                        f"{rec.free_vcpus:.4f} exceeds nominal {host.cpu_cores}"
                    )
                if rec.free_mem_gb > host.mem_gb + EPSILON:
                    problems.append(
                        f"down host {host.name}: absorbed free mem "
                        f"{rec.free_mem_gb:.4f} exceeds nominal {host.mem_gb}"
                    )
                if rec.free_vcpus < -EPSILON or rec.free_mem_gb < -EPSILON:
                    problems.append(
                        f"down host {host.name}: negative absorbed free "
                        f"({rec.free_vcpus:.4f} vCPU, {rec.free_mem_gb:.4f} GB)"
                    )
            else:
                if self.free_cpu[i] < -EPSILON:
                    problems.append(
                        f"host {host.name}: negative free cpu "
                        f"{self.free_cpu[i]:.4f}"
                    )
                if self.free_cpu[i] > host.cpu_cores + EPSILON:
                    problems.append(
                        f"host {host.name}: free cpu {self.free_cpu[i]:.4f} "
                        f"exceeds nominal {host.cpu_cores}"
                    )
                if self.free_mem[i] < -EPSILON:
                    problems.append(
                        f"host {host.name}: negative free mem "
                        f"{self.free_mem[i]:.4f}"
                    )
                if self.free_mem[i] > host.mem_gb + EPSILON:
                    problems.append(
                        f"host {host.name}: free mem {self.free_mem[i]:.4f} "
                        f"exceeds nominal {host.mem_gb}"
                    )
            if self.host_units[i] < 0:
                problems.append(
                    f"host {host.name}: negative unit count "
                    f"{self.host_units[i]}"
                )
        for j, disk in enumerate(cloud.disks):
            owner_rec = self._down_hosts.get(disk.host.index)
            if owner_rec is not None:
                if self.free_disk[j] != 0.0:
                    problems.append(
                        f"disk {disk.name} on down host has non-zero live "
                        f"free space {self.free_disk[j]}"
                    )
                absorbed = owner_rec.free_disk_gb.get(j, 0.0)
                if absorbed < -EPSILON or absorbed > disk.capacity_gb + EPSILON:
                    problems.append(
                        f"disk {disk.name}: absorbed free {absorbed:.4f} GB "
                        f"outside [0, {disk.capacity_gb}]"
                    )
            else:
                if self.free_disk[j] < -EPSILON:
                    problems.append(
                        f"disk {disk.name}: negative free space "
                        f"{self.free_disk[j]:.4f}"
                    )
                if self.free_disk[j] > disk.capacity_gb + EPSILON:
                    problems.append(
                        f"disk {disk.name}: free space {self.free_disk[j]:.4f} "
                        f"exceeds nominal {disk.capacity_gb}"
                    )
        for k, nominal in enumerate(cloud.link_capacity_mbps):
            absorbed_bw = self._down_links.get(k)
            if absorbed_bw is not None:
                if self.free_bw[k] != 0.0:
                    problems.append(
                        f"down link {cloud.link_names[k]} has non-zero live "
                        f"free bandwidth {self.free_bw[k]}"
                    )
                if absorbed_bw < -EPSILON or absorbed_bw > nominal + EPSILON:
                    problems.append(
                        f"down link {cloud.link_names[k]}: absorbed free "
                        f"{absorbed_bw:.4f} Mbps outside [0, {nominal}]"
                    )
            else:
                if self.free_bw[k] < -EPSILON:
                    problems.append(
                        f"link {cloud.link_names[k]}: negative free "
                        f"bandwidth {self.free_bw[k]:.4f}"
                    )
                if self.free_bw[k] > nominal + EPSILON:
                    problems.append(
                        f"link {cloud.link_names[k]}: free bandwidth "
                        f"{self.free_bw[k]:.4f} exceeds nominal {nominal}"
                    )
        return problems

    # ------------------------------------------------------------------
    # background load (used by loadgen and tests)
    # ------------------------------------------------------------------

    def consume_background(
        self,
        host: int,
        vcpus: float = 0.0,
        mem_gb: float = 0.0,
        nic_mbps: float = 0.0,
        count_as_unit: bool = True,
    ) -> None:
        """Install synthetic pre-existing load on a host.

        Used to reproduce the paper's non-uniform availability scenarios.
        The load reserves host resources and NIC bandwidth, and (by default)
        marks the host active, exactly as a previously placed tenant would.
        """
        host_obj = self.cloud.hosts[host]
        if vcpus or mem_gb:
            self.place_vm(host, vcpus, mem_gb)
            if not count_as_unit:
                self.host_units[host] -= 1
        if nic_mbps:
            self.reserve_path((host_obj.link_index,), nic_mbps)
