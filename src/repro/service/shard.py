"""Pod shards: per-pod search domains for the sharded coordinator.

A :class:`PodShard` wraps one pod's hosts (or one rack's, in pod-less
data centers, where each rack acts as its own implicit pod -- see
:mod:`repro.datacenter.model`) behind a private
:class:`~repro.core.scheduler.Ostro` whose state is a *masked view* of
the coordinator's global state: before every search the shard state is
restored from a global snapshot with every out-of-shard host's free CPU,
memory, and disk zeroed. The search algorithms only ever consult the
free arrays, so zeroing is enough to confine the search to the shard --
no algorithm changes, and no resource-array writes outside the state
itself (the masked snapshot is fresh buffers fed to
:meth:`~repro.datacenter.state.DataCenterState.restore`).

Shards never commit: they return candidate placements that the
coordinator commits into the single global state (one source of truth,
one transactional boundary). Because placement algorithms never mutate
the state they search (:meth:`repro.core.base.PlacementAlgorithm.place`),
the shard scratch state must still equal its sync point after every
search; :meth:`PodShard.scratch_violations` audits exactly that across
the shard boundary.
"""

from __future__ import annotations

from array import array
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro.core.base import PlacementResult
from repro.core.greedy import GreedyConfig
from repro.core.scheduler import Ostro
from repro.core.topology import ApplicationTopology
from repro.datacenter.model import Cloud, Level
from repro.datacenter.state import DataCenterState, Snapshot


def _keep(column: "array[float]", slots: Iterable[int]) -> "array[float]":
    """A zeroed copy of ``column`` that keeps only the given slots."""
    masked = array("d", [0.0]) * len(column)
    for slot in slots:
        masked[slot] = column[slot]
    return masked


class PodShard:
    """One pod-scoped search domain.

    Args:
        shard_id: dense shard index (tie-breaker in routing order).
        name: human-readable shard name (the pod or rack name).
        cloud: the shared physical structure.
        host_indices: global indices of the hosts this shard owns.
        theta_bw / theta_c / greedy_config: forwarded to the shard's
            private :class:`Ostro` so shard searches score exactly like
            global ones.
        best_effort_cpu_factor: CPU-policy factor of the global state,
            mirrored so reservation arithmetic matches.
    """

    def __init__(
        self,
        shard_id: int,
        name: str,
        cloud: Cloud,
        host_indices: Sequence[int],
        theta_bw: float = 0.6,
        theta_c: float = 0.4,
        greedy_config: Optional[GreedyConfig] = None,
        best_effort_cpu_factor: float = 0.5,
    ) -> None:
        self.shard_id = shard_id
        self.name = name
        self.cloud = cloud
        self.hosts: Tuple[int, ...] = tuple(sorted(host_indices))
        self._host_set = frozenset(self.hosts)
        self.disks: Tuple[int, ...] = tuple(
            disk.index for h in self.hosts for disk in cloud.hosts[h].disks
        )
        self.racks: Tuple[int, ...] = tuple(
            sorted({cloud.hosts[h].rack.index for h in self.hosts})
        )
        self.nominal_cpu = sum(cloud.hosts[h].cpu_cores for h in self.hosts)
        self.state = DataCenterState(
            cloud, best_effort_cpu_factor=best_effort_cpu_factor
        )
        self.ostro = Ostro(
            cloud,
            state=self.state,
            theta_bw=theta_bw,
            theta_c=theta_c,
            greedy_config=greedy_config,
        )
        self.searches = 0
        self._last_sync: Optional[Snapshot] = None

    # ------------------------------------------------------------------
    # masked view
    # ------------------------------------------------------------------

    def masked_snapshot(self, snapshot: Snapshot) -> Snapshot:
        """A global state snapshot with out-of-shard capacity zeroed.

        Free CPU/memory of foreign hosts and free space of foreign disks
        drop to zero, so no search step can place there; bandwidth and
        unit counts keep their global values (a shard placement still
        reserves real uplink bandwidth, and host activity is a global
        fact the objective's u_c term must see).
        """
        cpu, mem, disk, bw, units = snapshot
        return (
            _keep(cpu, self.hosts),
            _keep(mem, self.hosts),
            _keep(disk, self.disks),
            bw,
            units,
        )

    def sync(self, snapshot: Snapshot) -> None:
        """Refresh the shard's scratch state from a global snapshot."""
        masked = self.masked_snapshot(snapshot)
        self.state.restore(masked)
        self._last_sync = masked

    # ------------------------------------------------------------------
    # routing inputs
    # ------------------------------------------------------------------

    def owns_host(self, host: int) -> bool:
        """True when the given global host index belongs to this shard."""
        return host in self._host_set

    def load(self, global_state: DataCenterState) -> float:
        """Used-CPU fraction over the shard's hosts (routing metric)."""
        free = sum(global_state.free_cpu[h] for h in self.hosts)
        if self.nominal_cpu <= 0:
            return 1.0
        return 1.0 - free / self.nominal_cpu

    def screen(
        self, topology: ApplicationTopology, global_state: DataCenterState
    ) -> Optional[str]:
        """Cheap infeasibility screen; None means "worth searching here".

        Checks structural fit (diversity zones the shard cannot satisfy)
        and aggregate capacity. The screen is conservative: passing it
        does not guarantee a feasible placement (the search still
        decides), but a rejection is definite.
        """
        for zone in topology.zones:
            if zone.level >= Level.POD:
                return "needs_pod_separation"
            if zone.level == Level.RACK and len(zone.members) > len(self.racks):
                return "insufficient_racks"
            if zone.level == Level.HOST and len(zone.members) > len(self.hosts):
                return "insufficient_hosts"
        free_cpu = [global_state.free_cpu[h] for h in self.hosts]
        free_mem = [global_state.free_mem[h] for h in self.hosts]
        need_cpu = 0.0
        need_mem = 0.0
        widest: Optional[Tuple[float, float]] = None
        for node in topology.vms():
            vcpus = global_state.reserved_vcpus(node)
            need_cpu += vcpus
            need_mem += node.mem_gb
            if widest is None or vcpus > widest[0]:
                widest = (vcpus, node.mem_gb)
        if need_cpu > sum(free_cpu) or need_mem > sum(free_mem):
            return "insufficient_capacity"
        if widest is not None and not any(
            c >= widest[0] and m >= widest[1]
            for c, m in zip(free_cpu, free_mem)
        ):
            return "largest_vm_does_not_fit"
        volumes = topology.volumes()
        if volumes:
            free_disk = [global_state.free_disk[d] for d in self.disks]
            if sum(v.size_gb for v in volumes) > sum(free_disk):
                return "insufficient_disk"
            biggest = max(v.size_gb for v in volumes)
            if not any(f >= biggest for f in free_disk):
                return "largest_volume_does_not_fit"
        return None

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    def search(
        self,
        snapshot: Snapshot,
        topology: ApplicationTopology,
        algorithm: str = "eg",
        **options: Any,
    ) -> PlacementResult:
        """Search for a placement confined to this shard (no commit).

        The shard state is re-synced from ``snapshot`` first, so the
        search always sees the current global truth (masked to the
        shard). Raises :class:`~repro.errors.PlacementError` when the
        shard cannot host the topology.
        """
        self.sync(snapshot)
        self.searches += 1
        return self.ostro.place(
            topology, algorithm=algorithm, commit=False, **options
        )

    def scratch_violations(self) -> List[str]:
        """Audit the shard boundary: scratch state equals its sync point.

        Search algorithms must not mutate the state they were handed; a
        drifted scratch state means shard-local search work leaked across
        the boundary. Returns findings (empty = clean).
        """
        if self._last_sync is None:
            return []
        if self.state.snapshot() != self._last_sync:
            return [
                f"shard {self.name}: scratch state drifted from its "
                f"sync point after {self.searches} searches"
            ]
        return []


def build_shards(
    cloud: Cloud,
    theta_bw: float = 0.6,
    theta_c: float = 0.4,
    greedy_config: Optional[GreedyConfig] = None,
    best_effort_cpu_factor: float = 0.5,
) -> List[PodShard]:
    """Partition a cloud into pod shards.

    Podded data centers get one shard per pod; pod-less data centers get
    one shard per rack (each rack is its own implicit pod, matching
    :meth:`repro.datacenter.model.Cloud.distance`). Mixed clouds get
    both. Shard ids follow pod/rack indexing order, so the partition is
    deterministic for a given cloud spec.
    """
    domains: List[Tuple[str, List[int]]] = []
    for pod in cloud.pods:
        hosts = [h.index for rack in pod.racks for h in rack.hosts]
        domains.append((pod.name, hosts))
    for dc in cloud.datacenters:
        for rack in dc.racks:  # pod-less racks attach straight to the root
            domains.append((rack.name, [h.index for h in rack.hosts]))
    shards: List[PodShard] = []
    for shard_id, (name, hosts) in enumerate(domains):
        shards.append(
            PodShard(
                shard_id,
                name,
                cloud,
                hosts,
                theta_bw=theta_bw,
                theta_c=theta_c,
                greedy_config=greedy_config,
                best_effort_cpu_factor=best_effort_cpu_factor,
            )
        )
    return shards

