"""Static structure of a hierarchical data center (paper Fig. 3).

The physical hierarchy is::

    Cloud (root / WAN interconnect)
      DataCenter (root switch)
        [Pod (pod switch)]      -- optional layer; the paper's simulation
          Rack (ToR switch)     --   omits pods "for simplicity"
            Host
              Disk(s)

Each element that carries network traffic owns an *uplink*: hosts have a NIC
link to their ToR switch, racks an uplink to the pod switch (or directly to
the data-center root when pods are absent), pods an uplink to the root, and
data centers an uplink into the cloud interconnect. Every such link gets a
global integer index so the mutable availability state
(:mod:`repro.datacenter.state`) can track free bandwidth in a flat array.

Separation levels
-----------------

:class:`Level` enumerates the diversity-zone levels of the paper (host,
rack, pod, data center). The *distance* between two hosts is the first level
at which their ancestor chains diverge (0 = same host, 1 = same rack but
different hosts, 2 = same pod different racks, 3 = same data center
different pods, 4 = different data centers). In a pod-less data center each
rack connects straight to the root, so two hosts in different racks are
already separated at the pod level: each rack acts as its own implicit pod.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import DataCenterError


class Level(IntEnum):
    """Diversity-zone / separation levels, ordered from finest to coarsest."""

    HOST = 0
    RACK = 1
    POD = 2
    DATACENTER = 3

    @staticmethod
    def parse(name: str) -> "Level":
        """Parse a case-insensitive level name ('host', 'rack', ...)."""
        try:
            return Level[name.strip().upper()]
        except KeyError:
            raise DataCenterError(f"unknown diversity level: {name!r}") from None


@dataclass
class Disk:
    """A disk attached to a host, on which volumes are placed.

    Attributes:
        name: globally unique disk name.
        capacity_gb: raw capacity in gigabytes.
        index: global disk index, assigned by :class:`Cloud`.
        host: back-reference to the owning host.
    """

    name: str
    capacity_gb: float
    index: int = -1
    host: "Host" = field(default=None, repr=False)  # type: ignore[assignment]


@dataclass
class Host:
    """A physical host server.

    Attributes:
        name: globally unique host name.
        cpu_cores: total vCPU capacity.
        mem_gb: total memory in GB.
        disks: locally attached disks.
        nic_bw_mbps: capacity of the link between this host and its ToR
            switch, in Mbps.
        index: global host index, assigned by :class:`Cloud`.
        link_index: global link index of the host<->ToR link.
        rack: back-reference to the owning rack.
    """

    name: str
    cpu_cores: float
    mem_gb: float
    disks: List[Disk] = field(default_factory=list)
    nic_bw_mbps: float = 10_000.0
    index: int = -1
    link_index: int = -1
    rack: "Rack" = field(default=None, repr=False)  # type: ignore[assignment]

    def total_disk_gb(self) -> float:
        """Sum of the capacities of all locally attached disks."""
        return sum(disk.capacity_gb for disk in self.disks)


@dataclass
class Rack:
    """A rack of hosts under one ToR switch.

    Attributes:
        name: globally unique rack name.
        hosts: hosts in the rack.
        uplink_bw_mbps: capacity of the ToR uplink (to the pod switch, or to
            the data-center root when the data center has no pods).
        index: global rack index.
        link_index: global link index of the ToR uplink.
        pod: owning pod, or None when racks attach directly to the root.
        datacenter: owning data center.
    """

    name: str
    hosts: List[Host] = field(default_factory=list)
    uplink_bw_mbps: float = 100_000.0
    index: int = -1
    link_index: int = -1
    pod: Optional["Pod"] = field(default=None, repr=False)
    datacenter: "DataCenter" = field(default=None, repr=False)  # type: ignore[assignment]


@dataclass
class Pod:
    """A pod of racks under one pod switch.

    Attributes:
        name: globally unique pod name.
        racks: racks in the pod.
        uplink_bw_mbps: capacity of the pod switch's uplink to the root.
        index: global pod index.
        link_index: global link index of the pod uplink.
        datacenter: owning data center.
    """

    name: str
    racks: List[Rack] = field(default_factory=list)
    uplink_bw_mbps: float = 400_000.0
    index: int = -1
    link_index: int = -1
    datacenter: "DataCenter" = field(default=None, repr=False)  # type: ignore[assignment]


@dataclass
class DataCenter:
    """A data center: a root switch over pods and/or pod-less racks.

    Attributes:
        name: globally unique data-center name.
        pods: pods under the root switch.
        racks: racks attached directly to the root switch (pod-less).
        uplink_bw_mbps: capacity of the data center's WAN uplink, used only
            when the cloud contains several data centers.
        index: global data-center index.
        link_index: global link index of the WAN uplink (-1 if single-DC).
    """

    name: str
    pods: List[Pod] = field(default_factory=list)
    racks: List[Rack] = field(default_factory=list)
    uplink_bw_mbps: float = 1_000_000.0
    index: int = -1
    link_index: int = -1

    def all_racks(self) -> Iterator[Rack]:
        """Iterate every rack, whether under a pod or directly attached."""
        for pod in self.pods:
            yield from pod.racks
        yield from self.racks


class Cloud:
    """The root container: one or more data centers plus global indexing.

    Construction walks the hierarchy once, assigns dense integer indices to
    hosts, disks, racks, pods, data centers and network links, and wires up
    back-references. All placement algorithms address elements by these
    indices; names are for humans and templates.
    """

    def __init__(self, datacenters: Sequence[DataCenter]) -> None:
        if not datacenters:
            raise DataCenterError("a cloud must contain at least one data center")
        self.datacenters: List[DataCenter] = list(datacenters)
        self.hosts: List[Host] = []
        self.disks: List[Disk] = []
        self.racks: List[Rack] = []
        self.pods: List[Pod] = []
        #: capacity (Mbps) of each indexed network link
        self.link_capacity_mbps: List[float] = []
        #: human-readable description of each link, same indexing
        self.link_names: List[str] = []
        self._hosts_by_name: Dict[str, Host] = {}
        self._disks_by_name: Dict[str, Disk] = {}
        # Per-host uplink chain: tuple of (link_index, switch_key) pairs from
        # the host NIC up to the cloud root. switch_key identifies the switch
        # reached after traversing that link.
        self._chains: List[Tuple[Tuple[int, Tuple[str, int]], ...]] = []
        # Per-host ancestor keys for distance computation:
        # (rack_index, implicit_pod_key, dc_index)
        self._ancestors: List[Tuple[int, Tuple[str, int], int]] = []
        self._index()
        # Link-only view of each chain, precomputed once: uplink_chain()
        # sits inside the candidate-signature hot loop.
        self._uplink_chains: List[Tuple[int, ...]] = [
            tuple(link for link, _ in chain) for chain in self._chains
        ]
        # Memos of per-cloud constants every search asks for, filled on
        # first use (the structure never changes after _index()).
        self._min_hops: Dict[int, Optional[int]] = {}
        self._largest_host: Optional[Tuple[float, float, float, float]] = None

    # ------------------------------------------------------------------
    # indexing
    # ------------------------------------------------------------------

    def _new_link(self, capacity_mbps: float, name: str) -> int:
        self.link_capacity_mbps.append(capacity_mbps)
        self.link_names.append(name)
        return len(self.link_capacity_mbps) - 1

    def _index(self) -> None:
        multi_dc = len(self.datacenters) > 1
        for dc_i, dc in enumerate(self.datacenters):
            dc.index = dc_i
            if multi_dc:
                dc.link_index = self._new_link(
                    dc.uplink_bw_mbps, f"wan:{dc.name}"
                )
            for pod in dc.pods:
                pod.datacenter = dc
                pod.index = len(self.pods)
                self.pods.append(pod)
                pod.link_index = self._new_link(
                    pod.uplink_bw_mbps, f"pod-uplink:{pod.name}"
                )
                for rack in pod.racks:
                    self._index_rack(rack, dc, pod)
            for rack in dc.racks:
                self._index_rack(rack, dc, None)
        if not self.hosts:
            raise DataCenterError("cloud contains no hosts")

    def _index_rack(self, rack: Rack, dc: DataCenter, pod: Optional[Pod]) -> None:
        rack.datacenter = dc
        rack.pod = pod
        rack.index = len(self.racks)
        self.racks.append(rack)
        rack.link_index = self._new_link(
            rack.uplink_bw_mbps, f"tor-uplink:{rack.name}"
        )
        for host in rack.hosts:
            self._index_host(host, rack, dc, pod)

    def _index_host(
        self, host: Host, rack: Rack, dc: DataCenter, pod: Optional[Pod]
    ) -> None:
        if host.name in self._hosts_by_name:
            raise DataCenterError(f"duplicate host name: {host.name!r}")
        host.rack = rack
        host.index = len(self.hosts)
        self.hosts.append(host)
        self._hosts_by_name[host.name] = host
        host.link_index = self._new_link(host.nic_bw_mbps, f"nic:{host.name}")
        for disk in host.disks:
            if disk.name in self._disks_by_name:
                raise DataCenterError(f"duplicate disk name: {disk.name!r}")
            disk.host = host
            disk.index = len(self.disks)
            self.disks.append(disk)
            self._disks_by_name[disk.name] = disk
        # Uplink chain: NIC -> ToR, ToR uplink -> pod switch or DC root,
        # [pod uplink -> DC root], [WAN uplink -> cloud root].
        chain: List[Tuple[int, Tuple[str, int]]] = [
            (host.link_index, ("rack", rack.index))
        ]
        if pod is not None:
            chain.append((rack.link_index, ("pod", pod.index)))
            chain.append((pod.link_index, ("dcroot", dc.index)))
            implicit_pod_key = ("pod", pod.index)
        else:
            chain.append((rack.link_index, ("dcroot", dc.index)))
            # A pod-less rack acts as its own implicit pod.
            implicit_pod_key = ("rack-as-pod", rack.index)
        if dc.link_index >= 0:
            chain.append((dc.link_index, ("cloudroot", 0)))
        self._chains.append(tuple(chain))
        self._ancestors.append((rack.index, implicit_pod_key, dc.index))

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def host_by_name(self, name: str) -> Host:
        """Look up a host by name, raising DataCenterError if unknown."""
        try:
            return self._hosts_by_name[name]
        except KeyError:
            raise DataCenterError(f"unknown host: {name!r}") from None

    def disk_by_name(self, name: str) -> Disk:
        """Look up a disk by name, raising DataCenterError if unknown."""
        try:
            return self._disks_by_name[name]
        except KeyError:
            raise DataCenterError(f"unknown disk: {name!r}") from None

    @property
    def num_hosts(self) -> int:
        """Number of hosts in the cloud."""
        return len(self.hosts)

    @property
    def num_links(self) -> int:
        """Number of indexed network links in the cloud."""
        return len(self.link_capacity_mbps)

    # ------------------------------------------------------------------
    # topology arithmetic (used heavily by the algorithms)
    # ------------------------------------------------------------------

    def distance(self, host_a: int, host_b: int) -> int:
        """Separation distance between two hosts (by index).

        Returns 0 for the same host, 1 for same rack, 2 for same pod but
        different racks, 3 for same data center but different pods, and 4
        for different data centers. In pod-less data centers different racks
        yield distance 3 (each rack is its own implicit pod).
        """
        if host_a == host_b:
            return 0
        rack_a, pod_a, dc_a = self._ancestors[host_a]
        rack_b, pod_b, dc_b = self._ancestors[host_b]
        if dc_a != dc_b:
            return 4
        if pod_a != pod_b:
            return 3
        if rack_a != rack_b:
            return 2
        return 1

    def separated_at(self, host_a: int, host_b: int, level: Level) -> bool:
        """True if two hosts satisfy a diversity requirement at ``level``."""
        return self.distance(host_a, host_b) > int(level)

    def path(self, host_a: int, host_b: int) -> Tuple[int, ...]:
        """Network links traversed by traffic between two hosts.

        Returns a tuple of global link indices; empty when both endpoints
        are the same host (intra-host traffic never touches the network).
        """
        if host_a == host_b:
            return ()
        chain_a = self._chains[host_a]
        chain_b = self._chains[host_b]
        # Find the lowest common switch reached by both chains.
        reach_b = {switch: steps for steps, (_, switch) in enumerate(chain_b)}
        for steps_a, (_, switch) in enumerate(chain_a):
            if switch in reach_b:
                steps_b = reach_b[switch]
                links = [link for link, _ in chain_a[: steps_a + 1]]
                links.extend(link for link, _ in chain_b[: steps_b + 1])
                return tuple(links)
        raise DataCenterError(
            f"no network path between hosts {host_a} and {host_b}"
        )

    def hop_count(self, host_a: int, host_b: int) -> int:
        """Number of links on the path between two hosts."""
        return len(self.path(host_a, host_b))

    def uplink_chain(self, host: int) -> Tuple[int, ...]:
        """Link indices from a host's NIC up to the top of the hierarchy.

        The first entry is always the host<->ToR link; later entries are
        the ToR uplink, the pod uplink (when pods exist), and the WAN
        uplink (when the cloud spans several data centers).
        """
        return self._uplink_chains[host]

    def max_hop_count(self) -> int:
        """Longest possible path length between any two hosts.

        Used to normalize the bandwidth term of the objective function: the
        worst-case placement routes every flow through the top of the
        hierarchy, consuming both endpoints' full uplink chains.
        """
        longest = max(len(chain) for chain in self._chains)
        return 2 * longest

    def min_hops_for_distance(self, dist: int) -> int:
        """Optimistic (minimal) hop count for a given separation distance.

        Used by the admissible heuristic: two nodes that *must* be separated
        at a given level consume at least this many link traversals. The
        value is computed over the actual cloud structure, so pod-less data
        centers report 4 hops for distance 3 (host NIC + ToR uplink on both
        sides) while podded ones report 6.
        """
        if dist <= 0:
            return 0
        if dist not in self._min_hops:
            best: Optional[int] = None
            for chain in self._chains:
                # steps needed on one side to reach a switch at/above `dist`
                steps = self._steps_for_distance(chain, dist)
                if steps is not None and (best is None or steps < best):
                    best = steps
            self._min_hops[dist] = best
        memo = self._min_hops[dist]
        if memo is None:
            raise DataCenterError(
                f"cloud cannot separate hosts at distance {dist}"
            )
        return 2 * memo

    def largest_host(self) -> Tuple[float, float, float, float]:
        """Largest ``(cpu_cores, mem_gb, disk capacity_gb, nic_bw_mbps)``
        any host (or disk) of the cloud offers, each taken on its own:
        the size of the estimator's imaginary host."""
        if self._largest_host is None:
            self._largest_host = (
                max(h.cpu_cores for h in self.hosts),
                max(h.mem_gb for h in self.hosts),
                max((d.capacity_gb for d in self.disks), default=0.0),
                max(h.nic_bw_mbps for h in self.hosts),
            )
        return self._largest_host

    @staticmethod
    def _steps_for_distance(
        chain: Tuple[Tuple[int, Tuple[str, int]], ...], dist: int
    ) -> Optional[int]:
        # Distance d requires meeting at a switch whose scope covers d:
        # rack switch covers distance 1, pod switch 2..3 (implicit pods make
        # rack==pod), dc root 3, cloud root 4.
        scope_needed = {1: "rack", 2: "pod", 3: "dcroot", 4: "cloudroot"}[dist]
        order = ["rack", "pod", "dcroot", "cloudroot"]
        min_rank = order.index(scope_needed)
        for steps, (_, (kind, _key)) in enumerate(chain):
            rank = order.index("pod" if kind == "rack-as-pod" else kind)
            if rank >= min_rank:
                return steps + 1
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cloud(datacenters={len(self.datacenters)}, racks={len(self.racks)},"
            f" hosts={len(self.hosts)}, disks={len(self.disks)},"
            f" links={self.num_links})"
        )
