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
rack, pod, data center). The *distance* between two hosts is the number of
levels at which their units differ (0 = same host, 1 = same rack but
different hosts, 2 = same pod different racks, 3 = same data center
different pods, 4 = different data centers). In a pod-less data center each
rack connects straight to the root, so two hosts in different racks are
already separated at the pod level: each rack acts as its own implicit pod.

The level table
---------------

Hosts are numbered depth-first (data center, pod, rack, host), so every
unit of every level is a contiguous range of host indices. :class:`Cloud`
keeps the whole hierarchy as one table of ``array('q')`` columns per
level: the unit id of each host, the uplink of each unit (-1 where there
is none: an implicit pod, or the data center of a single-DC cloud) and the
first host of each unit. Distance, separation, paths and hop counts are
arithmetic on those ids; the NumPy kernel views the same buffers.
"""

from __future__ import annotations

from array import array
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
    hosts, disks, racks, pods, data centers and network links, wires up
    back-references and fills the level table (module docstring). All
    placement algorithms address elements by these indices; names are for
    humans and templates.
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
        #: the level table, one column per :class:`Level`:
        #: ``unit_ids[level][host]`` is the host's unit, ``uplinks[level]
        #: [unit]`` the unit's uplink (-1: none) and ``unit_starts[level]
        #: [unit]`` its first host, the host count appended last. Written
        #: only by ``_index``; the kernel's views pin the lengths after it.
        self.unit_ids: Tuple["array[int]", ...] = tuple(array("q") for _ in Level)
        self.uplinks: Tuple["array[int]", ...] = tuple(array("q") for _ in Level)
        self.unit_starts: Tuple["array[int]", ...] = tuple(
            array("q") for _ in Level
        )
        self._index()
        # Only the pod level varies how far a host climbs (host and rack
        # uplinks always exist, the WAN uplink is all-or-none), so the
        # first host of each pod unit stands for all of its hosts.
        pods = self.unit_starts[Level.POD]
        heads = [lo for lo, hi in zip(pods, pods[1:]) if lo < hi]
        #: fewest links any host climbs to cover each distance 0..4
        self._min_steps = tuple(
            min(len(self._climb(h, dist)) for h in heads) for dist in range(5)
        )
        self._max_steps = max(len(self._climb(h, len(Level))) for h in heads)
        self._largest_host: Optional[Tuple[float, float, float, float]] = None

    # ------------------------------------------------------------------
    # indexing
    # ------------------------------------------------------------------

    def _new_link(self, capacity_mbps: float, name: str) -> int:
        self.link_capacity_mbps.append(capacity_mbps)
        self.link_names.append(name)
        return len(self.link_capacity_mbps) - 1

    def _open_unit(self, level: Level, uplink: int) -> None:
        """Start a unit at ``level``; the hosts indexed next belong to it."""
        self.uplinks[level].append(uplink)
        self.unit_starts[level].append(len(self.hosts))

    def _index(self) -> None:
        multi_dc = len(self.datacenters) > 1
        for dc_i, dc in enumerate(self.datacenters):
            dc.index = dc_i
            if multi_dc:
                dc.link_index = self._new_link(
                    dc.uplink_bw_mbps, f"wan:{dc.name}"
                )
            self._open_unit(Level.DATACENTER, dc.link_index)
            for pod in dc.pods:
                pod.datacenter = dc
                pod.index = len(self.pods)
                self.pods.append(pod)
                pod.link_index = self._new_link(
                    pod.uplink_bw_mbps, f"pod-uplink:{pod.name}"
                )
                self._open_unit(Level.POD, pod.link_index)
                for rack in pod.racks:
                    self._index_rack(rack, dc, pod)
            for rack in dc.racks:
                # A pod-less rack acts as its own implicit pod, which has
                # no uplink: the ToR uplink reaches the root directly.
                self._open_unit(Level.POD, -1)
                self._index_rack(rack, dc, None)
        if not self.hosts:
            raise DataCenterError("cloud contains no hosts")
        for starts in self.unit_starts:
            starts.append(len(self.hosts))

    def _index_rack(self, rack: Rack, dc: DataCenter, pod: Optional[Pod]) -> None:
        rack.datacenter = dc
        rack.pod = pod
        rack.index = len(self.racks)
        self.racks.append(rack)
        rack.link_index = self._new_link(
            rack.uplink_bw_mbps, f"tor-uplink:{rack.name}"
        )
        self._open_unit(Level.RACK, rack.link_index)
        for host in rack.hosts:
            self._index_host(host, rack)

    def _index_host(self, host: Host, rack: Rack) -> None:
        if host.name in self._hosts_by_name:
            raise DataCenterError(f"duplicate host name: {host.name!r}")
        host.rack = rack
        host.index = len(self.hosts)
        host.link_index = self._new_link(host.nic_bw_mbps, f"nic:{host.name}")
        self._open_unit(Level.HOST, host.link_index)
        self.hosts.append(host)
        self._hosts_by_name[host.name] = host
        for ids, uplinks in zip(self.unit_ids, self.uplinks):
            ids.append(len(uplinks) - 1)  # the unit opened last
        for disk in host.disks:
            if disk.name in self._disks_by_name:
                raise DataCenterError(f"duplicate disk name: {disk.name!r}")
            disk.host = host
            disk.index = len(self.disks)
            self.disks.append(disk)
            self._disks_by_name[disk.name] = disk

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

    def unit_range(self, level: int, host: int) -> Tuple[int, int]:
        """Host-index range ``[lo, hi)`` of ``host``'s unit at ``level``."""
        starts = self.unit_starts[level]
        unit = self.unit_ids[level][host]
        return starts[unit], starts[unit + 1]

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
        return sum(ids[host_a] != ids[host_b] for ids in self.unit_ids)

    def separated_at(self, host_a: int, host_b: int, level: Level) -> bool:
        """True if two hosts satisfy a diversity requirement at ``level``.

        Units nest, so the distance exceeds ``level`` exactly when the
        hosts' units at ``level`` differ.
        """
        ids = self.unit_ids[level]
        return ids[host_a] != ids[host_b]

    def _climb(self, host: int, dist: int) -> Tuple[int, ...]:
        """Links from ``host`` up to a switch covering distance ``dist``:
        the existing uplinks of its units below level ``dist``, NIC first."""
        links = (
            uplinks[ids[host]]
            for ids, uplinks in zip(self.unit_ids[:dist], self.uplinks[:dist])
        )
        return tuple(link for link in links if link >= 0)

    def path(self, host_a: int, host_b: int) -> Tuple[int, ...]:
        """Network links traversed by traffic between two hosts.

        Returns a tuple of global link indices -- ``host_a``'s climb to the
        lowest common switch, then ``host_b``'s; empty when both endpoints
        are the same host (intra-host traffic never touches the network).
        """
        dist = self.distance(host_a, host_b)
        return self._climb(host_a, dist) + self._climb(host_b, dist)

    def hop_count(self, host_a: int, host_b: int) -> int:
        """Number of links on the path between two hosts."""
        return len(self.path(host_a, host_b))

    def uplink_chain(self, host: int) -> Tuple[int, ...]:
        """Link indices from a host's NIC up to the top of the hierarchy.

        The first entry is always the host<->ToR link; later entries are
        the ToR uplink, the pod uplink (when pods exist), and the WAN
        uplink (when the cloud spans several data centers).
        """
        return self._climb(host, len(Level))

    def max_hop_count(self) -> int:
        """Longest possible path length between any two hosts.

        Used to normalize the bandwidth term of the objective function: the
        worst-case placement routes every flow through the top of the
        hierarchy, consuming both endpoints' full uplink chains.
        """
        return 2 * self._max_steps

    def min_hops_for_distance(self, dist: int) -> int:
        """Optimistic (minimal) hop count for a given separation distance.

        Used by the admissible heuristic: two nodes that *must* be separated
        at a given level consume at least this many link traversals. The
        value is computed over the actual cloud structure, so pod-less data
        centers report 4 hops for distance 3 (host NIC + ToR uplink on both
        sides) while podded ones report 6. Distance 4 needs a WAN level.
        """
        if dist <= 0:
            return 0
        if dist > Level.DATACENTER and self.uplinks[Level.DATACENTER][0] < 0:
            raise DataCenterError(
                f"cloud cannot separate hosts at distance {dist}"
            )
        return 2 * self._min_steps[dist]

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cloud(datacenters={len(self.datacenters)}, racks={len(self.racks)},"
            f" hosts={len(self.hosts)}, disks={len(self.disks)},"
            f" links={self.num_links})"
        )
