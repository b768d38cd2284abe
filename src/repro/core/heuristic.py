"""Estimate-based lower bound (``GetHeuristic`` of Algorithm 1).

Given a partial placement, the estimator *approximately* places every
remaining node to bound, from below, the bandwidth the rest of the
placement must reserve. Following Section III-A2:

1. Remaining nodes are visited in decreasing order of their total link
   bandwidth.
2. Each node is tentatively assigned to an already-used real host or to an
   **imaginary host** ``h-hat``. A fresh imaginary host is created when
   (a) no existing target has capacity, (b) diversity zones rule out every
   existing target, (c) the node has no link to any placed node, or
   (d) the node is more strongly linked to still-remaining nodes than to
   placed ones. Otherwise the node joins the target with which it shares
   the most link bandwidth ("co-located with nodes that are linked with
   more bandwidth").
3. Imaginary hosts have the maximum capacity of any real host and are not
   counted toward ``u_c``; their location is optimistic, so distances
   involving them are the *minimum* allowed by the diversity zones the two
   endpoints share.

The returned bandwidth estimate covers every topology link not yet fully
reserved by the partial placement; paired with the accumulated usage it
forms the ``u* + u-bar`` value that EG minimizes and BA* uses as an
admissible node evaluation.

For scalability the estimator can be truncated to the ``max_nodes`` most
bandwidth-hungry remaining nodes: unestimated links then contribute zero,
which keeps the bound admissible (it can only get looser). The exhaustive
behavior of the paper is ``max_nodes=None``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.placement import PartialPlacement
from repro.core.topology import ApplicationTopology, Node
from repro.datacenter.model import Cloud
from repro.datacenter.network import PathResolver
from repro.errors import DataCenterError


@dataclass(frozen=True)
class EstimatorConfig:
    """Tuning knobs for the lower-bound estimator.

    Attributes:
        max_nodes: cap on how many remaining nodes are approximately
            placed (None = all, the paper's behavior). Truncation keeps the
            bound admissible; it only loosens it.
        optimistic_colocation: how to charge links whose endpoints the
            estimator put on *imaginary* hosts. False (default, the
            paper's literal ``max{dz, h != h'}`` formula) charges every
            split pair at least a host separation: informative, which is
            what makes EG's candidate choices good, but only
            quasi-admissible. True charges only the separation forced by
            shared diversity zones -- a genuine lower bound, used by
            BA*/DBA* for search ordering and bounding so they can explore
            below EG's value and beat it.
    """

    max_nodes: Optional[int] = None
    optimistic_colocation: bool = False

    def admissible(self) -> "EstimatorConfig":
        """The relaxed (provably admissible) variant of this config."""
        return EstimatorConfig(max_nodes=self.max_nodes,
                               optimistic_colocation=True)


@dataclass
class _ImaginaryHost:
    """An optimistically located host invented by the estimator."""

    free_vcpus: float
    free_mem_gb: float
    free_disk_gb: float
    free_nic_mbps: float
    nodes: List[str]


@dataclass
class _RealHostLedger:
    """Scratch free-capacity ledger for one in-use real host.

    Disks are tracked individually (``disk_free`` parallels
    ``cloud.hosts[h].disks``): collapsing them into one scalar wrongly
    rejects two volumes that fit on *different* disks of the host.
    """

    free_vcpus: float
    free_mem_gb: float
    disk_free: List[float]
    free_nic_mbps: float


class LowerBoundEstimator:
    """Reusable estimator bound to one topology/cloud pair.

    Args:
        cloud: the physical structure (for distances and hop minima).
        config: truncation knobs.
        resolver: shared memoizing path/hop-count resolver. Defaults to
            the cloud's shared instance; pass the search's resolver so the
            estimator, candidate generation, and placement bookkeeping all
            reuse one hop-count cache.
    """

    def __init__(
        self,
        cloud: Cloud,
        config: Optional[EstimatorConfig] = None,
        resolver: Optional[PathResolver] = None,
    ) -> None:
        self.cloud = cloud
        self.config = config or EstimatorConfig()
        self.resolver = resolver or PathResolver.for_cloud(cloud)
        (
            self._imaginary_cpu,
            self._imaginary_mem,
            self._imaginary_disk,
            self._imaginary_nic,
        ) = cloud.largest_host()
        # refreshed from the state on every estimate() call
        self._cpu_factor = 1.0
        # NIC-bandwidth capacity tracking gives the informative estimator
        # the foresight to penalize candidates that strand future
        # neighbors behind drained NICs (the paper's capacity constraints
        # include bandwidth). The admissible variant stays optimistic.
        self._track_nic = not self.config.optimistic_colocation
        # hop minima per separation distance (memoised by the cloud)
        self._min_hops: List[float] = [0.0] * 5
        for dist in range(1, 5):
            try:
                self._min_hops[dist] = float(
                    cloud.min_hops_for_distance(dist)
                )
            except DataCenterError:
                # Distance not realizable in this cloud (e.g. single DC):
                # a pair *forced* that far apart is genuinely infeasible.
                # The admissible variant must say so -- an infinite hop
                # count propagates to an infinite bound, so BA*/DBA* treat
                # such states as the dead ends they are. The informative
                # variant keeps a large-but-finite pessimistic value so
                # EG's candidate ranking stays comparable.
                if self.config.optimistic_colocation:
                    self._min_hops[dist] = float("inf")
                else:
                    self._min_hops[dist] = float(2 * 4)

    # ------------------------------------------------------------------

    def estimate(
        self,
        partial: PartialPlacement,
        remaining: Sequence[str],
    ) -> Tuple[float, int]:
        """Lower-bound (bandwidth, new-host) usage of placing ``remaining``.

        Args:
            partial: current partial placement (already includes every
                node considered placed, e.g. the candidate being scored).
            remaining: names of nodes not yet placed.

        Returns:
            ``(ubw_bar, uc_bar)`` -- estimated additional reserved
            bandwidth in Mbps x links, and estimated additional newly
            activated hosts (always 0, per the paper: imaginary hosts are
            not counted).
        """
        topology = partial.topology
        if not remaining:
            return 0.0, 0

        order = sorted(
            remaining, key=topology.bandwidth_of, reverse=True
        )
        head: Optional[Set[str]] = None
        if self.config.max_nodes is not None:
            if self._track_nic:
                # The informative (NIC-tracking) estimator must
                # approximately place *every* remaining node, or it cannot
                # see a low-bandwidth node at the tail getting stranded
                # behind a drained NIC; its bandwidth sum is still limited
                # to the head (links whose estimated endpoint falls beyond
                # the truncation horizon contribute zero, exactly as they
                # do when the admissible variant drops those nodes).
                head = set(order[: self.config.max_nodes])
            else:
                # Truncation only loosens the admissible bound.
                order = order[: self.config.max_nodes]

        # Local free-capacity ledger for the real hosts in use.
        state = partial.state
        self._cpu_factor = state.best_effort_cpu_factor
        real_free: Dict[int, _RealHostLedger] = {}
        # Sorted host order canonicalizes the ledger's iteration order so
        # the vectorized kernel's column layout (and therefore its
        # first-feasible / first-max tie-breaks) matches bit-for-bit.
        for host in sorted(partial.placed_hosts()):
            real_free[host] = _RealHostLedger(
                free_vcpus=state.free_cpu[host],
                free_mem_gb=state.free_mem[host],
                disk_free=[
                    state.free_disk[d.index]
                    for d in self.cloud.hosts[host].disks
                ],
                free_nic_mbps=state.free_bw[
                    self.cloud.hosts[host].link_index
                ],
            )
        imaginary: List[_ImaginaryHost] = []
        # node -> ('real', host_index) or ('imag', list_index)
        location: Dict[str, Tuple[str, int]] = {}

        for name in order:
            placed = self._approx_place(
                partial, name, real_free, imaginary, location
            )
            if not placed:
                # Even a fresh imaginary host cannot carry this node's
                # flows: the partial placement has stranded it behind
                # drained NICs. Signal an (effectively) infeasible future.
                return float("inf"), 0

        ubw_bar = self._estimate_bandwidth(partial, location, head)
        return ubw_bar, 0

    # ------------------------------------------------------------------

    def _approx_place(
        self,
        partial: PartialPlacement,
        name: str,
        real_free: Dict[int, _RealHostLedger],
        imaginary: List[_ImaginaryHost],
        location: Dict[str, Tuple[str, int]],
    ) -> bool:
        """Approximately place one node; False signals a stranded node."""
        topology = partial.topology
        node = topology.node(name)

        # Link bandwidth of `name` toward already-located nodes, per target.
        bw_to_target: Dict[Tuple[str, int], float] = {}
        bw_to_placed = 0.0
        bw_to_remaining = 0.0
        for neighbor, bw in topology.neighbors(name):
            assigned = partial.assignments.get(neighbor)
            if assigned is not None:
                bw_to_placed += bw
                key = ("real", assigned.host)
                bw_to_target[key] = bw_to_target.get(key, 0.0) + bw
            elif neighbor in location:
                bw_to_placed += bw
                key = location[neighbor]
                bw_to_target[key] = bw_to_target.get(key, 0.0) + bw
            else:
                bw_to_remaining += bw

        force_new = bw_to_placed == 0.0 or bw_to_remaining > bw_to_placed

        def feasible(key: Tuple[str, int]) -> bool:
            return (
                self._fits(node, key, real_free, imaginary)
                and self._diversity_ok(partial, name, key, location)
                and (
                    not self._track_nic
                    or self._nic_ok(key, bw_to_target, real_free, imaginary)
                )
            )

        def best_existing() -> Optional[Tuple[str, int]]:
            # Single pass, equivalent to an argmax over all feasible
            # targets with first-in-iteration-order tie-breaking, but
            # checking feasibility only where it can matter: a linked
            # target that does not beat the best linked bandwidth so far
            # cannot win regardless of feasibility, and among unlinked
            # targets (all tied at 0) only the first feasible one can win
            # -- and none can once any feasible linked target exists.
            best: Optional[Tuple[str, int]] = None
            best_bw = 0.0
            first_unlinked: Optional[Tuple[str, int]] = None
            for key in self._targets(real_free, imaginary):
                linked = bw_to_target.get(key, 0.0)
                if linked > 0.0:
                    if linked > best_bw and feasible(key):
                        best_bw = linked
                        best = key
                elif best is None and first_unlinked is None and feasible(key):
                    first_unlinked = key
            return best if best is not None else first_unlinked

        best_key: Optional[Tuple[str, int]] = None
        if not force_new:
            best_key = best_existing()

        if best_key is None:
            fresh = ("imag", len(imaginary))
            imaginary.append(
                _ImaginaryHost(
                    free_vcpus=self._imaginary_cpu,
                    free_mem_gb=self._imaginary_mem,
                    free_disk_gb=self._imaginary_disk,
                    free_nic_mbps=self._imaginary_nic,
                    nodes=[],
                )
            )
            if not self._track_nic or self._nic_ok(
                fresh, bw_to_target, real_free, imaginary
            ):
                best_key = fresh
            else:
                # A fresh host cannot carry the flows (the bottleneck is at
                # the neighbors' NICs); joining a neighbor may still work.
                imaginary.pop()
                best_key = best_existing()
                if best_key is None:
                    return False

        self._consume(node, best_key, real_free, imaginary)
        if self._track_nic:
            self._consume_nic(best_key, bw_to_target, real_free, imaginary)
        if best_key[0] == "imag":
            imaginary[best_key[1]].nodes.append(name)
        location[name] = best_key
        return True

    @staticmethod
    def _targets(
        real_free: Dict[int, _RealHostLedger],
        imaginary: List[_ImaginaryHost],
    ) -> Iterator[Tuple[str, int]]:
        for host in real_free:
            yield ("real", host)
        for i in range(len(imaginary)):
            yield ("imag", i)

    def _fits(
        self,
        node: Node,
        key: Tuple[str, int],
        real_free: Dict[int, _RealHostLedger],
        imaginary: List[_ImaginaryHost],
    ) -> bool:
        vcpus = (
            node.effective_vcpus(self._cpu_factor) if node.is_vm else 0.0
        )
        if key[0] == "real":
            ledger = real_free[key[1]]
            if node.is_vm:
                return (
                    vcpus <= ledger.free_vcpus
                    and node.mem_gb <= ledger.free_mem_gb
                )
            return any(node.size_gb <= free for free in ledger.disk_free)
        imag = imaginary[key[1]]
        if node.is_vm:
            return vcpus <= imag.free_vcpus and node.mem_gb <= imag.free_mem_gb
        return node.size_gb <= imag.free_disk_gb

    def _consume(
        self,
        node: Node,
        key: Tuple[str, int],
        real_free: Dict[int, _RealHostLedger],
        imaginary: List[_ImaginaryHost],
    ) -> None:
        vcpus = (
            node.effective_vcpus(self._cpu_factor) if node.is_vm else 0.0
        )
        if key[0] == "real":
            ledger = real_free[key[1]]
            if node.is_vm:
                ledger.free_vcpus -= vcpus
                ledger.free_mem_gb -= node.mem_gb
            else:
                # debit the emptiest disk that fits (ties: lowest index),
                # the same worst-fit rule used for real volume placement
                best = -1
                for i, free in enumerate(ledger.disk_free):
                    if node.size_gb <= free and (
                        best < 0 or free > ledger.disk_free[best]
                    ):
                        best = i
                if best >= 0:
                    ledger.disk_free[best] -= node.size_gb
            return
        imag = imaginary[key[1]]
        if node.is_vm:
            imag.free_vcpus -= vcpus
            imag.free_mem_gb -= node.mem_gb
        else:
            imag.free_disk_gb -= node.size_gb

    @staticmethod
    def _nic_free(
        key: Tuple[str, int],
        real_free: Dict[int, _RealHostLedger],
        imaginary: List[_ImaginaryHost],
    ) -> float:
        if key[0] == "real":
            return real_free[key[1]].free_nic_mbps
        return imaginary[key[1]].free_nic_mbps

    def _nic_ok(
        self,
        target: Tuple[str, int],
        bw_to_target: Dict[Tuple[str, int], float],
        real_free: Dict[int, _RealHostLedger],
        imaginary: List[_ImaginaryHost],
    ) -> bool:
        """NIC feasibility of routing the node's flows from ``target``.

        Flows toward neighbors on other hosts must fit both the target's
        NIC and each remote neighbor's host NIC (an approximation of the
        full path check, catching the dominant bottleneck).
        """
        outbound = 0.0
        for key, bw in bw_to_target.items():
            if key == target or bw <= 0:
                continue
            outbound += bw
            if bw > self._nic_free(key, real_free, imaginary) + 1e-9:
                return False
        return outbound <= self._nic_free(target, real_free, imaginary) + 1e-9

    def _consume_nic(
        self,
        target: Tuple[str, int],
        bw_to_target: Dict[Tuple[str, int], float],
        real_free: Dict[int, _RealHostLedger],
        imaginary: List[_ImaginaryHost],
    ) -> None:
        def debit(key: Tuple[str, int], amount: float) -> None:
            if key[0] == "real":
                real_free[key[1]].free_nic_mbps -= amount
            else:
                imaginary[key[1]].free_nic_mbps -= amount

        outbound = 0.0
        for key, bw in bw_to_target.items():
            if key == target or bw <= 0:
                continue
            outbound += bw
            debit(key, bw)
        if outbound > 0:
            debit(target, outbound)

    def _diversity_ok(
        self,
        partial: PartialPlacement,
        name: str,
        key: Tuple[str, int],
        location: Dict[str, Tuple[str, int]],
    ) -> bool:
        """Diversity screen for approximate placement.

        Real-host targets are checked against real placements exactly; any
        zone partner *approximately* located on the same target rules the
        target out (co-location on one host violates every level).
        Different targets are optimistically considered separable.
        """
        cloud = self.cloud
        for zone in partial.topology.zones_of(name):
            for member in zone.members:
                if member == name:
                    continue
                assigned = partial.assignments.get(member)
                if assigned is not None:
                    if key[0] == "real" and not cloud.separated_at(
                        key[1], assigned.host, zone.level
                    ):
                        return False
                    continue
                approx = location.get(member)
                if approx is not None and approx == key:
                    return False
                if (
                    approx is not None
                    and approx[0] == "real"
                    and key[0] == "real"
                    and not cloud.separated_at(key[1], approx[1], zone.level)
                ):
                    return False
        return True

    # ------------------------------------------------------------------

    def _estimate_bandwidth(
        self,
        partial: PartialPlacement,
        location: Dict[str, Tuple[str, int]],
        head: Optional[Set[str]] = None,
    ) -> float:
        """Optimistic reserved bandwidth of all not-yet-reserved links.

        A link is already accounted in the partial's ``u_bw`` exactly when
        both endpoints are really placed; every other link with at least
        one estimated endpoint contributes ``bw x hops`` using real hop
        counts where both locations are real hosts and the diversity-forced
        minimum otherwise. Links to nodes beyond the truncation horizon
        contribute zero (admissible): either the node was never
        approximately placed (``location`` miss) or -- for the NIC-tracking
        estimator, which locates every node -- it falls outside ``head``,
        the ``max_nodes`` most bandwidth-hungry remaining nodes.
        """
        topology = partial.topology
        hop_count = self.resolver.hop_count
        total = 0.0
        for link in topology.links:
            if link.bw_mbps <= 0:
                continue
            a_real = partial.assignments.get(link.a)
            b_real = partial.assignments.get(link.b)
            if a_real is not None and b_real is not None:
                continue  # already reserved in the partial placement
            if a_real is not None:
                loc_a = ("real", a_real.host)
            elif head is None or link.a in head:
                loc_a = location.get(link.a)
            else:
                loc_a = None  # estimated, but beyond the truncation head
            if b_real is not None:
                loc_b = ("real", b_real.host)
            elif head is None or link.b in head:
                loc_b = location.get(link.b)
            else:
                loc_b = None
            if loc_a is None or loc_b is None:
                continue  # beyond the truncation horizon: optimistically 0
            if loc_a == loc_b:
                continue  # co-located: no network hops
            if loc_a[0] == "real" and loc_b[0] == "real":
                total += link.bw_mbps * hop_count(loc_a[1], loc_b[1])
            else:
                dist = self._forced_distance(topology, link.a, link.b)
                if not self.config.optimistic_colocation:
                    dist = max(1, dist)
                if dist > 0:
                    total += link.bw_mbps * self._min_hops[dist]
        return total

    @staticmethod
    def _forced_distance(topology: ApplicationTopology, a: str, b: str) -> int:
        """Minimum separation distance implied by shared diversity zones."""
        forced = 0
        for zone in topology.zones_of(a):
            if b in zone.members:
                forced = max(forced, int(zone.level) + 1)
        return forced
