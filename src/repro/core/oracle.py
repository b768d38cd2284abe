"""LP/ILP lower-bound oracle for placement optimality gaps.

The search algorithms (EG, BA*, DBA*) are heuristics: they return *some*
feasible placement and its objective value, but say nothing about how far
that value is from the optimum. This module computes a certified **lower
bound** on the optimal objective of a fresh placement, so a benchmark run
can report each algorithm's optimality gap::

    gap = (score(algorithm) - score_lower_bound) / score_lower_bound

The bound comes from a mixed-integer relaxation of the placement problem,
solved with :func:`scipy.optimize.milp` (HiGHS). Every constraint kept is
implied by the real problem and every dropped constraint (per-host
packing, NIC and uplink bandwidth capacity, latency bounds) only enlarges
the feasible set, so the relaxation's optimum -- and, on solver timeout,
HiGHS's dual bound -- never exceeds the true optimum.

Relaxation
----------

Nodes are assigned to **racks** instead of hosts (``x[n, r]`` binary):

* rack capacity aggregates the free CPU / memory / disk of its hosts;
* the bandwidth term counts, per application link, the minimum possible
  hop count given the endpoints' rack/pod/datacenter relationship (and
  any separation distance forced by shared diversity zones), using
  linearized "both endpoints inside unit u" variables;
* full co-location (zero hops) is a separate per-link discount variable,
  granted only when some single host could hold both endpoints, and a
  **connectivity cut** limits how many links a connected component may
  co-locate: demand that forces ``k`` hosts (no host pools more than the
  largest single host's free capacity) leaves at least ``k - 1`` links
  crossing hosts, because the quotient graph over occupied hosts stays
  connected;
* the host-activation term is bounded per rack: ``k`` newly activated
  hosts supply at most ``k * max_idle_host_capacity``, so
  ``new_hosts_r >= (load_r - active_free_r) / max_idle_host_capacity_r``
  for each resource;
* diversity zones become per-unit cardinality caps at their level.

A closed-form floor (per-link minimum hops plus the global activation
bound) is always computed as well; it is the returned bound when SciPy
is unavailable, and a sanity floor under the MILP bound otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.core.kernel import HAVE_NUMPY, _forced_distance
from repro.datacenter.model import Cloud, Level
from repro.errors import DataCenterError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.objective import Objective
    from repro.core.topology import ApplicationTopology
    from repro.datacenter.state import DataCenterState

try:  # SciPy is optional: without it the closed-form floor is returned
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_array

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover - exercised only without scipy
    HAVE_SCIPY = False


@dataclass(frozen=True)
class OracleBound:
    """A certified lower bound on the optimal placement objective.

    Attributes:
        score: lower bound on ``Objective.score`` of any feasible
            placement (the gap denominator).
        bw_mbps: lower bound on reserved bandwidth alone (closed form).
        new_hosts: lower bound on newly activated hosts alone
            (closed form).
        solver: ``"milp"`` when HiGHS proved the bound, ``"milp-dual"``
            when a solver limit stopped the search and the dual bound
            was used, ``"closed-form"`` without SciPy.
        status: solver status message for the benchmark payload.
    """

    score: float
    bw_mbps: float
    new_hosts: float
    solver: str
    status: str


def _hop_minima(cloud: Cloud) -> List[float]:
    """``g[d]``: minimum hop count of any host pair at separation ``d``.

    A distance the cloud cannot realize (``d=4`` in a single-datacenter
    cloud) is ``inf``: that relationship cannot occur, so it must never
    be the minimum of a cost chain.
    """
    g = []
    for dist in range(5):
        try:
            g.append(float(cloud.min_hops_for_distance(dist)))
        except DataCenterError:
            g.append(math.inf)
    return g


def _link_level_costs(
    g: List[float],
    forced: int,
    num_dcs: int,
    num_pods: int,
    num_racks: int = 2,
) -> Tuple[float, float, float, float]:
    """Monotone per-relationship hop minima ``(far, dc, pod, rack)``.

    ``far`` is the cost when the endpoints share nothing (different
    datacenters), ``dc``/``pod``/``rack`` the minima when their closest
    shared unit is the datacenter / pod / rack -- *excluding* full
    co-location on one host, which is modeled separately (it is gated by
    host capacity). Relationships the forced separation distance rules
    out inherit the next-outer minimum, and a running ``min`` keeps the
    sequence monotone, so the linearized objective can only credit a
    relationship with a certified minimum.
    """
    far = g[4]
    dc = min(g[3], far) if forced <= 3 else far
    pod = min(g[2], dc) if forced <= 2 else dc
    rack = min(g[1], pod) if forced <= 1 else pod
    if num_dcs <= 1:
        far = dc
    if num_pods <= 1:
        far = dc = pod
    if num_racks <= 1:
        far = dc = pod = rack
    return far, dc, pod, rack


def _node_demands(
    topology: "ApplicationTopology", state: "DataCenterState"
) -> Dict[str, Tuple[float, float, float]]:
    """Per-node (cpu, mem, disk) demand vectors."""
    demands: Dict[str, Tuple[float, float, float]] = {}
    for name, node in topology.nodes.items():
        if node.is_vm:
            demands[name] = (state.reserved_vcpus(node), node.mem_gb, 0.0)
        else:
            demands[name] = (0.0, 0.0, node.size_gb)
    return demands


def _host_maxima(
    cloud: Cloud, state: "DataCenterState"
) -> Tuple[float, float, float]:
    """Largest per-host free (cpu, mem, total disk) across the cloud."""
    best = [0.0, 0.0, 0.0]
    for host in cloud.hosts:
        h = host.index
        best[0] = max(best[0], state.free_cpu[h])
        best[1] = max(best[1], state.free_mem[h])
        best[2] = max(
            best[2], sum(state.free_disk[d.index] for d in host.disks)
        )
    return best[0], best[1], best[2]


def _pair_can_colocate(
    dem_a: Tuple[float, float, float],
    dem_b: Tuple[float, float, float],
    host_max: Tuple[float, float, float],
) -> bool:
    """Loose host-capacity screen: can any host hold both endpoints?

    Compares the pair's summed demand against the cloud-wide per-host
    maxima resource by resource -- if even that fails, no host can
    co-locate the pair (the real packing is only harder).
    """
    return all(
        dem_a[i] + dem_b[i] <= host_max[i] + 1e-9 for i in range(3)
    )


def _link_components(
    topology: "ApplicationTopology",
) -> List[List[int]]:
    """Connected components over positive-bandwidth links.

    Returns, per component with at least one link, the indices into the
    positive-link list (the order :func:`_positive_links` yields).
    """
    parent: Dict[str, str] = {}

    def find(x: str) -> str:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    plinks = _positive_links(topology)
    for a, b, _bw in plinks:
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: Dict[str, List[int]] = {}
    for li, (a, _b, _bw) in enumerate(plinks):
        groups.setdefault(find(a), []).append(li)
    return list(groups.values())


def _positive_links(
    topology: "ApplicationTopology",
) -> List[Tuple[str, str, float]]:
    """The positive-bandwidth links as (a, b, bw) tuples, in order."""
    return [
        (lk.a, lk.b, lk.bw_mbps)
        for lk in topology.links
        if lk.bw_mbps > 0
    ]


def _component_min_hosts(
    member_names: List[str],
    demands: Dict[str, Tuple[float, float, float]],
    host_max: Tuple[float, float, float],
) -> float:
    """Capacity floor on how many hosts a node set must occupy.

    ``k`` hosts supply at most ``k`` times the largest single host's
    free capacity, per resource; returns ``inf`` when some demanded
    resource has no capacity anywhere (infeasible).
    """
    k = 1.0
    for res in range(3):
        total = sum(demands[m][res] for m in member_names)
        if total <= 0:
            continue
        if host_max[res] <= 0:
            return math.inf
        k = max(k, math.ceil(total / host_max[res] - 1e-9))
    return k


def _closed_form(
    topology: "ApplicationTopology",
    cloud: Cloud,
    state: "DataCenterState",
    objective: "Objective",
) -> Tuple[float, float, float]:
    """(score, bw_mbps, new_hosts) floor without any solver.

    Bandwidth: each link needs at least its bandwidth times the minimum
    hop count any feasible endpoint pair can realize. Activation: ``k``
    new hosts supply at most ``k`` times the largest idle host's free
    capacity, so ``k`` is at least the demand overshoot beyond the
    already-active hosts' free capacity, per resource.
    """
    g = _hop_minima(cloud)
    num_racks, num_pods, num_dcs = (
        len(set(cloud.unit_ids[level]))
        for level in (Level.RACK, Level.POD, Level.DATACENTER)
    )
    demands = _node_demands(topology, state)
    host_max = _host_maxima(cloud, state)
    for dem in demands.values():
        if any(dem[i] > host_max[i] + 1e-9 for i in range(3)):
            # no single host can hold this node: truly infeasible
            return math.inf, math.inf, 0.0
    plinks = _positive_links(topology)
    crossing_cost: List[float] = []  # certified min cost if not colocated
    colocatable: List[bool] = []
    bw_lb = 0.0
    for a, b, bw in plinks:
        forced = _forced_distance(topology, a, b)
        _, _, _, rack = _link_level_costs(
            g, forced, num_dcs, num_pods, num_racks
        )
        crossing_cost.append(bw * rack)
        can = forced == 0 and _pair_can_colocate(
            demands[a], demands[b], host_max
        )
        colocatable.append(can)
        if not can:
            if not math.isfinite(rack):
                # the innermost allowed relationship is unrealizable
                return math.inf, math.inf, 0.0
            bw_lb += bw * rack
    # connectivity cut: a component that must span k hosts (by capacity)
    # has at least k-1 links crossing hosts; charge the cheapest ones
    # beyond those already known to cross.
    for comp in _link_components(topology):
        members = sorted({e for li in comp for e in plinks[li][:2]})
        k = _component_min_hosts(members, demands, host_max)
        extra = int(k) - 1 - sum(1 for li in comp if not colocatable[li])
        if extra <= 0:
            continue
        colo_costs = sorted(
            crossing_cost[li] for li in comp if colocatable[li]
        )
        bw_lb += sum(colo_costs[:extra])

    demand = {"cpu": 0.0, "mem": 0.0, "disk": 0.0}
    for node in topology.nodes.values():
        if node.is_vm:
            demand["cpu"] += state.reserved_vcpus(node)
            demand["mem"] += node.mem_gb
        else:
            demand["disk"] += node.size_gb
    active_free = {"cpu": 0.0, "mem": 0.0, "disk": 0.0}
    idle_max = {"cpu": 0.0, "mem": 0.0, "disk": 0.0}
    for host in cloud.hosts:
        h = host.index
        disk_free = sum(
            state.free_disk[d.index] for d in host.disks
        )
        if state.host_is_active(h):
            active_free["cpu"] += state.free_cpu[h]
            active_free["mem"] += state.free_mem[h]
            active_free["disk"] += disk_free
        else:
            idle_max["cpu"] = max(idle_max["cpu"], state.free_cpu[h])
            idle_max["mem"] = max(idle_max["mem"], state.free_mem[h])
            idle_max["disk"] = max(idle_max["disk"], disk_free)
    uc_lb = 0.0
    for res in ("cpu", "mem", "disk"):
        overshoot = demand[res] - active_free[res]
        if overshoot <= 0:
            continue
        if idle_max[res] <= 0:
            continue  # infeasible demand; leave to the solver's verdict
        uc_lb = max(uc_lb, math.ceil(overshoot / idle_max[res] - 1e-9))
    score = objective.score(bw_lb, uc_lb)
    return score, bw_lb, uc_lb


def lower_bound(
    topology: "ApplicationTopology",
    cloud: Cloud,
    state: "DataCenterState",
    objective: "Objective",
    time_limit_s: float = 60.0,
) -> OracleBound:
    """Certified lower bound on the optimal fresh-placement objective.

    Args:
        topology: the application to place (no nodes pre-assigned).
        cloud: the target data center.
        state: current availability (determines capacities and which
            hosts are already active).
        objective: the normalized objective the algorithms minimized.
        time_limit_s: HiGHS wall-clock budget; on timeout the solver's
            dual bound (still a certified lower bound) is used.

    Returns:
        An :class:`OracleBound`; ``score`` never exceeds the objective
        value of any feasible placement.
    """
    cf_score, bw_lb, uc_lb = _closed_form(topology, cloud, state, objective)
    if not (HAVE_SCIPY and HAVE_NUMPY):
        return OracleBound(
            score=cf_score,
            bw_mbps=bw_lb,
            new_hosts=uc_lb,
            solver="closed-form",
            status="scipy unavailable" if not HAVE_SCIPY else "no numpy",
        )
    milp_score, solver, status = _milp_bound(
        topology, cloud, state, objective, time_limit_s
    )
    if milp_score is None or milp_score < cf_score:
        # the MILP never beats its own closed-form floor unless the
        # solver failed outright; keep the floor either way
        if milp_score is None:
            solver, status = "closed-form", status
        milp_score = cf_score
    return OracleBound(
        score=milp_score,
        bw_mbps=bw_lb,
        new_hosts=uc_lb,
        solver=solver,
        status=status,
    )


def _milp_bound(
    topology: "ApplicationTopology",
    cloud: Cloud,
    state: "DataCenterState",
    objective: "Objective",
    time_limit_s: float,
) -> Tuple[Optional[float], str, str]:
    """Rack-granular MILP relaxation; returns (score_lb, solver, status)."""
    import numpy as np

    # the racks holding hosts, each a host range, and the positions of
    # those racks per pod / dc unit: unit ids nest and ascend with the
    # host index, so a rack's first host decides and groups come sorted
    starts = cloud.unit_starts[Level.RACK]
    hosts_by_rack = [
        range(lo, hi) for lo, hi in zip(starts, starts[1:]) if lo < hi
    ]
    num_r = len(hosts_by_rack)
    racks_of: Dict[int, List[List[int]]] = {}
    for level in (Level.POD, Level.DATACENTER):
        groups: Dict[int, List[int]] = {}
        for r, hosts in enumerate(hosts_by_rack):
            groups.setdefault(cloud.unit_ids[level][hosts[0]], []).append(r)
        racks_of[level] = list(groups.values())
    num_p = len(racks_of[Level.POD])
    num_d = len(racks_of[Level.DATACENTER])

    nodes = list(topology.nodes)
    node_index = {name: n for n, name in enumerate(nodes)}
    num_n = len(nodes)
    links = [
        (node_index[lk.a], node_index[lk.b], lk.bw_mbps,
         _forced_distance(topology, lk.a, lk.b))
        for lk in topology.links
        if lk.bw_mbps > 0
    ]
    num_l = len(links)
    g = _hop_minima(cloud)
    demands = _node_demands(topology, state)
    host_max = _host_maxima(cloud, state)
    if any(
        any(dem[i] > host_max[i] + 1e-9 for i in range(3))
        for dem in demands.values()
    ):
        return math.inf, "closed-form", "node exceeds every host"
    plinks = _positive_links(topology)
    colocatable = [
        forced == 0
        and _pair_can_colocate(demands[a], demands[b], host_max)
        for (a, b, _bw), (_ai, _bi, _bwi, forced) in zip(plinks, links)
    ]

    # variable layout: x (N*R bin) | both_r (L*R) | both_p (L*P) |
    #                  both_d (L*D) | new_hosts (R) | colo (L)
    use_pod = num_p > 1
    use_dc = num_d > 1
    off_x = 0
    off_br = off_x + num_n * num_r
    off_bp = off_br + num_l * num_r
    off_bd = off_bp + (num_l * num_p if use_pod else 0)
    off_nh = off_bd + (num_l * num_d if use_dc else 0)
    off_co = off_nh + num_r
    num_vars = off_co + num_l

    theta_bw = objective.theta_bw / objective.ubw_hat if (
        objective.ubw_hat > 0
    ) else 0.0
    theta_c = objective.theta_c / objective.uc_hat if (
        objective.uc_hat > 0
    ) else 0.0

    cost = np.zeros(num_vars)
    constant = 0.0
    for li, (_a, _b, bw, forced) in enumerate(links):
        far, dc, pod, rack = _link_level_costs(
            g, forced, num_d, num_p, num_r
        )
        if not math.isfinite(far):
            # all folds collapsed onto an unrealizable relationship
            if colocatable[li]:
                return None, "milp", "degenerate cloud; closed form only"
            return math.inf, "milp", "forced separation unrealizable"
        constant += theta_bw * bw * far
        cost[off_br + li * num_r : off_br + (li + 1) * num_r] = (
            theta_bw * bw * (rack - pod)
        )
        if use_pod:
            cost[off_bp + li * num_p : off_bp + (li + 1) * num_p] = (
                theta_bw * bw * (pod - dc)
            )
        if use_dc:
            cost[off_bd + li * num_d : off_bd + (li + 1) * num_d] = (
                theta_bw * bw * (dc - far)
            )
        if colocatable[li]:
            # full co-location discounts the same-rack floor to zero
            cost[off_co + li] = -theta_bw * bw * rack
    cost[off_nh:off_co] = theta_c

    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    con_lb: List[float] = []
    con_ub: List[float] = []
    row = 0

    def add_entry(r: int, c: int, v: float) -> None:
        rows.append(r)
        cols.append(c)
        vals.append(v)

    # each node in exactly one rack
    for n in range(num_n):
        for r in range(num_r):
            add_entry(row, off_x + n * num_r + r, 1.0)
        con_lb.append(1.0)
        con_ub.append(1.0)
        row += 1

    # per-rack capacities, activation bounds, and demands
    node_objs = [topology.nodes[name] for name in nodes]
    cpu_dem = [
        state.reserved_vcpus(nd) if nd.is_vm else 0.0 for nd in node_objs
    ]
    mem_dem = [nd.mem_gb if nd.is_vm else 0.0 for nd in node_objs]
    disk_dem = [0.0 if nd.is_vm else nd.size_gb for nd in node_objs]
    for r in range(num_r):
        cap = {"cpu": 0.0, "mem": 0.0, "disk": 0.0}
        active_free = {"cpu": 0.0, "mem": 0.0, "disk": 0.0}
        idle_max = {"cpu": 0.0, "mem": 0.0, "disk": 0.0}
        idle_hosts = 0
        for h in hosts_by_rack[r]:
            disk_free = sum(state.free_disk[d.index]
                            for d in cloud.hosts[h].disks)
            cap["cpu"] += state.free_cpu[h]
            cap["mem"] += state.free_mem[h]
            cap["disk"] += disk_free
            if state.host_is_active(h):
                active_free["cpu"] += state.free_cpu[h]
                active_free["mem"] += state.free_mem[h]
                active_free["disk"] += disk_free
            else:
                idle_hosts += 1
                idle_max["cpu"] = max(idle_max["cpu"], state.free_cpu[h])
                idle_max["mem"] = max(idle_max["mem"], state.free_mem[h])
                idle_max["disk"] = max(idle_max["disk"], disk_free)
        for res, dem in (
            ("cpu", cpu_dem), ("mem", mem_dem), ("disk", disk_dem)
        ):
            # total demand routed to this rack fits its aggregate free
            for n in range(num_n):
                if dem[n]:
                    add_entry(row, off_x + n * num_r + r, dem[n])
            con_lb.append(-math.inf)
            con_ub.append(cap[res])
            row += 1
            # k new hosts supply at most k * largest idle host
            for n in range(num_n):
                if dem[n]:
                    add_entry(row, off_x + n * num_r + r, dem[n])
            add_entry(row, off_nh + r, -idle_max[res])
            con_lb.append(-math.inf)
            con_ub.append(active_free[res])
            row += 1
        # upper-bound new hosts by the rack's idle host count (bounds
        # vector below needs a per-variable cap; do it here as a row)
        add_entry(row, off_nh + r, 1.0)
        con_lb.append(-math.inf)
        con_ub.append(float(idle_hosts))
        row += 1

    # both_u <= x[endpoint, u] for each level's units
    unit_blocks = [(off_bp, racks_of[Level.POD])] if use_pod else []
    if use_dc:
        unit_blocks.append((off_bd, racks_of[Level.DATACENTER]))
    for li, (a, b, _bw, _forced) in enumerate(links):
        for r in range(num_r):
            for endpoint in (a, b):
                add_entry(row, off_br + li * num_r + r, 1.0)
                add_entry(row, off_x + endpoint * num_r + r, -1.0)
                con_lb.append(-math.inf)
                con_ub.append(0.0)
                row += 1
        for offset, units in unit_blocks:
            for ui, member_racks in enumerate(units):
                for endpoint in (a, b):
                    add_entry(row, offset + li * len(units) + ui, 1.0)
                    for r in member_racks:
                        add_entry(row, off_x + endpoint * num_r + r, -1.0)
                    con_lb.append(-math.inf)
                    con_ub.append(0.0)
                    row += 1

    # co-location implies same rack: co_l <= sum_r both_r[l, r]
    for li in range(num_l):
        if not colocatable[li]:
            continue
        add_entry(row, off_co + li, 1.0)
        for r in range(num_r):
            add_entry(row, off_br + li * num_r + r, -1.0)
        con_lb.append(-math.inf)
        con_ub.append(0.0)
        row += 1

    # connectivity cut: a component whose demand forces k hosts (by the
    # largest-host capacity argument) keeps at least k-1 of its links
    # un-colocated in any real placement, because the quotient graph
    # over occupied hosts is connected
    for comp in _link_components(topology):
        members = sorted({e for li in comp for e in plinks[li][:2]})
        k = _component_min_hosts(members, demands, host_max)
        cap = float(len(comp)) - (k - 1.0)
        if cap >= len(comp):
            continue
        for li in comp:
            add_entry(row, off_co + li, 1.0)
        con_lb.append(-math.inf)
        con_ub.append(cap)
        row += 1

    # diversity zones: at most one member per unit at the zone's level
    # (level 0 caps members per rack at the rack's host count)
    for zone in topology.zones:
        members = [node_index[m] for m in zone.members if m in node_index]
        if len(members) < 2:
            continue
        level = int(zone.level)
        if level == 0:
            for r in range(num_r):
                for n in members:
                    add_entry(row, off_x + n * num_r + r, 1.0)
                con_lb.append(-math.inf)
                con_ub.append(float(len(hosts_by_rack[r])))
                row += 1
        elif level == 1:
            for r in range(num_r):
                for n in members:
                    add_entry(row, off_x + n * num_r + r, 1.0)
                con_lb.append(-math.inf)
                con_ub.append(1.0)
                row += 1
        elif (level == 2 and use_pod) or (level >= 3 and use_dc):
            for member_racks in racks_of[min(level, Level.DATACENTER)]:
                for n in members:
                    for r in member_racks:
                        add_entry(row, off_x + n * num_r + r, 1.0)
                con_lb.append(-math.inf)
                con_ub.append(1.0)
                row += 1

    matrix = csr_array(
        (vals, (rows, cols)), shape=(row, num_vars)
    )
    integrality = np.zeros(num_vars)
    integrality[: num_n * num_r] = 1
    lower = np.zeros(num_vars)
    upper = np.ones(num_vars)
    # new-host counts capped by the per-rack idle-count rows
    upper[off_nh:off_co] = np.inf
    for li in range(num_l):
        if not colocatable[li]:
            upper[off_co + li] = 0.0
    result = milp(
        c=cost,
        constraints=LinearConstraint(
            matrix, np.array(con_lb), np.array(con_ub)
        ),
        integrality=integrality,
        bounds=Bounds(lower, upper),
        options={"time_limit": time_limit_s, "disp": False},
    )
    status = f"{result.status}: {result.message}"
    if result.status == 0 and result.fun is not None:
        return constant + float(result.fun), "milp", status
    dual = getattr(result, "mip_dual_bound", None)
    if dual is not None and math.isfinite(dual):
        return constant + float(dual), "milp-dual", status
    if result.status == 2:
        # relaxation infeasible => the true problem is infeasible
        return math.inf, "milp", status
    return None, "milp", status


def gap_payload(
    bound: OracleBound,
) -> Dict[str, Any]:
    """JSON-ready description of an oracle bound for bench payloads."""
    return {
        "score_lower_bound": bound.score,
        "reserved_bw_mbps_lower_bound": bound.bw_mbps,
        "new_active_hosts_lower_bound": bound.new_hosts,
        "solver": bound.solver,
        "status": bound.status,
    }
