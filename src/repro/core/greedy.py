"""Greedy placement algorithms: EG (Algorithm 1) and the EGC / EGBW baselines.

* :class:`EG` -- the paper's estimate-based greedy. Nodes are sorted by
  their aggregate relative resource weight; each node goes to the candidate
  host minimizing *(accumulated usage + lower-bound estimate of placing the
  rest)*, evaluated with :class:`repro.core.heuristic.LowerBoundEstimator`.
* :class:`EGC` -- compute bin-packing baseline: tightest-fit host first,
  ignoring communication links (still constraint-feasible).
* :class:`EGBW` -- bandwidth-greedy baseline: co-locate linked nodes, and
  among equally close hosts prefer the one with the most available
  bandwidth (this is what drives it onto idle hosts in Table I).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro import obs
from repro.core.base import PlacementAlgorithm, PlacementResult, SearchStats
from repro.core.candidates import CandidateTarget, candidate_targets
from repro.core.constraints import topology_obviously_infeasible
from repro.core.heuristic import EstimatorConfig, LowerBoundEstimator
from repro.core.objective import Objective
from repro.core.placement import PartialPlacement
from repro.core.scorer import CandidateBlock, Scorer, active_scorer
from repro.core.topology import ApplicationTopology
from repro.datacenter.model import Cloud
from repro.datacenter.network import PathResolver
from repro.datacenter.state import DataCenterState
from repro.errors import PlacementError


@dataclass(frozen=True)
class GreedyConfig:
    """Tuning knobs for EG.

    Attributes:
        dedup: collapse interchangeable candidate hosts (exact; see
            :mod:`repro.core.candidates`). Disable only for ablations.
        max_full_candidates: evaluate the expensive lower-bound estimate on
            at most this many candidates per node, preselected by a cheap
            immediate-cost proxy. None evaluates all candidates, which is
            the paper's (parallelized) behavior.
        estimator: truncation config for the lower-bound estimator.
        max_backtracks: greedy dead-end recovery budget. Pure greedy can
            paint itself into a corner (e.g. exhausting a host's NIC that a
            later neighbor needs); when a node has no feasible candidate,
            the engine undoes the most recent conflicting decision and
            tries its next-best candidate, up to this many times, before
            giving up -- at which point EG's restart cascade switches
            strategy, so a modest budget per strategy beats a large one.
            Set to 0 for the paper's fail-fast behavior.
    """

    dedup: bool = True
    max_full_candidates: Optional[int] = None
    estimator: EstimatorConfig = EstimatorConfig()
    max_backtracks: int = 50


def sort_nodes_by_relative_weight(topology: ApplicationTopology) -> List[str]:
    """Sort node names by the sum of relative resource weights, descending.

    The weight of a node is ``sum_x r_x / R_x`` over x in {cpu, mem, disk,
    bandwidth}, where ``R_x`` is the mean requirement of resource x across
    all nodes (Section III-A1). Ties break on name for determinism. The
    order is cached on the topology until its next structural mutation.
    """
    return topology.sorted_by_weight()


def apply_pinned(
    partial: PartialPlacement,
    pinned: Dict[str, Tuple[int, Optional[int]]],
) -> List[str]:
    """Assign pinned nodes up front; returns the pinned node names.

    Pinned assignments are applied in sorted-name order for determinism.
    :meth:`PartialPlacement.assign` enforces capacity and bandwidth;
    diversity and latency are checked explicitly here (the search normally
    enforces them at candidate generation, which pins bypass), so an
    infeasible pin always surfaces as :class:`PlacementError`.
    """
    from repro.core import constraints

    for name in sorted(pinned):
        host, disk = pinned[name]
        if not constraints.diversity_ok(partial, name, host):
            raise PlacementError(
                f"pinned node {name!r} violates a diversity zone on host "
                f"{partial.state.cloud.hosts[host].name}",
                node_name=name,
            )
        if not constraints.latency_ok(partial, name, host):
            raise PlacementError(
                f"pinned node {name!r} violates a latency bound on host "
                f"{partial.state.cloud.hosts[host].name}",
                node_name=name,
            )
        partial.assign(name, host, disk)
    return list(pinned)


def sort_nodes_by_bandwidth(topology: ApplicationTopology) -> List[str]:
    """Sort node names by total incident link bandwidth, descending.

    The restart ordering for bandwidth-critical topologies: placing the
    most-connected nodes first reserves their flows while the network is
    still empty (most-constrained-first). Cached on the topology.
    """
    return topology.sorted_by_bandwidth()


def most_free_nic_tie(
    partial: PartialPlacement,
) -> Callable[[CandidateTarget], Tuple[float, int]]:
    """Candidate tie-break preferring hosts with the most free NIC bandwidth.

    Used by EGBW always, and by EG/EGC as a last-resort restart strategy:
    spreading onto bandwidth-rich hosts avoids draining any single NIC.
    """
    cloud = partial.state.cloud

    def key(target: CandidateTarget) -> Tuple[float, int]:
        nic_free = partial.state.free_bw[cloud.hosts[target.host].link_index]
        return (-nic_free, target.host)

    return key


def greedy_with_restarts(
    topology: ApplicationTopology,
    state: DataCenterState,
    resolver: PathResolver,
    objective: Objective,
    estimator: LowerBoundEstimator,
    config: GreedyConfig,
    stats: SearchStats,
    pinned: Dict[str, Tuple[int, Optional[int]]],
    strategies: Sequence[Tuple],
) -> PartialPlacement:
    """Try greedy placement strategies in order until one succeeds.

    Each strategy is a ``(node_order, tie_key_factory)`` pair, optionally
    extended with an objective override; the factory (or None) receives
    the fresh partial placement and returns a candidate tie-break key.
    The first exception is re-raised if every strategy fails. This is the
    dead-end recovery of last resort: backjumping handles local
    conflicts, a different global ordering (or scoring) handles
    structural ones (e.g. bandwidth-critical meshes want their chattiest
    nodes placed first and spread over free NICs).
    """
    rec = obs.get_recorder()
    first_error: Optional[PlacementError] = None
    for attempt, strategy in enumerate(strategies):
        order, tie_factory = strategy[0], strategy[1]
        scoring = strategy[2] if len(strategy) > 2 else objective
        partial = PartialPlacement(topology, state, resolver)
        apply_pinned(partial, pinned)
        tie_key = tie_factory(partial) if tie_factory is not None else None
        if rec.enabled and attempt > 0:
            rec.inc("ostro_restarts_total")
            rec.event("restart", strategy=attempt)
        try:
            run_greedy_from(
                partial, list(order), scoring, estimator, config, stats,
                tie_key=tie_key,
            )
            stats.restarts += attempt
            return partial
        except PlacementError as exc:
            if first_error is None:
                first_error = exc
    assert first_error is not None
    raise first_error


def preselect(
    scorer: Scorer,
    partial: PartialPlacement,
    objective: Objective,
    node_name: str,
    targets: CandidateBlock,
    cap: Optional[int],
) -> Tuple[List[CandidateTarget], Iterator[CandidateTarget]]:
    """Split ``targets`` into the ``cap`` cheapest and the rest.

    Cheapest by the immediate-cost proxy (the objective after placing only
    this node); both parts come in ascending cost order, ties keeping
    input order. Estimating hundreds of near-symmetric candidates would
    starve the search of depth, so EG and BA* estimate only the head. With
    no cap, or no more than ``cap`` targets, nothing is ranked.

    Only the head is built as records. The rest is an iterator that
    builds a record when asked for one: BA* drops it unread, and greedy
    reads it only when a backjump exhausts the head.
    """
    if cap is None or len(targets) <= cap:
        return list(targets), iter(())
    costs = scorer.immediate_costs(partial, objective, node_name, targets)
    ranked = sorted(range(len(targets)), key=costs.__getitem__)
    return (
        [targets[i] for i in ranked[:cap]],
        map(targets.__getitem__, ranked[cap:]),
    )


def record_estimate(
    rec: obs.Recorder,
    stats: SearchStats,
    node_name: str,
    host: int,
    remaining: int,
    est_bw_mbps: float,
    est_hosts: int,
    seconds: float,
) -> None:
    """Count one scored candidate and emit its ``estimate_computed`` event.

    ``seconds`` is the candidate's share of the one scoring call that
    evaluated it together with its siblings, on every kernel.
    """
    stats.candidates_scored += 1
    if rec.enabled:
        rec.inc("ostro_estimates_total")
        rec.inc("ostro_candidates_scored_total")
        rec.observe("ostro_estimate_seconds", seconds)
        rec.event(
            "estimate_computed",
            node=node_name,
            host=host,
            remaining=remaining,
            est_bw_mbps=est_bw_mbps,
            est_hosts=est_hosts,
            seconds=seconds,
        )


class EG(PlacementAlgorithm):
    """Estimate-based greedy placement (Algorithm 1 of the paper)."""

    name = "eg"

    def __init__(self, config: Optional[GreedyConfig] = None) -> None:
        self.config = config or GreedyConfig()

    def _run(
        self,
        topology: ApplicationTopology,
        cloud: Cloud,
        state: DataCenterState,
        objective: Objective,
        pinned: Dict[str, Tuple[int, Optional[int]]],
    ) -> PlacementResult:
        resolver = PathResolver.for_cloud(cloud)
        probe = PartialPlacement(topology, state, resolver)
        stats = SearchStats()
        reason = topology_obviously_infeasible(topology, probe)
        if reason is not None:
            raise PlacementError(reason)
        estimator = LowerBoundEstimator(cloud, self.config.estimator, resolver=resolver)
        weight_order = [
            n for n in sort_nodes_by_relative_weight(topology) if n not in pinned
        ]
        bw_order = [
            n for n in sort_nodes_by_bandwidth(topology) if n not in pinned
        ]
        try:
            partial = greedy_with_restarts(
                topology,
                state,
                resolver,
                objective,
                estimator,
                self.config,
                stats,
                pinned,
                strategies=self._strategies(weight_order, bw_order, objective),
            )
        except PlacementError:
            # Ultimate fallback: the link-blind tightest-fit packing (EGC)
            # sidesteps bandwidth corners the estimate-guided strategies
            # fall into on densely meshed topologies; a feasible placement
            # beats an exception, and the objective is reported honestly.
            fallback = EGC(dedup=self.config.dedup).place(
                topology, cloud, state, objective,
                pinned=dict(pinned) if pinned else None,
            )
            stats.restarts += len(
                self._strategies(weight_order, bw_order, objective)
            )
            stats.candidates_scored += fallback.stats.candidates_scored
            fallback.stats = stats
            return fallback
        return PlacementResult(
            placement=partial.freeze(),
            objective_value=objective.score(partial.ubw, partial.uc),
            stats=stats,
        )

    @staticmethod
    def _strategies(
        weight_order: List[str],
        bw_order: List[str],
        objective: Objective,
    ) -> List[Tuple]:
        """EG's dead-end restart cascade, cheapest-deviation first.

        The paper's sorting comes first; alternative orders, a
        free-NIC-spreading tie-break, and finally EGBW-style pure-bandwidth
        scoring follow -- the last succeeds whenever a bandwidth-first
        greedy can place the topology at all.
        """
        bw_only = Objective(
            theta_bw=1.0,
            theta_c=0.0,
            ubw_hat=objective.ubw_hat,
            uc_hat=objective.uc_hat,
        )
        return [
            (weight_order, None),
            (bw_order, None),
            (weight_order, most_free_nic_tie),
            (bw_order, most_free_nic_tie),
            (weight_order, most_free_nic_tie, bw_only),
            (bw_order, most_free_nic_tie, bw_only),
        ]


def run_greedy_from(
    partial: PartialPlacement,
    remaining: List[str],
    objective: Objective,
    estimator: LowerBoundEstimator,
    config: GreedyConfig,
    stats: SearchStats,
    tie_key: Optional[Callable[[CandidateTarget], Tuple[float, int]]] = None,
) -> None:
    """Greedily place ``remaining`` onto an existing partial placement.

    This is the shared engine of EG and of the EG-based upper-bound runs
    inside BA*/DBA* (Algorithm 2 lines 3 and 17, where EG continues from a
    partial search path). Mutates ``partial`` in place; raises
    :class:`PlacementError` if some node has no feasible candidate.

    Args:
        tie_key: optional candidate sort key evaluated before scoring;
            among equally scored candidates the first in this order wins
            (EGBW uses it to prefer hosts with the most free bandwidth).
    """
    order = list(remaining)
    rec = obs.get_recorder()
    scorer = active_scorer()

    def ranked_candidates(node_name: str) -> Iterator[CandidateTarget]:
        """Feasible targets best-first: estimate-scored head + proxy tail."""
        block = candidate_targets(partial, node_name, dedup=config.dedup)
        if tie_key is not None:
            # stable sort: tie_key settles equal-cost candidates below
            block = CandidateBlock.of(sorted(block, key=tie_key))
        targets, tail = preselect(
            scorer, partial, objective, node_name, block,
            config.max_full_candidates,
        )
        rest = [
            n for n in order if n != node_name and not partial.is_placed(n)
        ]
        started = time.perf_counter()
        batch = scorer.score(
            partial, node_name, targets, rest, objective, estimator
        )
        elapsed = time.perf_counter() - started
        scored = []
        for rank, (score, est_bw, est_c) in enumerate(batch):
            record_estimate(
                rec, stats, node_name, targets[rank].host, len(rest),
                est_bw, est_c, elapsed / len(batch),
            )
            scored.append((score, rank))
        scored.sort()
        return itertools.chain([targets[rank] for _, rank in scored], tail)

    backtracking_place(
        partial, order, ranked_candidates, config.max_backtracks, stats
    )


def backtracking_place(
    partial: PartialPlacement,
    order: List[str],
    rank_fn: Callable[[str], Iterable[CandidateTarget]],
    max_backtracks: int,
    stats: SearchStats,
) -> None:
    """Place ``order`` one node at a time with neighbor-directed backjumping.

    ``rank_fn(node_name)`` must return that node's feasible candidates,
    best first, evaluated against the current ``partial``; they are
    consumed one ``next()`` at a time, so a lazy tail is only built when
    a backjump reaches it. When a node has no candidates left, the search
    jumps back to the most recent *conflicting* decision: a placed
    neighbor of the failing node, or any node sharing a host with a placed
    neighbor (those are the placements that drain the capacity and NIC
    bandwidth the failing node needs). Up to ``max_backtracks`` jumps are
    spent before giving up.
    """
    # Level i holds the not-yet-tried candidates for order[i].
    rec = obs.get_recorder()
    pending: List[Iterator[CandidateTarget]] = []
    backtracks = 0
    level = 0
    while level < len(order):
        node_name = order[level]
        if len(pending) == level:
            pending.append(iter(rank_fn(node_name)))
        target = next(pending[level], None)
        if target is None:
            if level == 0 or backtracks >= max_backtracks:
                raise PlacementError(
                    f"no feasible host for node {node_name!r}",
                    node_name=node_name,
                )
            neighbors = {n for n, _ in partial.topology.neighbors(node_name)}
            conflict_hosts = {
                partial.assignments[n].host
                for n in neighbors
                if n in partial.assignments
            }
            target_level = level - 1
            for j in range(level - 1, -1, -1):
                placed = order[j]
                if placed in neighbors or (
                    placed in partial.assignments
                    and partial.assignments[placed].host in conflict_hosts
                ):
                    target_level = j
                    break
            del pending[target_level + 1 :]
            for j in range(level - 1, target_level - 1, -1):
                partial.unassign(order[j])
            if rec.enabled:
                rec.inc("ostro_backtracks_total")
                rec.event(
                    "backtrack",
                    node=node_name,
                    from_level=level,
                    to_level=target_level,
                )
            level = target_level
            backtracks += 1
            stats.backtracks += 1
            continue
        partial.assign(node_name, target.host, target.disk)
        if rec.enabled:
            rec.event(
                "node_placed",
                node=node_name,
                host=target.host,
                disk=target.disk,
                level=level,
            )
        level += 1


class EGC(PlacementAlgorithm):
    """Compute bin-packing baseline (tightest remaining capacity first).

    Sorts nodes by decreasing size and packs each onto the feasible host
    with the least remaining compute capacity (volumes: the disk with the
    least remaining space), minimizing the number of hosts used while
    ignoring communication links entirely.
    """

    name = "egc"

    def __init__(self, dedup: bool = True, max_backtracks: int = 200) -> None:
        self.dedup = dedup
        self.max_backtracks = max_backtracks

    def _run(
        self,
        topology: ApplicationTopology,
        cloud: Cloud,
        state: DataCenterState,
        objective: Objective,
        pinned: Dict[str, Tuple[int, Optional[int]]],
    ) -> PlacementResult:
        resolver = PathResolver.for_cloud(cloud)
        probe = PartialPlacement(topology, state, resolver)
        stats = SearchStats()
        reason = topology_obviously_infeasible(topology, probe)
        if reason is not None:
            raise PlacementError(reason)
        orders = [
            [n for n in sort_nodes_by_relative_weight(topology) if n not in pinned],
            [n for n in sort_nodes_by_bandwidth(topology) if n not in pinned],
        ]
        first_error: Optional[PlacementError] = None
        for attempt, order in enumerate(orders):
            partial = PartialPlacement(topology, state, resolver)
            apply_pinned(partial, pinned)

            def tightest_fit_first(node_name: str) -> List[CandidateTarget]:
                targets = list(
                    candidate_targets(partial, node_name, dedup=self.dedup)
                )
                stats.candidates_scored += len(targets)
                node = topology.node(node_name)
                if node.is_vm:
                    targets.sort(
                        key=lambda t: (
                            partial.state.free_cpu[t.host],
                            partial.state.free_mem[t.host],
                            t.host,
                        )
                    )
                else:
                    targets.sort(
                        key=lambda t: (
                            partial.state.free_disk[t.disk], t.host
                        )
                    )
                return targets

            try:
                backtracking_place(
                    partial, order, tightest_fit_first,
                    self.max_backtracks, stats,
                )
                stats.restarts += attempt
                break
            except PlacementError as exc:
                if first_error is None:
                    first_error = exc
        else:
            assert first_error is not None
            raise first_error
        return PlacementResult(
            placement=partial.freeze(),
            objective_value=objective.score(partial.ubw, partial.uc),
            stats=stats,
        )


class EGBW(PlacementAlgorithm):
    """Bandwidth-only version of EG (Section IV-A).

    Per the paper, EGBW is "a version of EG ... that minimizes only the
    u_bw": it runs the same estimate-based greedy but scores candidates
    with a pure-bandwidth objective (theta_bw = 1, theta_c = 0), breaking
    ties toward the host with the most available NIC bandwidth -- which is
    what pushes it onto idle hosts (and all the remaining idle hosts of
    the paper's Table I testbed), since activating them is free under its
    objective.
    """

    name = "egbw"

    def __init__(self, config: Optional[GreedyConfig] = None) -> None:
        self.config = config or GreedyConfig()

    def _run(
        self,
        topology: ApplicationTopology,
        cloud: Cloud,
        state: DataCenterState,
        objective: Objective,
        pinned: Dict[str, Tuple[int, Optional[int]]],
    ) -> PlacementResult:
        resolver = PathResolver.for_cloud(cloud)
        probe = PartialPlacement(topology, state, resolver)
        stats = SearchStats()
        reason = topology_obviously_infeasible(topology, probe)
        if reason is not None:
            raise PlacementError(reason)
        estimator = LowerBoundEstimator(cloud, self.config.estimator, resolver=resolver)
        bw_only = Objective(
            theta_bw=1.0,
            theta_c=0.0,
            ubw_hat=objective.ubw_hat,
            uc_hat=objective.uc_hat,
        )
        weight_order = [
            n for n in sort_nodes_by_relative_weight(topology) if n not in pinned
        ]
        bw_order = [
            n for n in sort_nodes_by_bandwidth(topology) if n not in pinned
        ]
        partial = greedy_with_restarts(
            topology,
            state,
            resolver,
            bw_only,
            estimator,
            self.config,
            stats,
            pinned,
            strategies=[
                (weight_order, most_free_nic_tie),
                (bw_order, most_free_nic_tie),
            ],
        )
        return PlacementResult(
            placement=partial.freeze(),
            objective_value=objective.score(partial.ubw, partial.uc),
            stats=stats,
        )

