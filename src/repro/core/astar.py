"""Bounded A* search over placements (Algorithm 2, ``BA*``).

Each search path is a partial placement; its priority is the admissible
evaluation ``u = objective(accumulated usage + lower-bound estimate of the
rest)``. The search is bounded above by complete placements produced by EG:
once at the start, and again -- continuing greedily *from the current
partial path* -- every time the frontier's best evaluation rises, which
tightens the bound as the search advances (Section III-B2). Paths whose
evaluation meets or exceeds the current upper bound are pruned; when the
frontier's best entry does so, the incumbent EG placement is optimal within
the heuristic's guarantees and is returned. EG is deterministic, so a
re-run from a start an earlier EG run of the same search walked is skipped.

Duplicate partial placements are dropped via a closed set keyed on a
*canonical* form of the assignment set: nodes that are provably
interchangeable (same requirements, same diversity zones, same neighbor
structure) are collapsed to their equivalence class, eliminating the
permutation blow-up the paper addresses in Section III-B3.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.base import PlacementAlgorithm, PlacementResult, SearchStats
from repro.core.candidates import candidate_targets
from repro.core.constraints import topology_obviously_infeasible
from repro.core.greedy import (
    GreedyConfig,
    apply_pinned,
    preselect,
    record_estimate,
    run_greedy_from,
    sort_nodes_by_relative_weight,
)
from repro.core.heuristic import LowerBoundEstimator
from repro.core.objective import Objective
from repro.core.placement import PartialPlacement
from repro.core.scorer import active_scorer
from repro.core.topology import ApplicationTopology
from repro.datacenter.model import Cloud
from repro.datacenter.network import PathResolver
from repro.datacenter.state import DataCenterState
from repro.errors import PlacementError

#: slack for float comparisons between path evaluations and bounds
_BOUND_EPS = 1e-9


def node_equivalence_classes(topology: ApplicationTopology) -> Dict[str, int]:
    """Group interchangeable nodes (Section III-B3).

    Two nodes are interchangeable when they have identical requirements,
    belong to exactly the same diversity zones, and have identical neighbor
    structure once each other is factored out. Swapping the placements of
    two interchangeable nodes yields an equivalent solution, so the A*
    closed set can collapse them.

    Returns:
        node name -> equivalence class id.
    """
    names = list(topology.nodes)
    reqs = {n: topology.requirement_vector(n) for n in names}
    zones = {
        n: frozenset(z.name for z in topology.zones_of(n)) for n in names
    }
    nbrs: Dict[str, FrozenSet[Tuple[str, float]]] = {
        n: frozenset(topology.neighbors(n)) for n in names
    }

    def interchangeable(a: str, b: str) -> bool:
        if reqs[a] != reqs[b] or zones[a] != zones[b]:
            return False
        bw_ab = {bw for other, bw in nbrs[a] if other == b}
        bw_ba = {bw for other, bw in nbrs[b] if other == a}
        if bw_ab != bw_ba:
            return False
        rest_a = {(o, bw) for o, bw in nbrs[a] if o != b}
        rest_b = {(o, bw) for o, bw in nbrs[b] if o != a}
        return rest_a == rest_b

    # The naive construction checks every node against every earlier node
    # (quadratic in |V| with a set comparison per pair). Grouping by full
    # signature makes it near-linear without changing a single class id:
    #
    # * Non-adjacent interchangeable pairs have *identical* signatures
    #   (requirements, zones, full neighbor set) -- and identical neighbor
    #   sets imply non-adjacency, since ``b in nbrs[a] == nbrs[b]`` would
    #   require the self-loop ``b in nbrs[b]``. So a hash bucket finds
    #   exactly these matches.
    # * Adjacent interchangeable pairs (e.g. two ends of a symmetric edge)
    #   differ in their signatures only by each other, so they are found by
    #   checking ``name`` against its own already-classified neighbors --
    #   O(degree) pairwise checks instead of O(|V|).
    #
    # Joining the *earliest-classified* match (bucket head vs. best
    # neighbor) reproduces the sequential first-match semantics of the
    # naive loop exactly.
    class_of: Dict[str, int] = {}
    order_index: Dict[str, int] = {}
    buckets: Dict[tuple, List[str]] = {}
    next_class = 0
    for position, name in enumerate(names):
        signature = (reqs[name], zones[name], nbrs[name])
        bucket = buckets.setdefault(signature, [])
        best: Optional[str] = None
        if bucket:
            best = bucket[0]
        for other, _bw in nbrs[name]:
            if other not in class_of:
                continue
            if best is not None and order_index[other] > order_index[best]:
                continue
            if interchangeable(name, other):
                best = other
        if best is not None:
            class_of[name] = class_of[best]
        else:
            class_of[name] = next_class
            next_class += 1
        order_index[name] = position
        bucket.append(name)
    return class_of


def _path_key(assigned: Iterable[tuple], remaining: Sequence[str]) -> tuple:
    """Start of an EG run: its (node, host, disk) assignments and the nodes
    it still has to place, in order. Equal keys walk equal trajectories."""
    return frozenset(assigned), tuple(remaining)


@dataclass
class _SearchLimits:
    """Safety rails for the exponential search."""

    max_expansions: Optional[int] = None


class BAStar(PlacementAlgorithm):
    """Bounded A* placement (Algorithm 2 of the paper).

    Args:
        greedy_config: configuration shared with the EG bound runs and the
            candidate generation (dedup, estimator truncation).
        symmetry_reduction: collapse interchangeable nodes in the closed
            set (Section III-B3). Exact; disable only for ablation.
        max_expansions: optional hard cap on expanded paths; when hit the
            best complete placement found so far is returned.

    Candidates are scored on the popped path itself (see
    :meth:`repro.core.scorer.Scorer.score`); the path is cloned only for
    the candidates that survive the closed set and the bound check and
    are actually pushed -- most are deduplicated or pruned.
    """

    name = "ba*"

    def __init__(
        self,
        greedy_config: Optional[GreedyConfig] = None,
        symmetry_reduction: bool = True,
        max_expansions: Optional[int] = None,
    ) -> None:
        self.greedy_config = greedy_config or GreedyConfig()
        self.symmetry_reduction = symmetry_reduction
        self.limits = _SearchLimits(max_expansions=max_expansions)
        # duration of the most recent executed EG bound run, fed to the
        # deadline guard (_allow_bound_rerun)
        self._last_eg_duration = 0.0

    # ------------------------------------------------------------------
    # hooks specialized by DBA*
    # ------------------------------------------------------------------

    #: Which estimator orders (and prunes) the open queue. BA* uses the
    #: relaxed admissible variant, so its bound-based termination is sound.
    #: DBA* overrides this to the informative (paper-literal) estimate,
    #: which biases the queue toward paths with good greedy completions --
    #: the productive, depth-leaning behavior Fig. 6 relies on -- at the
    #: price of quasi-admissibility (hence it never *terminates* on the
    #: bound, it only discards; see ``terminate_on_bound``).
    ordering: str = "admissible"

    #: Whether a popped evaluation >= upper bound ends the whole search
    #: (valid only under an admissible ordering estimator).
    terminate_on_bound: bool = True

    #: When to re-run EG from a popped partial path to tighten the upper
    #: bound (Algorithm 2 lines 15-18). "on-advance" is the paper's rule
    #: (whenever the popped evaluation exceeds the running maximum) --
    #: each trigger greedily completes a different search prefix, which is
    #: what lets the deadline-bounded search keep improving with a larger
    #: budget. "per-depth" additionally caps triggers to one per depth
    #: level, bounding the EG overhead by |V| runs; BA* uses it because
    #: its admissible frontier raises the running maximum on nearly every
    #: pop (the paper amortized this by running EG in parallel).
    eg_rerun_policy: str = "per-depth"

    #: In "on-advance" mode, additionally re-run EG every this many pops,
    #: so the bound keeps tightening from diverse prefixes even when the
    #: frontier's depth stalls. None disables the periodic trigger.
    eg_rerun_every_pops: Optional[int] = None

    def _before_search(self, order: Sequence[str]) -> None:
        """Called once before the main loop (DBA* resets its clock here)."""

    def _should_prune_pop(self, depth: int, total: int) -> bool:
        """Probabilistic pop pruning hook; BA* never prunes pops."""
        return False

    def _out_of_time(self) -> bool:
        """Deadline hook; BA* has no deadline."""
        return False

    def _allow_bound_rerun(self, last_duration_s: float) -> bool:
        """Whether an EG bound re-run may start now (DBA* refuses one that
        would overshoot its deadline)."""
        return True

    def _after_expansion(self, open_depths: Counter, branching: float) -> None:
        """Bookkeeping hook for DBA*'s pruning-rate controller."""

    # ------------------------------------------------------------------

    def _run(
        self,
        topology: ApplicationTopology,
        cloud: Cloud,
        state: DataCenterState,
        objective: Objective,
        pinned: Dict[str, Tuple[int, Optional[int]]],
    ) -> PlacementResult:
        resolver = PathResolver.for_cloud(cloud)
        root = PartialPlacement(topology, state, resolver)
        stats = SearchStats()
        reason = topology_obviously_infeasible(topology, root)
        if reason is not None:
            raise PlacementError(reason)
        apply_pinned(root, pinned)
        # Two estimator flavors (see EstimatorConfig.optimistic_colocation):
        # the literal paper estimate drives the EG bound runs, while the
        # relaxed admissible variant orders and bounds the A* search so it
        # can explore below -- and improve on -- EG's placement.
        bound_estimator = LowerBoundEstimator(
            cloud, self.greedy_config.estimator, resolver=resolver
        )
        if self.ordering == "admissible":
            estimator = LowerBoundEstimator(
                cloud,
                self.greedy_config.estimator.admissible(),
                resolver=resolver,
            )
        else:
            estimator = bound_estimator
        order = [
            n for n in sort_nodes_by_relative_weight(topology) if n not in pinned
        ]
        total = len(order)
        class_of = (
            node_equivalence_classes(topology)
            if self.symmetry_reduction
            else {name: i for i, name in enumerate(order)}
        )

        rec = obs.get_recorder()
        scorer = active_scorer()
        # Initial upper bound from a full EG run (Algorithm 2 line 3).
        walked: set = set()  # starts of walked EG trajectories (_eg_continue)
        started = time.perf_counter()
        best_partial, u_upper = self._eg_bound(
            root, order, objective, bound_estimator, stats, walked
        )
        # seeds the deadline guard; a skipped re-run leaves it as it is
        self._last_eg_duration = time.perf_counter() - started
        if rec.enabled and best_partial is not None:
            rec.event("bound_updated", bound=u_upper, source="eg_initial")

        counter = itertools.count()
        est_bw, est_c = estimator.estimate(root, order)
        u0 = objective.score(root.ubw + est_bw, root.uc + est_c)
        open_queue: List[Tuple[float, int, int, PartialPlacement]] = [
            (u0, next(counter), 0, root)
        ]
        open_depths: Counter = Counter({0: 1})
        closed: set = set()
        u_max = float("-inf")
        eg_rerun_depth = -1
        pops = 0
        self._before_search(order)

        while open_queue:
            if self._out_of_time():
                stats.deadline_hit = True
                break
            u_p, _, depth, partial_p = heapq.heappop(open_queue)
            open_depths[depth] -= 1
            if u_p >= u_upper - _BOUND_EPS:
                if self.terminate_on_bound:
                    break  # frontier cannot beat the incumbent (line 6)
                if depth > 0:
                    continue  # stale per the (quasi-admissible) estimate
                # the root always expands: its estimate proves nothing
            if depth == total:
                # Complete placement better than the incumbent (line 7).
                if u_p < u_upper:
                    best_partial, u_upper = partial_p, u_p
                    if rec.enabled:
                        rec.event(
                            "bound_updated", bound=u_upper,
                            source="complete_path",
                        )
                if self.terminate_on_bound:
                    break
                continue  # deadline mode: keep improving until time is up
            if self._should_prune_pop(depth, total):
                stats.paths_pruned += 1
                if rec.enabled:
                    rec.inc("ostro_paths_pruned_total", reason="probabilistic")
                    rec.event(
                        "path_pruned",
                        depth=depth,
                        reason="probabilistic",
                        evaluation=u_p,
                    )
                continue
            # "Search advanced" triggers for the EG bound re-run
            # (Algorithm 2 lines 15-18): the frontier's best evaluation
            # rose, or (deadline mode) the search reached a new depth or
            # the periodic trigger fired.
            pops += 1
            periodic = (
                self.eg_rerun_every_pops is not None
                and pops % self.eg_rerun_every_pops == 0
            )
            advanced = (
                u_p > u_max
                or periodic
                or (
                    self.eg_rerun_policy == "on-advance"
                    and depth > eg_rerun_depth
                )
            )
            rerun_ok = (
                self.eg_rerun_policy == "on-advance" or depth > eg_rerun_depth
            ) and self._allow_bound_rerun(self._last_eg_duration)
            # only the re-run of a walked start is skipped (see _eg_continue)
            if advanced and rerun_ok:
                u_max = max(u_max, u_p)
                eg_rerun_depth = max(eg_rerun_depth, depth)
            if advanced and rerun_ok and _path_key(
                partial_p.placement_key(), order[depth:]
            ) not in walked:
                rerun_started = time.perf_counter()
                candidate = self._eg_continue(
                    partial_p, order[depth:], objective, bound_estimator,
                    stats, walked,
                )
                self._last_eg_duration = (
                    time.perf_counter() - rerun_started
                )
                if rec.enabled:
                    rec.observe(
                        "ostro_eg_bound_seconds", self._last_eg_duration
                    )
                if candidate is not None and candidate[1] < u_upper:
                    best_partial, u_upper = candidate
                    if rec.enabled:
                        rec.event(
                            "bound_updated", bound=u_upper, source="eg_rerun"
                        )

            node_name = order[depth]
            targets = candidate_targets(
                partial_p, node_name, dedup=self.greedy_config.dedup
            )
            targets, _ = preselect(
                scorer, partial_p, objective, node_name, targets,
                self.greedy_config.max_full_candidates,
            )
            # Closed-set dedup first, against canonical keys built without
            # mutating the path; the survivors are scored in one call.
            node_class = class_of[node_name]
            base_counted = Counter(
                (class_of[a.node], a.host, a.disk)
                for a in partial_p.assignments.values()
            )
            survivors = []
            for target in targets:
                counted = base_counted.copy()
                counted[(node_class, target.host, target.disk)] += 1
                key = frozenset(counted.items())
                if key not in closed:
                    closed.add(key)
                    survivors.append(target)
            rest = order[depth + 1 :]
            started = time.perf_counter()
            batch = scorer.score(
                partial_p, node_name, survivors, rest, objective, estimator
            )
            elapsed = time.perf_counter() - started
            branched = 0
            for target, (u_q, child_est_bw, child_est_c) in zip(
                survivors, batch
            ):
                record_estimate(
                    rec, stats, node_name, target.host, len(rest),
                    child_est_bw, child_est_c, elapsed / len(batch),
                )
                if u_q >= u_upper - _BOUND_EPS:
                    stats.paths_pruned += 1
                    if rec.enabled:
                        rec.inc("ostro_paths_pruned_total", reason="bound")
                        rec.event(
                            "path_pruned",
                            depth=depth + 1,
                            reason="bound",
                            evaluation=u_q,
                            bound=u_upper,
                        )
                    continue
                child = partial_p.clone()
                child.assign(node_name, target.host, target.disk)
                heapq.heappush(
                    open_queue, (u_q, next(counter), depth + 1, child)
                )
                open_depths[depth + 1] += 1
                branched += 1
            stats.paths_expanded += 1
            if rec.enabled:
                rec.inc("ostro_nodes_expanded_total")
                rec.set_gauge("ostro_open_list_size", len(open_queue))
                rec.event(
                    "path_expanded",
                    depth=depth,
                    evaluation=u_p,
                    open_size=len(open_queue),
                )
            self._after_expansion(open_depths, float(max(branched, 1)))
            if (
                self.limits.max_expansions is not None
                and stats.paths_expanded >= self.limits.max_expansions
            ):
                break

        if best_partial is None:
            raise PlacementError(
                f"no feasible placement found for {topology.name!r}"
            )
        return PlacementResult(
            placement=best_partial.freeze(),
            objective_value=u_upper,
            stats=stats,
        )

    # ------------------------------------------------------------------

    def _eg_bound(
        self,
        root: PartialPlacement,
        order: Sequence[str],
        objective: Objective,
        estimator: LowerBoundEstimator,
        stats: SearchStats,
        walked: set,
    ) -> Tuple[Optional[PartialPlacement], float]:
        """Full EG run for the initial upper bound."""
        candidate = self._eg_continue(root, order, objective, estimator, stats, walked)
        if candidate is None:
            return None, float("inf")
        return candidate

    def _eg_continue(
        self,
        partial: PartialPlacement,
        remaining: Sequence[str],
        objective: Objective,
        estimator: LowerBoundEstimator,
        stats: SearchStats,
        walked: set,
    ) -> Optional[Tuple[PartialPlacement, float]]:
        """Finish a partial placement greedily; None when EG gets stuck.

        A failed run is retried once with the remaining nodes in
        bandwidth-descending order (the restart strategy of
        :func:`repro.core.greedy.greedy_with_restarts`).

        Adds this call's start to ``walked``, and when the first order
        succeeds with no backjump every prefix of its trajectory too: EG
        from a prefix walks the same tail. (A backjump spent budget a fresh
        run would still have; the retry order assigns in a sequence no
        search path shares, so its float state could differ.)
        """
        topology = partial.topology
        start = partial.placement_key()
        walked.add(_path_key(start, remaining))
        orders = [list(remaining)]
        bw_order = sorted(
            remaining,
            key=lambda n: (-topology.bandwidth_of(n), n),
        )
        if bw_order != orders[0]:
            orders.append(bw_order)
        rec = obs.get_recorder()
        for order in orders:
            # Count each greedy run actually executed -- a stuck first
            # order triggers a bandwidth-ordered retry, and runtime
            # accounting (Fig. 9) must reflect both.
            stats.eg_bound_runs += 1
            if rec.enabled:
                rec.inc("ostro_eg_bound_runs_total")
            clone = partial.clone()
            backtracks = stats.backtracks
            try:
                run_greedy_from(
                    clone,
                    order,
                    objective,
                    estimator,
                    self.greedy_config,
                    stats,
                )
            except PlacementError:
                continue
            if order is orders[0] and stats.backtracks == backtracks:
                placed = list(start)
                for k, name in enumerate(order, 1):
                    done = clone.assignments[name]
                    placed.append((name, done.host, done.disk))
                    walked.add(_path_key(placed, order[k:]))
            return clone, objective.score(clone.ubw, clone.uc)
        return None
