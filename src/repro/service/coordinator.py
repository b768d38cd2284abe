"""The root coordinator: shard routing, escalation, and the global truth.

:class:`ShardedCoordinator` owns the *single* live
:class:`~repro.datacenter.state.DataCenterState` (through one global
:class:`~repro.core.scheduler.Ostro`) that every commit flows through --
shard-routed and escalated placements alike. Shards are pure search
domains over masked views of that state (:mod:`repro.service.shard`);
they propose, the coordinator commits, so PR 4's transactional
snapshot/rollback machinery keeps capacity conserved no matter which
path admitted an application.

Routing: feasible shards are tried in (load, shard id) order --
least-loaded first, deterministically tie-broken. A placement escalates
to a full-cloud global pass only when a topology demands pod-or-coarser
separation (``cross_pod``), no shard passes the feasibility screen
(``no_feasible_shard``), or every screened shard's search fails
(``shard_infeasible``) -- the escalation taxonomy of the docs/SERVICE.md
contract.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.core.base import PlacementResult
from repro.core.greedy import GreedyConfig
from repro.core.online import UpdateResult
from repro.core.scheduler import Ostro
from repro.core.topology import ApplicationTopology
from repro.datacenter.model import Cloud, Level
from repro.datacenter.state import DataCenterState, Snapshot
from repro.errors import PlacementError
from repro.service.shard import PodShard, build_shards


class ShardedCoordinator:
    """Routes admissions across pod shards; owns the global state.

    Args:
        cloud: the physical structure.
        state: live availability; pristine when omitted.
        algorithm: default placement algorithm for shard and global passes.
        theta_bw / theta_c / greedy_config: scoring knobs, shared by the
            global scheduler and every shard so both passes rank
            placements identically.
        **options: default algorithm options forwarded to every search.
    """

    def __init__(
        self,
        cloud: Cloud,
        state: Optional[DataCenterState] = None,
        algorithm: str = "eg",
        theta_bw: float = 0.6,
        theta_c: float = 0.4,
        greedy_config: Optional[GreedyConfig] = None,
        **options: Any,
    ) -> None:
        self.cloud = cloud
        self.ostro = Ostro(
            cloud,
            state=state,
            theta_bw=theta_bw,
            theta_c=theta_c,
            greedy_config=greedy_config,
        )
        self.algorithm = algorithm
        self.options = options
        self.shards: List[PodShard] = build_shards(
            cloud,
            theta_bw=theta_bw,
            theta_c=theta_c,
            greedy_config=greedy_config,
            best_effort_cpu_factor=self.ostro.state.best_effort_cpu_factor,
        )
        #: app name -> shard name or "global" (route of the live commit)
        self.routes: Dict[str, str] = {}
        #: escalation reason -> count, over the coordinator's lifetime
        self.escalations: Dict[str, int] = {}

    @property
    def state(self) -> DataCenterState:
        """The single live global state (all commits land here)."""
        return self.ostro.state

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------

    def admit(
        self,
        topology: ApplicationTopology,
        algorithm: Optional[str] = None,
        **options: Any,
    ) -> Tuple[PlacementResult, str]:
        """Admit one application; returns (result, route).

        ``route`` is the shard name that hosted the placement, or
        ``"global"`` for an escalated one. Raises
        :class:`~repro.errors.PlacementError` when even the global pass
        cannot place the topology (nothing is committed then).
        """
        if topology.name in self.ostro.applications:
            raise PlacementError(
                f"application {topology.name!r} is already deployed"
            )
        algo = algorithm if algorithm is not None else self.algorithm
        opts = {**self.options, **options}
        rec = obs.get_recorder()

        if _needs_pod_separation(topology):
            return self._escalate(topology, algo, "cross_pod", opts)

        snapshot = self.state.snapshot()
        candidates = self._routing_order(topology)
        if not candidates:
            return self._escalate(topology, algo, "no_feasible_shard", opts)
        for load, shard in candidates:
            try:
                result = shard.search(snapshot, topology, algorithm=algo, **opts)
            except PlacementError:
                continue
            self.ostro.commit(topology, result.placement)
            self.routes[topology.name] = shard.name
            if rec.enabled:
                rec.event(
                    "shard_routed",
                    app=topology.name,
                    shard=shard.name,
                    load=round(load, 6),
                )
            return result, shard.name
        return self._escalate(topology, algo, "shard_infeasible", opts)

    def _routing_order(
        self, topology: ApplicationTopology
    ) -> List[Tuple[float, PodShard]]:
        """Screened shards in least-loaded-first, id-tie-broken order."""
        ranked = []
        for shard in self.shards:
            if shard.screen(topology, self.state) is None:
                ranked.append((shard.load(self.state), shard))
        ranked.sort(key=lambda pair: (pair[0], pair[1].shard_id))
        return ranked

    def _escalate(
        self,
        topology: ApplicationTopology,
        algorithm: str,
        reason: str,
        options: Dict[str, Any],
    ) -> Tuple[PlacementResult, str]:
        """Global pass: full-cloud search and commit on the global Ostro."""
        self.escalations[reason] = self.escalations.get(reason, 0) + 1
        rec = obs.get_recorder()
        if rec.enabled:
            rec.inc("ostro_service_escalations_total", reason=reason)
            rec.event("escalated", app=topology.name, reason=reason)
        result = self.ostro.place(
            topology, algorithm=algorithm, commit=True, **options
        )
        self.routes[topology.name] = "global"
        return result, "global"

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def remove(self, app_name: str) -> None:
        """Release an admitted application's reservations."""
        self.ostro.remove(app_name)
        self.routes.pop(app_name, None)

    def update(
        self, new_topology: ApplicationTopology, **kwargs: Any
    ) -> UpdateResult:
        """Online adaptation of an admitted application.

        Updates always run on the global scheduler: the incremental
        search pins the surviving nodes wherever they are, and
        progressive unpinning may legitimately spread an application
        beyond its original shard. The route is re-labelled ``"global"``
        when that happens.
        """
        kwargs.setdefault("algorithm", self.algorithm)
        update = self.ostro.update(new_topology, **{**self.options, **kwargs})
        if update.moved:
            route = self.routes.get(new_topology.name)
            if route is not None and route != "global":
                placement = self.ostro.deployed(new_topology.name).placement
                shard = next(
                    (s for s in self.shards if s.name == route), None
                )
                still_inside = shard is not None and all(
                    shard.owns_host(a.host)
                    for a in placement.assignments.values()
                )
                if not still_inside:
                    self.routes[new_topology.name] = "global"
        return update

    def rollback_to(self, snapshot: Snapshot, app_names: List[str]) -> None:
        """Undo a multi-admission transaction (the batch engine's lever).

        Restores the global state to ``snapshot`` bit-exactly and forgets
        the listed applications. The apps' reservations are part of what
        the restore discards, so this must *not* go through
        :meth:`remove` (that would release them a second time).
        """
        self.state.restore(snapshot)
        for name in app_names:
            self.ostro.applications.pop(name, None)
            self.routes.pop(name, None)

    # ------------------------------------------------------------------
    # audits
    # ------------------------------------------------------------------

    def verify_state(self) -> List[str]:
        """Capacity-conservation audit across the shard boundary.

        Combines the global scheduler's own audit (state invariants plus
        conservation against its baseline -- every commit and removal,
        shard-routed or escalated, must net out) with each shard's
        scratch-state check and a registry consistency check between the
        route table and the committed applications. Empty list = clean.
        """
        violations = list(self.ostro.verify_state())
        for shard in self.shards:
            violations.extend(shard.scratch_violations())
        routed = set(self.routes)
        committed = set(self.ostro.applications)
        for name in sorted(routed - committed):
            violations.append(
                f"route table lists {name!r} but it is not committed"
            )
        for name in sorted(committed - routed):
            violations.append(
                f"application {name!r} committed without a recorded route"
            )
        return violations


def _needs_pod_separation(topology: ApplicationTopology) -> bool:
    """True when a zone demands pod-or-coarser separation.

    Such a topology structurally exceeds every single shard (a shard is
    at most one pod), so routing would only burn searches: escalate to
    the global pass straight away.
    """
    return any(zone.level >= Level.POD for zone in topology.zones)
