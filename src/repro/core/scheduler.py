"""The Ostro scheduler facade.

:class:`Ostro` owns the live availability state of one cloud and exposes the
paper's workflow: hand it an application topology, get back a holistic
placement computed by one of the registered algorithms, optionally commit
the placement into the live state (so subsequent applications see the
consumed capacity), and later remove or update the application.

Algorithms are addressed by name; the registry accepts the paper's labels::

    "eg", "egc", "egbw", "ba*", "dba*"

plus the aliases "ba"/"astar" and "dba".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro import obs
from repro.core.astar import BAStar
from repro.core.base import PlacementAlgorithm, PlacementResult
from repro.core.deadline import DBAStar
from repro.core.greedy import EG, EGBW, EGC, GreedyConfig
from repro.core.objective import Objective
from repro.core.placement import Placement
from repro.core.topology import ApplicationTopology
from repro.datacenter.model import Cloud
from repro.datacenter.network import PathResolver
from repro.datacenter.state import DataCenterState
from repro.errors import PlacementError, ReproError
from repro.faults.retry import retry_call

if TYPE_CHECKING:  # pragma: no cover - avoids circular imports
    from repro.core.migration import MigrationPlan
    from repro.core.online import UpdateResult
    from repro.faults.injector import FaultInjector
    from repro.faults.retry import RetryPolicy

#: Canonical algorithm names -> constructor accepting keyword options.
_ALIASES = {
    "eg": "eg",
    "egc": "egc",
    "egbw": "egbw",
    "ba*": "ba*",
    "ba": "ba*",
    "astar": "ba*",
    "dba*": "dba*",
    "dba": "dba*",
}


def make_algorithm(name: str, **options: Any) -> PlacementAlgorithm:
    """Instantiate a placement algorithm by (case-insensitive) name.

    Keyword options are forwarded to the constructor: ``greedy_config`` /
    ``config``, ``deadline_s``, ``seed``, ``symmetry_reduction``,
    ``max_expansions``, ``dedup`` -- whichever the algorithm accepts.
    """
    canonical = _ALIASES.get(name.strip().lower())
    if canonical is None:
        raise ReproError(
            f"unknown placement algorithm {name!r}; "
            f"choose from {sorted(set(_ALIASES.values()))}"
        )
    if canonical == "eg":
        return EG(config=options.get("config") or options.get("greedy_config"))
    if canonical == "egc":
        return EGC(dedup=options.get("dedup", True))
    if canonical == "egbw":
        return EGBW(
            config=options.get("config") or options.get("greedy_config")
        )
    if canonical == "ba*":
        return BAStar(
            greedy_config=options.get("greedy_config") or options.get("config"),
            symmetry_reduction=options.get("symmetry_reduction", True),
            max_expansions=options.get("max_expansions"),
        )
    return DBAStar(
        deadline_s=options.get("deadline_s", 1.0),
        greedy_config=options.get("greedy_config") or options.get("config"),
        symmetry_reduction=options.get("symmetry_reduction", True),
        alpha_factor=options.get("alpha_factor", 0.2),
        seed=options.get("seed", 0),
        max_expansions=options.get("max_expansions"),
    )


@dataclass
class DeployedApplication:
    """Record of one committed application."""

    topology: ApplicationTopology
    placement: Placement


class Ostro:
    """Holistic application scheduler over one cloud (Section II).

    Args:
        cloud: the physical structure to schedule onto.
        state: live availability; a pristine state is created when omitted.
        theta_bw: objective weight of the bandwidth term.
        theta_c: objective weight of the host-count term.
        greedy_config: default EG/candidate configuration used by all
            algorithms this scheduler instantiates.
        injector: optional fault injector; its ``before_api_call`` gate
            runs at the start of every commit, so commits can fail by
            plan (see :mod:`repro.faults`).
        retry_policy: optional retry/backoff policy wrapped around the
            commit path; transient commit faults are retried under it.
    """

    def __init__(
        self,
        cloud: Cloud,
        state: Optional[DataCenterState] = None,
        theta_bw: float = 0.6,
        theta_c: float = 0.4,
        greedy_config: Optional[GreedyConfig] = None,
        injector: Optional["FaultInjector"] = None,
        retry_policy: Optional["RetryPolicy"] = None,
    ) -> None:
        self.cloud = cloud
        self.state = state if state is not None else DataCenterState(cloud)
        self.theta_bw = theta_bw
        self.theta_c = theta_c
        self.greedy_config = greedy_config or GreedyConfig()
        self.resolver = PathResolver(cloud)
        self.applications: Dict[str, DeployedApplication] = {}
        self.injector = injector
        self.retry_policy = retry_policy
        #: free-capacity snapshot taken at construction; the conservation
        #: check (verify_state) compares the live state against baseline
        #: minus committed reservations. Call rebaseline() after mutating
        #: the state outside the scheduler (e.g. background load).
        self.baseline = self.state.snapshot()

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------

    def place(
        self,
        topology: ApplicationTopology,
        algorithm: str = "dba*",
        commit: bool = True,
        pinned: Optional[Dict[str, Tuple[int, Optional[int]]]] = None,
        **options: Any,
    ) -> PlacementResult:
        """Compute (and by default commit) a placement for a topology.

        Args:
            topology: the application to place; its name must be unique
                among committed applications when ``commit`` is True.
            algorithm: registry name ("eg", "egc", "egbw", "ba*", "dba*")
                -- or pass a ready :class:`PlacementAlgorithm` instance.
            commit: reserve the placement in the live state and remember
                the application for later removal/update.
            pinned: optional node -> (host, disk) pre-assignments.
            **options: forwarded to :func:`make_algorithm`.

        Returns:
            The :class:`PlacementResult` of the chosen algorithm.
        """
        if commit and topology.name in self.applications:
            raise PlacementError(
                f"application {topology.name!r} is already deployed; "
                "use update() or remove() first"
            )
        if isinstance(algorithm, PlacementAlgorithm):
            algo = algorithm
        else:
            options.setdefault("greedy_config", self.greedy_config)
            algo = make_algorithm(algorithm, **options)
        objective = Objective.for_topology(
            topology, self.cloud, self.theta_bw, self.theta_c
        )
        rec = obs.get_recorder()
        with rec.span(
            "ostro.place", app=topology.name, algorithm=algo.name
        ):
            result = algo.place(
                topology, self.cloud, self.state, objective, pinned=pinned
            )
            if commit:
                self.commit(topology, result.placement)
        return result

    # ------------------------------------------------------------------
    # live-state bookkeeping
    # ------------------------------------------------------------------

    def commit(self, topology: ApplicationTopology, placement: Placement) -> None:
        """Reserve a computed placement in the live state.

        Applies host/disk reservations for every node and bandwidth
        reservations for every link, then records the application. The
        placement must cover every node of the topology.

        The commit is transactional: each attempt runs inside a
        :meth:`~repro.datacenter.state.DataCenterState.transaction`, so
        any failure (capacity race, injected fault, ...) leaves the
        state bit-exactly as it was. With a :attr:`retry_policy`
        installed, transient commit faults are retried under it; each
        failed attempt rolls back before the next one starts.
        """
        missing = topology.nodes.keys() - placement.assignments.keys()
        if missing:
            raise PlacementError(
                f"placement does not cover nodes: {sorted(missing)}"
            )
        retry_call(
            self.retry_policy,
            lambda: self._commit_once(topology, placement),
            service="ostro",
            method="commit",
        )
        self.applications[topology.name] = DeployedApplication(
            topology=topology.copy(), placement=placement
        )
        rec = obs.get_recorder()
        if rec.enabled:
            rec.inc("ostro_commits_total")
            rec.event(
                "commit", app=topology.name, nodes=len(topology.nodes)
            )

    def _commit_once(
        self, topology: ApplicationTopology, placement: Placement
    ) -> None:
        """One commit attempt: apply all reservations or roll back."""
        rec = obs.get_recorder()
        with self.state.transaction(app=topology.name), rec.span(
            "ostro.commit", app=topology.name
        ):
            if self.injector is not None:
                self.injector.before_api_call("ostro", "commit")
            for name in sorted(topology.nodes):
                node = topology.node(name)
                assignment = placement.assignments[name]
                if node.is_vm:
                    self.state.place_vm(
                        assignment.host,
                        self.state.reserved_vcpus(node),
                        node.mem_gb,
                    )
                else:
                    self.state.place_volume(assignment.disk, node.size_gb)
            for link in topology.links:
                path = self.resolver.path(
                    placement.host_of(link.a), placement.host_of(link.b)
                )
                self.state.reserve_path(path, link.bw_mbps)

    def release(
        self,
        topology: ApplicationTopology,
        placement: Placement,
        state: DataCenterState,
    ) -> None:
        """Release a placement's reservations from ``state`` (the live
        state or a scratch clone): the exact inverse of :meth:`commit`."""
        for link in topology.links:
            path = self.resolver.path(
                placement.host_of(link.a), placement.host_of(link.b)
            )
            state.release_path(path, link.bw_mbps)
        for name in sorted(topology.nodes):
            node = topology.node(name)
            assignment = placement.assignments[name]
            if node.is_vm:
                state.unplace_vm(
                    assignment.host, state.reserved_vcpus(node), node.mem_gb
                )
            else:
                state.unplace_volume(assignment.disk, node.size_gb)

    def remove(self, app_name: str) -> None:
        """Release every reservation of a committed application."""
        deployed = self.applications.pop(app_name, None)
        if deployed is None:
            raise PlacementError(f"unknown application: {app_name!r}")
        self.release(deployed.topology, deployed.placement, self.state)
        rec = obs.get_recorder()
        if rec.enabled:
            rec.inc("ostro_removes_total")
            rec.event("remove", app=app_name)

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------

    def deployed(self, app_name: str) -> DeployedApplication:
        """Look up a committed application."""
        try:
            return self.applications[app_name]
        except KeyError:
            raise PlacementError(f"unknown application: {app_name!r}") from None

    def rebaseline(self) -> None:
        """Re-capture the conservation baseline from the current state.

        Call after mutating the state outside the scheduler's own commit
        and remove paths (e.g. installing background load) so
        :meth:`verify_state` measures leaks from the new starting point.
        """
        self.baseline = self.state.snapshot()

    def verify_state(self) -> list:
        """Capacity-leak audit of the live state (empty list = clean).

        Combines the state's local invariants with the conservation check
        against :attr:`baseline`; see :mod:`repro.core.validate`. The
        chaos harness calls this after every deploy/fault/evacuation.
        """
        from repro.core.validate import (
            conservation_violations,
            state_invariant_violations,
        )

        return state_invariant_violations(self.state) + conservation_violations(
            self
        )

    def update(
        self, new_topology: ApplicationTopology, **kwargs: Any
    ) -> "UpdateResult":
        """Online adaptation; see :func:`repro.core.online.update_application`."""
        from repro.core.online import update_application

        return update_application(self, new_topology, **kwargs)

    def reoptimize(
        self,
        app_name: str,
        algorithm: str = "dba*",
        max_bounces: int = 8,
        **options: Any,
    ) -> Tuple[PlacementResult, "MigrationPlan"]:
        """Re-place a deployed application from scratch and migrate to it.

        The paper's runtime-adaptation scenario (Section I): search a
        fresh placement with full freedom, read-only
        (:func:`~repro.core.migration.replan`), and adopt it only when it
        is strictly better than keeping the current one. Adopting plans
        safe moves and runs them through the gated executor
        :func:`~repro.core.migration.apply_plan`, which records the new
        placement.

        Returns:
            (result, plan): the fresh :class:`PlacementResult` and the
            executed :class:`~repro.core.migration.MigrationPlan` (empty
            when the current placement was kept).

        Raises:
            MigrationAborted: a step was rolled back or hit a crashed
                host; the executed prefix stands and is recorded.
        """
        from repro.core import migration

        deployed = self.deployed(app_name)
        old = deployed.placement
        result, keep, _ = migration.replan(self, app_name, algorithm, **options)
        improved = result.objective_value < keep - 1e-12
        plan = migration.MigrationPlan()
        rec = obs.get_recorder()
        if improved:
            with rec.span("ostro.migrate", app=app_name):
                plan = migration.plan_migration(
                    deployed.topology,
                    self.state,
                    old,
                    result.placement,
                    max_bounces=max_bounces,
                )
                migration.apply_plan(self, app_name, old, result.placement, plan)
        if rec.enabled:
            rec.inc(
                "ostro_reoptimizations_total",
                outcome="improved" if improved else "kept",
            )
            rec.event(
                "reoptimize",
                app=app_name,
                improved=improved,
                moves=len(plan.moves),
                bounces=len(plan.bounces),
            )
        return result, plan
