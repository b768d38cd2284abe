"""Bounded-disruption defragmentation planning.

Long-lived fleets fragment: tenants churn, hosts crash, evacuations
scatter surviving VMs wherever capacity happens to be. The paper argues
placement must keep working "at runtime if the infrastructure is being
managed adaptively" (Section I); :class:`DefragPlanner` is that control
loop's planning half. Each *pass* it

1. measures fragmentation (:func:`repro.sim.utilization.fragmentation_report`)
   and only proceeds past the configured threshold;
2. ranks committed applications by dispersion (most-scattered first,
   name-ordered ties -- fully deterministic);
3. searches each candidate again with
   :func:`~repro.core.migration.replan` (read-only, on a released clone,
   valued against keeping it put);
4. accepts it only when the fresh placement does not spread wider
   (consolidation guard), ``gain - move_cost_weight * GB moved`` of its
   :class:`~repro.core.migration.MigrationPlan` clears the margin, and
   its steps fit the remaining per-pass move budget.

The pass is deadlined through DBA*'s own machinery: with
``algorithm="dba*"`` each candidate search consumes the pass's remaining
``deadline_s`` (decremented by the search's reported runtime), and a
:class:`~repro.errors.DeadlineError` aborts the pass cleanly -- the
fleet keeps running, the planner simply returns what it accepted so far.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.core.migration import MigrationPlan, plan_migration, replan, step_gb
from repro.core.placement import Placement
from repro.core.topology import ApplicationTopology
from repro.errors import DeadlineError, PlacementError
from repro.sim.utilization import fragmentation_report, placement_spread

if TYPE_CHECKING:  # pragma: no cover - avoids circular imports
    from repro.core.scheduler import Ostro


@dataclass(frozen=True)
class DefragConfig:
    """Knobs of the background re-optimizer (hashable and picklable, so
    it rides inside :class:`~repro.sim.chaos.ChaosCell` options).

    Attributes:
        enabled: master switch; disabled ticks are free and leave every
            run bit-identical to a no-defrag baseline.
        algorithm: search rung for candidate re-placements. The default
            "eg" is fully deterministic; "dba*" engages the deadline
            machinery below.
        cadence: run a pass every N ticks (a tick is one scenario step /
            service drain).
        frag_threshold: skip the pass while the fragmentation index is
            below this value.
        max_apps_per_pass: candidates examined per pass (disruption
            scope bound).
        max_moves_per_pass: total migration steps allowed per pass
            (disruption budget; also the max concurrent in-flight moves
            a pass may schedule).
        margin: required net objective gain -- a candidate is accepted
            only when ``gain - move_cost > margin``.
        move_cost_weight: objective charge per GB migrated (VM memory /
            volume size), modelling the migration's own bandwidth cost.
        move_seconds_per_gb: virtual seconds of VM unavailability per GB
            moved; accumulates into the availability-impact accounting.
        max_bounces: cycle-breaking budget per candidate migration plan.
        deadline_s: per-pass search budget consumed across candidate
            searches (only enforced via DBA*'s deadline machinery).
        max_replans: after a fault aborts an executing pass, how many
            times to replan against the new state within the same tick.
    """

    enabled: bool = True
    algorithm: str = "eg"
    cadence: int = 1
    frag_threshold: float = 0.0
    max_apps_per_pass: int = 2
    max_moves_per_pass: int = 8
    margin: float = 0.0
    move_cost_weight: float = 1e-4
    move_seconds_per_gb: float = 0.1
    max_bounces: int = 4
    deadline_s: Optional[float] = None
    max_replans: int = 2


@dataclass
class AppMigration:
    """One accepted candidate: where an application is and where it goes."""

    app_name: str
    topology: ApplicationTopology
    old_placement: Placement
    new_placement: Placement
    plan: MigrationPlan
    gain: float
    move_cost: float
    moved_gb: float


@dataclass
class DefragPassPlan:
    """Everything one planning pass decided.

    Attributes:
        migrations: accepted candidates, in execution order.
        aborted: True when the pass deadline fired during planning; the
            accepted prefix is still valid and executable.
        fragmentation_before: fragmentation index measured at pass start.
    """

    migrations: List[AppMigration] = field(default_factory=list)
    aborted: bool = False
    fragmentation_before: float = 0.0

    @property
    def moves(self) -> int:
        return sum(len(m.plan.steps) for m in self.migrations)


def _movable(ostro: "Ostro", placement: Placement) -> bool:
    """A non-empty placement with no node on a down host."""
    return bool(placement.assignments) and not any(
        ostro.state.host_is_down(a.host) for a in placement.assignments.values()
    )


class DefragPlanner:
    """Periodic planner of bounded-disruption migration passes."""

    def __init__(self, config: DefragConfig) -> None:
        self.config = config
        self._ticks = 0

    def fragmentation(self, ostro: "Ostro") -> float:
        """Current fragmentation index of the scheduler's state."""
        return fragmentation_report(
            ostro.state,
            (d.placement for d in ostro.applications.values()),
        ).fragmentation_index

    def should_run(self, ostro: "Ostro") -> bool:
        """Advance the tick counter; True when a pass is due this tick."""
        self._ticks += 1
        if not self.config.enabled:
            return False
        if (self._ticks - 1) % max(1, self.config.cadence) != 0:
            return False
        return self.fragmentation(ostro) >= self.config.frag_threshold

    def _candidates(self, ostro: "Ostro") -> List[Tuple[float, str]]:
        """Committed applications ranked most-dispersed first (by
        :func:`~repro.sim.utilization.placement_spread`, the same
        rack-aware measure the fragmentation index aggregates).

        Applications with any node on a down host are skipped: crashed
        hosts belong to evacuation
        (:func:`repro.core.online.evacuate_host`), not to background
        optimization.
        """
        ranked: List[Tuple[float, str]] = []
        for app_name in sorted(ostro.applications):
            placement = ostro.applications[app_name].placement
            if _movable(ostro, placement):
                spread = placement_spread(ostro.cloud, placement)
                ranked.append((spread, app_name))
        ranked.sort(key=lambda item: (-item[0], item[1]))
        return ranked

    def plan_pass(self, ostro: "Ostro") -> DefragPassPlan:
        """Plan one pass against the current state (read-only)."""
        cfg = self.config
        pass_plan = DefragPassPlan(
            fragmentation_before=self.fragmentation(ostro)
        )
        budget = cfg.max_moves_per_pass
        deadline_left = cfg.deadline_s
        for _spread, app_name in self._candidates(ostro)[
            : cfg.max_apps_per_pass
        ]:
            if budget <= 0:
                break
            budget, deadline_left = self._consider(
                ostro, app_name, budget, deadline_left, pass_plan
            )
            if pass_plan.aborted:
                break
        return pass_plan

    def plan_app(
        self,
        ostro: "Ostro",
        app_name: str,
        budget: Optional[int] = None,
    ) -> DefragPassPlan:
        """Plan a targeted pass for a single application (read-only).

        The scale-in path's consolidation hook
        (:func:`repro.core.online.remove_vms_from_tier`): one application
        has just shed members, so only its own placement is re-derived --
        no fleet-wide candidate ranking, no fragmentation threshold, no
        cadence tick. Acceptance uses the exact same gain / consolidation
        / move-budget rules as a full pass.

        Applications with any node on a down host yield an empty plan
        (crashed hosts belong to evacuation, as in :meth:`_candidates`).
        """
        pass_plan = DefragPassPlan(
            fragmentation_before=self.fragmentation(ostro)
        )
        deployed = ostro.applications.get(app_name)
        if deployed is None or not _movable(ostro, deployed.placement):
            return pass_plan
        self._consider(
            ostro,
            app_name,
            budget if budget is not None else self.config.max_moves_per_pass,
            self.config.deadline_s,
            pass_plan,
        )
        return pass_plan

    def _consider(
        self,
        ostro: "Ostro",
        app_name: str,
        budget: int,
        deadline_left: Optional[float],
        pass_plan: DefragPassPlan,
    ) -> Tuple[int, Optional[float]]:
        """Evaluate one candidate, appending to ``pass_plan`` when it is
        accepted; returns the remaining (move budget, deadline)."""
        cfg = self.config
        deployed = ostro.deployed(app_name)
        topology, old = deployed.topology, deployed.placement
        try:
            # construction validates the deadline too: an exhausted
            # (or zero) budget aborts the pass, never the fleet
            result, keep, _ = replan(
                ostro,
                app_name,
                cfg.algorithm,
                **({} if deadline_left is None else {"deadline_s": deadline_left}),
            )
        except DeadlineError:
            pass_plan.aborted = True
            return budget, deadline_left
        except PlacementError:
            return budget, deadline_left
        if deadline_left is not None:
            deadline_left -= result.runtime_s
            if deadline_left <= 0:
                pass_plan.aborted = True
        gain = keep - result.objective_value
        # This is a DEfragmenter: only consolidating moves qualify.
        # A pure-bandwidth win that spreads the application wider
        # (more hosts, or the same hosts across more racks) would
        # raise the dispersion index -- leave those to the
        # foreground reoptimize path.
        spreads_wider = placement_spread(
            ostro.cloud, result.placement
        ) > placement_spread(ostro.cloud, old)
        if gain <= 0 or spreads_wider:
            return budget, deadline_left
        try:
            plan = plan_migration(
                topology,
                ostro.state,
                old,
                result.placement,
                max_bounces=cfg.max_bounces,
            )
        except PlacementError:
            return budget, deadline_left
        moved_gb = sum(step_gb(topology, step) for step in plan.steps)
        move_cost = cfg.move_cost_weight * moved_gb
        if (
            len(plan.steps) == 0
            or len(plan.steps) > budget
            or gain - move_cost <= cfg.margin
        ):
            return budget, deadline_left
        pass_plan.migrations.append(
            AppMigration(
                app_name=app_name,
                topology=topology,
                old_placement=old,
                new_placement=result.placement,
                plan=plan,
                gain=gain,
                move_cost=move_cost,
                moved_gb=moved_gb,
            )
        )
        return budget - len(plan.steps), deadline_left
