"""Transactional execution of defragmentation passes under faults.

:class:`DefragExecutor` applies a planned pass one
:class:`~repro.core.migration.MigrationStep` at a time, treating every
step like any other surrogate API call:

* the step is gated through the fault injector's ``before_api_call``
  (service ``"defrag"``, method ``"migrate"``) and, when the scheduler
  carries a :class:`~repro.faults.retry.RetryPolicy`, retried under it
  -- transient faults back off and retry, permanent faults abort;
* the step runs inside a state transaction, so *anything* going wrong
  mid-step restores the pre-step state bit-exactly and a fault can never
  leak a half-moved VM;
* a source or target host that crashed since planning aborts the step
  *before* any capacity is touched (crashed hosts belong to evacuation
  -- see docs/ROBUSTNESS.md, "the rollback protocol");
* after every successful step the application's *recorded* placement is
  updated to the node's actual position (bounce parking spots included),
  so :meth:`repro.core.scheduler.Ostro.verify_state` leak audits stay
  exact at every intermediate configuration.

An aborted pass leaves a consistent, audited state behind;
:func:`run_defrag_tick` then replans against the new state (bounded by
``max_replans``) so the optimizer adapts to the fault instead of
fighting it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro import obs
from repro.core.migration import MigrationStep, _Simulator
from repro.core.placement import Assignment
from repro.core.scheduler import DeployedApplication
from repro.defrag.planner import (
    AppMigration,
    DefragConfig,
    DefragPassPlan,
    DefragPlanner,
)
from repro.errors import PlacementError, ReproError
from repro.faults.retry import retry_call

if TYPE_CHECKING:  # pragma: no cover - avoids circular imports
    from repro.core.scheduler import Ostro

#: hook called before each step: (app_name, step_index, step). Tests use
#: it to inject faults at exact plan positions.
StepHook = Callable[[str, int, MigrationStep], None]


@dataclass
class DefragStats:
    """Disruption/benefit accounting of one run's defrag activity.

    Attributes:
        passes: passes that reached execution (>= 1 planned migration).
        aborted_passes: passes aborted mid-flight (fault, stale plan, or
            planning deadline).
        replans: fresh planning rounds triggered by an aborted pass.
        moves: final-destination migration steps executed.
        bounces: cycle-breaking intermediate steps executed.
        moved_gb: gigabytes (VM memory + volume size) relocated.
        move_seconds: virtual VM move-seconds of unavailability charged
            (``moved_gb * move_seconds_per_gb``).
        frag_recovered: cumulative drop of the fragmentation index
            across executed passes (negative if defrag made it worse).
    """

    passes: int = 0
    aborted_passes: int = 0
    replans: int = 0
    moves: int = 0
    bounces: int = 0
    moved_gb: float = 0.0
    move_seconds: float = 0.0
    frag_recovered: float = 0.0


class DefragExecutor:
    """Applies :class:`~repro.defrag.planner.DefragPassPlan` objects
    transactionally against a live scheduler."""

    def __init__(
        self,
        ostro: "Ostro",
        config: DefragConfig,
        step_hook: Optional[StepHook] = None,
    ) -> None:
        self.ostro = ostro
        self.config = config
        self.step_hook = step_hook

    def execute(self, pass_plan: DefragPassPlan, stats: DefragStats) -> bool:
        """Execute a pass; True when every migration completed, False
        when a fault/stale step aborted it (state stays consistent)."""
        for migration in pass_plan.migrations:
            if not self._execute_app(migration, stats):
                return False
        return True

    # ------------------------------------------------------------------
    # one application
    # ------------------------------------------------------------------

    def _execute_app(
        self, migration: AppMigration, stats: DefragStats
    ) -> bool:
        ostro = self.ostro
        deployed = ostro.applications.get(migration.app_name)
        if (
            deployed is None
            or deployed.placement.assignments
            != migration.old_placement.assignments
        ):
            # the app departed or moved (evacuation) since planning
            self._abort(migration.app_name, "stale plan")
            return False
        topology = migration.topology
        state = ostro.state
        sim = _Simulator(topology, state, ostro.resolver, deployed.placement)
        rec = obs.get_recorder()
        for index, step in enumerate(migration.plan.steps):
            if self.step_hook is not None:
                self.step_hook(migration.app_name, index, step)
            if self._endpoint_down(sim, step):
                self._abort(migration.app_name, "endpoint host down")
                return False
            try:
                with state.transaction():
                    self._gated_move(sim, step)
            except ReproError as exc:
                if rec.enabled:
                    rec.inc("ostro_defrag_rollbacks_total")
                    rec.event(
                        "defrag_step_rolled_back",
                        app=migration.app_name,
                        node=step.node,
                        reason=str(exc),
                    )
                self._abort(migration.app_name, str(exc))
                return False
            record = topology.node(step.node)
            moved_gb = record.mem_gb if record.is_vm else record.size_gb
            deployed.placement.assignments[step.node] = Assignment(
                node=step.node, host=step.to_host, disk=step.to_disk
            )
            if step.bounce:
                stats.bounces += 1
            else:
                stats.moves += 1
            stats.moved_gb += moved_gb
            stats.move_seconds += moved_gb * self.config.move_seconds_per_gb
            if rec.enabled:
                rec.inc(
                    "ostro_defrag_moves_total",
                    kind="bounce" if step.bounce else "move",
                )
                rec.inc("ostro_defrag_moved_gb_total", moved_gb)
                rec.event(
                    "migration_step",
                    node=step.node,
                    to_host=step.to_host,
                    to_disk=step.to_disk,
                    bounce=step.bounce,
                    moved_gb=moved_gb,
                    app=migration.app_name,
                    background=True,
                )
        # every step landed: record the clean new placement (assignments
        # already match it; this restores exact aggregate accounting)
        ostro.applications[migration.app_name] = DeployedApplication(
            topology=topology, placement=migration.new_placement
        )
        return True

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _endpoint_down(self, sim: _Simulator, step: MigrationStep) -> bool:
        """True when the step's source or target host has crashed."""
        state = self.ostro.state
        cloud = state.cloud
        record = sim.topology.node(step.node)
        from_host, from_disk = sim.location[step.node]
        if record.is_vm:
            source = from_host
            target = step.to_host
        else:
            source = cloud.disks[from_disk].host.index
            target = (
                cloud.disks[step.to_disk].host.index
                if step.to_disk is not None
                else step.to_host
            )
        return state.host_is_down(source) or state.host_is_down(target)

    def _gated_move(self, sim: _Simulator, step: MigrationStep) -> None:
        ostro = self.ostro

        def attempt() -> None:
            if ostro.injector is not None:
                ostro.injector.before_api_call("defrag", "migrate")
            if not sim.try_move(step.node, step.to_host, step.to_disk):
                raise PlacementError(
                    f"defrag step for {step.node!r} no longer fits; "
                    "re-plan against the current state"
                )

        retry_call(
            ostro.retry_policy, attempt, service="defrag", method="migrate"
        )

    def _abort(self, app_name: str, reason: str) -> None:
        rec = obs.get_recorder()
        if rec.enabled:
            rec.inc("ostro_defrag_passes_total", outcome="aborted")
            rec.event("defrag_pass_aborted", app=app_name, reason=reason)


def run_defrag_tick(
    ostro: "Ostro",
    planner: DefragPlanner,
    executor: DefragExecutor,
    stats: DefragStats,
) -> None:
    """One lowest-priority background tick: plan, execute, replan.

    Runs at most ``1 + max_replans`` plan/execute rounds; every abort is
    followed by a fresh plan against the post-fault state. Ticks where
    the planner finds nothing beneficial execute no move and leave the
    state (and every fingerprint) untouched.
    """
    if not planner.should_run(ostro):
        return
    rec = obs.get_recorder()
    attempts = 0
    while True:
        pass_plan = planner.plan_pass(ostro)
        if pass_plan.aborted and not pass_plan.migrations:
            stats.aborted_passes += 1
            break
        if not pass_plan.migrations:
            break
        stats.passes += 1
        completed = executor.execute(pass_plan, stats)
        frag_after = planner.fragmentation(ostro)
        stats.frag_recovered += pass_plan.fragmentation_before - frag_after
        if rec.enabled:
            rec.set_gauge("ostro_defrag_fragmentation_index", frag_after)
        if completed:
            if pass_plan.aborted:
                # planning deadline fired; the executed prefix stands
                stats.aborted_passes += 1
            if rec.enabled:
                rec.inc("ostro_defrag_passes_total", outcome="completed")
                rec.event(
                    "defrag_pass",
                    apps=len(pass_plan.migrations),
                    moves=pass_plan.moves,
                    gain=sum(m.gain for m in pass_plan.migrations),
                )
            break
        stats.aborted_passes += 1
        attempts += 1
        if attempts > executor.config.max_replans:
            break
        stats.replans += 1
        if rec.enabled:
            rec.inc("ostro_defrag_replans_total")
            rec.event("defrag_replan", attempt=attempts)
