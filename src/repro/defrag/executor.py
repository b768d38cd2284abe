"""Execution of defragmentation passes under faults.

:class:`DefragExecutor` hands each accepted migration of a planned pass
to the one plan executor, :func:`repro.core.migration.apply_plan` (gated,
retried and transactional per step; see docs/ROBUSTNESS.md, "the
rollback protocol"), and keeps the pass's own books: disruption
accounting (:class:`DefragStats`) and abort events. An aborted pass
leaves a consistent, audited state behind; :func:`run_defrag_tick` then
replans against the new state (bounded by ``max_replans``) so the
optimizer adapts to the fault instead of fighting it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro import obs
from repro.core.migration import StepHook, apply_plan, step_gb
from repro.defrag.planner import DefragConfig, DefragPassPlan, DefragPlanner
from repro.errors import MigrationAborted

if TYPE_CHECKING:  # pragma: no cover - avoids circular imports
    from repro.core.scheduler import Ostro


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
    against a live scheduler."""

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
            steps = migration.plan.steps
            aborted: Optional[MigrationAborted] = None
            try:
                apply_plan(
                    self.ostro,
                    migration.app_name,
                    migration.old_placement,
                    migration.new_placement,
                    migration.plan,
                    self.step_hook,
                )
            except MigrationAborted as exc:
                aborted, steps = exc, steps[: exc.executed]
            for step in steps:
                moved_gb = step_gb(migration.topology, step)
                if step.bounce:
                    stats.bounces += 1
                else:
                    stats.moves += 1
                stats.moved_gb += moved_gb
                stats.move_seconds += moved_gb * self.config.move_seconds_per_gb
            if aborted is not None:
                rec = obs.get_recorder()
                if rec.enabled:
                    rec.inc("ostro_defrag_passes_total", outcome="aborted")
                    rec.event(
                        "defrag_pass_aborted",
                        app=migration.app_name,
                        reason=str(aborted),
                    )
                return False
        return True


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
