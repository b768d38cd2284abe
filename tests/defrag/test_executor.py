"""Fault-mid-migration suite: every abort leaves the in-flight step
untouched and zero conservation violations.

The fixture's planner output is a single 10-step whole-application
migration, so the failing step index can be swept across the entire
plan: source- and target-host crashes (refused before any capacity is
touched) and transient faults (retried to completion under a policy).
The permanent-API-fault sweep (the in-flight step rolled back at every
gate) is the ``defrag`` row of ``tests/faults/test_rollback.py``.
"""

from __future__ import annotations

import pytest

from repro.core.validate import conservation_violations
from repro.defrag import (
    DefragConfig,
    DefragExecutor,
    DefragPlanner,
    DefragStats,
    run_defrag_tick,
)
from repro.errors import TransientAPIError
from repro.faults import RetryPolicy
from tests.conftest import ScriptedInjector

CFG = DefragConfig(algorithm="eg", max_moves_per_pass=16)

#: the fixture's single accepted migration moves the whole 10-VM app
N_STEPS = 10


def plan_for(ostro):
    plan = DefragPlanner(CFG).plan_pass(ostro)
    assert len(plan.migrations) == 1
    assert len(plan.migrations[0].plan.steps) == N_STEPS
    return plan


class TestApiFaultMidPlan:
    def test_transient_faults_are_retried_to_completion(
        self, fragmented_ostro
    ):
        ostro = fragmented_ostro
        plan = plan_for(ostro)
        injector = ScriptedInjector([2, 3], error=TransientAPIError)
        ostro.injector = injector
        ostro.retry_policy = RetryPolicy(max_attempts=3)
        stats = DefragStats()
        assert DefragExecutor(ostro, CFG).execute(plan, stats)
        assert stats.moves + stats.bounces == N_STEPS
        assert injector.calls > N_STEPS  # retries happened
        assert ostro.verify_state() == []


class TestHostCrashMidPlan:
    @pytest.mark.parametrize("endpoint", ["source", "target"])
    @pytest.mark.parametrize("fail_at", [0, 4, N_STEPS - 1])
    def test_crash_aborts_before_any_mutation(
        self, fragmented_ostro, endpoint, fail_at
    ):
        """A source/target host crashing mid-plan aborts the pass before
        the in-flight step touches any capacity: after repairing the
        host (fail/restore is a bit-exact no-op) the state equals the
        snapshot taken just before the crash."""
        ostro = fragmented_ostro
        plan = plan_for(ostro)
        crashed = []
        captured = {}

        def hook(app, index, step):
            if index == fail_at and not crashed:
                if endpoint == "source":
                    host = (
                        ostro.applications[app]
                        .placement.assignments[step.node]
                        .host
                    )
                else:
                    host = step.to_host
                captured["snapshot"] = ostro.state.snapshot()
                ostro.state.fail_host(host)
                crashed.append(host)

        stats = DefragStats()
        executor = DefragExecutor(ostro, CFG, step_hook=hook)
        assert not executor.execute(plan, stats)
        assert stats.moves + stats.bounces == fail_at
        ostro.state.restore_host(crashed[0])
        assert ostro.state.snapshot() == captured["snapshot"]
        assert conservation_violations(ostro) == []
        assert ostro.verify_state() == []


class TestStalePlan:
    def test_departed_app_aborts_with_state_untouched(
        self, fragmented_ostro
    ):
        ostro = fragmented_ostro
        plan = plan_for(ostro)
        ostro.remove("app0")
        before = ostro.state.snapshot()
        stats = DefragStats()
        assert not DefragExecutor(ostro, CFG).execute(plan, stats)
        assert ostro.state.snapshot() == before
        assert stats.moves + stats.bounces == 0


class TestDefragTick:
    def test_completed_tick_recovers_fragmentation(self, fragmented_ostro):
        ostro = fragmented_ostro
        planner = DefragPlanner(CFG)
        executor = DefragExecutor(ostro, CFG)
        stats = DefragStats()
        run_defrag_tick(ostro, planner, executor, stats)
        assert stats.passes == 1
        assert stats.frag_recovered > 0
        assert stats.moves + stats.bounces > 0
        assert stats.move_seconds == pytest.approx(
            stats.moved_gb * CFG.move_seconds_per_gb
        )
        assert ostro.verify_state() == []

    def test_fault_triggers_a_replan_that_completes(self, fragmented_ostro):
        ostro = fragmented_ostro
        planner = DefragPlanner(CFG)
        frag_before = planner.fragmentation(ostro)
        ostro.injector = ScriptedInjector([3])  # permanent, first pass
        executor = DefragExecutor(ostro, CFG)
        stats = DefragStats()
        run_defrag_tick(ostro, planner, executor, stats)
        assert stats.aborted_passes >= 1
        assert stats.replans >= 1
        assert ostro.verify_state() == []
        assert planner.fragmentation(ostro) < frag_before

    def test_disabled_tick_is_a_no_op(self, fragmented_ostro):
        cfg = DefragConfig(enabled=False, algorithm="eg")
        stats = DefragStats()
        before = fragmented_ostro.state.snapshot()
        run_defrag_tick(
            fragmented_ostro,
            DefragPlanner(cfg),
            DefragExecutor(fragmented_ostro, cfg),
            stats,
        )
        assert fragmented_ostro.state.snapshot() == before
        assert stats == DefragStats()
