"""The rollback harness: every gate of every transactional operation.

Each transactional operation is *staged* just before it runs, a
:class:`~tests.conftest.ScriptedInjector` fails exactly the k-th gated
surrogate API call, and one table-driven test sweeps k over every gate
the operation passes. Per cell: the availability state comes back
bit-identical (``snapshot()`` equality), the conservation audit is
empty, the operation's registry record is what it was, and the failed
attempt reports itself exactly once -- one ``rollback`` event and one
``ostro_rollbacks_total`` increment per rolled-back transaction.

Two families share the table:

* **whole-operation** rollbacks (``deploy``, ``delete_stack``,
  ``update_stack``, ``commit``, ``scale_in``): the fault propagates and
  the operation leaves no trace;
* **step** rollbacks (``defrag``, ``consolidate``, ``reoptimize``): the
  in-flight migration step is undone, the migration stops there, and the
  executed prefix stands and is recorded (``defrag_step_rolled_back``
  instead of ``rollback``). A pass aborts without raising; ``reoptimize``
  raises :class:`~repro.errors.MigrationAborted`.

A third sweep wedges a state mutation with a non-library error
(``RuntimeError``) mid-operation: the same bit-exact restore, and no
``rollback`` event -- a wedged surrogate is not an admission verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import pytest

from repro import obs
from repro.core.migration import plan_migration, replan
from repro.core.online import remove_vms_from_tier, tier_members
from repro.core.scheduler import Ostro
from repro.core.validate import conservation_violations
from repro.datacenter.builder import build_datacenter
from repro.datacenter.state import DataCenterState
from repro.defrag import (
    DefragConfig,
    DefragExecutor,
    DefragPlanner,
    DefragStats,
)
from repro.errors import (
    MigrationAborted,
    PermanentAPIError,
    RetryError,
    TransientAPIError,
)
from repro.faults import RetryPolicy
from repro.heat.engine import HeatEngine
from repro.heat.template import template_from_topology
from tests.conftest import ScriptedInjector, make_three_tier, wedge_after
from tests.defrag.conftest import make_fragmented_ostro
from tests.scaling.conftest import make_fragmented_elastic_ostro

#: three-tier = 6 servers + 2 volumes -> 8 create (or delete) calls
N_CALLS = 8
#: the fragmented fixture's single accepted migration moves all 10 VMs
N_DEFRAG_STEPS = 10
#: fragmented elastic fixture, count=3: gate 1 is the shrink's release,
#: gates 2..7 are the consolidation pass's six migration steps
N_CONSOLIDATION_STEPS = 6
#: reoptimizing the fragmented fixture with EG also moves all 10 VMs
N_REOPTIMIZE_STEPS = 10

DEFRAG = DefragConfig(algorithm="eg", max_moves_per_pass=16)
FLEET = "web-fleet"


@dataclass
class Staged:
    """One transactional operation, staged just before it runs.

    Attributes:
        state: the availability state the operation mutates.
        install: wires an injector (or None) into the operation's gates.
        run: performs the operation; takes the defrag step hook.
        record: the registry view a rollback must leave consistent.
        ostro: the scheduler to audit, when the operation has one.
    """

    state: DataCenterState
    install: Callable[[Optional[ScriptedInjector]], None]
    run: Callable[[Any], Any]
    record: Callable[[], Any]
    ostro: Optional[Ostro] = None

    def audit(self) -> None:
        assert self.state.capacity_invariants() == []
        if self.ostro is not None:
            assert conservation_violations(self.ostro) == []
            assert self.ostro.verify_state() == []


def _heat(deployed: bool, run: Callable[[HeatEngine], Any]) -> Staged:
    engine = HeatEngine(
        DataCenterState(build_datacenter(num_racks=4, hosts_per_rack=4))
    )
    if deployed:
        engine.deploy(template_from_topology(make_three_tier()), "s1")

    def install(injector):
        engine.nova.injector = engine.cinder.injector = injector

    return Staged(
        state=engine.state,
        install=install,
        run=lambda hook: run(engine),
        record=lambda: dict(engine.stacks),
    )


def stage_deploy() -> Staged:
    template = template_from_topology(make_three_tier())
    return _heat(False, lambda engine: engine.deploy(template, "s1"))


def stage_delete_stack() -> Staged:
    return _heat(True, lambda engine: engine.delete_stack("s1"))


def stage_update_stack() -> Staged:
    grown = make_three_tier()
    grown.add_vm("extra", 1, 1)
    template = template_from_topology(grown)
    return _heat(True, lambda engine: engine.update_stack(template, "s1"))


def _applications(ostro: Ostro) -> Any:
    return {
        name: (
            sorted(deployed.topology.nodes),
            dict(deployed.placement.assignments),
        )
        for name, deployed in ostro.applications.items()
    }


def _ostro(ostro: Ostro, run: Callable[[Any], Any]) -> Staged:
    def install(injector):
        ostro.injector = injector

    return Staged(
        state=ostro.state,
        install=install,
        run=run,
        record=lambda: _applications(ostro),
        ostro=ostro,
    )


def stage_commit() -> Staged:
    ostro = Ostro(build_datacenter(num_racks=4, hosts_per_rack=4))
    return _ostro(
        ostro,
        lambda hook: ostro.place(
            make_three_tier(), algorithm="eg", commit=True
        ),
    )


def stage_scale_in() -> Staged:
    """Shrink by 3 with consolidation; also the ``consolidate`` steps."""
    ostro = make_fragmented_elastic_ostro()
    return _ostro(
        ostro,
        lambda hook: remove_vms_from_tier(
            ostro, FLEET, "vm", count=3, consolidate=DEFRAG, step_hook=hook
        ),
    )


def stage_defrag() -> Staged:
    ostro = make_fragmented_ostro()
    plan = DefragPlanner(DEFRAG).plan_pass(ostro)
    assert len(plan.migrations) == 1
    assert len(plan.migrations[0].plan.steps) == N_DEFRAG_STEPS

    def run(hook):
        stats = DefragStats()
        completed = DefragExecutor(ostro, DEFRAG, step_hook=hook).execute(
            plan, stats
        )
        return completed, stats

    return _ostro(ostro, run)


class _HookedGate:
    """Injector wrapper that calls the step hook at every migrate gate --
    ``reoptimize`` has no hook of its own, and each of its steps passes
    the gate exactly once (no retry policy) before touching capacity."""

    def __init__(self, inner, hook):
        self.inner, self.hook, self.steps = inner, hook, 0

    def before_api_call(self, service, method):
        if self.hook is not None and (service, method) == ("defrag", "migrate"):
            self.hook("app0", self.steps, None)
            self.steps += 1
        if self.inner is not None:
            self.inner.before_api_call(service, method)


def stage_reoptimize() -> Staged:
    """Reoptimize the fragmented application through the gated executor;
    returns the abort with the starting placement and the planned steps."""
    ostro = make_fragmented_ostro()

    def run(hook):
        deployed = ostro.deployed("app0")
        start = dict(deployed.placement.assignments)
        result, _, _ = replan(ostro, "app0", "eg")
        steps = plan_migration(
            deployed.topology, ostro.state, deployed.placement, result.placement
        ).steps
        assert len(steps) == N_REOPTIMIZE_STEPS
        ostro.injector = _HookedGate(ostro.injector, hook)
        try:
            return ostro.reoptimize("app0", algorithm="eg"), start, steps
        except MigrationAborted as aborted:
            return aborted, start, steps
        finally:
            ostro.injector = ostro.injector.inner

    return _ostro(ostro, run)


#: whole-operation rollbacks: op -> (stage, gates swept, rollbacks
#: reported per failed attempt). ``update_stack`` nests: the inner
#: ``delete_stack`` (gates 1-8) or ``deploy`` (gates 9-17, the grown
#: template has 9 resources) rolls back and reports, then the enclosing
#: update transaction restores the pre-update state and reports too.
WHOLE_OPS = {
    "deploy": (stage_deploy, range(1, N_CALLS + 1), 1),
    "delete_stack": (stage_delete_stack, range(1, N_CALLS + 1), 1),
    "update_stack": (stage_update_stack, range(1, 2 * N_CALLS + 2), 2),
    "commit": (stage_commit, [1], 1),
    "scale_in": (stage_scale_in, [1], 1),
}

#: step rollbacks: op -> (stage, gates swept, gate of step index 0)
STEP_OPS = {
    "defrag": (stage_defrag, range(1, N_DEFRAG_STEPS + 1), 1),
    "consolidate": (
        stage_scale_in,
        range(2, 2 + N_CONSOLIDATION_STEPS),
        2,
    ),
    "reoptimize": (stage_reoptimize, range(1, N_REOPTIMIZE_STEPS + 1), 1),
}


def _cells(table):
    return [
        pytest.param(op, gate, id=f"{op}-{gate}")
        for op, (_, gates, _) in table.items()
        for gate in gates
    ]


class TestEveryGate:
    @pytest.mark.parametrize("op,gate", _cells(WHOLE_OPS))
    def test_fault_rolls_the_operation_back(self, op, gate):
        stage, _, rollbacks = WHOLE_OPS[op]
        staged = stage()
        before, record = staged.state.snapshot(), staged.record()
        staged.install(ScriptedInjector([gate]))
        with obs.use(obs.TelemetryRecorder()) as rec:
            with pytest.raises(PermanentAPIError):
                staged.run(None)
        assert staged.state.snapshot() == before
        assert staged.record() == record
        staged.audit()
        assert rec.events.count("rollback") == rollbacks
        assert rec.registry.get("ostro_rollbacks_total").value() == rollbacks
        # the state is fully usable afterwards: the same operation succeeds
        staged.install(None)
        staged.run(None)
        assert staged.record() != record
        staged.audit()

    @pytest.mark.parametrize("op,gate", _cells(STEP_OPS))
    def test_fault_rolls_the_in_flight_step_back(self, op, gate):
        """Each migration step is exactly one gated call, so failing
        gate ``k`` aborts step ``k - first``; the state must come back
        bit-identical to the snapshot taken just before that step, and
        the recorded placement tracks the executed prefix exactly, so
        the leak audit passes at the intermediate configuration too."""
        stage, _, first = STEP_OPS[op]
        staged = stage()
        snapshots = {}

        def hook(app, index, step):
            snapshots[index] = staged.state.snapshot()

        staged.install(ScriptedInjector([gate]))
        with obs.use(obs.TelemetryRecorder()) as rec:
            outcome = staged.run(hook)
        failed_step = gate - first
        assert staged.state.snapshot() == snapshots[failed_step]
        assert max(snapshots) == failed_step  # the pass stopped there
        staged.audit()
        assert rec.events.count("defrag_step_rolled_back") == 1
        assert rec.registry.get("ostro_defrag_rollbacks_total").value() == 1
        assert rec.events.count("rollback") == 0
        if op == "defrag":
            completed, stats = outcome
            assert not completed
            assert stats.moves + stats.bounces == failed_step
        elif op == "reoptimize":
            aborted, start, steps = outcome
            assert isinstance(aborted, MigrationAborted)
            assert aborted.executed == failed_step
            expected = {n: (a.host, a.disk) for n, a in start.items()}
            for step in steps[:failed_step]:
                expected[step.node] = (step.to_host, step.to_disk)
            recorded = staged.ostro.deployed("app0").placement.assignments
            assert {
                n: (a.host, a.disk) for n, a in recorded.items()
            } == expected
        else:
            # the shrink is durable; only the consolidation pass aborted
            assert outcome.removed == ["vm-extra4", "vm-extra3", "vm-extra2"]
            assert not outcome.consolidated
            assert outcome.consolidation_moves == failed_step
            members = tier_members(staged.ostro.deployed(FLEET).topology, "vm")
            assert len(members) == 5


class TestWedgedMutation:
    """A non-library error mid-mutation rolls back like any other."""

    @pytest.mark.parametrize(
        "stage,method",
        [
            (stage_commit, "reserve_path"),
            (stage_scale_in, "unplace_vm"),
            (stage_defrag, "reserve_path"),
        ],
        ids=["commit", "scale_in", "defrag"],
    )
    def test_runtime_error_rolls_back(self, monkeypatch, stage, method):
        staged = stage()
        last = {"state": staged.state.snapshot(), "record": staged.record()}

        def hook(app, index, step):  # defrag: the in-flight step's start
            last.update(
                state=staged.state.snapshot(), record=staged.record()
            )

        # the 2nd call: capacity is already half-applied when it wedges
        wedge_after(monkeypatch, staged.state, method, 2)
        with obs.use(obs.TelemetryRecorder()) as rec:
            with pytest.raises(RuntimeError, match="wedged"):
                staged.run(hook)
        assert staged.state.snapshot() == last["state"]
        assert staged.record() == last["record"]
        staged.audit()
        assert rec.events.count("rollback") == 0


class TestDeployRollback:
    def test_transient_faults_are_retried_to_success(self, small_dc):
        injector = ScriptedInjector([1, 2], error=TransientAPIError)
        engine = HeatEngine(
            DataCenterState(small_dc),
            injector=injector,
            retry=RetryPolicy(max_attempts=3),
        )
        stack = engine.deploy(
            template_from_topology(make_three_tier()), "s1"
        )
        assert len(stack.servers) == 6
        assert injector.calls > N_CALLS  # retries happened

    def test_exhausted_retries_roll_back(self, small_dc):
        injector = ScriptedInjector(range(1, 100), error=TransientAPIError)
        engine = HeatEngine(
            DataCenterState(small_dc),
            injector=injector,
            retry=RetryPolicy(max_attempts=3),
        )
        before = engine.state.snapshot()
        with pytest.raises(RetryError):
            engine.deploy(template_from_topology(make_three_tier()), "s1")
        assert engine.state.snapshot() == before
        assert "s1" not in engine.stacks


class TestCommitRollback:
    def test_commit_retries_transient_faults(self, small_dc):
        """Each failed attempt rolls back (and reports) before the next."""
        injector = ScriptedInjector([1, 2], error=TransientAPIError)
        ostro = Ostro(
            small_dc,
            injector=injector,
            retry_policy=RetryPolicy(max_attempts=3),
        )
        with obs.use(obs.TelemetryRecorder()) as rec:
            result = ostro.place(
                make_three_tier(), algorithm="eg", commit=True
            )
        assert "three-tier" in ostro.applications
        assert result.placement.assignments
        assert ostro.verify_state() == []
        assert rec.events.count("rollback") == 2
        assert rec.registry.get("ostro_rollbacks_total").value() == 2

    def test_remove_after_faulty_commit_cycle_is_leak_free(self, small_dc):
        injector = ScriptedInjector([1], error=TransientAPIError)
        ostro = Ostro(
            small_dc,
            injector=injector,
            retry_policy=RetryPolicy(max_attempts=3),
        )
        pristine = ostro.state.snapshot()
        ostro.place(make_three_tier(), algorithm="eg", commit=True)
        ostro.remove("three-tier")
        assert ostro.state.snapshot() == pristine
        assert ostro.verify_state() == []
