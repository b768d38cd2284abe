"""Flow-aware rules OST009-OST012: true positives and FP guards.

OST009 is a per-file rule and runs through ``lint_source``;
OST010/OST011/OST012 need the cross-file view and run through
``lint_project_sources``.
"""

from __future__ import annotations

import importlib
import textwrap

import pytest

from repro.lint import lint_project_sources, lint_source
from repro.lint.rules.parity import PARITY_GROUPS, KernelParityRule


def codes(diags, code):
    return [d for d in diags if d.code == code]


def lint_service_source(body: str):
    return lint_source(
        textwrap.dedent(body),
        path="src/repro/service/fx.py",
        module="repro.service.fx",
    )


class TestTransactionDiscipline:
    """OST009: ``.restore(...)`` is confined to the transaction primitive."""

    def test_hand_rolled_rollback_fires(self):
        # the idiom transaction() replaced: correct on every path, and
        # still a second rollback mechanism
        diags = lint_service_source(
            """
            def admit(state, group):
                snap = state.snapshot()
                try:
                    state.apply(group)
                except BaseException:
                    state.restore(snap)
                    raise
            """
        )
        found = codes(diags, "OST009")
        assert [(d.line, d.col) for d in found] == [(7, 9)]
        assert "state.transaction()" in found[0].message

    def test_whole_tree_is_policed(self):
        # the CFG rule only looked at faults/service/openstack/heat
        diags = lint_source(
            "def undo(ostro, snap):\n    ostro.state.restore(snap)\n",
            path="src/repro/core/fx.py",
            module="repro.core.fx",
        )
        assert len(codes(diags, "OST009")) == 1

    def test_other_methods_of_an_allowed_class_fire(self):
        diags = lint_source(
            textwrap.dedent(
                """
                class ShardedCoordinator:
                    def rollback_to(self, snapshot, app_names):
                        self.state.restore(snapshot)

                    def update(self, snapshot):
                        self.state.restore(snapshot)
                """
            ),
            path="src/repro/service/coordinator.py",
            module="repro.service.coordinator",
        )
        assert [d.line for d in codes(diags, "OST009")] == [7]

    def test_shard_view_load_is_clean(self):
        diags = lint_source(
            textwrap.dedent(
                """
                class PodShard:
                    def sync(self, snapshot):
                        self.state.restore(self.masked_snapshot(snapshot))
                """
            ),
            path="src/repro/service/shard.py",
            module="repro.service.shard",
        )
        assert codes(diags, "OST009") == []

    def test_state_module_is_exempt(self):
        diags = lint_source(
            "def transaction(self, saved):\n    self.restore(saved)\n",
            path="src/repro/datacenter/state.py",
            module="repro.datacenter.state",
        )
        assert codes(diags, "OST009") == []

    def test_transaction_block_is_clean(self):
        diags = lint_service_source(
            """
            def admit(state, group):
                with state.transaction(app=group.name):
                    state.apply(group)
            """
        )
        assert codes(diags, "OST009") == []

    def test_read_only_snapshot_is_clean(self):
        diags = lint_service_source(
            """
            def probe(state, group):
                snap = state.snapshot()
                try:
                    return estimate(snap, group)
                except ValueError:
                    return None
            """
        )
        assert codes(diags, "OST009") == []

    def test_calling_rollback_to_is_clean(self):
        # the batch engine's arm: the restore itself stays behind the
        # coordinator's method
        diags = lint_service_source(
            """
            def admit(coordinator, group, names):
                snap = coordinator.state.snapshot()
                try:
                    coordinator.admit(group)
                except BaseException:
                    coordinator.rollback_to(snap, names)
                    raise
            """
        )
        assert codes(diags, "OST009") == []

    def test_element_repair_is_not_a_snapshot_restore(self):
        diags = lint_service_source(
            """
            def repair(state, host, link):
                state.restore_host(host)
                state.restore_link(link)
            """
        )
        assert codes(diags, "OST009") == []

    def test_outside_the_package_is_ignored(self):
        # benchmarks and tests reset states between laps
        diags = lint_source(
            "def reset(state, base):\n    state.restore(base)\n",
            path="benchmarks/ledger/workloads.py",
            module=None,
        )
        assert codes(diags, "OST009") == []


HELPER_CLOCK = textwrap.dedent(
    """
    import time


    def stamp():
        return time.perf_counter()
    """
)


def lint_sim_project(files):
    """Project-lint fixture files under repro.sim.* module names."""
    paths = {}
    sources = []
    for name, source in files:
        path = f"src/repro/sim/{name}.py"
        paths[path] = f"repro.sim.{name}"
        sources.append((path, textwrap.dedent(source)))
    return lint_project_sources(sources, modules=paths)


class TestDeterminismTaint:
    """OST010: clock/RNG values must not reach fingerprinted code."""

    def test_cross_module_clock_reaching_fingerprint_fires(self):
        diags = lint_sim_project(
            [
                ("helper", HELPER_CLOCK),
                (
                    "emit",
                    """
                    from repro.sim.helper import stamp


                    def fingerprint(rows):
                        return rows_fingerprint(rows, stamp())
                    """,
                ),
            ]
        )
        found = codes(diags, "OST010")
        assert len(found) == 1
        assert found[0].path == "src/repro/sim/emit.py"
        assert "time.perf_counter" in found[0].message
        assert "rows_fingerprint" in found[0].message

    def test_tainted_event_payload_fires(self):
        diags = lint_sim_project(
            [
                ("helper", HELPER_CLOCK),
                (
                    "emit",
                    """
                    from repro.sim.helper import stamp


                    def emit(rec):
                        rec.event("placed", score=stamp())
                    """,
                ),
            ]
        )
        found = codes(diags, "OST010")
        assert len(found) == 1
        assert "event:score" in found[0].message

    def test_volatile_event_key_is_exempt(self):
        diags = lint_sim_project(
            [
                ("helper", HELPER_CLOCK),
                (
                    "emit",
                    """
                    from repro.sim.helper import stamp


                    def emit(rec):
                        rec.event("placed", elapsed_s=stamp())
                    """,
                ),
            ]
        )
        assert codes(diags, "OST010") == []

    def test_volatile_event_type_is_exempt(self):
        # deadline_tick is wall-clock telemetry by design; the whole
        # payload is excluded from replay comparison
        diags = lint_sim_project(
            [
                ("helper", HELPER_CLOCK),
                (
                    "emit",
                    """
                    from repro.sim.helper import stamp


                    def emit(rec):
                        rec.event("deadline_tick", budget=stamp())
                    """,
                ),
            ]
        )
        assert codes(diags, "OST010") == []

    def test_destructured_timing_wrapper_keeps_result_clean(self):
        # result, wall = _run_once(...): only the wall element carries
        # clock taint, so fingerprinting the result is fine
        diags = lint_sim_project(
            [
                (
                    "bench",
                    """
                    import time


                    def _run_once(fn):
                        start = time.perf_counter()
                        result = fn()
                        wall = time.perf_counter() - start
                        return result, wall


                    def measure(fn):
                        result, wall = _run_once(fn)
                        return rows_fingerprint(result)
                    """,
                ),
            ]
        )
        assert codes(diags, "OST010") == []

    def test_destructured_timing_wrapper_still_flags_wall(self):
        diags = lint_sim_project(
            [
                (
                    "bench",
                    """
                    import time


                    def _run_once(fn):
                        start = time.perf_counter()
                        result = fn()
                        wall = time.perf_counter() - start
                        return result, wall


                    def measure(fn):
                        result, wall = _run_once(fn)
                        return rows_fingerprint(wall)
                    """,
                ),
            ]
        )
        assert len(codes(diags, "OST010")) == 1

    def test_rng_never_reaching_sink_is_clean(self):
        diags = lint_sim_project(
            [
                (
                    "jitter",
                    """
                    import random
                    import time


                    def backoff():
                        return random.random()


                    def wait():
                        time.sleep(backoff())
                    """,
                ),
            ]
        )
        assert codes(diags, "OST010") == []

    def test_seeded_rng_is_clean(self):
        diags = lint_sim_project(
            [
                (
                    "seeded",
                    """
                    import random


                    def sample(rows):
                        rng = random.Random(7)
                        return rows_fingerprint(rows, rng.random())
                    """,
                ),
            ]
        )
        assert codes(diags, "OST010") == []


class TestCrossModuleWrites:
    """OST011: no laundering resource writes through foreign helpers."""

    WRITER = """
        def _drain(state):
            state.free_cpu[0] = 0
        """

    def test_foreign_laundered_write_fires(self):
        diags = lint_sim_project(
            [
                ("helper", self.WRITER),
                (
                    "caller",
                    """
                    from repro.sim.helper import _drain


                    def evict(state):
                        _drain(state)
                    """,
                ),
            ]
        )
        found = codes(diags, "OST011")
        assert len(found) == 1
        assert found[0].path == "src/repro/sim/caller.py"
        assert "repro.sim.helper" in found[0].message

    def test_same_module_helper_is_clean(self):
        diags = lint_sim_project(
            [
                (
                    "helper",
                    self.WRITER
                    + """

                    def evict(state):
                        _drain(state)
                    """,
                ),
            ]
        )
        assert codes(diags, "OST011") == []

    def test_sanctioned_public_api_is_clean(self):
        diags = lint_project_sources(
            [
                (
                    "src/repro/datacenter/state.py",
                    textwrap.dedent(
                        """
                        def release(state, host):
                            state.free_cpu[host] += 1
                        """
                    ),
                ),
                (
                    "src/repro/sim/caller.py",
                    textwrap.dedent(
                        """
                        from repro.datacenter.state import release


                        def evict(state, host):
                            release(state, host)
                        """
                    ),
                ),
            ],
            modules={
                "src/repro/datacenter/state.py": "repro.datacenter.state",
                "src/repro/sim/caller.py": "repro.sim.caller",
            },
        )
        assert codes(diags, "OST011") == []


SCORER_MODULE = """
    from typing import NamedTuple


    class CandidateBlock(NamedTuple):
        host: int
        cpu: float
        disk: float


    class PythonScorer:
        def candidates(self, tuples):
            return [t.host for t in tuples if t.cpu > 0]
    """


def lint_parity_project(kernel_source, scorer_source=SCORER_MODULE):
    files = {
        "src/repro/core/scorer.py": scorer_source,
        "src/repro/core/kernel.py": kernel_source,
    }
    return lint_project_sources(
        [
            (path, textwrap.dedent(source))
            for path, source in files.items()
            if source is not None
        ],
        modules={
            "src/repro/core/scorer.py": "repro.core.scorer",
            "src/repro/core/kernel.py": "repro.core.kernel",
        },
    )


class TestKernelParity:
    """OST012: numpy/python twins must touch identical footprints."""

    @pytest.fixture(autouse=True)
    def only_the_group_the_fixtures_define(self, monkeypatch):
        monkeypatch.setattr(KernelParityRule, "groups", PARITY_GROUPS[:1])

    def test_field_drift_fires_on_the_blind_side(self):
        diags = lint_parity_project(
            """
            def candidate_targets_numpy(tuples):
                return [(t.host, t.cpu, t.disk) for t in tuples]
            """
        )
        found = codes(diags, "OST012")
        assert len(found) == 1
        # the python side never touches 'disk'; report lands there
        assert found[0].path == "src/repro/core/scorer.py"
        assert "disk" in found[0].message
        assert "PythonScorer.candidates" in found[0].message

    def test_matching_footprints_are_clean(self):
        diags = lint_parity_project(
            """
            def candidate_targets_numpy(tuples):
                return [(t.host, t.cpu) for t in tuples]
            """
        )
        assert codes(diags, "OST012") == []

    def test_private_helper_closure_is_included(self):
        # the numpy side reads 'cpu' inside a private helper: still part
        # of its footprint, so the pair stays balanced
        diags = lint_parity_project(
            """
            def _cpu_of(t):
                return t.cpu


            def candidate_targets_numpy(tuples):
                return [(t.host, _cpu_of(t)) for t in tuples]
            """
        )
        assert codes(diags, "OST012") == []

    def test_private_class_instantiation_closure(self):
        # _Batch(...).run() style: methods of an instantiated private
        # class join the closure even though the call is unresolvable
        diags = lint_parity_project(
            """
            class _Batch:
                def __init__(self, tuples):
                    self.tuples = tuples

                def run(self):
                    return [(t.host, t.cpu) for t in self.tuples]


            def candidate_targets_numpy(tuples):
                return _Batch(tuples).run()
            """
        )
        assert codes(diags, "OST012") == []

    def test_metric_drift_fires(self):
        diags = lint_parity_project(
            """
            def candidate_targets_numpy(tuples, rec):
                rec.inc("kernel.batches")
                return [(t.host, t.cpu) for t in tuples]
            """
        )
        found = codes(diags, "OST012")
        assert len(found) == 1
        assert "kernel.batches" in found[0].message
        assert "metric" in found[0].message

    def test_renamed_twin_fires_instead_of_going_vacuous(self):
        # the module is analyzed but no longer defines the group's root:
        # the twin was renamed or deleted without repointing the groups
        diags = lint_parity_project(
            """
            def candidate_targets_array(tuples):
                return [(t.host, t.cpu, t.disk) for t in tuples]
            """
        )
        found = codes(diags, "OST012")
        assert len(found) == 1
        assert found[0].path == "src/repro/core/kernel.py"
        assert "unchecked" in found[0].message
        assert "candidate_targets_numpy" in found[0].message

    def test_missing_twin_is_skipped(self):
        # a twin whose whole module is outside the analyzed tree is a
        # partial lint run, not drift
        diags = lint_parity_project(
            """
            def candidate_targets_numpy(tuples):
                return [(t.host, t.cpu, t.disk) for t in tuples]
            """,
            scorer_source=None,
        )
        assert codes(diags, "OST012") == []

    def test_every_group_root_exists_in_this_repo(self):
        for group in PARITY_GROUPS:
            for key in ("numpy", "python", "tuple_class"):
                module, _, qualname = group[key].partition(":")
                found = importlib.import_module(module)
                for part in qualname.split("."):
                    found = getattr(found, part)
