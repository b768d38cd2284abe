"""``failed_share`` / ``quality_cost`` definitions and op-list shape."""

import collections

import pytest

from benchmarks.ledger.workloads import (
    DEFAULT_OPS,
    LifecycleChaos,
    PlaceDeep,
    PlaceScale,
    ServeStorm,
    failed_share,
)
from repro.service.driver import ServiceReport
from repro.sim.metrics import ChaosReport


def test_failed_share_of_nothing_attempted_is_zero():
    assert failed_share(0, 0) == 0.0
    assert failed_share(8, 2) == 0.25


def test_serve_storm_counts_rejected_expired_and_failed_updates():
    report = ServiceReport(
        requests=10, admitted=6, rejected=2, expired=1, cancelled=1,
        updates_applied=3, updates_failed=1,
        batches={"single": 1, "joint": 2, "fallback": 1},
        escalations={"cross_pod": 2},
    )
    record = ServeStorm(seed=0).check_op(0, report)
    assert record.attempted == 10 + 4  # requests + updates attempted
    assert record.failed == 2 + 1 + 1  # rejected + expired + updates_failed
    assert record.counts["service.batches"] == 4
    assert record.counts["service.escalations"] == 2
    assert record.violations == []
    assert record.quality_n == 0  # no admitted outcome carried a result


def test_serve_storm_flags_decisions_that_do_not_add_up():
    report = ServiceReport(requests=3, admitted=1, rejected=1)
    record = ServeStorm(seed=0).check_op(0, report)
    assert any("decisions" in v for v in record.violations)


def test_lifecycle_chaos_counts_lost_work_and_charges_unavailability():
    report = ChaosReport(
        seed=1, apps_requested=4, apps_deployed=3, deploy_failures=1,
        nodes_moved=5, nodes_lost=2, scale_outs=6, scale_out_failures=1,
        defrag_move_seconds=7.5,
    )
    workload = LifecycleChaos(seed=0)
    record = workload.check_op(0, report)
    assert record.attempted == 4 + 5 + 2 + 6 + 1
    assert record.failed == 1 + 2 + 1
    lost_vms = 1 * workload.APP_VMS
    assert record.quality_sum == pytest.approx(
        7.5 + workload.LOST_VM_S * lost_vms
    )
    assert record.quality_n == 1


def test_op_lists_are_seeded_and_keep_one_composition():
    def kinds(workload):
        workload.build()
        if isinstance(workload, PlaceScale):
            entries = workload.plan[workload.WINDOW:]
            return [(len(t.nodes), algo) for t, algo in entries]
        if isinstance(workload, PlaceDeep):
            return [(e[0], len(e[1].nodes), e[2], e[3]) for e in workload.plan]
        return list(workload.kinds)

    for cls in (PlaceScale, PlaceDeep, ServeStorm):
        first, again, other = (kinds(cls(s)) for s in (3, 3, 4))
        assert len(first) == DEFAULT_OPS
        assert first == again  # same seed, same inputs
        assert first != other  # another seed, another order ...
        assert collections.Counter(first) == collections.Counter(other)  # ... same mix


def test_serve_storm_has_enough_full_storms_for_p90():
    workload = ServeStorm(seed=0)
    workload.build()
    full = workload.kinds.count("full")
    # p90 of 110 sits at rank 99: at least 12 full storms put it on one
    assert full == 14 and DEFAULT_OPS - full == 96
