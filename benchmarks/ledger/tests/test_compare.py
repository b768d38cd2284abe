"""The pass / fail / unresolved rule of ``compare``."""

from benchmarks.ledger.compare import compare, per_seed_verdict, verdict


def test_small_worsening_within_bound_passes():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5]
    change = [103.0, 104.0, 102.0, 103.5, 102.5]
    worse_by, word = verdict("lower", 0.10, parent, change)
    assert word == "pass" and 0.02 < worse_by < 0.04


def test_worsening_beyond_bound_fails():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5]
    change = [120.0, 121.0, 119.0, 120.5, 119.5]
    assert verdict("lower", 0.10, parent, change)[1] == "fail"
    # direction matters: the same numbers are a gain for a throughput
    assert verdict("higher", 0.10, parent, change)[1] == "pass"


def test_spread_wider_than_bound_is_unresolved_unless_dominated():
    parent = [80.0, 100.0, 120.0, 90.0, 110.0]
    change = [85.0, 105.0, 125.0, 95.0, 115.0]
    assert verdict("lower", 0.10, parent, change)[1] == "unresolved"
    # every run of the change beats every run of the parent
    better = [50.0, 60.0, 70.0, 55.0, 65.0]
    assert verdict("lower", 0.10, parent, better)[1] == "pass"


def _run(seed, fingerprint, **metrics):
    base = {
        "setup_s": 1.0, "ops_per_s": 10.0, "op_p50_ms": 100.0,
        "op_p90_ms": 200.0, "ok_share": 1.0, "quality_cost": 0.2,
        "peak_rss_mb": 100.0,
    }
    base.update(metrics)
    return {
        "provenance": {"seed": seed}, "fingerprint": fingerprint,
        "end_to_end": base,
    }


def test_compare_reports_one_row_per_metric_and_changed_decisions():
    parent = {"workloads": {"place-deep": [_run(0, "aa"), _run(1, "bb")]}}
    change = {"workloads": {"place-deep": [
        _run(0, "aa", ops_per_s=8.0), _run(1, "cc", ops_per_s=8.0),
    ]}}
    rows, findings = compare(parent, change)
    assert len(rows) == 7
    by_metric = {row[1]: row[-1] for row in rows}
    assert by_metric["ops_per_s"] == "fail"
    assert by_metric["op_p50_ms"] == "pass"
    assert len(findings) == 1 and "seed 1" in findings[0]


def test_exact_repeat_metrics_are_compared_seed_by_seed():
    # seeds draw different inputs: quality differs 2x between them, which
    # must neither hide a 2 % loss on one seed nor make the row unresolved
    parent = {0: 0.10, 1: 0.20, 2: 0.15}
    assert per_seed_verdict("lower", 0.001, parent, dict(parent)) == (0.0, "pass")
    worse_by, word = per_seed_verdict(
        "lower", 0.001, parent, {0: 0.10, 1: 0.204, 2: 0.15}
    )
    assert word == "fail" and 0.019 < worse_by < 0.021
    # a gain on one seed does not pay for a loss on another
    assert per_seed_verdict(
        "lower", 0.001, parent, {0: 0.05, 1: 0.21, 2: 0.15}
    )[1] == "fail"
    assert per_seed_verdict("higher", 0.0, {0: 1.0}, {0: 0.999})[1] == "fail"
    assert per_seed_verdict("lower", 0.001, {0: 0.0}, {0: 0.0})[1] == "pass"
    assert per_seed_verdict("lower", 0.001, {0: 0.1}, {1: 0.1})[1] == "unresolved"


def test_compare_uses_the_per_seed_rule_for_quality_and_ok_share():
    parent = {"workloads": {"place-deep": [
        _run(0, "aa", quality_cost=0.10), _run(1, "bb", quality_cost=0.20),
    ]}}
    change = {"workloads": {"place-deep": [
        _run(0, "aa", quality_cost=0.10), _run(1, "bb", quality_cost=0.21),
    ]}}
    rows, findings = compare(parent, change)
    by_metric = {row[1]: row for row in rows}
    assert by_metric["quality_cost"][-1] == "fail"
    assert by_metric["quality_cost"][4] == 0.001  # the per-seed bound
    assert by_metric["ok_share"][-1] == "pass"
    assert not findings


def test_workload_on_one_side_only_is_reported():
    parent = {"workloads": {
        "place-deep": [_run(0, "aa")], "serve-storm": [_run(0, "bb")],
    }}
    change = {"workloads": {"place-deep": [_run(0, "aa")]}}
    rows, findings = compare(parent, change)
    assert {row[0] for row in rows} == {"place-deep"}
    assert findings == ["MISSING: serve-storm has runs in A (parent) only"]
