"""Percentile rule, spread and direction arithmetic, BENCHMARK.json sync."""

import json
import math
import os

import pytest

from benchmarks.ledger import metrics
from benchmarks.ledger.run import WORKLOAD_NAMES
from benchmarks.ledger.workloads import DEFAULT_OPS, WORKLOADS

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", ".."))


def test_percentile_is_nearest_rank_never_interpolated():
    values = [float(v) for v in range(1, 111)]  # 1..110
    assert metrics.percentile(values, 0.90) == 99.0
    assert metrics.percentile(values, 0.50) == 55.0
    assert metrics.percentile([3.0, 1.0, 2.0], 1.0) == 3.0
    assert metrics.percentile([7.0], 0.9) == 7.0


def test_percentile_needs_ten_samples_beyond_it():
    assert metrics.samples_beyond(DEFAULT_OPS, 0.90) == 11
    assert metrics.percentile_is_valid(DEFAULT_OPS, 0.90)
    assert metrics.samples_beyond(100, 0.90) == 10
    assert metrics.percentile_is_valid(100, 0.90)
    assert not metrics.percentile_is_valid(99, 0.90)
    assert not metrics.percentile_is_valid(12, 0.90)  # run --quick
    # p99 is not reportable at 110 ops
    assert not metrics.percentile_is_valid(DEFAULT_OPS, 0.99)


def test_quartile_spread_is_iqr_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert metrics.quartile_spread(values) == pytest.approx((17.25 - 11.75) / 14.5)
    assert metrics.quartile_spread([5.0] * 10) == 0.0
    assert metrics.quartile_spread([0.0] * 10) == 0.0  # not inf: it repeats
    assert metrics.quartile_spread([5.0]) == 0.0


def test_worsening_follows_the_metric_direction():
    assert metrics.worsening("lower", 100.0, 110.0) == pytest.approx(0.10)
    assert metrics.worsening("lower", 100.0, 90.0) == pytest.approx(-0.10)
    assert metrics.worsening("higher", 100.0, 90.0) == pytest.approx(0.10)
    assert metrics.worsening("higher", 100.0, 110.0) == pytest.approx(-0.10)
    assert metrics.worsening("lower", 0.0, 0.0) == 0.0
    assert metrics.worsening("lower", 0.0, 1.0) == math.inf


def test_benchmark_json_names_what_the_harness_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as source:
        contract = json.load(source)
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOAD_NAMES)
    assert set(WORKLOADS) == set(WORKLOAD_NAMES)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in contract["end_to_end"]
    ] == [tuple(spec) for spec in metrics.END_TO_END]
    assert [
        (m["name"], m["unit"], m["better"]) for m in contract["per_layer"]
    ] == [tuple(spec) for spec in metrics.PER_LAYER]
    assert len(contract["per_layer"]) <= 128
    assert contract["paths"] == ["benchmarks/ledger"]
