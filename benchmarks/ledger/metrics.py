"""Metric definitions (single source for the harness and BENCHMARK.json)
and the small statistics the ledger reports with.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence, Tuple

from benchmarks.ledger.layers import LAYERS
from repro.sim.metrics import nearest_rank_percentile as percentile  # noqa: F401

#: samples a percentile needs beyond it before it is reported as valid
MIN_SAMPLES_BEYOND = 10

#: (name, unit, better, bound): bound is the share of the parent's median
#: by which the median across seeds may worsen before a change counts as
#: a regression (what BENCHMARK.json gates). Medians across seeds of
#: ``quality_cost`` spread up to 11 % because the seeds draw different
#: inputs, hence its wide bound here; the tight one is PER_SEED_BOUND
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.10),
    ("op_p50_ms", "ms", "lower", 0.10),
    ("op_p90_ms", "ms", "lower", 0.15),
    ("ok_share", "ratio", "higher", 0.005),
    ("quality_cost", "cost", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
)

#: metrics that repeat exactly for a seed: ``compare`` checks them seed by
#: seed against these bounds (ISSUE 11: +0 and +0.1 %), not through medians
PER_SEED_BOUND: Dict[str, float] = {"ok_share": 0.0, "quality_cost": 0.001}

#: extra named per-layer metrics beside ``<layer>.calls`` / ``<layer>.self_s``
_EXTRA: Tuple[Tuple[str, str, str], ...] = (
    ("core.scheduler.commit_s", "s", "lower"),
    ("core.scheduler.rollbacks", "count", "lower"),
    ("core.search.candidates_scored", "count", "lower"),
    ("core.search.paths_expanded", "count", "lower"),
    ("core.search.paths_pruned", "count", "higher"),
    ("core.search.eg_bound_runs", "count", "lower"),
    ("core.search.backtracks", "count", "lower"),
    ("core.search.restarts", "count", "lower"),
    ("core.astar.scored_per_expansion", "ratio", "lower"),
    ("core.candidates.targets_per_call", "ratio", "lower"),
    ("core.candidates.dedup_ratio", "ratio", "higher"),
    ("core.kernel.batch_score_s", "s", "lower"),
    ("core.kernel.stateview_refresh_s", "s", "lower"),
    ("core.heuristic.init_s", "s", "lower"),
    ("core.heuristic.estimate_s", "s", "lower"),
    ("core.online.evacuations", "count", "lower"),
    ("core.online.nodes_moved", "count", "lower"),
    ("core.online.nodes_lost", "count", "lower"),
    ("datacenter.state.snapshot_calls", "count", "lower"),
    ("datacenter.state.restore_calls", "count", "lower"),
    ("datacenter.state.snapshot_s", "s", "lower"),
    ("datacenter.state.snapshots_per_op", "ratio", "lower"),
    ("service.queue.peak_depth", "count", "lower"),
    ("service.queue.virtual_wait_p99_s", "s", "lower"),
    ("service.batch.joint", "count", "higher"),
    ("service.batch.single", "count", "lower"),
    ("service.batch.fallback", "count", "lower"),
    ("service.batch.mean_size", "ratio", "higher"),
    ("service.coordinator.escalations", "count", "lower"),
    ("service.coordinator.admit_p50_ms", "ms", "lower"),
    ("service.coordinator.admit_p90_ms", "ms", "lower"),
    ("service.shard.screen_pass_ratio", "ratio", "higher"),
    ("service.driver.requests_per_s", "1/s", "higher"),
    ("defrag.executor.moves", "count", "lower"),
    ("defrag.executor.aborted_passes", "count", "lower"),
    ("defrag.planner.accepted_ratio", "ratio", "higher"),
    ("scaling.engine.evaluations", "count", "lower"),
    ("scaling.engine.scale_outs", "count", "lower"),
    ("scaling.engine.scale_ins", "count", "lower"),
    ("faults.injector.api_faults", "count", "lower"),
    ("faults.retry.retries", "count", "lower"),
    ("bench.trace_overhead_share", "ratio", "lower"),
    ("bench.attributed_share", "ratio", "higher"),
    ("bench.warmup_s", "s", "lower"),
    ("bench.calibration_unit_s", "s", "lower"),
)

#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    spec
    for layer in LAYERS
    for spec in (
        (f"{layer}.calls", "count", "lower"),
        (f"{layer}.self_s", "s", "lower"),
    )
) + _EXTRA

UNITS: Dict[str, str] = {
    **{name: unit for name, unit, _, _ in END_TO_END},
    **{name: unit for name, unit, _ in PER_LAYER},
}


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples rank above the nearest-rank percentile
    ``q`` (rank ``ceil(q * count)``, the rule of
    :func:`repro.sim.metrics.nearest_rank_percentile`)."""
    return count - min(count, max(1, math.ceil(q * count)))


def percentile_is_valid(count: int, q: float) -> bool:
    """True when at least ten samples lie beyond the percentile."""
    return samples_beyond(count, q) >= MIN_SAMPLES_BEYOND


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    if q3 == q1:
        return 0.0
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else math.inf


def worsening(better: str, parent: float, change: float) -> float:
    """How much worse ``change`` is than ``parent``, as a share of ``parent``.

    Positive means worse in the metric's own direction, negative better.
    """
    if parent == 0:
        return 0.0 if change == parent else math.inf
    loss = change - parent if better == "lower" else parent - change
    return loss / abs(parent)


def medians(runs: Sequence[Dict[str, float]], names: Sequence[str]) -> Dict[str, float]:
    """Median of each named metric across runs."""
    return {
        name: statistics.median([run[name] for run in runs]) for name in names
    }


def column(runs: Sequence[Dict[str, float]], name: str) -> List[float]:
    return [run[name] for run in runs]
