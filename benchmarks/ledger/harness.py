"""Run one workload: set-up, warm-up, untraced laps, optional traced lap.

End-to-end metrics come from the untraced laps only. With ``trace`` on,
one more lap over the same op list runs with the wrappers of
:mod:`benchmarks.ledger.layers` installed and yields the per-layer
metrics; the installer self-test compares that lap's counts with the
program's own counters and its decisions with the untraced lap's.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional

from benchmarks.ledger import layers, spans
from benchmarks.ledger.metrics import (
    END_TO_END,
    PER_LAYER,
    UNITS,
    percentile,
    percentile_is_valid,
)
from benchmarks.ledger.workloads import (
    DEFAULT_OPS,
    WORKLOADS,
    OpRecord,
    Workload,
    failed_share,
)
from repro.bench import calibration_unit_s
from repro.core import kernel

#: ``setup_s`` is the median of repeated set-ups: at least this many,
#: then more until the time budget or the cap is reached, so that
#: millisecond set-ups get enough samples for a steady median
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 40
SETUP_BUDGET_S = 1.0
#: calibration drift beyond which a run is marked noisy
NOISE_TOLERANCE = 0.10
#: allowed gap between the summed self times and the traced wall
SELF_SUM_TOLERANCE = 0.01
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


@dataclass
class Lap:
    """One pass over the op list."""

    durations: List[float] = field(default_factory=list)
    records: List[OpRecord] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.durations)

    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        for record in self.records:
            digest.update(record.fingerprint.encode("utf-8") + b"\n")
        return digest.hexdigest()

    def count(self, key: str) -> float:
        return sum(record.counts.get(key, 0.0) for record in self.records)

    def peak(self, key: str) -> float:
        return max(
            (record.counts.get(key, 0.0) for record in self.records), default=0.0
        )

    def violations(self) -> List[str]:
        return [v for record in self.records for v in record.violations]


def run_lap(workload: Workload, tracer: Optional[spans.Tracer] = None) -> Lap:
    """Issue every op once, closed loop; checks run outside the timed region."""
    lap = Lap()
    workload.start_lap()
    for index in range(workload.ops):
        workload.before_op(index)
        if tracer is None:
            started = perf_counter()
            outcome = workload.run_op(index)
            elapsed = perf_counter() - started
        else:
            tracer.begin_op()
            try:
                outcome = workload.run_op(index)
            finally:
                elapsed = tracer.end_op()
        lap.durations.append(elapsed)
        lap.records.append(workload.check_op(index, outcome))
    return lap


def provenance(seed: int) -> Dict[str, Any]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10, check=False,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel": kernel.get_kernel(),
        "git_commit": commit,
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def _end_to_end(
    laps: List[Lap], setup_s: float, peak_rss_mb: float
) -> Dict[str, float]:
    durations = [d for lap in laps for d in lap.durations]
    first = laps[0]
    attempted = sum(r.attempted for r in first.records)
    failed = sum(r.failed for r in first.records)
    quality_n = sum(r.quality_n for r in first.records)
    return {
        "setup_s": setup_s,
        "ops_per_s": len(durations) / sum(durations),
        "op_p50_ms": statistics.median(durations) * 1e3,
        "op_p90_ms": percentile(durations, 0.90) * 1e3,
        "ok_share": 1.0 - failed_share(attempted, failed),
        "quality_cost": (
            sum(r.quality_sum for r in first.records) / quality_n
            if quality_n else 0.0
        ),
        "peak_rss_mb": peak_rss_mb,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _per_layer(
    tracer: spans.Tracer,
    by_label: Dict[str, spans.LabelTotals],
    traced: Lap,
    untraced: Lap,
    warmup_s: float,
    calibration_s: float,
) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for layer, (calls, self_s) in layers.layer_totals(by_label).items():
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_s"] = self_s

    def total(label: str) -> spans.LabelTotals:
        return by_label.get(label, spans.LabelTotals())

    counters = tracer.counters
    snapshot = total("datacenter.state:DataCenterState.snapshot")
    restore = total("datacenter.state:DataCenterState.restore")
    admits = spans.durations_of(
        tracer, "service.coordinator:ShardedCoordinator.admit"
    )
    expanded = traced.count("search.paths_expanded")
    untraced_decisions = untraced.count("service.requests") + untraced.count(
        "service.updates"
    )
    root = total(spans.OP_LABEL)
    out.update({
        "core.scheduler.commit_s": total("core.scheduler:Ostro.commit").inclusive_s,
        "core.scheduler.rollbacks": spans.count_children(
            tracer,
            "datacenter.state:DataCenterState.restore",
            "core.scheduler:Ostro.commit",
        ),
        "core.search.candidates_scored": traced.count("search.candidates_scored"),
        "core.search.paths_expanded": expanded,
        "core.search.paths_pruned": traced.count("search.paths_pruned"),
        "core.search.eg_bound_runs": traced.count("search.eg_bound_runs"),
        "core.search.backtracks": traced.count("search.backtracks"),
        "core.search.restarts": traced.count("search.restarts"),
        "core.astar.scored_per_expansion": _ratio(
            traced.count("search.scored_in_astar"), expanded
        ),
        "core.candidates.targets_per_call": _ratio(
            counters["candidates.targets"], counters["candidates.calls"]
        ),
        "core.candidates.dedup_ratio": _ratio(
            counters["candidates.multiplicity"], counters["candidates.targets"]
        ),
        "core.kernel.batch_score_s": total("core.kernel:batch_score").inclusive_s,
        "core.kernel.stateview_refresh_s": total(
            "core.kernel:StateView.for_state"
        ).inclusive_s,
        "core.heuristic.init_s": total(
            "core.heuristic:LowerBoundEstimator.__init__"
        ).inclusive_s,
        "core.heuristic.estimate_s": total(
            "core.heuristic:LowerBoundEstimator.estimate"
        ).inclusive_s,
        "core.online.evacuations": traced.count("chaos.evacuations"),
        "core.online.nodes_moved": traced.count("chaos.nodes_moved"),
        "core.online.nodes_lost": traced.count("chaos.nodes_lost"),
        "datacenter.state.snapshot_calls": snapshot.calls,
        "datacenter.state.restore_calls": restore.calls,
        "datacenter.state.snapshot_s": snapshot.inclusive_s,
        "datacenter.state.snapshots_per_op": _ratio(
            snapshot.calls, len(traced.records)
        ),
        "service.queue.peak_depth": traced.peak("service.peak_depth"),
        "service.queue.virtual_wait_p99_s": traced.peak("service.wait_p99_s"),
        "service.batch.joint": traced.count("service.batch_joint"),
        "service.batch.single": traced.count("service.batch_single"),
        "service.batch.fallback": traced.count("service.batch_fallback"),
        "service.batch.mean_size": _ratio(
            counters["batch.members"], counters["batch.batches"]
        ),
        "service.coordinator.escalations": traced.count("service.escalations"),
        "service.coordinator.admit_p50_ms": (
            statistics.median(admits) * 1e3 if admits else 0.0
        ),
        "service.coordinator.admit_p90_ms": (
            percentile(admits, 0.90) * 1e3 if admits else 0.0
        ),
        "service.shard.screen_pass_ratio": _ratio(
            counters["shard.screens_passed"], counters["shard.screens"]
        ),
        "service.driver.requests_per_s": _ratio(
            untraced_decisions, untraced.wall_s
        ),
        "defrag.executor.moves": traced.count("chaos.defrag_moves"),
        "defrag.executor.aborted_passes": traced.count("chaos.defrag_aborted"),
        "defrag.planner.accepted_ratio": _ratio(
            counters["planner.plans_accepted"], counters["planner.plans"]
        ),
        "scaling.engine.evaluations": traced.count("chaos.scale_evaluations"),
        "scaling.engine.scale_outs": traced.count("chaos.scale_outs"),
        "scaling.engine.scale_ins": traced.count("chaos.scale_ins"),
        "faults.injector.api_faults": traced.count("chaos.api_faults"),
        # transient faults a retry absorbed: raised by the gate, not
        # surfaced as an exhausted retry_call
        "faults.retry.retries": (
            total("faults.injector:FaultInjector.before_api_call").raised
            - total("faults.retry:retry_call").raised
        ),
        "bench.trace_overhead_share": _ratio(
            traced.wall_s - untraced.wall_s, untraced.wall_s
        ),
        "bench.attributed_share": 1.0 - _ratio(root.self_s, traced.wall_s),
        "bench.warmup_s": warmup_s,
        "bench.calibration_unit_s": calibration_s,
    })
    return out


def _self_test(
    name: str,
    tracer: spans.Tracer,
    by_label: Dict[str, spans.LabelTotals],
    traced: Lap,
    untraced: Lap,
) -> List[str]:
    """Traced counts against the program's own counters; empty = pass."""
    findings: List[str] = []
    if traced.fingerprint() != untraced.fingerprint():
        findings.append("traced lap made different decisions than the untraced lap")
    self_sum = sum(t.self_s for t in by_label.values())
    if abs(self_sum - traced.wall_s) > SELF_SUM_TOLERANCE * traced.wall_s:
        findings.append(
            f"self times sum to {self_sum:.6f}s, traced wall is {traced.wall_s:.6f}s"
        )

    def expect(what: str, seen: float, wanted: float) -> None:
        if seen != wanted:
            findings.append(f"{what}: traced {seen:g}, program says {wanted:g}")

    commits = by_label.get("core.scheduler:Ostro.commit", spans.LabelTotals())
    committed = commits.calls - commits.raised
    if name.startswith("place-"):
        if kernel.get_kernel() == "numpy":
            expect(
                "candidates scored (batch_score targets)",
                tracer.counters["kernel.batch_targets"],
                traced.count("search.candidates_scored"),
            )
        expect(
            "commits",
            committed,
            sum(1 for r in traced.records if not r.failed),
        )
    elif name == "serve-storm":
        expect(
            "batches (group results)",
            tracer.counters["batch.batches"],
            traced.count("service.batches"),
        )
        expect(
            "commits (admitted + update re-commits + rolled-back joint members)",
            committed,
            traced.count("service.admitted")
            + traced.count("service.updates_applied")
            + traced.count("service.updates_failed")
            + tracer.counters["coordinator.rolled_back_apps"],
        )
    elif name == "lifecycle-chaos":
        expect(
            "injected API faults (raising gate calls)",
            by_label.get(
                "faults.injector:FaultInjector.before_api_call",
                spans.LabelTotals(),
            ).raised,
            traced.count("chaos.api_faults"),
        )
        expect(
            "evacuations",
            by_label.get("core.online:evacuate_host", spans.LabelTotals()).calls,
            traced.count("chaos.evacuations"),
        )
    return findings


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    ops: int = DEFAULT_OPS,
) -> Dict[str, Any]:
    """Run one workload end to end; returns the full result document."""
    workload_cls = WORKLOADS[name]
    calibration_before = calibration_unit_s()

    setups: List[float] = []
    workload: Optional[Workload] = None
    while len(setups) < SETUP_MIN_REPEATS or (
        len(setups) < SETUP_MAX_REPEATS and sum(setups) < SETUP_BUDGET_S
    ):
        workload = None  # release the previous instance before timing
        started = perf_counter()
        workload = workload_cls(seed, ops)
        workload.build()
        setups.append(perf_counter() - started)
    assert workload is not None

    started = perf_counter()
    workload.warm_up()
    warmup_s = perf_counter() - started

    laps = [run_lap(workload)]
    # whole laps until the budget is spent: a machine twice as fast
    # measures two laps of the same ops instead of half the time
    while sum(lap.wall_s for lap in laps) + laps[-1].wall_s / 2 < seconds:
        laps.append(run_lap(workload))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = laps[0].violations()
    for number, lap in enumerate(laps[1:], start=2):
        if lap.fingerprint() != laps[0].fingerprint():
            problems.append(f"lap {number} made different decisions than lap 1")

    per_layer: Optional[Dict[str, float]] = None
    trace_path: Optional[str] = None
    spans_recorded = 0
    if trace:
        tracer = spans.Tracer()
        with spans.Installer(tracer, layers.targets()):
            traced = run_lap(workload, tracer)
        problems.extend(traced.violations())
        by_label = spans.totals_by_label(tracer)
        problems.extend(_self_test(name, tracer, by_label, traced, laps[0]))
        per_layer = _per_layer(
            tracer, by_label, traced, laps[0], warmup_s, calibration_before
        )
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(OUT_DIR, f"trace-{name}.jsonl")
        spans.write_jsonl(tracer, trace_path)
        spans_recorded = len(tracer)

    calibration_after = calibration_unit_s()
    drift = abs(calibration_after - calibration_before) / calibration_before
    timed_ops = sum(len(lap.durations) for lap in laps)
    first = laps[0]
    return {
        "workload": name,
        "provenance": provenance(seed),
        "ops_per_lap": workload.ops,
        "laps": len(laps),
        "timed_ops": timed_ops,
        "p90_valid": percentile_is_valid(timed_ops, 0.90),
        "fingerprint": first.fingerprint(),
        "correct": not problems,
        "problems": problems[:20],
        # the contract's counts are per op; what the program refused
        # inside an op (rejected requests) is ``ok_share``
        "attempted": timed_ops,
        "failed": sum(
            1 for lap in laps for r in lap.records
            if r.op_failed or r.violations
        ),
        "noisy": drift > NOISE_TOLERANCE,
        "calibration_unit_s": [calibration_before, calibration_after],
        "setup_samples_s": setups,
        "end_to_end": _end_to_end(
            laps, statistics.median(setups), peak_rss_mb
        ),
        "per_layer": per_layer,
        "trace_path": trace_path,
        "spans": spans_recorded,
    }


def result_line(result: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """The one-line JSON object of the BENCHMARK.json contract."""
    if trace:
        specs = [(name, unit) for name, unit, _ in PER_LAYER]
        values = result["per_layer"]
    else:
        specs = [(name, unit) for name, unit, _, _ in END_TO_END]
        values = result["end_to_end"]
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in specs
        },
    }


def print_report(result: Dict[str, Any], out: Any = sys.stdout) -> None:
    """Every metric by name with its unit, plus provenance and verdicts."""

    def write(text: str) -> None:
        print(text, file=out)

    write(f"== {result['workload']} ==")
    write("provenance: " + ", ".join(
        f"{k}={v}" for k, v in result["provenance"].items()
    ))
    write(
        f"ops: {result['timed_ops']} timed in {result['laps']} lap(s) of "
        f"{result['ops_per_lap']}; closed loop, 1 client"
    )
    write(f"fingerprint: {result['fingerprint']}")
    write(
        f"correct: {result['correct']}  noisy: {result['noisy']} "
        f"(calibration {result['calibration_unit_s'][0]:.5f}s -> "
        f"{result['calibration_unit_s'][1]:.5f}s)"
    )
    for problem in result["problems"]:
        write(f"  PROBLEM: {problem}")
    for name, value in result["end_to_end"].items():
        note = ""
        if name == "op_p90_ms" and not result["p90_valid"]:
            note = "  (invalid: fewer than 10 samples beyond it)"
        write(f"  {name} = {value:.6g} {UNITS[name]}{note}")
    if result["per_layer"] is not None:
        for name, value in result["per_layer"].items():
            write(f"  {name} = {value:.6g} {UNITS[name]}")
        write(f"trace: {result['spans']} spans -> {result['trace_path']}")
