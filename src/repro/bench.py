"""The benchmark table behind ``repro bench [NAME ...] [--check | --update]``.

A bench is one row of :data:`BENCHES`: ``run(seed) -> payload`` builds the
workload and measures it at its one full size, ``gates(payload)`` returns
the acceptance failures (empty = pass; each predicate lives here and
nowhere else), ``summary(payload)`` is the line the CLI prints, and
``volatile`` names the payload keys that legitimately differ between two
runs of the same commit (wall seconds and what is derived from them).

Every other field is deterministic -- work counters from
:class:`~repro.core.base.SearchStats`, placement and decision-trajectory
fingerprints, action counts -- so the committed
``benchmarks/perf/BENCH_<name>.json`` is the baseline: :func:`check`
requires a fresh payload to equal it field for field outside the volatile
keys, and holds every ``normalized_cost`` (wall seconds divided by an
in-process calibration unit, so it carries across machines) within
:data:`TOLERANCE` of the committed value. A placement change shows up as a
hash mismatch, not just a timing delta.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.base import PlacementResult
from repro.core.scheduler import make_algorithm
from repro.sim.scenarios import (
    Scenario,
    mesh_scenario,
    multitier_scenario,
    qfs_testbed_scenario,
)

#: where the committed baselines live (a source checkout; ``--update`` writes here)
BASELINE_DIR = os.path.normpath(
    os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks", "perf")
)

#: a gated ``normalized_cost`` may exceed the committed one by this much
TOLERANCE = 0.25

#: registry counters harvested from the instrumented run
_REGISTRY_COUNTERS = (
    "ostro_estimates_total",
    "ostro_candidates_scored_total",
    "ostro_nodes_expanded_total",
    "ostro_eg_bound_runs_total",
)


def placement_fingerprint(result: PlacementResult) -> str:
    """Stable hash of the assignment set (behavioral regression check)."""
    blob = json.dumps(
        sorted(
            (a.node, a.host, a.disk)
            for a in result.placement.assignments.values()
        )
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def calibration_unit_s(repeats: int = 3) -> float:
    """Seconds for a fixed pure-Python workload on this interpreter.

    The loop exercises the same primitives the search hot path spends its
    time on (dict get/set, float adds, integer masking), so dividing a
    benchmark's wall time by this unit yields a machine-independent cost
    that a CI gate can compare across hosts of different speeds.
    """
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        ledger: Dict[int, float] = {}
        acc = 0.0
        for i in range(200_000):
            key = i & 1023
            ledger[key] = ledger.get(key, 0.0) + 1.5
            acc += ledger[key]
        best = min(best, time.perf_counter() - started)
    assert acc > 0.0
    return best


# -- the three reference cases (multitier / mesh / qfs) ---------------------


@dataclass(frozen=True)
class BenchCase:
    """One reference scenario: a workload plus the algorithms timed on it.

    Attributes:
        scenario_factory: zero-argument callable building the scenario.
        size: workload size passed to the scenario's topology builder.
        algorithms: (label, algorithm name, extra options, gated) tuples.
            ``gated`` algorithms are deterministic (EG, expansion-capped
            BA*) and are compared against the committed baseline; ungated
            ones (deadline-driven DBA*) are reported but not compared.
    """

    scenario_factory: Callable[[], Scenario]
    size: int
    algorithms: Tuple[Tuple[str, str, Tuple[Tuple[str, object], ...], bool], ...]


#: The paper's three workload families at sizes small enough for CI but
#: large enough that the search hot path dominates.
REFERENCE_CASES: Dict[str, BenchCase] = {
    "multitier": BenchCase(
        scenario_factory=lambda: multitier_scenario(heterogeneous=True),
        size=40,
        algorithms=(
            ("eg", "eg", (), True),
            ("ba*", "ba*", (("max_expansions", 100),), True),
            ("dba*", "dba*", (("deadline_s", 1.0), ("seed", 0)), False),
        ),
    ),
    "mesh": BenchCase(
        scenario_factory=lambda: mesh_scenario(heterogeneous=True),
        size=25,
        algorithms=(
            ("eg", "eg", (), True),
            ("ba*", "ba*", (("max_expansions", 100),), True),
        ),
    ),
    "qfs": BenchCase(
        scenario_factory=lambda: qfs_testbed_scenario(),
        size=12,
        algorithms=(
            ("eg", "eg", (), True),
            ("ba*", "ba*", (("max_expansions", 1000),), True),
        ),
    ),
}


def _build_case(case: BenchCase, seed: int) -> Tuple:
    scenario = case.scenario_factory()
    cloud = scenario.build_cloud()
    state = scenario.build_state(cloud, seed)
    topology = scenario.build_topology(case.size, seed)
    return scenario, cloud, state, topology, scenario.objective(topology, cloud)


def place_reference(
    case: BenchCase, algorithm: str, options: Dict, seed: int = 0
) -> Tuple[PlacementResult, float]:
    """One timed placement of a reference case; (result, seconds)."""
    scenario, cloud, state, topology, objective = _build_case(case, seed)
    opts = dict(options)
    opts.setdefault("greedy_config", scenario.greedy_config)
    algo = make_algorithm(algorithm, **opts)
    started = time.perf_counter()
    result = algo.place(topology, cloud, state, objective)
    return result, time.perf_counter() - started


def reference_benchmark(
    name: str,
    seed: int = 0,
    repeats: int = 3,
    gap: bool = False,
    gap_time_limit_s: float = 60.0,
    case: Optional[BenchCase] = None,
) -> Dict:
    """Time EG/BA*/DBA* on reference case ``name`` (best of ``repeats``).

    ``case`` substitutes a scaled-down copy of the case (tests only).

    With ``gap=True`` the payload also carries the optimality-gap
    oracle's certified lower bound (``lower_bound`` key) and each
    algorithm entry gains ``score`` (the objective value it achieved)
    and ``optimality_gap`` (``(score - lb) / lb``; ``None`` when the
    bound is zero or the oracle could not certify one). The bound comes
    from a relaxation, so the reported gap is an *upper* bound on the
    true distance from optimal.
    """
    case = case or REFERENCE_CASES[name]
    calibration_s = calibration_unit_s()
    bound = None
    if gap:
        from repro.core.oracle import gap_payload, lower_bound

        _, cloud, state, topology, objective = _build_case(case, seed)
        bound = lower_bound(
            topology, cloud, state, objective, time_limit_s=gap_time_limit_s
        )
    entries: List[Dict] = []
    for label, algorithm, opt_items, gated in case.algorithms:
        options = dict(opt_items)
        best_wall = float("inf")
        for _ in range(max(1, repeats)):
            result, wall = place_reference(case, algorithm, options, seed)
            best_wall = min(best_wall, wall)
        # One extra instrumented run reuses the repro.obs registry so the
        # emitted counters match what live telemetry would report.
        recorder = obs.TelemetryRecorder(record_span_events=False)
        with obs.use(recorder):
            counted, _ = place_reference(case, algorithm, options, seed)
        registry_counters = {}
        for counter_name in _REGISTRY_COUNTERS:
            metric = recorder.registry.get(counter_name)
            registry_counters[counter_name] = (
                sum(value for _, _, value in metric.samples())
                if metric is not None
                else 0.0
            )
        entry = {
            "algorithm": label,
            "gated": gated,
            "wall_s": best_wall,
            "normalized_cost": best_wall / calibration_s,
            "paths_expanded": result.stats.paths_expanded,
            "candidates_scored": result.stats.candidates_scored,
            "eg_bound_runs": result.stats.eg_bound_runs,
            "placement_hash": placement_fingerprint(result),
            "reserved_bw_mbps": result.reserved_bw_mbps,
            "new_active_hosts": result.new_active_hosts,
            "counted_placement_hash": placement_fingerprint(counted),
            "registry_counters": registry_counters,
        }
        if bound is not None:
            score = objective.score(
                result.reserved_bw_mbps, result.new_active_hosts
            )
            lb = bound.score
            entry["score"] = score
            entry["optimality_gap"] = (
                (score - lb) / lb if lb > 0 and math.isfinite(lb) else None
            )
        entries.append(entry)
    payload = {
        "scenario": name,
        "size": case.size,
        "repeats": repeats,
        "calibration_unit_s": calibration_s,
        "algorithms": entries,
    }
    if bound is not None:
        payload["lower_bound"] = gap_payload(bound)
    return payload


def _reference_gates(p: Dict) -> List[str]:
    failures = []
    for entry in p["algorithms"]:
        label = entry["algorithm"]
        if entry["gated"] and (
            entry["counted_placement_hash"] != entry["placement_hash"]
        ):
            failures.append(
                f"{label}: counted_placement_hash differs from "
                "placement_hash (telemetry perturbed the search)"
            )
        if "lower_bound" in p and entry["optimality_gap"] is None:
            failures.append(f"{label}: optimality_gap is not certified")
    if "lower_bound" in p and not p["lower_bound"]["score_lower_bound"] > 0:
        failures.append("lower_bound: score_lower_bound is not positive")
    return failures


def _reference_summary(p: Dict) -> str:
    bound = p.get("lower_bound")
    lines = []
    for entry in p["algorithms"]:
        line = (
            f"{p['scenario']:>10}-{p['size']:<3} "
            f"{entry['algorithm']:>5}  wall={entry['wall_s']:7.3f}s  "
            f"expanded={entry['paths_expanded']:6d}  "
            f"scored={entry['candidates_scored']:7d}  "
            f"hash={entry['placement_hash']}"
        )
        if bound is not None:
            gap = entry["optimality_gap"]
            line += (
                f"  score={entry['score']:.4f}"
                f"  lb={bound['score_lower_bound']:.4f}"
                + (f"  gap<={gap:.0%}" if gap is not None else "  gap=n/a")
            )
        lines.append(line)
    return "\n".join(lines)


# -- parallel_sweep ---------------------------------------------------------


def parallel_sweep_benchmark(
    seed: int = 0,
    workers: int = 4,
    sizes: Sequence[int] = (10, 20, 30, 40, 50),
    num_seeds: int = 4,
) -> Dict:
    """Serial-vs-parallel acceptance bench for the process-pool layer.

    Runs the same multitier sweep (5 sizes x 3 algorithms x 4 seeds by
    default) with ``workers=1`` and ``workers=N`` and reports both wall
    clocks and whether the aggregated rows are byte-identical (wall-clock
    ``runtime_s`` excluded via :func:`~repro.sim.metrics.rows_fingerprint`).
    ``speedup`` is recorded only when the machine has at least ``workers``
    cores; with fewer the ratio measures oversubscription, not the pool.

    The algorithm trio (EGC, EGBW, EG) is fully deterministic under any
    machine load. DBA* is excluded on purpose: how much search fits before a
    *binding* wall-clock deadline depends on machine speed and
    contention, so two runs -- serial or parallel alike -- can return
    different incumbents. That is a property of deadline-bounded search,
    not of the pool.
    """
    from repro.sim.metrics import rows_fingerprint
    from repro.sim.runner import sweep

    scenario = multitier_scenario(heterogeneous=True)
    algorithms = ("egc", "egbw", "eg")
    seeds = list(range(seed, seed + num_seeds))
    walls, fingerprints = [], []
    for n in (1, workers):
        started = time.perf_counter()
        rows = sweep(
            scenario, algorithms, sizes, seeds=seeds, aggregate=True, workers=n
        )
        walls.append(time.perf_counter() - started)
        fingerprints.append(rows_fingerprint(rows))
    cpu_count = os.cpu_count() or 1
    return {
        "scenario": "parallel_sweep",
        "workload": "multitier",
        "sizes": list(sizes),
        "algorithms": list(algorithms),
        "seeds": seeds,
        "cells": len(sizes) * len(algorithms) * len(seeds),
        "cpu_count": cpu_count,
        "workers": workers,
        "serial_wall_s": walls[0],
        "parallel_wall_s": walls[1],
        "speedup": (
            walls[0] / max(walls[1], 1e-9) if cpu_count >= workers else None
        ),
        "rows": len(rows),
        "rows_identical": fingerprints[0] == fingerprints[1],
        "rows_fingerprint_serial": fingerprints[0],
        "rows_fingerprint_parallel": fingerprints[1],
    }


def _parallel_sweep_gates(p: Dict) -> List[str]:
    if p["rows_identical"]:
        return []
    return ["rows_identical is false: the parallel sweep diverged from serial"]


# -- service / defrag / elastic ---------------------------------------------


def _report_fields(report: Any, **renames: str) -> Dict:
    """A report dataclass as payload keys, so a field added to the report
    reaches the BENCH file without being re-typed here. List fields
    (violation findings) become their length; ``repr=False`` fields (the
    per-request outcome log) are left out."""
    out = {}
    for f in dataclasses.fields(report):
        if f.repr:
            value = getattr(report, f.name)
            out[renames.get(f.name, f.name)] = (
                len(value) if isinstance(value, list) else value
            )
    return out


#: the service and elastic benches shard one datacenter into this many pods
_PODS = 4


def _pod_cloud(hosts_per_rack: int = 8) -> Any:
    from repro.datacenter.builder import build_cloud

    return build_cloud(
        num_datacenters=1,
        pods_per_dc=_PODS,
        racks_per_pod=2,
        hosts_per_rack=hosts_per_rack,
    )


def service_benchmark(
    seed: int = 0,
    arrivals: int = 500,
    hosts_per_rack: int = 8,
    mean_interarrival_s: float = 12.0,
) -> Dict:
    """Throughput + determinism bench for the admission service.

    Runs one Poisson arrival storm (bursty, prioritized, with online
    tier-growth churn) through the batched pod-sharded pipeline twice --
    serial reference ordering and batched -- and reports sustained
    placements/sec, the virtual p99 admission latency, and the
    serial-equivalence gate (the two runs' decision-trajectory
    fingerprints must match byte for byte). ``audit_violations`` counts
    capacity-conservation findings across both runs (must be zero).
    """
    from repro.service import ServiceConfig, run_service
    from repro.sim.arrivals import WorkloadTrace, default_app_factory

    cloud = _pod_cloud(hosts_per_rack)
    trace = WorkloadTrace.poisson_storm(
        arrivals,
        default_app_factory,
        mean_interarrival_s=mean_interarrival_s,
        mean_lifetime_s=400.0,
        seed=seed,
        burst_every_s=20 * mean_interarrival_s,
        burst_len_s=4 * mean_interarrival_s,
        burst_factor=4.0,
        priority_levels=3,
        update_fraction=0.2,
    )
    config = ServiceConfig(
        algorithm="eg", horizon_s=30.0, max_batch=16, deadline_s=180.0
    )
    serial = run_service(trace, cloud, config, serial=True)
    batched = run_service(trace, cloud, config)
    return {
        "scenario": "service",
        "seed": seed,
        "arrivals": arrivals,
        "pods": _PODS,
        "hosts": cloud.num_hosts,
        "algorithm": config.algorithm,
        "horizon_s": config.horizon_s,
        "max_batch": config.max_batch,
        "deadline_s": config.deadline_s,
        **_report_fields(
            batched, wall_s="batched_wall_s", fingerprint="fingerprint_batched"
        ),
        "serial_placements_per_sec": serial.placements_per_sec,
        "serial_wall_s": serial.wall_s,
        "fingerprint_serial": serial.fingerprint,
        "fingerprints_identical": serial.fingerprint == batched.fingerprint,
        "audit_violations": len(serial.audit_violations)
        + len(batched.audit_violations),
    }


def _service_gates(p: Dict) -> List[str]:
    failures = []
    if not p["fingerprints_identical"]:
        failures.append(
            "fingerprints_identical is false: batched admission diverged "
            "from the serial ordering"
        )
    if p["audit_violations"] != 0:
        failures.append(f"audit_violations = {p['audit_violations']}")
    if p["batches"].get("joint", 0) == 0:
        failures.append("batches.joint = 0: the equivalence gate is vacuous")
    return failures


def defrag_benchmark(seed: int = 0) -> Dict:
    """Acceptance bench for the continuous defragmenter.

    The canned scenario: host crashes with quick repairs scatter
    applications -- each crash evacuates its tenants onto whatever hosts
    still have room, and the repaired host comes back empty -- so
    survivors end up dispersed over long paths while revived capacity
    idles, exactly the fragmentation the background defragmenter exists
    to recover. No API faults are injected, so the defrag-off run is
    fully deterministic and the defrag-on run exercises planning and
    execution rather than retries.

    It runs three ways -- no defrag, defrag constructed but disabled, and
    defrag on -- and reports the fragmentation recovered, the disruption
    charged for it (moves and virtual VM-move-seconds), availability
    under both regimes, and the determinism gate: the disabled run's
    placement fingerprint must be bit-identical to the no-defrag
    baseline. ``leaks`` counts capacity-conservation findings across all
    three runs (must be zero).
    """
    from repro.datacenter.builder import build_datacenter
    from repro.defrag import DefragConfig
    from repro.sim.chaos import run_chaos
    from repro.sim.scenarios import make_fault_plan

    cloud = build_datacenter(num_racks=2)
    plan = make_fault_plan(
        cloud, seed=seed, hosts=6, steps=24, recover_after_steps=2
    )
    case = dict(plan=plan, cloud=cloud, apps=24, app_vms=10, algorithm="eg")
    started = time.perf_counter()
    baseline = run_chaos(**case)
    baseline_wall_s = time.perf_counter() - started
    disabled = run_chaos(
        **case, defrag=DefragConfig(enabled=False, algorithm="eg")
    )
    started = time.perf_counter()
    # The move budget is sized so one whole 10-VM application fits in a
    # single pass (the default budget of 8 rejects every 10-step plan).
    defragged = run_chaos(
        **case, defrag=DefragConfig(algorithm="eg", max_moves_per_pass=16)
    )
    defrag_wall_s = time.perf_counter() - started
    return {
        "scenario": "defrag",
        "apps": case["apps"],
        "app_vms": case["app_vms"],
        "hosts": cloud.num_hosts,
        "algorithm": case["algorithm"],
        **_report_fields(defragged, fingerprint="fingerprint_defrag"),
        "availability_baseline": baseline.availability,
        "availability_defrag": defragged.availability,
        "baseline_wall_s": baseline_wall_s,
        "defrag_wall_s": defrag_wall_s,
        "fingerprint_baseline": baseline.fingerprint,
        "fingerprint_disabled": disabled.fingerprint,
        "disabled_fingerprint_identical": (
            disabled.fingerprint == baseline.fingerprint
        ),
        "leaks": len(baseline.invariant_violations)
        + len(disabled.invariant_violations)
        + len(defragged.invariant_violations),
    }


def _lifecycle_gates(p: Dict) -> List[str]:
    """The two predicates defrag and elastic share."""
    failures = []
    if p["leaks"] != 0:
        failures.append(f"leaks = {p['leaks']}: capacity was not conserved")
    if not p["disabled_fingerprint_identical"]:
        failures.append(
            "disabled_fingerprint_identical is false: a constructed-but-"
            "disabled subsystem perturbed the run"
        )
    return failures


def _defrag_gates(p: Dict) -> List[str]:
    failures = _lifecycle_gates(p)
    if p["frag_recovered"] <= 0:
        failures.append(
            f"frag_recovered = {p['frag_recovered']}: the canned scenario "
            "stopped fragmenting, the gate is vacuous"
        )
    return failures


def elastic_benchmark(
    seed: int = 0,
    arrivals: int = 1000,
    mean_interarrival_s: float = 90.0,
    mean_lifetime_s: float = 7200.0,
    scale_every_s: float = 900.0,
) -> Dict:
    """Long-horizon elasticity bench for the autoscaling loop.

    Generates one arrival storm spanning at least a simulated day
    (``arrivals * mean_interarrival_s`` virtual seconds) in which every
    tenant emits a scale-evaluation event each ``scale_every_s`` seconds
    of its lifetime, then runs it through the service pipeline four ways:
    a scaling-free baseline, scaling constructed but ``enabled=False``
    (must be bit-identical to the baseline), and the same scaled
    configuration twice (the two fingerprints must be bit-identical to
    each other). ``leaks`` counts capacity-conservation findings across
    all four runs (must be zero).
    """
    from repro.scaling import ScalingConfig
    from repro.service import ServiceConfig, run_service
    from repro.sim.arrivals import WorkloadTrace, default_app_factory

    cloud = _pod_cloud()
    trace = WorkloadTrace.poisson_storm(
        arrivals,
        default_app_factory,
        mean_interarrival_s=mean_interarrival_s,
        mean_lifetime_s=mean_lifetime_s,
        seed=seed,
        priority_levels=3,
        update_fraction=0.1,
        scale_every_s=scale_every_s,
    )

    def config(scaling: Optional[ScalingConfig]) -> ServiceConfig:
        return ServiceConfig(
            algorithm="eg", horizon_s=60.0, max_batch=16, scaling=scaling
        )

    scaled_config = config(
        ScalingConfig(
            policy="threshold",
            tier_prefix="vm",
            scale_out_at=0.70,
            scale_in_at=0.35,
            step_fraction=0.34,
            cooldown_s=scale_every_s,
            seed=seed,
            consolidate=True,
        )
    )
    baseline = run_service(trace, cloud, config(None))
    disabled = run_service(trace, cloud, config(ScalingConfig(enabled=False)))
    scaled = run_service(trace, cloud, scaled_config)
    repeat = run_service(trace, cloud, scaled_config)
    return {
        "scenario": "elastic",
        "seed": seed,
        "arrivals": arrivals,
        "hosts": cloud.num_hosts,
        "algorithm": scaled_config.algorithm,
        "trace_span_s": trace.events[-1].time if trace.events else 0.0,
        "scale_events": sum(1 for e in trace.events if e.kind == "scale"),
        "scale_every_s": scale_every_s,
        **_report_fields(
            scaled, wall_s="scaled_wall_s", fingerprint="fingerprint_scaled"
        ),
        "baseline_wall_s": baseline.wall_s,
        "fingerprint_baseline": baseline.fingerprint,
        "fingerprint_disabled": disabled.fingerprint,
        "fingerprint_repeat": repeat.fingerprint,
        "disabled_fingerprint_identical": (
            disabled.fingerprint == baseline.fingerprint
        ),
        "scaled_fingerprints_identical": (
            scaled.fingerprint == repeat.fingerprint
        ),
        "leaks": sum(
            len(run.audit_violations)
            for run in (baseline, disabled, scaled, repeat)
        ),
    }


def _elastic_gates(p: Dict) -> List[str]:
    failures = _lifecycle_gates(p)
    if not p["scaled_fingerprints_identical"]:
        failures.append(
            "scaled_fingerprints_identical is false: two same-seed scaled "
            "runs diverged"
        )
    if p["scale_outs"] + p["scale_ins"] == 0:
        failures.append(
            "scale_outs + scale_ins = 0: the storm never scaled, the gate "
            "is vacuous"
        )
    return failures


# -- lint_cache -------------------------------------------------------------

#: Cold-run wall-clock budget (seconds). The full tree takes ~3-4s on a
#: developer laptop; 30s only trips on a complexity regression.
LINT_COLD_BUDGET_S = 30.0
#: Warm runs must beat the cold run by at least this factor ...
LINT_MIN_SPEEDUP = 5.0
#: ... unless they are already this fast in absolute terms (a tiny tree
#: or a very fast machine leaves no room for a 5x ratio).
LINT_WARM_FAST_ENOUGH_S = 0.3


def lint_cache_benchmark(
    seed: int = 0, paths: Optional[Sequence[str]] = None
) -> Dict:
    """Cold-vs-warm bench for ostrolint's incremental cache.

    Lints the ``repro`` package (or ``paths``) twice against a scratch
    cache -- once cold, once warm. The two reports must be byte-identical:
    the cache is a pure wall-clock optimization. ``seed`` is accepted for
    the table's uniform signature; linting draws no randomness.
    """
    import tempfile

    from repro.lint import LintCache, lint_paths, render_json

    targets = list(paths or [os.path.dirname(os.path.abspath(__file__))])
    walls = []
    reports = []
    with tempfile.TemporaryDirectory(prefix="ostrolint-perf-") as tmp:
        for _ in ("cold", "warm"):
            cache = LintCache(os.path.join(tmp, "cache.json"))
            started = time.perf_counter()
            diagnostics, checked = lint_paths(targets, cache=cache)
            walls.append(time.perf_counter() - started)
            cache.save()
            reports.append(render_json(diagnostics, checked))
    cold_s, warm_s = walls
    return {
        "scenario": "lint_cache",
        "files": checked,
        "findings": len(diagnostics),
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": cold_s / max(warm_s, 1e-9),
        "reports_identical": reports[0] == reports[1],
    }


def _lint_cache_gates(p: Dict) -> List[str]:
    failures = []
    if p["cold_s"] > LINT_COLD_BUDGET_S:
        failures.append(
            f"cold_s = {p['cold_s']:.2f} exceeds the "
            f"{LINT_COLD_BUDGET_S:.0f}s budget"
        )
    if p["speedup"] < LINT_MIN_SPEEDUP and p["warm_s"] > LINT_WARM_FAST_ENOUGH_S:
        failures.append(
            f"speedup = {p['speedup']:.1f}x is below {LINT_MIN_SPEEDUP:.0f}x "
            f"and warm_s = {p['warm_s']:.2f} is above "
            f"{LINT_WARM_FAST_ENOUGH_S}s"
        )
    if not p["reports_identical"]:
        failures.append(
            "reports_identical is false: the warm report differs from cold"
        )
    return failures


# -- the table --------------------------------------------------------------


@dataclass(frozen=True)
class Bench:
    """One row of the table (see the module docstring).

    ``volatile`` holds leaf key names, plus dotted prefixes for whole
    subtrees (the deadline-driven DBA* row: how much search fits before a
    wall-clock deadline is not reproducible).
    """

    name: str
    run: Callable[..., Dict]
    gates: Callable[[Dict], List[str]]
    summary: Callable[[Dict], str]
    volatile: Tuple[str, ...]


def _show(*keys: str) -> Callable[[Dict], str]:
    """A summary line of ``key=value`` pairs picked from the payload."""

    def summary(p: Dict) -> str:
        pairs = (
            f"{k}={p[k]:.4g}" if isinstance(p[k], float) else f"{k}={p[k]}"
            for k in keys
        )
        return f"{p['scenario']}: " + ", ".join(pairs)

    return summary


BENCHES: Dict[str, Bench] = {
    bench.name: bench
    for bench in (
        *(
            Bench(
                name,
                partial(reference_benchmark, name),
                _reference_gates,
                _reference_summary,
                ("wall_s", "normalized_cost", "calibration_unit_s",
                 "algorithms.dba*"),
            )
            for name in REFERENCE_CASES
        ),
        Bench(
            "parallel_sweep",
            parallel_sweep_benchmark,
            _parallel_sweep_gates,
            _show("cells", "cpu_count", "workers", "serial_wall_s",
                  "parallel_wall_s", "speedup", "rows_identical"),
            ("serial_wall_s", "parallel_wall_s", "speedup", "cpu_count"),
        ),
        Bench(
            "service",
            service_benchmark,
            _service_gates,
            _show("arrivals", "hosts", "admitted", "placements_per_sec",
                  "latency_p99_s", "batches", "fingerprints_identical",
                  "audit_violations"),
            ("batched_wall_s", "serial_wall_s", "placements_per_sec",
             "serial_placements_per_sec"),
        ),
        Bench(
            "defrag",
            defrag_benchmark,
            _defrag_gates,
            _show("apps", "hosts", "hosts_failed", "frag_recovered",
                  "defrag_passes", "defrag_moves", "defrag_move_seconds",
                  "availability_baseline", "availability_defrag", "leaks",
                  "disabled_fingerprint_identical"),
            ("baseline_wall_s", "defrag_wall_s", "recovery_s"),
        ),
        Bench(
            "elastic",
            elastic_benchmark,
            _elastic_gates,
            _show("arrivals", "hosts", "scale_events", "scale_outs",
                  "scale_ins", "vms_added", "vms_removed",
                  "scale_consolidation_moves", "leaks",
                  "disabled_fingerprint_identical",
                  "scaled_fingerprints_identical"),
            ("baseline_wall_s", "scaled_wall_s", "placements_per_sec"),
        ),
        Bench(
            "lint_cache",
            lint_cache_benchmark,
            _lint_cache_gates,
            _show("files", "findings", "cold_s", "warm_s", "speedup",
                  "reports_identical"),
            # the file count moves with every added module
            ("cold_s", "warm_s", "speedup", "files"),
        ),
    )
}


# -- the committed baseline -------------------------------------------------


def baseline_path(name: str, directory: str) -> str:
    return os.path.join(directory, f"BENCH_{name}.json")


def write_payload(payload: Dict, name: str, directory: str) -> str:
    """Write ``BENCH_<name>.json`` into ``directory``; returns the path."""
    os.makedirs(directory, exist_ok=True)
    path = baseline_path(name, directory)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _flatten(node: Dict, prefix: str = "") -> Iterator[Tuple[str, Any]]:
    """``(dotted path, leaf)`` pairs; the per-algorithm list of a reference
    payload is keyed by algorithm label rather than by position."""
    for key, value in node.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            value = {item["algorithm"]: item for item in value}
        if isinstance(value, dict):
            yield from _flatten(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def check(bench: Bench, payload: Dict, directory: str) -> List[str]:
    """Compare a fresh payload to the one committed in ``directory``
    (:data:`BASELINE_DIR` for the CLI); returns the failures.

    Every field outside ``bench.volatile`` must be equal (present on both
    sides with the same value), and a ``normalized_cost`` may exceed the
    committed one by at most :data:`TOLERANCE`.
    """
    path = baseline_path(bench.name, directory)
    if not os.path.exists(path):
        return [
            f"{bench.name}: missing {path} "
            f"(take it with `repro bench {bench.name} --update`)"
        ]
    with open(path, encoding="utf-8") as fh:
        committed = dict(_flatten(json.load(fh)))
    # through JSON so tuples and lists compare the way the file stores them
    fresh = dict(_flatten(json.loads(json.dumps(payload))))
    subtrees = tuple(v + "." for v in bench.volatile if "." in v)
    missing = object()
    failures = []
    for field in sorted(committed.keys() | fresh.keys()):
        if field.startswith(subtrees):
            continue
        was, now = committed.get(field, missing), fresh.get(field, missing)
        leaf = field.rpartition(".")[2]
        if leaf == "normalized_cost" and missing not in (was, now):
            if now > was * (1.0 + TOLERANCE):
                failures.append(
                    f"{bench.name}/{field}: {now:.2f} exceeds the committed "
                    f"{was:.2f} by more than {TOLERANCE:.0%}"
                )
        elif leaf not in bench.volatile and was != now:
            failures.append(
                f"{bench.name}/{field}: committed "
                f"{'<absent>' if was is missing else repr(was)}, this run "
                f"{'<absent>' if now is missing else repr(now)}"
            )
    return failures
