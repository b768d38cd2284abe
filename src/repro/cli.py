"""Command-line interface for the Ostro reproduction.

Subcommands:

* ``repro place --template stack.json --dc testbed --algorithm dba*`` --
  optimize a QoS-enhanced Heat template and print the annotated template.
* ``repro experiment {table1,table2,online}`` -- rerun the paper's
  testbed experiments and print the tables.
* ``repro experiment chaos --faults hosts=2,links=1,api=0.05`` -- run a
  seeded fault-injection scenario (host crashes, uplink failures,
  flaky surrogate APIs) and report availability, recovery time, and the
  capacity-leak audit (exit code 2 on any leak); add ``--defrag`` to
  interleave the bounded-disruption background defragmenter; see
  docs/ROBUSTNESS.md.
* ``repro sweep {fig7,fig8,fig9,fig10,fig11} [--hom]`` -- rerun a figure's
  size sweep and print the data series.
* ``repro tradeoff`` -- the Fig. 6 deadline/optimality tradeoff.
* ``repro bench [NAME ...] [--check | --update]`` -- run benches from the
  :mod:`repro.bench` table (reference placements, parallel sweep,
  service, defrag, elastic, lint cache), apply each one's gates and
  compare with / rewrite the committed ``benchmarks/perf/BENCH_<name>.json``.
* ``repro serve --dc pods:4 --arrivals 200 --serial-check`` -- run a
  Poisson arrival storm through the batched, pod-sharded admission
  pipeline and gate the batched fingerprint against the serial
  reference (see docs/SERVICE.md).

``place``, ``experiment``, and ``sweep`` accept ``--trace-out FILE``
(JSONL event stream) and ``--metrics-out FILE`` (Prometheus text
exposition); either flag enables the telemetry subsystem for the run and
prints the search-effort summary to stderr (see docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro import __version__, obs
from repro.core.scheduler import Ostro
from repro.errors import ReproError
from repro.heat.wrapper import OstroHeatWrapper
from repro.sim.experiment import run_placement
from repro.sim.reporting import format_series, format_table
from repro.sim.runner import sweep as run_sweep
from repro.sim.scenarios import (
    mesh_scenario,
    multitier_scenario,
    qfs_testbed_scenario,
    sweep_sizes,
)


def _build_cloud(spec: str):
    from repro.datacenter.builder import cloud_from_spec

    return cloud_from_spec(spec)


def cmd_place(args: argparse.Namespace) -> int:
    cloud = _build_cloud(args.dc)
    ostro = Ostro(cloud)
    wrapper = OstroHeatWrapper(ostro)
    options = {}
    if args.deadline is not None:
        options["deadline_s"] = args.deadline
    try:
        response = wrapper.handle(
            args.template,
            stack_name=args.stack,
            algorithm=args.algorithm,
            commit=False,
            **options,
        )
    except ReproError as exc:
        # A failed run still exits with a one-line diagnostic (and, when
        # telemetry is on, still dumps the trace/metrics collected so far)
        # instead of a raw traceback; exit code 2 distinguishes "the
        # placement failed" from "the invocation was wrong" (1).
        print(
            f"# placement failed ({type(exc).__name__}): {exc}",
            file=sys.stderr,
        )
        return 2
    result = response.result
    print(json.dumps(response.annotated_template, indent=2))
    print(
        f"# reserved bandwidth: {result.reserved_bw_mbps:.0f} Mbps, "
        f"new active hosts: {result.new_active_hosts}, "
        f"runtime: {result.runtime_s:.3f} s",
        file=sys.stderr,
    )
    return 0


_TESTBED_ALGOS = ["egc", "egbw", "eg", "ba*", "dba*"]
_SWEEP_ALGOS = ["egc", "egbw", "eg", "dba*"]


def cmd_experiment(args: argparse.Namespace) -> int:
    if args.name in ("table1", "table2"):
        scenario = qfs_testbed_scenario(uniform=args.name == "table2")
        rows = [
            run_placement(
                algo,
                scenario,
                size=12,
                seed=args.seed,
                deadline_s=0.5,
                **({"max_expansions": 5000} if algo == "ba*" else {}),
            )
            for algo in _TESTBED_ALGOS
        ]
        title = (
            "Table I: QFS under non-uniform resource availability"
            if args.name == "table1"
            else "Table II: QFS under uniform resource availability"
        )
        print(format_table(rows, title=title))
        return 0
    if args.name == "online":
        from repro.core.online import add_vms_to_tier
        from repro.workloads.multitier import build_multitier

        scenario = multitier_scenario(heterogeneous=True)
        cloud = scenario.build_cloud()
        ostro = Ostro(cloud, scenario.build_state(cloud, args.seed))
        topo = build_multitier(total_vms=args.size)
        ostro.place(topo, algorithm="eg", greedy_config=scenario.greedy_config)
        grown = add_vms_to_tier(topo, "tier1", 0.1)
        update = ostro.update(
            grown,
            algorithm="dba*",
            deadline_s=0.3,
            greedy_config=scenario.greedy_config,
        )
        print(
            f"online adaptation: added {len(update.added)} VMs, "
            f"moved {len(update.moved)} existing nodes, "
            f"runtime {update.result.runtime_s:.3f} s"
        )
        return 0
    if args.name == "chaos":
        from repro.sim.chaos import run_chaos_many

        cloud = _build_cloud(args.dc)
        spec = _parse_fault_spec(args.faults)
        options = {}
        if args.deadline is not None:
            options["deadline_s"] = args.deadline
        defrag_config = _defrag_config_from_args(args)
        if defrag_config is not None:
            options["defrag"] = defrag_config
        seeds = list(range(args.seed, args.seed + max(1, args.seeds)))
        reports = run_chaos_many(
            seeds,
            workers=args.workers,
            cloud_spec=args.dc,
            faults={
                "hosts": spec["hosts"],
                "links": spec["links"],
                "api_transient_rate": spec["api"],
                "api_permanent_rate": spec["api-perm"],
                "steps": args.apps,
                "recover_after_steps": spec["recover"],
            },
            apps=args.apps,
            app_vms=args.app_vms,
            algorithm=args.algorithm,
            **options,
        )
        leaked = False
        for report in reports:
            print(
                f"chaos run ({args.faults}) on {cloud.num_hosts} hosts, "
                f"algorithm {args.algorithm}:"
            )
            for line in report.summary_lines():
                print(f"  {line}")
            if report.invariant_violations:
                leaked = True
                for violation in report.invariant_violations:
                    print(
                        f"LEAK: [seed {report.seed}] {violation}",
                        file=sys.stderr,
                    )
        return 2 if leaked else 0
    raise ReproError(f"unknown experiment: {args.name!r}")


#: fault-spec keys -> (parser, default) for ``--faults k=v,...``
_FAULT_SPEC_KEYS = {
    "hosts": (int, 0),
    "links": (int, 0),
    "api": (float, 0.0),
    "api-perm": (float, 0.0),
    "recover": (int, None),
}


def _parse_fault_spec(spec: str) -> dict:
    """Parse ``--faults`` (e.g. ``hosts=2,links=1,api=0.05``) to a dict."""
    values = {key: default for key, (_, default) in _FAULT_SPEC_KEYS.items()}
    if not spec.strip():
        return values
    for part in spec.split(","):
        key, sep, raw = part.strip().partition("=")
        if not sep or key not in _FAULT_SPEC_KEYS:
            raise ReproError(
                f"bad fault spec entry {part.strip()!r}; expected "
                f"key=value with key in {sorted(_FAULT_SPEC_KEYS)}"
            )
        convert = _FAULT_SPEC_KEYS[key][0]
        try:
            values[key] = convert(raw)
        except ValueError as exc:
            raise ReproError(
                f"bad fault spec value {raw!r} for {key!r}"
            ) from exc
    return values


_FIGS = {
    "fig7": ("multitier", "reserved_bw_gbps"),
    "fig8": ("multitier", "hosts_used"),
    "fig9": ("multitier", "runtime_s"),
    "fig10": ("mesh", "reserved_bw_gbps"),
    "fig10rt": ("mesh", "runtime_s"),
    "fig11": ("mesh", "hosts_used"),
}


def cmd_sweep(args: argparse.Namespace) -> int:
    workload, metric = _FIGS[args.figure]
    heterogeneous = not args.hom
    scenario = (
        multitier_scenario(heterogeneous)
        if workload == "multitier"
        else mesh_scenario(heterogeneous)
    )
    sizes = args.sizes or sweep_sizes(workload, heterogeneous)
    rows = run_sweep(
        scenario,
        args.algorithms,
        sizes,
        seeds=tuple(range(args.seeds)),
        skip_infeasible=True,
        workers=args.workers,
    )
    regime = "heterogeneous" if heterogeneous else "homogeneous"
    title = f"{args.figure} ({workload}, {regime}): {metric}"
    print(format_series(rows, metric=metric, title=title))
    if args.chart:
        from repro.sim.plots import ascii_chart

        print()
        print(ascii_chart(rows, metric=metric, title=title))
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    from repro.sim.arrivals import (
        WorkloadTrace,
        default_app_factory,
        replay,
    )

    cloud = _build_cloud(args.dc)
    trace = WorkloadTrace.poisson(
        arrivals=args.arrivals,
        app_factory=default_app_factory,
        mean_interarrival_s=args.interarrival,
        mean_lifetime_s=args.lifetime,
        seed=args.seed,
    )
    print(
        f"replaying {args.arrivals} tenants "
        f"(1/{args.interarrival:.0f}s arrivals, {args.lifetime:.0f}s "
        f"lifetimes) on {cloud.num_hosts} hosts\n"
    )
    print(f"{'algorithm':>9}  {'accepted':>8}  {'rejected':>8}  "
          f"{'acceptance':>10}  {'peak cpu':>8}")
    if args.workers > 1:
        from repro.sim.parallel import parallel_replay

        reports = parallel_replay(
            trace, cloud, args.algorithms, workers=args.workers
        )
    else:
        reports = [
            replay(trace, cloud, algorithm=algorithm)
            for algorithm in args.algorithms
        ]
    for algorithm, report in zip(args.algorithms, reports):
        print(
            f"{algorithm:>9}  {report.accepted:8d}  {report.rejected:8d}  "
            f"{report.acceptance_rate:10.1%}  "
            f"{report.peak_cpu_used_frac:8.1%}"
        )
    return 0


def cmd_util(args: argparse.Namespace) -> int:
    from repro.datacenter.loadgen import apply_table_iv_load
    from repro.datacenter.state import DataCenterState
    from repro.sim.utilization import format_utilization, utilization_report

    cloud = _build_cloud(args.dc)
    state = DataCenterState(cloud)
    if args.load == "tableiv":
        apply_table_iv_load(state, seed=args.seed)
    print(format_utilization(utilization_report(state)))
    return 0


def cmd_tradeoff(args: argparse.Namespace) -> int:
    scenario = multitier_scenario(heterogeneous=True)
    print(f"Fig 6 tradeoff (multitier {args.size} VMs): deadline sweep")
    print("deadline_s  bandwidth_gbps  new_hosts  runtime_s")
    for deadline in args.deadlines:
        row = run_placement(
            "dba*", scenario, args.size, seed=args.seed, deadline_s=deadline
        )
        print(
            f"{deadline:10.2f}  {row.reserved_bw_gbps:14.2f}  "
            f"{row.new_active_hosts:9.0f}  {row.runtime_s:9.2f}"
        )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ServiceConfig, run_service
    from repro.sim.arrivals import WorkloadTrace, default_app_factory

    cloud = _build_cloud(args.dc)
    trace = WorkloadTrace.poisson_storm(
        arrivals=args.arrivals,
        app_factory=default_app_factory,
        mean_interarrival_s=args.interarrival,
        mean_lifetime_s=args.lifetime,
        seed=args.seed,
        burst_every_s=args.burst_every,
        burst_len_s=args.burst_len,
        burst_factor=args.burst_factor,
        priority_levels=args.priorities,
        update_fraction=args.updates,
        scale_every_s=args.scale_every,
    )
    defrag_config = _defrag_config_from_args(args)
    scaling_config = _scaling_config_from_args(args)
    if defrag_config is not None and args.serial_check:
        print(
            "error: --serial-check requires --defrag off (batched and "
            "serial runs legitimately diverge once background moves "
            "depend on the admission interleaving)",
            file=sys.stderr,
        )
        return 1
    config = ServiceConfig(
        algorithm=args.algorithm,
        horizon_s=args.horizon,
        max_batch=args.max_batch,
        deadline_s=args.deadline,
        audit_every=args.audit_every,
        defrag=defrag_config,
        scaling=scaling_config,
    )
    mode = "serial" if args.serial else f"batched(max={args.max_batch})"
    print(
        f"serving {args.arrivals} submissions on {cloud.num_hosts} hosts "
        f"({len(cloud.pods)} pods), horizon {args.horizon:.0f}s, {mode}, "
        f"algorithm {args.algorithm}"
    )
    report = run_service(trace, cloud, config, serial=args.serial)
    print(
        f"  admitted {report.admitted}/{report.requests} "
        f"(rejected {report.rejected}, expired {report.expired}, "
        f"cancelled {report.cancelled}), updates "
        f"{report.updates_applied}+{report.updates_failed} failed"
    )
    print(
        f"  batches: {report.batches}, escalations: "
        f"{report.escalations or '{}'}"
    )
    routes = ", ".join(
        f"{name}={count}"
        for name, count in sorted(report.shard_admissions.items())
    )
    print(f"  routes: {routes or 'none'}")
    print(
        f"  latency p50/p95/p99: {report.latency_p50_s:.1f}/"
        f"{report.latency_p95_s:.1f}/{report.latency_p99_s:.1f} s "
        f"(virtual); {report.placements_per_sec:.0f} placements/s "
        f"(wall {report.wall_s:.2f}s)"
    )
    if defrag_config is not None:
        print(
            f"  defrag: {report.defrag_passes} passes, "
            f"{report.defrag_moves} moves "
            f"({report.defrag_aborted_passes} aborted, "
            f"{report.defrag_replans} replans), "
            f"{report.defrag_move_seconds:.1f} VM-move-s, "
            f"frag recovered {report.frag_recovered:.4f}"
        )
    if scaling_config is not None:
        print(
            f"  scaling: {report.scale_outs} out / {report.scale_ins} in "
            f"({report.scale_evaluations} evaluations, "
            f"{report.scale_out_failures} failures), "
            f"+{report.vms_added}/-{report.vms_removed} VMs, "
            f"{report.scale_consolidation_moves} consolidation moves"
        )
    print(f"  fingerprint: {report.fingerprint}")
    rc = 0
    if report.audit_violations:
        for violation in report.audit_violations:
            print(f"LEAK: {violation}", file=sys.stderr)
        rc = 2
    if args.serial_check and not args.serial:
        reference = run_service(trace, cloud, config, serial=True)
        identical = reference.fingerprint == report.fingerprint
        print(
            f"  serial check: {'identical' if identical else 'MISMATCH'} "
            f"(serial fingerprint {reference.fingerprint})"
        )
        if reference.audit_violations:
            for violation in reference.audit_violations:
                print(f"LEAK: [serial] {violation}", file=sys.stderr)
            rc = 2
        if not identical:
            print(
                "error: batched admission diverged from the serial "
                "reference ordering",
                file=sys.stderr,
            )
            rc = 2
    return rc


def cmd_bench(args: argparse.Namespace) -> int:
    import inspect
    import os
    import tempfile

    from repro import bench
    from repro.core import kernel as kernel_mod

    unknown = [name for name in args.names if name not in bench.BENCHES]
    if unknown:
        args.usage_error(
            f"unknown bench {', '.join(unknown)} "
            f"(choose from {', '.join(bench.BENCHES)})"
        )
    selected = [bench.BENCHES[name] for name in args.names or bench.BENCHES]
    given = {
        flag: (kwarg, value)
        for flag, kwarg, value in (
            ("--repeats", "repeats", args.repeats),
            ("--gap", "gap", args.gap or None),
            ("--gap-time-limit", "gap_time_limit_s", args.gap_time_limit),
        )
        if value is not None
    }
    if "--gap" in given and (args.check or args.update):
        args.usage_error("--gap payloads are not baselines: drop --check/--update")
    for entry in selected:
        accepted = inspect.signature(entry.run).parameters
        stray = [flag for flag, (kwarg, _) in given.items() if kwarg not in accepted]
        if stray:
            args.usage_error(
                f"{', '.join(stray)} does not apply to bench {entry.name} "
                f"(only to {', '.join(bench.REFERENCE_CASES)})"
            )
    options = dict(given.values())
    # --check writes nothing under the repository; only --update does.
    out_dir = args.out_dir or os.path.join(tempfile.gettempdir(), "repro-bench")
    if args.update:
        out_dir = bench.BASELINE_DIR
    failures: List[str] = []
    with kernel_mod.use_kernel(args.kernel or kernel_mod.get_kernel()):
        for entry in selected:
            payload = entry.run(**options)
            print(entry.summary(payload))
            found = [f"{entry.name}: {msg}" for msg in entry.gates(payload)]
            if args.check:
                found += bench.check(entry, payload, bench.BASELINE_DIR)
            if not (args.update and found):  # never commit a failing payload
                path = bench.write_payload(payload, entry.name, out_dir)
                print(f"# wrote {path}", file=sys.stderr)
            failures += found
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _git_changed_files() -> Optional[List[str]]:
    """Python files touched in the working tree (staged, unstaged, or
    untracked), per ``git status``; None when git is unavailable."""
    import subprocess
    from pathlib import Path

    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=all"],
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    files = set()
    for line in proc.stdout.splitlines():
        if len(line) < 4:
            continue
        path = line[3:]
        if " -> " in path:  # rename: lint the new name
            path = path.split(" -> ", 1)[1]
        path = path.strip().strip('"')
        if path.endswith(".py") and Path(path).exists():
            files.add(path)
    return sorted(files)


def cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro import lint

    if args.list_rules:
        for rule in lint.every_rule():
            print(f"{rule.code}  {rule.name:<20} {rule.summary}")
        return 0
    paths = args.paths or ["src/repro"]
    analysis_paths = None
    if args.changed:
        changed = _git_changed_files()
        if changed is None:
            print(
                "error: --changed requires a git checkout",
                file=sys.stderr,
            )
            return 2
        # project rules still see the whole tree; only the report is
        # scoped to the touched files
        analysis_paths = paths
        paths = changed
        if not paths:
            print(lint.render_report([], 0, args.format))
            return 0
    cache = None
    if not args.no_cache:
        cache = lint.LintCache(Path(args.cache_path))
    try:
        diagnostics, files_checked = lint.lint_paths(
            paths, analysis_paths=analysis_paths, cache=cache
        )
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.update_baseline:
        target = Path(args.baseline or lint.DEFAULT_BASELINE_PATH)
        lint.write_baseline(target, diagnostics)
        noun = "entry" if len(diagnostics) == 1 else "entries"
        print(
            f"wrote {len(diagnostics)} {noun} to {target}",
            file=sys.stderr,
        )
        return 0
    if args.baseline:
        try:
            entries = lint.load_baseline(Path(args.baseline))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"error: bad baseline: {exc}", file=sys.stderr)
            return 2
        diagnostics, stale = lint.compare_baseline(diagnostics, entries)
        for path, code, message in stale:
            print(
                f"stale baseline entry: {path}: {code} {message}",
                file=sys.stderr,
            )
    print(lint.render_report(diagnostics, files_checked, args.format))
    return 1 if diagnostics else 0


def _add_defrag_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--defrag",
        action="store_true",
        help="run the bounded-disruption background defragmenter between "
        "steps (see docs/ROBUSTNESS.md, 'Continuous defragmentation')",
    )
    parser.add_argument(
        "--defrag-every",
        type=int,
        default=1,
        metavar="N",
        help="defrag cadence: consider a pass every N steps (default: "
        "%(default)s)",
    )
    parser.add_argument(
        "--defrag-moves",
        type=int,
        default=8,
        metavar="N",
        help="per-pass migration-step budget (default: %(default)s)",
    )
    parser.add_argument(
        "--defrag-margin",
        type=float,
        default=0.0,
        metavar="GAIN",
        help="minimum objective gain (net of migration cost) a pass must "
        "clear to execute (default: %(default)s)",
    )


def _defrag_config_from_args(args: argparse.Namespace):
    """Build a DefragConfig from the --defrag* flags (None when off)."""
    if not getattr(args, "defrag", False):
        return None
    from repro.defrag import DefragConfig

    return DefragConfig(
        cadence=args.defrag_every,
        max_moves_per_pass=args.defrag_moves,
        margin=args.defrag_margin,
    )


def _add_scaling_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scaling",
        action="store_true",
        help="evaluate trace scale events through the autoscaling loop "
        "(see docs/SERVICE.md, 'Elasticity lifecycle'); requires "
        "--scale-every > 0 to generate any scale events",
    )
    parser.add_argument(
        "--scale-every",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="emit a scale-evaluation event per tenant every N virtual "
        "seconds of its lifetime (default: %(default)s = none)",
    )
    parser.add_argument(
        "--scaling-policy",
        choices=("threshold", "ewma"),
        default="threshold",
        help="scaling policy (default: %(default)s)",
    )
    parser.add_argument(
        "--scale-out-at",
        type=float,
        default=0.75,
        metavar="FRAC",
        help="scale-out utilization threshold (default: %(default)s)",
    )
    parser.add_argument(
        "--scale-in-at",
        type=float,
        default=0.30,
        metavar="FRAC",
        help="scale-in utilization threshold (default: %(default)s)",
    )
    parser.add_argument(
        "--scale-cooldown",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="per-tier hold window after an applied action (default: "
        "%(default)s)",
    )
    parser.add_argument(
        "--scale-consolidate",
        action="store_true",
        help="run a targeted defrag pass over the survivors after every "
        "scale-in",
    )


def _scaling_config_from_args(args: argparse.Namespace):
    """Build a ScalingConfig from the --scaling* flags (None when off)."""
    if not getattr(args, "scaling", False):
        return None
    from repro.scaling import ScalingConfig

    return ScalingConfig(
        policy=args.scaling_policy,
        scale_out_at=args.scale_out_at,
        scale_in_at=args.scale_in_at,
        cooldown_s=args.scale_cooldown,
        seed=args.seed,
        consolidate=args.scale_consolidate,
    )


def _add_workers_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="fan work across N worker processes (default: 1 = serial; "
        "results are identical for any N, wall-clock aside)",
    )


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="enable telemetry and write the JSONL event stream here",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="enable telemetry and write Prometheus-style metrics here",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ostro (ICDCS 2015) reproduction: topology-aware placement",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    place = sub.add_parser("place", help="optimize a Heat template")
    place.add_argument("--template", required=True, help="template JSON path")
    place.add_argument("--dc", default="testbed", help="'testbed' or 'dc:<racks>'")
    place.add_argument("--algorithm", default="dba*")
    place.add_argument("--stack", default="stack")
    place.add_argument("--deadline", type=float, default=None)
    _add_telemetry_flags(place)
    place.set_defaults(func=cmd_place)

    experiment = sub.add_parser("experiment", help="rerun a paper experiment")
    experiment.add_argument(
        "name", choices=["table1", "table2", "online", "chaos"]
    )
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument("--size", type=int, default=50)
    experiment.add_argument(
        "--faults",
        default="hosts=2,links=1",
        metavar="SPEC",
        help="chaos only: comma-separated hosts=N,links=N,api=RATE,"
        "api-perm=RATE,recover=STEPS (default: %(default)s)",
    )
    experiment.add_argument(
        "--dc",
        default="dc:6",
        help="chaos only: data center spec, 'testbed' or 'dc:<racks>'",
    )
    experiment.add_argument(
        "--apps",
        type=int,
        default=8,
        help="chaos only: applications to deploy (= scenario steps)",
    )
    experiment.add_argument(
        "--app-vms",
        type=int,
        default=10,
        help="chaos only: VMs per application",
    )
    experiment.add_argument(
        "--algorithm",
        default="dba*",
        help="chaos only: starting algorithm rung",
    )
    experiment.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="chaos only: DBA* deadline in seconds",
    )
    experiment.add_argument(
        "--seeds",
        type=int,
        default=1,
        metavar="K",
        help="chaos only: run K consecutive seeds starting at --seed",
    )
    _add_defrag_flags(experiment)
    _add_workers_flag(experiment)
    _add_telemetry_flags(experiment)
    experiment.set_defaults(func=cmd_experiment)

    sweep_cmd = sub.add_parser("sweep", help="rerun a figure's size sweep")
    sweep_cmd.add_argument("figure", choices=sorted(_FIGS))
    sweep_cmd.add_argument("--hom", action="store_true")
    sweep_cmd.add_argument("--sizes", type=int, nargs="*", default=None)
    sweep_cmd.add_argument("--seeds", type=int, default=1)
    sweep_cmd.add_argument(
        "--algorithms", nargs="*", default=_SWEEP_ALGOS
    )
    sweep_cmd.add_argument(
        "--chart", action="store_true", help="also draw an ASCII chart"
    )
    _add_workers_flag(sweep_cmd)
    _add_telemetry_flags(sweep_cmd)
    sweep_cmd.set_defaults(func=cmd_sweep)

    replay_cmd = sub.add_parser(
        "replay", help="replay a tenant churn stream per algorithm"
    )
    replay_cmd.add_argument("--dc", default="dc:2")
    replay_cmd.add_argument("--arrivals", type=int, default=30)
    replay_cmd.add_argument("--interarrival", type=float, default=20.0)
    replay_cmd.add_argument("--lifetime", type=float, default=600.0)
    replay_cmd.add_argument("--seed", type=int, default=0)
    replay_cmd.add_argument(
        "--algorithms", nargs="*", default=["egc", "egbw", "eg"]
    )
    _add_workers_flag(replay_cmd)
    replay_cmd.set_defaults(func=cmd_replay)

    util = sub.add_parser("util", help="show cluster utilization")
    util.add_argument("--dc", default="dc:24")
    util.add_argument(
        "--load", choices=["none", "tableiv"], default="tableiv"
    )
    util.add_argument("--seed", type=int, default=0)
    util.set_defaults(func=cmd_util)

    tradeoff = sub.add_parser("tradeoff", help="Fig 6 deadline tradeoff")
    tradeoff.add_argument("--size", type=int, default=50)
    tradeoff.add_argument("--seed", type=int, default=0)
    tradeoff.add_argument(
        "--deadlines",
        type=float,
        nargs="*",
        default=[0.5, 1.0, 2.0, 4.0, 8.0],
    )
    tradeoff.set_defaults(func=cmd_tradeoff)

    bench_cmd = sub.add_parser(
        "bench",
        help="run benches from the repro.bench table and apply their gates",
    )
    bench_cmd.add_argument(
        "names",
        nargs="*",
        metavar="NAME",
        help="multitier, mesh, qfs, parallel_sweep, service, defrag, "
        "elastic, lint_cache (default: all eight)",
    )
    baseline = bench_cmd.add_mutually_exclusive_group()
    baseline.add_argument(
        "--check",
        action="store_true",
        help="also compare each payload with the committed "
        "benchmarks/perf/BENCH_<name>.json: deterministic fields must be "
        "equal, normalized_cost within 25%%",
    )
    baseline.add_argument(
        "--update",
        action="store_true",
        help="rewrite the committed benchmarks/perf/BENCH_<name>.json",
    )
    bench_cmd.add_argument(
        "--out-dir",
        default=None,
        help="directory for the BENCH_<name>.json payloads "
        "(default: <tmp>/repro-bench)",
    )
    bench_cmd.add_argument(
        "--kernel",
        choices=("python", "numpy", "crosscheck"),
        default=None,
        help="scoring kernel for the run (default: the process-wide "
        "kernel, numpy when available)",
    )
    bench_cmd.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="best-of-N timing repeats (reference cases only; default 3)",
    )
    bench_cmd.add_argument(
        "--gap",
        action="store_true",
        help="also compute the MILP optimality-gap oracle and report each "
        "algorithm's gap against the certified lower bound (reference "
        "cases only; a relaxation: the gap over-states true suboptimality)",
    )
    bench_cmd.add_argument(
        "--gap-time-limit",
        type=float,
        default=None,
        metavar="SECONDS",
        help="HiGHS budget for the gap oracle; on timeout the solver's "
        "dual bound is used (default 60)",
    )
    bench_cmd.set_defaults(func=cmd_bench, usage_error=bench_cmd.error)

    serve = sub.add_parser(
        "serve",
        help="run an arrival storm through the batched, pod-sharded "
        "admission pipeline (see docs/SERVICE.md)",
    )
    serve.add_argument(
        "--dc",
        default="pods:4",
        help="data center spec; 'pods:<P>[x<R>x<H>]' builds a podded DC "
        "the service shards per pod (default: %(default)s)",
    )
    serve.add_argument("--arrivals", type=int, default=200)
    serve.add_argument("--interarrival", type=float, default=20.0)
    serve.add_argument("--lifetime", type=float, default=600.0)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--algorithm", default="eg")
    serve.add_argument(
        "--horizon",
        type=float,
        default=30.0,
        help="virtual seconds between queue drains (default: %(default)s)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=16,
        help="largest joint admission batch (default: %(default)s)",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-request patience in virtual seconds (default: none)",
    )
    serve.add_argument(
        "--priorities",
        type=int,
        default=1,
        metavar="K",
        help="draw admission priorities from range(K) (default: 1 = all "
        "equal)",
    )
    serve.add_argument(
        "--updates",
        type=float,
        default=0.0,
        metavar="FRAC",
        help="fraction of tenants that grow mid-lifetime through the "
        "online-adaptation path (default: %(default)s)",
    )
    serve.add_argument("--burst-every", type=float, default=0.0)
    serve.add_argument("--burst-len", type=float, default=0.0)
    serve.add_argument("--burst-factor", type=float, default=4.0)
    serve.add_argument(
        "--audit-every",
        type=int,
        default=10,
        metavar="N",
        help="capacity-conservation audit every N drains (default: "
        "%(default)s; the final audit always runs)",
    )
    serve.add_argument(
        "--serial",
        action="store_true",
        help="force per-request admission (max-batch=1), the reference "
        "ordering",
    )
    serve.add_argument(
        "--serial-check",
        action="store_true",
        help="also run the serial reference and fail (exit 2) unless the "
        "batched fingerprint matches it bit-for-bit",
    )
    serve.add_argument(
        "--virtual-time",
        action="store_true",
        help="drive the horizon clock from the trace's virtual "
        "timestamps (always on; flag accepted for explicitness in "
        "scripts)",
    )
    _add_defrag_flags(serve)
    _add_scaling_flags(serve)
    serve.set_defaults(func=cmd_serve)

    lint_cmd = sub.add_parser(
        "lint",
        help="run ostrolint, the domain-aware static analysis (OST0xx)",
    )
    lint_cmd.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to lint (default: src/repro)",
    )
    lint_cmd.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (json and sarif are schema-stable; see docs)",
    )
    lint_cmd.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )
    lint_cmd.add_argument(
        "--changed",
        action="store_true",
        help="report only findings in files touched per git status; the "
        "project-wide rules still analyze the full paths",
    )
    lint_cmd.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="subtract the baselined findings from the report "
        "(stale entries are listed on stderr)",
    )
    lint_cmd.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline (--baseline or "
        ".ostrolint-baseline.json) from the current findings and exit",
    )
    lint_cmd.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the incremental cache (.ostrolint-cache.json)",
    )
    lint_cmd.add_argument(
        "--cache-path",
        default=".ostrolint-cache.json",
        metavar="FILE",
        help="incremental cache location (default: %(default)s)",
    )
    lint_cmd.set_defaults(func=cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    recorder = None
    if trace_out or metrics_out:
        recorder = obs.enable()
    rc = 1
    try:
        rc = args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        rc = 1
    finally:
        if recorder is not None:
            try:
                if trace_out:
                    lines = obs.write_events_jsonl(recorder, trace_out)
                    print(
                        f"# wrote {lines} events to {trace_out}",
                        file=sys.stderr,
                    )
                if metrics_out:
                    obs.write_metrics_file(recorder, metrics_out)
                    print(
                        f"# wrote metrics to {metrics_out}", file=sys.stderr
                    )
                print(recorder.summary(), file=sys.stderr)
            except OSError as exc:
                print(
                    f"error: cannot write telemetry: {exc}", file=sys.stderr
                )
                rc = 1
            finally:
                obs.disable()
    return rc


if __name__ == "__main__":
    sys.exit(main())
