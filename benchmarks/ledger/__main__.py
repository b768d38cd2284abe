"""``python -m benchmarks.ledger run|compare`` -- see the package docstring."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, List

from benchmarks.ledger import compare as compare_mod
from benchmarks.ledger.metrics import END_TO_END, column, medians, quartile_spread
from benchmarks.ledger.run import WORKLOAD_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
#: ops per lap under ``--quick``: a smoke run, percentiles marked invalid
QUICK_OPS = 12


def _run_one(
    workload: str, seed: int, seconds: float, trace: bool, ops: int | None
) -> Dict[str, Any]:
    """One workload in its own interpreter; returns its result document."""
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    detail = os.path.join(
        HERE, "out", f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    )
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
        "--detail", detail,
    ]
    if ops is not None:
        command += ["--ops", str(ops)]
    # ``out/`` outlives runs: a crash must not report an earlier run's file
    if os.path.exists(detail):
        os.remove(detail)
    done = subprocess.run(command, check=False)
    # run.py exits 0 (correct) or 1 (ran to the end, incorrect)
    if done.returncode not in (0, 1) or not os.path.exists(detail):
        raise SystemExit(f"{workload} seed {seed} crashed (exit {done.returncode})")
    with open(detail, encoding="utf-8") as source:
        return json.load(source)


def cmd_run(args: argparse.Namespace) -> int:
    results: Dict[str, List[Dict[str, Any]]] = {}
    ok = True
    for workload in WORKLOAD_NAMES:
        for seed in range(args.seed, args.seed + args.repeat):
            result = _run_one(
                workload, seed,
                0.0 if args.quick else args.seconds,  # quick: a single lap
                not args.no_trace,
                QUICK_OPS if args.quick else None,
            )
            results.setdefault(workload, []).append(result)
            ok = ok and result["correct"]
    names = [name for name, _, _, _ in END_TO_END]
    print("\n== summary: medians over runs (quartile spread as share of median) ==")
    for workload, runs in results.items():
        rows = [run["end_to_end"] for run in runs]
        middle = medians(rows, names)
        noisy = sum(run["noisy"] for run in runs)
        print(f"{workload}: {len(runs)} run(s), {noisy} noisy")
        for name, unit, _, bound in END_TO_END:
            spread = quartile_spread(column(rows, name))
            print(
                f"  {name} = {middle[name]:.6g} {unit}"
                f"  (spread {spread:.2%}, bound {bound:.1%})"
            )
    with open(args.out, "w", encoding="utf-8") as out:
        json.dump({"workloads": results}, out, indent=1, sort_keys=True)
    print(f"result set written to {args.out}")
    return 0 if ok else 1


def cmd_compare(args: argparse.Namespace) -> int:
    rows, findings = compare_mod.compare(
        compare_mod.load(args.parent), compare_mod.load(args.change)
    )
    print(compare_mod.format_table(rows, findings))
    failed = findings or any(row[-1] == "fail" for row in rows)
    return 1 if failed else 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run the workloads, print every metric")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--repeat", type=int, default=1,
        help="runs per workload, on seeds seed .. seed+repeat-1",
    )
    run.add_argument("--seconds", type=float, default=15.0)
    run.add_argument(
        "--quick", action="store_true",
        help=f"{QUICK_OPS} ops per workload; percentiles are marked invalid",
    )
    run.add_argument(
        "--no-trace", action="store_true",
        help="skip the traced lap (end-to-end metrics only)",
    )
    run.add_argument("--out", default=os.path.join(HERE, "out", "ledger.json"))
    run.set_defaults(handler=cmd_run)

    comp = commands.add_parser("compare", help="regression table A (parent) vs B")
    comp.add_argument("parent")
    comp.add_argument("change")
    comp.set_defaults(handler=cmd_compare)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
