#!/usr/bin/env python3
"""One workload, one process, one JSON result line (BENCHMARK.json contract).

    python3 benchmarks/ledger/run.py --workload place-scale --seed 0 \
        --seconds 15 --trace 0

Run from the root of a checkout. The process re-executes itself once with
``PYTHONHASHSEED=0`` and ``OMP_NUM_THREADS=1`` pinned (hash seeds must be
set before the interpreter starts), so a workload always runs in a fresh
interpreter whose ``ru_maxrss`` is its own.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
PINNED_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1"}
WORKLOAD_NAMES = ("place-scale", "place-deep", "serve-storm", "lifecycle-chaos")


def parse_args(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=15.0,
        help="measure whole laps of the op list until this much time is spent",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--ops", type=int, default=None,
        help="ops per lap (default 110; fewer marks the percentiles invalid)",
    )
    parser.add_argument(
        "--detail", default=None,
        help="also write the full result document to this JSON file",
    )
    return parser.parse_args(argv)


def main(argv: list) -> int:
    args = parse_args(argv)
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from benchmarks.ledger import harness
    from benchmarks.ledger.workloads import DEFAULT_OPS

    result = harness.run_workload(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        ops=args.ops if args.ops is not None else DEFAULT_OPS,
    )
    harness.print_report(result)
    if args.detail:
        with open(args.detail, "w", encoding="utf-8") as out:
            json.dump(result, out, indent=1, sort_keys=True)
    print(json.dumps(harness.result_line(result, bool(args.trace))))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.execve(
            sys.executable,
            [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
            {**os.environ, **PINNED_ENV},
        )
    sys.exit(main(sys.argv[1:]))
