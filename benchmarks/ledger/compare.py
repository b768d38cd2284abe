"""Regression table between two ledger result sets (parent A, change B).

One row per (workload, end-to-end metric): both medians, the bound, and
``pass`` / ``fail`` / ``unresolved``.

Measured metrics (times, memory) are compared through their medians. One
is *unresolved* when either side's own run-to-run spread is wider than the
bound -- unless every run of B reads better than every run of A, which
resolves it as a pass.

Metrics that repeat exactly for a seed (``PER_SEED_BOUND``) are compared
seed by seed, like the fingerprints: the row reports the worst seed, and
is *unresolved* only when the two sets share no seed.

A workload present on one side only, and a changed fingerprint, are
reported under the table and fail the comparison.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, List, Sequence, Tuple

from benchmarks.ledger.metrics import (
    END_TO_END,
    PER_SEED_BOUND,
    column,
    quartile_spread,
    worsening,
)

Row = Tuple[str, str, float, float, float, float, str]


def load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as source:
        return json.load(source)


def verdict(
    better: str, bound: float, parent: Sequence[float], change: Sequence[float]
) -> Tuple[float, str]:
    """(worsening of the median, verdict) for one measured metric."""
    worse_by = worsening(
        better, statistics.median(parent), statistics.median(change)
    )
    if better == "lower":
        dominated = max(change) < min(parent)
    else:
        dominated = min(change) > max(parent)
    noisy = max(quartile_spread(parent), quartile_spread(change)) > bound
    if noisy and not dominated:
        return worse_by, "unresolved"
    return worse_by, "pass" if worse_by <= bound else "fail"


def per_seed_verdict(
    better: str,
    bound: float,
    parent: Dict[int, float],
    change: Dict[int, float],
) -> Tuple[float, str]:
    """(worst worsening over the shared seeds, verdict) for one metric
    that repeats exactly for a seed; values are keyed by seed."""
    shared = sorted(parent.keys() & change.keys())
    if not shared:
        return 0.0, "unresolved"
    worse_by = max(worsening(better, parent[s], change[s]) for s in shared)
    return worse_by, "pass" if worse_by <= bound else "fail"


def _by_seed(runs: Sequence[Dict[str, Any]], name: str) -> Dict[int, float]:
    return {run["provenance"]["seed"]: run["end_to_end"][name] for run in runs}


def compare(
    parent: Dict[str, Any], change: Dict[str, Any]
) -> Tuple[List[Row], List[str]]:
    """Rows of the regression table plus the findings that fail it
    outright (one-sided workloads, changed decisions)."""
    rows: List[Row] = []
    findings: List[str] = []
    for workload in sorted(set(parent["workloads"]) | set(change["workloads"])):
        runs_a = parent["workloads"].get(workload)
        runs_b = change["workloads"].get(workload)
        if not runs_a or not runs_b:
            findings.append(
                f"MISSING: {workload} has runs in "
                f"{'A (parent)' if runs_a else 'B (change)'} only"
            )
            continue
        for name, _unit, better, bound in END_TO_END:
            a = column([run["end_to_end"] for run in runs_a], name)
            b = column([run["end_to_end"] for run in runs_b], name)
            if name in PER_SEED_BOUND:
                bound = PER_SEED_BOUND[name]
                worse_by, word = per_seed_verdict(
                    better, bound, _by_seed(runs_a, name), _by_seed(runs_b, name)
                )
            else:
                worse_by, word = verdict(better, bound, a, b)
            rows.append((
                workload, name, statistics.median(a), statistics.median(b),
                bound, worse_by, word,
            ))
        prints_a = {r["provenance"]["seed"]: r["fingerprint"] for r in runs_a}
        for run in runs_b:
            seed = run["provenance"]["seed"]
            if seed in prints_a and prints_a[seed] != run["fingerprint"]:
                findings.append(
                    f"DECISIONS CHANGED: {workload} seed {seed}: fingerprint "
                    f"{prints_a[seed][:16]} -> {run['fingerprint'][:16]}"
                )
    return rows, findings


def format_table(rows: Sequence[Row], findings: Sequence[str]) -> str:
    lines = [
        f"{'workload':<16} {'metric':<13} {'A median':>12} {'B median':>12} "
        f"{'bound':>6} {'worse by':>9}  verdict"
    ]
    for workload, name, a, b, bound, worse_by, word in rows:
        lines.append(
            f"{workload:<16} {name:<13} {a:>12.6g} {b:>12.6g} "
            f"{bound:>6.1%} {worse_by:>+9.2%}  {word}"
        )
    lines.extend(findings)
    return "\n".join(lines)
