"""Candidate-host generation (``GetCandidates`` of Algorithm 1).

For a node, the candidate set is every (host, disk) target that satisfies
all constraints of :mod:`repro.core.constraints`. Because scoring a
candidate is expensive (it runs the lower-bound estimator), the scan also
applies **exact equivalence-class deduplication**: two feasible
hosts are interchangeable for the search when they have

* identical free resources (CPU, memory, and for volumes the free space of
  the chosen disk),
* the same activity status (active vs idle -- this decides whether picking
  them changes ``u_c``),
* identical free bandwidth along their uplink chains, and
* identical separation distances to every host used by the partial
  placement.

Those four facts determine both the candidate's score and the state that
results from choosing it, up to a relabeling of physically symmetric hosts,
so keeping only the lowest-indexed representative of each class is lossless.
The paper's implementation instead evaluated all hosts in parallel
(Section III-A2); dedup achieves the same effect on one core and can be
disabled (``dedup=False``) for ablation.
"""

from __future__ import annotations

from typing import Optional

from repro.core.placement import PartialPlacement
from repro.core.scorer import CandidateBlock, CandidateTarget, active_scorer

__all__ = ["CandidateBlock", "CandidateTarget", "candidate_targets"]


def candidate_targets(
    partial: PartialPlacement,
    node_name: str,
    dedup: bool = True,
    limit: Optional[int] = None,
) -> CandidateBlock:
    """Feasible targets for a node, optionally deduplicated.

    Args:
        partial: the placement under construction.
        node_name: the node to place next.
        dedup: collapse interchangeable hosts to one representative each.
        limit: optional hard cap on the number of returned targets
            (targets keep cloud index order). Without dedup the scan stops
            as soon as ``limit`` targets are found. With dedup the scan
            must still visit every host -- later hosts can fold into an
            already kept class -- but once ``limit`` classes exist no new
            representative is added, so the result equals truncating the
            unlimited result to its first ``limit`` entries *with* the
            full-scan multiplicities.

    Returns:
        The feasible targets in ascending host order, as a
        :class:`~repro.core.scorer.CandidateBlock`: a sequence of
        :class:`CandidateTarget` records held as columns. Empty when the
        node cannot be placed anywhere right now.

    The scan itself belongs to the active kernel's scorer
    (:mod:`repro.core.scorer`); results are bit-identical on every kernel.
    """
    return active_scorer().candidates(partial, node_name, dedup, limit)
