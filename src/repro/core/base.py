"""Shared machinery of the placement algorithms.

Every algorithm implements :class:`PlacementAlgorithm` and returns a
:class:`PlacementResult`: the frozen placement plus the metrics reported in
the paper's tables (reserved bandwidth, new active hosts, wall-clock
runtime) and search statistics (nodes expanded, paths pruned, EG bound
re-runs).
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro import obs
from repro.core.objective import Objective
from repro.core.placement import Placement
from repro.core.topology import ApplicationTopology
from repro.datacenter.model import Cloud
from repro.datacenter.state import DataCenterState


@dataclass
class SearchStats:
    """Counters and timings collected while an algorithm runs.

    Attributes:
        runtime_s: wall-clock runtime of the search in seconds.
        candidates_scored: how many (node, host) candidates got the full
            lower-bound evaluation.
        paths_expanded: A* paths popped and expanded (0 for greedy).
        paths_pruned: A* paths discarded by bounding or deadline pruning.
        eg_bound_runs: EG upper-bound runs executed by BA*/DBA* (the
            initial run, re-runs and their retries); a re-run from a start
            an earlier run of the search already walked is skipped and not
            counted.
        backtracks: greedy dead-end recoveries (see
            ``GreedyConfig.max_backtracks``), summed over every greedy run
            of the search.
        deadline_hit: True when a deadline-bounded search ran out of time
            and returned its best-so-far placement.
    """

    runtime_s: float = 0.0
    candidates_scored: int = 0
    paths_expanded: int = 0
    paths_pruned: int = 0
    eg_bound_runs: int = 0
    backtracks: int = 0
    restarts: int = 0
    deadline_hit: bool = False


@dataclass
class PlacementResult:
    """Outcome of one placement run.

    Attributes:
        placement: the frozen node -> (host, disk) mapping with accounting.
        objective_value: normalized objective of the placement (lower is
            better).
        stats: search statistics, including the runtime.
    """

    placement: Placement
    objective_value: float
    stats: SearchStats = field(default_factory=SearchStats)

    @property
    def reserved_bw_mbps(self) -> float:
        """Total bandwidth reserved across all links (the paper's u_bw)."""
        return self.placement.reserved_bw_mbps

    @property
    def new_active_hosts(self) -> int:
        """Previously idle hosts activated by the placement (u_c)."""
        return self.placement.new_active_hosts

    @property
    def runtime_s(self) -> float:
        """Wall-clock runtime of the search in seconds."""
        return self.stats.runtime_s


class PlacementAlgorithm(ABC):
    """Base class for all placement algorithms.

    Subclasses implement :meth:`_run`; :meth:`place` adds validation,
    objective defaulting, and runtime measurement so results are directly
    comparable across algorithms.
    """

    #: short name used in registries, reports, and CLI flags
    name: str = "abstract"

    def place(
        self,
        topology: ApplicationTopology,
        cloud: Cloud,
        state: Optional[DataCenterState] = None,
        objective: Optional[Objective] = None,
        pinned: Optional[Dict[str, Tuple[int, Optional[int]]]] = None,
    ) -> PlacementResult:
        """Place a whole application topology and return the result.

        Args:
            topology: the application to place (validated first).
            cloud: the physical structure.
            state: current availability; a pristine state is created when
                omitted. The input state is never mutated -- commit the
                returned placement explicitly via the scheduler.
            objective: objective to minimize; defaults to the paper's
                theta_bw=0.6 / theta_c=0.4 weighting.
            pinned: optional node -> (host, disk) pre-assignments that the
                search must honor; used by online adaptation to keep
                already deployed nodes in place while new nodes are added.

        Raises:
            PlacementError: when no feasible placement exists (including
                when a pinned assignment itself is infeasible).
        """
        topology.validate()
        if state is None:
            state = DataCenterState(cloud)
        if objective is None:
            objective = Objective.for_topology(topology, cloud)
        rec = obs.get_recorder()
        if rec.enabled:
            rec.event(
                "placement_started",
                app=topology.name,
                algorithm=self.name,
                nodes=len(topology.nodes),
                links=len(topology.links),
            )
        start = time.perf_counter()
        try:
            with rec.span(
                f"{self.name}.place", app=topology.name
            ):
                result = self._run(
                    topology, cloud, state, objective, pinned or {}
                )
        except Exception as exc:
            if rec.enabled:
                rec.inc(
                    "ostro_placement_failures_total", algorithm=self.name
                )
                rec.event(
                    "placement_failed",
                    app=topology.name,
                    algorithm=self.name,
                    error=str(exc),
                )
            raise
        result.stats.runtime_s = time.perf_counter() - start
        if rec.enabled:
            stats = result.stats
            rec.inc("ostro_placements_total", algorithm=self.name)
            rec.observe(
                "ostro_placement_seconds",
                stats.runtime_s,
                algorithm=self.name,
            )
            if stats.deadline_hit:
                rec.inc("ostro_deadline_hits_total")
            rec.event(
                "placement_finished",
                app=topology.name,
                algorithm=self.name,
                objective_value=result.objective_value,
                reserved_bw_mbps=result.reserved_bw_mbps,
                new_active_hosts=result.new_active_hosts,
                runtime_s=stats.runtime_s,
                candidates_scored=stats.candidates_scored,
                paths_expanded=stats.paths_expanded,
                paths_pruned=stats.paths_pruned,
                eg_bound_runs=stats.eg_bound_runs,
                backtracks=stats.backtracks,
                restarts=stats.restarts,
                deadline_hit=stats.deadline_hit,
            )
        return result

    @abstractmethod
    def _run(
        self,
        topology: ApplicationTopology,
        cloud: Cloud,
        state: DataCenterState,
        objective: Objective,
        pinned: Dict[str, Tuple[int, Optional[int]]],
    ) -> PlacementResult:
        """Algorithm body; must not mutate ``state``."""
