"""The scoring seam: one :class:`Scorer`, chosen once per search.

EG (Algorithm 1) and BA*/DBA* (Algorithm 2) share one primitive -- rank
every candidate host of the next node by *accumulated usage + lower-bound
estimate of the rest*. A :class:`Scorer` is that primitive's three steps:

* :meth:`~Scorer.candidates` -- the feasible targets of a node;
* :meth:`~Scorer.immediate_costs` -- the cheap preselection proxy;
* :meth:`~Scorer.score` -- the estimate-based evaluation of every target.

:class:`PythonScorer` is the **executable specification**: plain loops
over hosts and targets, not tuned. :class:`NumpyScorer` delegates to the
array kernel (:mod:`repro.core.kernel`), which must reproduce the
specification bit for bit. :class:`CrosscheckScorer` runs both and raises
:class:`~repro.core.kernel.KernelMismatch` on the first difference. The
active kernel name picks the scorer (:func:`active_scorer`); the search
loops never ask which one they got.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    TypeVar,
    Union,
    overload,
)

from repro.core import constraints, kernel
from repro.core.heuristic import LowerBoundEstimator
from repro.core.kernel import KernelMismatch, quantize
from repro.core.objective import Objective
from repro.core.placement import PartialPlacement


@dataclass(frozen=True)
class CandidateTarget:
    """One feasible placement target for a node.

    Attributes:
        host: global host index.
        disk: global disk index for volumes, None for VMs.
        multiplicity: number of interchangeable hosts this target
            represents (1 when dedup is off).
    """

    host: int
    disk: Optional[int] = None
    multiplicity: int = 1


@dataclass(frozen=True, eq=False)
class CandidateBlock(Sequence[CandidateTarget]):
    """The feasible targets of one node, as three parallel columns.

    What :meth:`Scorer.candidates` returns. A scan of a large cloud
    yields a thousand-odd classes of which the search keeps a few dozen,
    so the targets stay columns (plain Python lists, ascending host
    order) and a :class:`CandidateTarget` record exists only for an
    entry somebody indexes or iterates to.

    Attributes:
        hosts: global host index per target.
        disks: global disk index per target (None entries for a VM).
        multiplicities: interchangeable hosts each target stands for.
    """

    hosts: List[int]
    disks: List[Optional[int]]
    multiplicities: List[int]

    @classmethod
    def of(cls, records: Iterable[CandidateTarget]) -> "CandidateBlock":
        """The block holding ``records``, in their order."""
        kept = list(records)
        return cls(
            hosts=[t.host for t in kept],
            disks=[t.disk for t in kept],
            multiplicities=[t.multiplicity for t in kept],
        )

    def __len__(self) -> int:
        return len(self.hosts)

    def __iter__(self) -> Iterator[CandidateTarget]:
        return map(
            CandidateTarget, self.hosts, self.disks, self.multiplicities
        )

    @overload
    def __getitem__(self, index: int) -> CandidateTarget: ...

    @overload
    def __getitem__(self, index: slice) -> "CandidateBlock": ...

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[CandidateTarget, "CandidateBlock"]:
        if isinstance(index, slice):
            return CandidateBlock(
                self.hosts[index],
                self.disks[index],
                self.multiplicities[index],
            )
        return CandidateTarget(
            self.hosts[index], self.disks[index], self.multiplicities[index]
        )

    def __eq__(self, other: object) -> bool:
        """Equal to any sequence holding the same records in order."""
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )


#: one scored target: (score, estimated bandwidth, estimated hosts)
Scored = Tuple[float, float, int]


class Scorer(Protocol):
    """What a search needs to rank the candidate hosts of one node."""

    def candidates(
        self,
        partial: PartialPlacement,
        node_name: str,
        dedup: bool,
        limit: Optional[int],
    ) -> CandidateBlock:
        """Feasible targets in ascending host order; see
        :func:`repro.core.candidates.candidate_targets`."""

    def immediate_costs(
        self,
        partial: PartialPlacement,
        objective: Objective,
        node_name: str,
        targets: CandidateBlock,
    ) -> List[float]:
        """Per target, the objective after placing only this node (only
        the host column is read)."""

    def score(
        self,
        partial: PartialPlacement,
        node_name: str,
        targets: Sequence[CandidateTarget],
        rest: Sequence[str],
        objective: Objective,
        estimator: LowerBoundEstimator,
    ) -> List[Scored]:
        """Per target, ``objective(usage + estimate of placing rest)``
        with ``node_name`` on that target; ``partial`` is unchanged on
        return. ``rest`` is the nodes still unplaced after this one."""


class PythonScorer:
    """The specification: scalar loops the array kernel must match."""

    def candidates(
        self,
        partial: PartialPlacement,
        node_name: str,
        dedup: bool,
        limit: Optional[int],
    ) -> CandidateBlock:
        node = partial.topology.node(node_name)
        state = partial.state
        cloud = state.cloud
        # Host-independent constraint setup, hoisted out of the scan.
        ctx = constraints.NodeConstraintContext(partial, node_name)
        # One cached distance row per *distinct* placed host: distances to
        # those fully determine a target's relation to every placed node.
        rows = [
            partial.resolver.distance_row(p)
            for p in sorted(partial.placed_hosts())
        ]
        # (resource index, host, disk) of every slot with room for the
        # node -- hosts for a VM, disks for a volume -- and the free-resource
        # lists whose values at that index enter the slot's signature.
        slots: Iterable[Tuple[int, int, Optional[int]]]
        if node.is_vm:
            reserved = state.reserved_vcpus(node)
            free = (state.free_cpu, state.free_mem)
            slots = (
                (host, host, None)
                for host in range(cloud.num_hosts)
                if state.vm_fits(host, reserved, node.mem_gb)
            )
        else:
            free = (state.free_disk,)
            slots = (
                (index, disk.host.index, index)
                for index, disk in enumerate(cloud.disks)
                if state.volume_fits(index, node.size_gb)
            )
        hosts: List[int] = []
        disks: List[Optional[int]] = []
        multiplicities: List[int] = []
        seen: Dict[tuple, int] = {}
        for index, host, disk in slots:
            if not (
                ctx.diversity_ok(host)
                and ctx.latency_ok(host)
                and ctx.bandwidth_ok(host)
            ):
                continue
            if dedup:
                sig = (
                    tuple(quantize(values[index]) for values in free),
                    state.host_is_active(host),
                    tuple(
                        quantize(state.free_bw[link])
                        for link in cloud.uplink_chain(host)
                    ),
                    tuple(row[host] for row in rows),
                )
                existing = seen.get(sig)
                if existing is not None:
                    multiplicities[existing] += 1
                    continue
                if limit is not None and len(hosts) >= limit:
                    continue  # keep scanning only to fold multiplicities
                seen[sig] = len(hosts)
            hosts.append(host)
            disks.append(disk)
            multiplicities.append(1)
            if limit is not None and not dedup and len(hosts) >= limit:
                break
        return CandidateBlock(
            hosts=hosts, disks=disks, multiplicities=multiplicities
        )

    def immediate_costs(
        self,
        partial: PartialPlacement,
        objective: Objective,
        node_name: str,
        targets: CandidateBlock,
    ) -> List[float]:
        resolver = partial.resolver
        costs = []
        for host in targets.hosts:
            delta_bw = 0.0
            for neighbor, bw in partial.topology.neighbors(node_name):
                assigned = partial.assignments.get(neighbor)
                if assigned is not None and bw > 0:
                    delta_bw += bw * len(resolver.path(host, assigned.host))
            activation = 0 if partial.state.host_is_active(host) else 1
            costs.append(
                objective.score(partial.ubw + delta_bw, partial.uc + activation)
            )
        return costs

    def score(
        self,
        partial: PartialPlacement,
        node_name: str,
        targets: Sequence[CandidateTarget],
        rest: Sequence[str],
        objective: Objective,
        estimator: LowerBoundEstimator,
    ) -> List[Scored]:
        # Scores on ``partial`` itself: ``unassign`` of the last-assigned
        # node restores every touched slot to its exact prior value.
        scored = []
        for target in targets:
            partial.assign(node_name, target.host, target.disk)
            est_bw, est_c = estimator.estimate(partial, rest)
            scored.append((
                objective.score(partial.ubw + est_bw, partial.uc + est_c),
                est_bw,
                est_c,
            ))
            partial.unassign(node_name)
        return scored


class NumpyScorer:
    """The array kernel.

    Reaches the kernel functions through the module at call time, so a
    wrapper installed on ``kernel.batch_score`` (the perf ledger's span
    tracer) sees every call.
    """

    def candidates(
        self,
        partial: PartialPlacement,
        node_name: str,
        dedup: bool,
        limit: Optional[int],
    ) -> CandidateBlock:
        return kernel.candidate_targets_numpy(
            partial, node_name, dedup=dedup, limit=limit
        )

    def immediate_costs(
        self,
        partial: PartialPlacement,
        objective: Objective,
        node_name: str,
        targets: CandidateBlock,
    ) -> List[float]:
        return kernel.immediate_costs(partial, objective, node_name, targets)

    def score(
        self,
        partial: PartialPlacement,
        node_name: str,
        targets: Sequence[CandidateTarget],
        rest: Sequence[str],
        objective: Objective,
        estimator: LowerBoundEstimator,
    ) -> List[Scored]:
        return kernel.batch_score(
            partial, node_name, targets, rest, objective, estimator
        )


_Results = TypeVar("_Results", bound=Sequence[object])


def _agreed(
    what: str, node_name: str, fast: _Results, reference: Sequence[object]
) -> _Results:
    """``fast`` if it equals ``reference`` bit for bit, else raise."""
    if fast != reference:
        at = next(
            (i for i, (f, r) in enumerate(zip(fast, reference)) if f != r),
            min(len(fast), len(reference)),
        )
        raise KernelMismatch(
            f"{what} mismatch for node {node_name!r} at index {at} "
            f"(lengths {len(fast)} / {len(reference)}): "
            f"numpy {fast[at:at + 1]!r} != python {reference[at:at + 1]!r}"
        )
    return fast


class CrosscheckScorer:
    """Runs the fast scorer, verifies it against the specification."""

    def __init__(
        self,
        fast: Optional[Scorer] = None,
        reference: Optional[Scorer] = None,
    ) -> None:
        self.fast: Scorer = fast or NumpyScorer()
        self.reference: Scorer = reference or PythonScorer()

    def candidates(
        self,
        partial: PartialPlacement,
        node_name: str,
        dedup: bool,
        limit: Optional[int],
    ) -> CandidateBlock:
        fast = self.fast.candidates(partial, node_name, dedup, limit)
        reference = self.reference.candidates(partial, node_name, dedup, limit)
        return _agreed("candidate set", node_name, fast, reference)

    def immediate_costs(
        self,
        partial: PartialPlacement,
        objective: Objective,
        node_name: str,
        targets: CandidateBlock,
    ) -> List[float]:
        args = (partial, objective, node_name, targets)
        fast = self.fast.immediate_costs(*args)
        reference = self.reference.immediate_costs(*args)
        return _agreed("immediate cost", node_name, fast, reference)

    def score(
        self,
        partial: PartialPlacement,
        node_name: str,
        targets: Sequence[CandidateTarget],
        rest: Sequence[str],
        objective: Objective,
        estimator: LowerBoundEstimator,
    ) -> List[Scored]:
        args = (partial, node_name, targets, rest, objective, estimator)
        fast = self.fast.score(*args)
        reference = self.reference.score(*args)
        return _agreed("batch score", node_name, fast, reference)


_SCORERS: Dict[str, Scorer] = {
    "python": PythonScorer(),
    "numpy": NumpyScorer(),
    "crosscheck": CrosscheckScorer(),
}


def active_scorer() -> Scorer:
    """The scorer of the active kernel (see :func:`kernel.get_kernel`)."""
    return _SCORERS[kernel.get_kernel()]
