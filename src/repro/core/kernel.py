"""Vectorized scoring kernel (NumPy) behind a runtime switch.

The search algorithms spend almost all of their time in three loops:

* candidate generation -- feasibility-screening every host for one node
  (:func:`repro.core.candidates.candidate_targets`);
* the immediate-cost proxy used to preselect candidates;
* candidate *scoring* -- for each candidate of one node, assigning it,
  running the :class:`~repro.core.heuristic.LowerBoundEstimator` over the
  remaining nodes, and undoing the assignment.

This module re-expresses all three as array kernels: a zero-copy view
of the cloud's level table with per-host rows built on demand from its
unit ranges (:class:`CloudArrays`), a zero-copy view of the mutable
availability state (:class:`StateView`), and a batch scorer that
evaluates a node's whole candidate set in one shot -- the estimator runs
once over ``(candidates x targets)`` matrices instead of once per
candidate, and the per-candidate ``assign``/``unassign`` pair is replaced
by simulating the assignment's exact state effects inside the batch.

Bit-exactness contract
----------------------

The NumPy kernel is not "approximately the same": every floating-point
operation runs on the same values in the same order as the pure-Python
reference, so scores, estimates, candidate sets -- and therefore
placements and whole search trajectories -- are **bit-identical**
between ``kernel="python"`` and ``kernel="numpy"``. The key
correspondences:

* target iteration order is canonicalized to sorted placed-host order on
  both sides (``LowerBoundEstimator.estimate`` builds its ledger over
  ``sorted(partial.placed_hosts())``), so "first feasible" /
  "first max" tie-breaks agree;
* ``np.add.at`` and sequential per-flow vector adds replicate the
  reference's dict-accumulation order exactly (``np.sum`` would not: it
  reduces pairwise);
* NIC exclusion sums, whose float grouping differs per candidate, stay
  in ordered scalar Python;
* argmax over ``where(feasible & linked, linked, -inf)`` reproduces the
  reference's strict-``>`` first-tie scan.

``kernel="crosscheck"`` runs both implementations and raises
:class:`KernelMismatch` on the first divergence; CI and the hypothesis
property tests exercise it on every scenario family.

The active kernel is selected with :func:`set_kernel` /
:func:`use_kernel` or the ``REPRO_KERNEL`` environment variable
(``python`` | ``numpy`` | ``crosscheck``). The default is ``numpy``
when NumPy is importable, else ``python``; an unknown name, or a NumPy
kernel asked for without NumPy, is a ``ValueError``. The search loops
never read the kernel name: :func:`repro.core.scorer.active_scorer`
turns it into the :class:`~repro.core.scorer.Scorer` they call.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)
from weakref import WeakKeyDictionary

from repro.datacenter.model import Cloud
from repro.datacenter.resources import EPSILON
from repro.datacenter.state import DataCenterState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.heuristic import LowerBoundEstimator
    from repro.core.objective import Objective
    from repro.core.placement import PartialPlacement
    from repro.core.scorer import CandidateBlock, CandidateTarget
    from repro.core.topology import ApplicationTopology

try:  # NumPy is optional: the python kernel needs nothing beyond stdlib
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False


class KernelMismatch(AssertionError):
    """The numpy kernel and the python reference disagreed bit-for-bit."""


_VALID_KERNELS = ("python", "numpy", "crosscheck")

#: name of the active kernel; None until first asked for (see get_kernel)
_kernel: Optional[str] = None


def get_kernel() -> str:
    """Name of the active scoring kernel.

    Until :func:`set_kernel` is called this is ``REPRO_KERNEL`` if set,
    else ``numpy`` when NumPy is importable, else ``python``. The
    environment is outside input: it goes through :func:`set_kernel`, so
    a misspelt or unavailable kernel raises instead of silently running
    another one.
    """
    name = _kernel
    if name is None:
        name = os.environ.get("REPRO_KERNEL", "").strip().lower() or (
            "numpy" if HAVE_NUMPY else "python"
        )
        set_kernel(name)
    return name


def set_kernel(name: str) -> None:
    """Select the scoring kernel ("python" | "numpy" | "crosscheck")."""
    if name not in _VALID_KERNELS:
        raise ValueError(
            f"unknown kernel {name!r}; expected one of {_VALID_KERNELS}"
        )
    if name != "python" and not HAVE_NUMPY:
        raise ValueError(
            f"kernel {name!r} requires numpy, which is not available"
        )
    global _kernel
    _kernel = name


@contextmanager
def use_kernel(name: str) -> Iterator[None]:
    """Temporarily select a scoring kernel (restores the previous one)."""
    previous = get_kernel()
    set_kernel(name)
    try:
        yield
    finally:
        set_kernel(previous)


# ----------------------------------------------------------------------
# shared quantizer
# ----------------------------------------------------------------------


def quantize(value: float) -> int:
    """Quantize a free-resource float to an integer dedup key (1e-6 grid).

    Both kernels key candidate equivalence classes on
    ``floor(value * 1e6 + 0.5)``: an integer, so the python tuple keys
    and the numpy signature matrix (:func:`_quantize_array`) agree
    exactly -- ``round(x, 6)`` has no such array twin, because its float
    result re-rounds differently once vectorized.
    """
    return math.floor(value * 1e6 + 0.5)


#: padding value for signature columns that do not exist for a host
#: (shorter uplink chains); far outside any quantized resource value.
_SIG_PAD = -(2**50)

#: rows :class:`CloudArrays` keeps per cloud, oldest evicted first. The
#: ledger laps ask for rows of a handful of hosts tens of thousands of
#: times (lifecycle-chaos: 61 k requests from 9 hosts; at most 12
#: distinct hosts in any place-scale or place-deep op), and a row built
#: from the ranges costs 5-10 us against 0.1 us for a hit.
_ROW_MEMO_CAP = 16


# ----------------------------------------------------------------------
# per-cloud static arrays
# ----------------------------------------------------------------------


class CloudArrays:
    """Read-only NumPy views of one cloud's level table, plus O(H) tables.

    Cached per :class:`~repro.datacenter.model.Cloud` (weakly).
    ``unit_ids``, ``uplinks`` and ``unit_starts`` are ``np.frombuffer``
    views of the cloud's columns of the same names: they hold those
    buffers, never the cloud. Derived from them once:

    * ``flat_unit_ids[level, h]`` -- host ``h``'s unit at ``level`` with
      the units of all levels numbered ``0 .. num_units - 1``;
    * ``chain_matrix[h, k]`` -- host ``h``'s ``k``-th uplink from the NIC
      up (-1 past the end of its chain, whose length is ``chain_len[h]``);
    * ``steps_by_dist[d, h]`` -- one-sided link count for host ``h`` to
      reach a switch whose scope covers separation distance ``d``, so
      ``hop_count(a, b) == steps_by_dist[d, a] + steps_by_dist[d, b]``
      with ``d = distance(a, b)``.

    Per-host rows are built on demand from the host's unit ranges, a
    few slice fills each; the last ``_ROW_MEMO_CAP`` are kept, so memory
    stays O(H).
    """

    _CACHE: "WeakKeyDictionary[Cloud, CloudArrays]" = WeakKeyDictionary()

    @classmethod
    def for_cloud(cls, cloud: Cloud) -> "CloudArrays":
        arrays = cls._CACHE.get(cloud)
        if arrays is None:
            arrays = cls._CACHE[cloud] = cls(cloud)
        return arrays

    def __init__(self, cloud: Cloud) -> None:
        def view(column: Any) -> Any:
            array = np.frombuffer(column, dtype=np.int64)
            array.setflags(write=False)
            return array

        self.unit_ids = tuple(view(ids) for ids in cloud.unit_ids)
        self.uplinks = tuple(view(links) for links in cloud.uplinks)
        self.unit_starts = tuple(view(starts) for starts in cloud.unit_starts)
        self.disk_host = np.array(
            [d.host.index for d in cloud.disks], dtype=np.int64
        )
        # (levels, H): each host's unit at each level, numbered across
        # the levels (level k's units follow level k - 1's), and its uplink
        sizes = [len(links) for links in self.uplinks]
        offsets = np.cumsum([0] + sizes[:-1])
        self.flat_unit_ids = np.stack(self.unit_ids) + offsets[:, None]
        self.num_units = sum(sizes)
        links = np.concatenate(self.uplinks)[self.flat_unit_ids]
        exists = links >= 0
        climbed = np.cumsum(exists, axis=0)
        self.chain_len = climbed[-1]
        self.chain_matrix = np.full(
            (len(self.chain_len), int(self.chain_len.max())), -1, dtype=np.int64
        )
        levels, hosts = np.nonzero(exists)
        self.chain_matrix[hosts, climbed[levels, hosts] - 1] = links[levels, hosts]
        self.steps_by_dist = np.zeros((5, len(self.chain_len)), dtype=np.int64)
        self.steps_by_dist[1:] = climbed
        if not exists[-1].any():
            # no WAN level: distance 4 never occurs (the 0 sentinel)
            self.steps_by_dist[4] = 0
        self._rows: Dict[int, Tuple[Any, Any, Any]] = {}

    def _host_rows(self, host: int) -> Tuple[Any, Any, Any]:
        """``steps_rows(host)`` and ``hops_row(host)``, read-only."""
        rows = self._rows.get(host)
        if rows is None:
            by_dist = self.steps_by_dist
            own = by_dist[-1].copy()
            peer_steps = by_dist[:, host].tolist()
            peer = np.full(len(own), peer_steps[-1], dtype=np.int64)
            # widest level first: hosts in ``host``'s unit at ``level``
            # but in no narrower one are at distance ``level`` from it
            for level in range(len(self.unit_ids) - 1, -1, -1):
                unit = self.unit_ids[level][host]
                lo, hi = self.unit_starts[level][unit : unit + 2].tolist()
                own[lo:hi] = by_dist[level, lo:hi]
                peer[lo:hi] = peer_steps[level]
            rows = (own, peer, own + peer)
            for row in rows:
                row.setflags(write=False)
            if len(self._rows) >= _ROW_MEMO_CAP:
                del self._rows[next(iter(self._rows))]
            self._rows[host] = rows
        return rows

    def steps_rows(self, host: int) -> Tuple[Any, Any]:
        """The two halves of ``hop_count(h, host)`` for every host ``h``,
        with ``d = distance(h, host)``: ``steps_by_dist[d, h]`` (the
        variable side) and ``steps_by_dist[d, host]`` (the fixed peer's)."""
        own, peer, _ = self._host_rows(host)
        return own, peer

    def hops_row(self, host: int) -> Any:
        """``hop_count(h, host)`` for every host ``h`` (int64 array)."""
        return self._host_rows(host)[2]

    def pair_hops(self, hosts_a: Any, hosts_b: Any) -> Any:
        """Element-wise ``hop_count(a, b)`` over two host-index arrays."""
        units = self.flat_unit_ids
        dist = (units[:, hosts_a] != units[:, hosts_b]).sum(axis=0)
        return self.steps_by_dist[dist, hosts_a] + self.steps_by_dist[dist, hosts_b]


# ----------------------------------------------------------------------
# per-state view
# ----------------------------------------------------------------------


class StateView:
    """Zero-copy NumPy view of one :class:`DataCenterState`'s five buffers.

    ``np.frombuffer`` over the state's ``array`` columns: the state *is*
    the arrays, so every write the state makes (all in place, see
    :mod:`repro.datacenter.state`) is already here and there is nothing
    to refresh. Built once per state, read-only on this side -- the
    state stays the one writer. A host is active where ``units > 0``.
    """

    _CACHE: "WeakKeyDictionary[DataCenterState, StateView]" = (
        WeakKeyDictionary()
    )

    @classmethod
    def for_state(cls, state: DataCenterState) -> "StateView":
        view = cls._CACHE.get(state)
        if view is None:
            view = cls._CACHE[state] = cls(state)
        return view

    def __init__(self, state: DataCenterState) -> None:
        # The columns reference the state's buffers, never the state: the
        # cache is keyed weakly by it, and a strong reference here would
        # keep every entry alive forever.
        self.cpu_free = np.frombuffer(state.free_cpu, dtype=np.float64)
        self.mem_free = np.frombuffer(state.free_mem, dtype=np.float64)
        self.disk_free = np.frombuffer(state.free_disk, dtype=np.float64)
        self.bw_free = np.frombuffer(state.free_bw, dtype=np.float64)
        self.units = np.frombuffer(state.host_units, dtype=np.int64)
        for column in vars(self).values():
            column.setflags(write=False)


# ----------------------------------------------------------------------
# candidate generation
# ----------------------------------------------------------------------


def _quantize_array(values: Any) -> Any:
    """Array twin of :func:`quantize` (exact: quantized magnitudes < 2^53)."""
    return np.floor(values * 1e6 + 0.5).astype(np.int64)


_HASH_WEIGHTS: Dict[int, Any] = {}


def _hash_weights(ncols: int) -> Any:
    """Per-column odd multipliers for wrapping-int64 row hashes.

    Powers of an odd constant (Fibonacci hashing multiplier), computed
    with wrapping array arithmetic; cached per signature width.
    """
    weights = _HASH_WEIGHTS.get(ncols)
    if weights is None:
        weights = np.full(ncols, np.int64(-0x61C8864680B583EB))
        weights[0] = 1
        np.multiply.accumulate(weights, out=weights)
        _HASH_WEIGHTS[ncols] = weights
    return weights


def _bandwidth_feasible(
    arrays: CloudArrays,
    view: StateView,
    flows: Sequence[Tuple[int, float]],
) -> Any:
    """Vectorized cumulative-bandwidth feasibility over all hosts.

    Reproduces ``NodeConstraintContext.bandwidth_ok`` for every candidate
    host at once. The per-link demand a candidate host ``h`` induces
    splits into candidate-side chain links (``h``'s first ``steps``
    uplinks) and neighbor-side chain links; the two sides never share a
    link (both prefixes stop below the pair's meeting switch), so they
    can be checked independently. Each side accumulates flow bandwidths
    in flow order, adding 0.0 where the reference's demand dict never
    touches a link -- which is IEEE-exact.
    """
    num_hosts = len(arrays.chain_len)
    max_chain = arrays.chain_matrix.shape[1]
    cand_demand = np.zeros((max_chain, num_hosts))
    #: neighbor-side link index -> per-candidate-host demand
    nbr_demand: Dict[int, Any] = {}
    for nbr_host, bw in flows:
        steps_cand, steps_nbr = arrays.steps_rows(nbr_host)
        for k in range(max_chain):
            cand_demand[k] += np.where(steps_cand > k, bw, 0.0)
        for m in range(int(arrays.chain_len[nbr_host])):
            link = int(arrays.chain_matrix[nbr_host, m])
            acc = nbr_demand.get(link)
            if acc is None:
                acc = nbr_demand[link] = np.zeros(num_hosts)
            acc += np.where(steps_nbr > m, bw, 0.0)
    ok = np.ones(num_hosts, dtype=bool)
    for k in range(max_chain):
        links = arrays.chain_matrix[:, k]
        free_k = np.where(
            links >= 0, view.bw_free[np.maximum(links, 0)], np.inf
        )
        ok &= cand_demand[k] <= free_k + EPSILON
    for link, demand in nbr_demand.items():
        ok &= demand <= view.bw_free[link] + EPSILON
    return ok


def _block(
    hosts: Any, disks: Optional[Any], keep: Any, multiplicities: Optional[Any]
) -> "CandidateBlock":
    """The ``keep`` entries of the host (and disk) index arrays as a
    block; ``multiplicities`` None means one host per target."""
    from repro.core.scorer import CandidateBlock

    kept = hosts[keep].tolist()
    return CandidateBlock(
        hosts=kept,
        disks=[None] * len(kept) if disks is None else disks[keep].tolist(),
        multiplicities=(
            [1] * len(kept) if multiplicities is None
            else multiplicities.tolist()
        ),
    )


def candidate_targets_numpy(
    partial: "PartialPlacement",
    node_name: str,
    dedup: bool = True,
    limit: Optional[int] = None,
) -> "CandidateBlock":
    """Array twin of :meth:`repro.core.scorer.PythonScorer.candidates`.

    Feasibility is one boolean mask over all hosts (or disks); dedup is
    an ``np.unique`` over an integer signature matrix, with first-seen
    class order and full-scan multiplicities reproducing the reference
    scan exactly, including its ``limit`` semantics. The surviving
    index arrays become the block's columns with one ``tolist`` each.
    """
    from repro.core import constraints

    node = partial.topology.node(node_name)
    state = partial.state
    cloud = state.cloud
    arrays = CloudArrays.for_cloud(cloud)
    view = StateView.for_state(state)
    ctx = constraints.NodeConstraintContext(partial, node_name)
    num_hosts = cloud.num_hosts

    if node.is_vm:
        reserved = state.reserved_vcpus(node)
        mask = (reserved <= view.cpu_free + EPSILON) & (
            node.mem_gb <= view.mem_free + EPSILON
        )
    else:
        mask = np.ones(num_hosts, dtype=bool)
    for member_host, level in ctx.separations:
        ids = arrays.unit_ids[level]
        mask = mask & (ids != ids[member_host])
    for nbr_host, max_hops in ctx.hop_limits:
        mask = mask & (arrays.hops_row(nbr_host) <= max_hops)
    if ctx.flows:
        mask = mask & _bandwidth_feasible(arrays, view, ctx.flows)

    disks: Optional[Any] = None
    if node.is_vm:
        hosts = np.nonzero(mask)[0]
    else:
        disk_ok = (node.size_gb <= view.disk_free + EPSILON) & mask[
            arrays.disk_host
        ]
        disks = np.nonzero(disk_ok)[0]
        hosts = arrays.disk_host[disks]

    count = len(hosts)
    if not dedup or count == 0:
        return _block(hosts, disks, slice(None, limit), None)

    placed_hosts = sorted(partial.placed_hosts())
    max_chain = arrays.chain_matrix.shape[1]
    base = 2 if node.is_vm else 1
    ncols = base + 1 + max_chain + (len(arrays.unit_ids) if placed_hosts else 0)
    signature = np.empty((count, ncols), dtype=np.int64)
    if node.is_vm:
        signature[:, 0] = _quantize_array(view.cpu_free[hosts])
        signature[:, 1] = _quantize_array(view.mem_free[hosts])
    else:
        assert disks is not None
        signature[:, 0] = _quantize_array(view.disk_free[disks])
    signature[:, base] = view.units[hosts] > 0
    chain = arrays.chain_matrix[hosts]
    signature[:, base + 1 : base + 1 + max_chain] = np.where(
        chain >= 0,
        _quantize_array(view.bw_free[np.maximum(chain, 0)]),
        _SIG_PAD,
    )
    # One column per level in place of the distances to the placed hosts:
    # the host's unit where that unit holds a placed host, else -1. Units
    # nest, so this is a bijection of the distance vector (a host meets a
    # placed host first at the lowest level whose unit they share) and
    # the classes, their order and multiplicities are the same.
    if placed_hosts:
        occupied = np.zeros(arrays.num_units, dtype=bool)
        occupied[arrays.flat_unit_ids[:, placed_hosts]] = True
        units = arrays.flat_unit_ids[:, hosts]
        signature[:, base + 1 + max_chain :] = np.where(
            occupied[units], units, -1
        ).T
    # Row-equality classes via a wrapping-int64 row hash: ~16x cheaper
    # than np.unique(axis=0)'s lexicographic row sort. The grouping is
    # verified exactly (every row must equal its class representative);
    # on the astronomically unlikely hash collision, fall back to the
    # exact row-sorting path.
    keys = signature @ _hash_weights(ncols)
    _, inverse, counts = np.unique(
        keys, return_inverse=True, return_counts=True
    )
    first = np.full(len(counts), count, dtype=np.int64)
    np.minimum.at(first, inverse, np.arange(count, dtype=np.int64))
    if not (signature == signature[first[inverse]]).all():
        _, inverse, counts = np.unique(
            signature, axis=0, return_inverse=True, return_counts=True
        )
        inverse = inverse.reshape(-1)
        first = np.full(len(counts), count, dtype=np.int64)
        np.minimum.at(first, inverse, np.arange(count, dtype=np.int64))
    class_order = np.argsort(first, kind="stable")[:limit]
    return _block(hosts, disks, first[class_order], counts[class_order])


# ----------------------------------------------------------------------
# immediate-cost proxy
# ----------------------------------------------------------------------


def _score_array(objective: "Objective", ubw: Any, uc: Any) -> Any:
    """Vectorized twin of ``Objective.score`` (elementwise IEEE-identical:
    the same divisions, multiplications, and one addition in the same
    order, on float64)."""
    bw_term = ubw / objective.ubw_hat if objective.ubw_hat > 0 else 0.0
    c_term = uc / objective.uc_hat if objective.uc_hat > 0 else 0.0
    return objective.theta_bw * bw_term + objective.theta_c * c_term


def immediate_costs(
    partial: "PartialPlacement",
    objective: "Objective",
    node_name: str,
    targets: "CandidateBlock",
) -> List[float]:
    """Array twin of :meth:`repro.core.scorer.PythonScorer.immediate_costs`."""
    state = partial.state
    arrays = CloudArrays.for_cloud(state.cloud)
    view = StateView.for_state(state)
    hosts = np.array(targets.hosts, dtype=np.int64)
    delta_bw = np.zeros(len(hosts))
    for neighbor, bw in partial.topology.neighbors(node_name):
        assigned = partial.assignments.get(neighbor)
        if assigned is not None and bw > 0:
            delta_bw = delta_bw + bw * arrays.hops_row(assigned.host)[hosts]
    activation = (view.units[hosts] <= 0).astype(np.int64)
    scores = _score_array(
        objective, partial.ubw + delta_bw, partial.uc + activation
    )
    return scores.tolist()


# ----------------------------------------------------------------------
# batch candidate scoring
# ----------------------------------------------------------------------


def batch_score(
    partial: "PartialPlacement",
    node_name: str,
    targets: Sequence["CandidateTarget"],
    rest: Sequence[str],
    objective: "Objective",
    estimator: "LowerBoundEstimator",
) -> List[Tuple[float, float, int]]:
    """Score every candidate target of one node in a single array batch.

    Bit-identical to the reference sequence per target::

        partial.assign(node_name, t.host, t.disk)
        est_bw, est_c = estimator.estimate(partial, rest)
        score = objective.score(partial.ubw + est_bw, partial.uc + est_c)
        partial.unassign(node_name)

    but without mutating ``partial``: the assignment's accounting
    (accumulated ``u_bw``, host activation, post-reserve capacities and
    NIC bandwidths) is simulated exactly, and the estimator's greedy
    approximate placement runs over ``(candidate x target)`` matrices.

    ``rest`` must equal the remaining-node list the reference loop would
    pass (for greedy: unplaced nodes excluding ``node_name``, in node
    order; for A*: ``order[depth + 1:]``).

    Returns ``[(score, est_bw, est_c), ...]`` aligned with ``targets``.
    """
    num_cand = len(targets)
    if num_cand == 0:
        return []
    topology = partial.topology
    state = partial.state
    arrays = CloudArrays.for_cloud(state.cloud)
    view = StateView.for_state(state)
    cand_host_arr = np.array([t.host for t in targets], dtype=np.int64)

    # --- simulate the assignment's accounting -------------------------
    flows: List[Tuple[int, float]] = []
    for neighbor, bw in topology.neighbors(node_name):
        assigned = partial.assignments.get(neighbor)
        if assigned is not None and bw > 0:
            flows.append((assigned.host, bw))
    added_ubw = np.zeros(num_cand)
    for nbr_host, bw in flows:
        added_ubw = added_ubw + bw * arrays.hops_row(nbr_host)[cand_host_arr]
    ubw_after = partial.ubw + added_ubw
    uc_after = partial.uc + (view.units[cand_host_arr] <= 0).astype(np.int64)

    if not rest:
        scores = _score_array(objective, ubw_after + 0.0, uc_after + 0)
        return [(s, 0.0, 0) for s in scores.tolist()]

    est_bw = _EstimateBatch(
        partial, node_name, targets, cand_host_arr, flows, rest, estimator
    ).run()
    scores = _score_array(
        objective, ubw_after + np.array(est_bw), uc_after + 0
    )
    return [
        (s, e, 0) for s, e in zip(scores.tolist(), est_bw)
    ]


class _TopologyPlan:
    """Static per-topology lookups shared by every estimator batch.

    Re-resolving node objects, adjacency lists, diversity zones, and
    per-link forced distances on every locate dominates the Python-side
    cost of a batch; all of it is invariant until the topology mutates,
    which :attr:`ApplicationTopology.cache_version` tracks.
    """

    __slots__ = ("version", "node_info", "links")

    def __init__(self, topology: "ApplicationTopology") -> None:
        self.version = topology.cache_version
        #: name -> (node, is_vm, adjacency list, zones tuple)
        self.node_info: Dict[str, Tuple[Any, bool, Any, Any]] = {}
        for name, node in topology.nodes.items():
            self.node_info[name] = (
                node,
                node.is_vm,
                topology.neighbors(name),
                tuple(topology.zones_of(name)),
            )
        #: positive-bandwidth links as (a, b, bw, forced distance)
        self.links: List[Tuple[str, str, float, int]] = [
            (
                link.a,
                link.b,
                link.bw_mbps,
                _forced_distance(topology, link.a, link.b),
            )
            for link in topology.links
            if link.bw_mbps > 0
        ]


_PLANS: "WeakKeyDictionary[Any, _TopologyPlan]" = WeakKeyDictionary()


def _plan_for(topology: "ApplicationTopology") -> _TopologyPlan:
    plan = _PLANS.get(topology)
    if plan is None or plan.version != topology.cache_version:
        plan = _TopologyPlan(topology)
        _PLANS[topology] = plan
    return plan


class _EstimateBatch:
    """One batched lower-bound estimator run (see :func:`batch_score`).

    Mirrors ``LowerBoundEstimator.estimate`` with the candidate dimension
    vectorized. Targets live along axis 1 of ``(C, T)`` ledgers in the
    reference's iteration order -- the sorted real hosts of the simulated
    partial first, imaginary hosts appended as invented -- so column
    argmax reproduces the reference's first-tie scans. Scalar work whose
    float accumulation order depends on per-candidate key collapsing
    (NIC exclusion sums, outbound debits) stays ordered Python.
    """

    def __init__(
        self,
        partial: "PartialPlacement",
        node_name: str,
        targets: Sequence["CandidateTarget"],
        cand_host_arr: Any,
        flows: List[Tuple[int, float]],
        rest: Sequence[str],
        estimator: "LowerBoundEstimator",
    ) -> None:
        self.partial = partial
        self.topology = partial.topology
        self.plan = _plan_for(self.topology)
        self.assignments = partial.assignments
        self.state = partial.state
        self.cloud = self.state.cloud
        self.arrays = CloudArrays.for_cloud(self.cloud)
        self.node_name = node_name
        self.node = self.topology.node(node_name)
        self.cand_hosts = [t.host for t in targets]
        self.cand_disks = [t.disk for t in targets]
        self.cand_host_arr = cand_host_arr
        self.flows = flows
        config = estimator.config
        self.track_nic = estimator._track_nic
        self.optimistic = config.optimistic_colocation
        self.min_hops = estimator._min_hops
        self.min_hops_arr = np.asarray(self.min_hops)
        self.imag_cpu = estimator._imaginary_cpu
        self.imag_mem = estimator._imaginary_mem
        self.imag_disk = estimator._imaginary_disk
        self.imag_nic = estimator._imaginary_nic
        est_order = sorted(rest, key=self.topology.bandwidth_of, reverse=True)
        self.head: Optional[Set[str]] = None
        if config.max_nodes is not None:
            if self.track_nic:
                self.head = set(est_order[: config.max_nodes])
            else:
                est_order = est_order[: config.max_nodes]
        self.est_order = est_order
        self.cpu_factor = self.state.best_effort_cpu_factor
        num_cand = len(self.cand_hosts)
        self.num_cand = num_cand
        self.arange_c = np.arange(num_cand, dtype=np.int64)
        #: located node -> per-candidate target column (-1 in stranded rows)
        self.loc_col: Dict[str, Any] = {}
        #: fixed real host -> per-candidate column array (lazy)
        self.host_col_cache: Dict[int, Any] = {}
        self.stranded = np.zeros(num_cand, dtype=bool)
        #: node name -> (static (C, T) zone mask or None, dynamic members)
        self._zone_cache: Dict[
            str, Tuple[Any, List[Tuple[int, Any, str]]]
        ] = {}
        self._ids_grids: Dict[int, Any] = {}
        self._t_host_imag: Any = None
        self._init_ledgers()
        self.col_space = np.arange(self.num_targets, dtype=np.int64)

    def _init_ledgers(self) -> None:
        """Build the post-assignment ledgers, one row per candidate.

        Real target columns carry the state's current free capacities,
        with the candidate host's slots adjusted by the simulated
        assignment: one subtract per resource (exactly what
        ``place_vm``/``place_volume`` perform) and sequential per-flow
        NIC debits on both flow endpoints (exactly what ``reserve_path``
        performs, in flow order).
        """
        state = self.state
        cloud = self.cloud
        node = self.node
        num_cand = self.num_cand
        base_placed = sorted(self.partial.placed_hosts())
        base_set = set(base_placed)
        num_targets = len(base_placed) + 1 + len(self.est_order)
        self.num_targets = num_targets
        max_disks = 1
        for h in base_set | set(self.cand_hosts):
            max_disks = max(max_disks, len(cloud.hosts[h].disks))
        self.t_host = np.full((num_cand, num_targets), -1, dtype=np.int64)
        self.t_cpu = np.zeros((num_cand, num_targets))
        self.t_mem = np.zeros((num_cand, num_targets))
        self.t_disk = np.full((num_cand, num_targets, max_disks), -np.inf)
        self.t_nic: Any = (
            np.zeros((num_cand, num_targets)) if self.track_nic else None
        )
        self.cand_col = np.empty(num_cand, dtype=np.int64)
        self.col_of: List[Dict[int, int]] = []
        reserved = node.effective_vcpus(self.cpu_factor) if node.is_vm else 0.0
        real_count = np.empty(num_cand, dtype=np.int64)
        for c, host in enumerate(self.cand_hosts):
            if host in base_set:
                reals = base_placed
            else:
                reals = sorted(base_placed + [host])
            mapping: Dict[int, int] = {}
            nic_after: Dict[int, float] = {}
            for col, h in enumerate(reals):
                mapping[h] = col
                self.t_host[c, col] = h
                self.t_cpu[c, col] = state.free_cpu[h]
                self.t_mem[c, col] = state.free_mem[h]
                for di, disk in enumerate(cloud.hosts[h].disks):
                    self.t_disk[c, col, di] = state.free_disk[disk.index]
                if self.track_nic:
                    nic_after[h] = state.free_bw[cloud.hosts[h].link_index]
            self.col_of.append(mapping)
            real_count[c] = len(reals)
            col_c = mapping[host]
            self.cand_col[c] = col_c
            if node.is_vm:
                self.t_cpu[c, col_c] = state.free_cpu[host] - reserved
                self.t_mem[c, col_c] = state.free_mem[host] - node.mem_gb
            else:
                cand_disk = self.cand_disks[c]
                for di, disk in enumerate(cloud.hosts[host].disks):
                    if disk.index == cand_disk:
                        self.t_disk[c, col_c, di] = (
                            state.free_disk[cand_disk] - node.size_gb
                        )
                        break
            if self.track_nic:
                for nbr_host, bw in self.flows:
                    if nbr_host != host:
                        nic_after[host] = nic_after[host] - bw
                        nic_after[nbr_host] = nic_after[nbr_host] - bw
                for h, value in nic_after.items():
                    self.t_nic[c, mapping[h]] = value
        self.t_count = real_count.copy()

    def _host_cols(self, host: int) -> Any:
        cached = self.host_col_cache.get(host)
        if cached is None:
            cached = np.array(
                [mapping[host] for mapping in self.col_of], dtype=np.int64
            )
            self.host_col_cache[host] = cached
        return cached

    def run(self) -> List[float]:
        for name in self.est_order:
            self._locate(name)
        total = self._bandwidth_total()
        if self.stranded.any():
            total = np.where(self.stranded, np.inf, total)
        return total.tolist()

    # ------------------------------------------------------------------

    def _locate(self, name: str) -> None:
        """Approximately place one remaining node in every candidate row."""
        est_node, is_vm, neighbor_list, zones = self.plan.node_info[name]
        vcpus = est_node.effective_vcpus(self.cpu_factor) if is_vm else 0.0
        num_cand = self.num_cand

        # -- link bandwidth toward already-located targets ---------------
        bw_to_placed = 0.0
        bw_to_remaining = 0.0
        keyed: List[Tuple[Any, float]] = []
        has_negative = False
        assignments = self.assignments
        loc_col = self.loc_col
        for neighbor, bw in neighbor_list:
            if neighbor == self.node_name:
                cols = self.cand_col
            else:
                assigned = assignments.get(neighbor)
                if assigned is not None:
                    cols = self._host_cols(assigned.host)
                else:
                    cols = loc_col.get(neighbor)
                    if cols is None:
                        bw_to_remaining += bw
                        continue
            bw_to_placed += bw
            if bw < 0:
                has_negative = True
            keyed.append((cols, bw))
        force_new = bw_to_placed == 0.0 or bw_to_remaining > bw_to_placed

        pos_keyed = [kb for kb in keyed if kb[1] > 0]
        nic = (
            self._nic_payload(keyed, pos_keyed, has_negative)
            if self.track_nic
            else None
        )

        choice: Optional[Any] = None
        linked: Optional[Any] = None
        if force_new:
            chosen = np.full(num_cand, -1, dtype=np.int64)
        else:
            linked = self._linked_matrix(keyed, pos_keyed, has_negative)
            choice = self._best_existing(
                est_node, is_vm, vcpus, name, zones, linked, nic
            )
            chosen = choice.copy()

        # -- fresh imaginary hosts for rows with no existing target ------
        fresh_rows = np.nonzero((chosen == -1) & ~self.stranded)[0]
        if len(fresh_rows):
            fresh_cols = self.t_count[fresh_rows]
            self.t_cpu[fresh_rows, fresh_cols] = self.imag_cpu
            self.t_mem[fresh_rows, fresh_cols] = self.imag_mem
            self.t_disk[fresh_rows, fresh_cols, :] = -np.inf
            self.t_disk[fresh_rows, fresh_cols, 0] = self.imag_disk
            if self.track_nic:
                assert nic is not None
                self.t_nic[fresh_rows, fresh_cols] = self.imag_nic
                ok_arr = self._fresh_nic_ok(nic, fresh_rows)
                accepted = fresh_rows[ok_arr]
                chosen[accepted] = fresh_cols[ok_arr]
                self.t_count[accepted] += 1
                rejected_rows = fresh_rows[~ok_arr]
                if len(rejected_rows):
                    # the fresh host cannot carry the flows; retry the
                    # existing targets (all row state is row-local, so
                    # the late evaluation equals the pre-fresh one)
                    if choice is None:
                        if linked is None:
                            linked = self._linked_matrix(
                                keyed, pos_keyed, has_negative
                            )
                        choice = self._best_existing(
                            est_node, is_vm, vcpus, name, zones, linked, nic
                        )
                    fallback = choice[rejected_rows]
                    good = fallback >= 0
                    chosen[rejected_rows[good]] = fallback[good]
                    self.stranded[rejected_rows[~good]] = True
            else:
                chosen[fresh_rows] = fresh_cols
                self.t_count[fresh_rows] += 1

        self._consume(est_node, is_vm, vcpus, chosen, nic)
        self.loc_col[name] = chosen

    def _linked_matrix(
        self,
        keyed: List[Tuple[Any, float]],
        pos_keyed: List[Tuple[Any, float]],
        has_negative: bool,
    ) -> Any:
        """(C, T) bandwidth toward each target, built only when needed."""
        linked = np.zeros((self.num_cand, self.num_targets))
        if has_negative:
            if keyed:
                rows = np.concatenate([self.arange_c] * len(keyed))
                cols_flat = np.concatenate([cols for cols, _ in keyed])
                vals = np.concatenate(
                    [np.full(self.num_cand, bw) for _, bw in keyed]
                )
                # unbuffered in-order accumulation == the reference's
                # bw_to_target dict (same addends, same order per cell)
                np.add.at(linked, (rows, cols_flat), vals)
        else:
            # zero-bandwidth terms are addition-neutral, so only positive
            # flows touch the matrix; per-entry fancy adds accumulate
            # shared cells in the reference's neighbor order
            arange_c = self.arange_c
            for cols, bw in pos_keyed:
                linked[arange_c, cols] += bw
        return linked

    def _nic_payload(
        self,
        keyed: List[Tuple[Any, float]],
        pos_keyed: List[Tuple[Any, float]],
        has_negative: bool,
    ) -> Tuple[Any, ...]:
        """Shape-specialized summary of the node's NIC flows.

        Zero, one, two, or three positive flows vectorize exactly: the
        per-row collapsing of flows landing on the same column is a
        finite case split, so each collapsed item's value, each ordered
        exclusion sum, and the ordered total are one of a handful of
        scalar expressions selected per row. More flows (or any negative
        bandwidth) fall back to the reference's per-candidate dicts.
        """
        k = len(pos_keyed)
        if not has_negative and k == 0:
            return ("none",)
        if not has_negative and k == 1:
            return ("one", pos_keyed[0][0], pos_keyed[0][1])
        if not has_negative and k == 2:
            (c0, b0), (c1, b1) = pos_keyed
            coll = c0 == c1
            s = b0 + b1
            # collapsed rows carry one item of value s at c0
            eff0 = np.where(coll, s, b0)
            excl0 = np.where(coll, 0.0, b1)
            return ("two", c0, b0, c1, b1, coll, s, eff0, excl0)
        if not has_negative and k == 3:
            (c0, b0), (c1, b1), (c2, b2) = pos_keyed
            e01 = c0 == c1
            e02 = c0 == c2
            e12 = c1 == c2
            s01 = b0 + b1
            s02 = b0 + b2
            s12 = b1 + b2
            t012 = s01 + b2
            t021 = s02 + b1
            t0_12 = b0 + s12
            p_all = e01 & e02
            # item existence after collapsing (collapsed flows join the
            # earlier item, keeping first-insertion order)
            exists1 = ~e01
            exists2 = ~e02 & ~e12
            val0 = np.where(
                p_all, t012, np.where(e01, s01, np.where(e02, s02, b0))
            )
            val1 = np.where(e12, s12, b1)
            # ordered exclusion sums (the addends other items contribute
            # when this item's column is the chosen target)
            excl0 = np.where(
                p_all, 0.0, np.where(e01, b2, np.where(e02, b1, s12))
            )
            excl1 = np.where(e12, b0, s02)
            totals = np.where(
                e02 & ~e01, t021, np.where(e12 & ~e01, t0_12, t012)
            )
            return (
                "three",
                c0,
                c1,
                c2,
                val0,
                val1,
                b2,
                excl0,
                excl1,
                s01,
                exists1,
                exists2,
                totals,
            )
        num_cand = self.num_cand
        per_cand: List[Dict[int, float]] = [{} for _ in range(num_cand)]
        for cols, bw in keyed:
            for c in range(num_cand):
                col = int(cols[c])
                bucket = per_cand[c]
                bucket[col] = bucket.get(col, 0.0) + bw
        totals_list = []
        for c in range(num_cand):
            tot = 0.0
            for bw in per_cand[c].values():
                if bw > 0:
                    tot += bw
            totals_list.append(tot)
        return ("gen", per_cand, np.asarray(totals_list))

    def _fresh_nic_ok(self, nic: Tuple[Any, ...], fresh_rows: Any) -> Any:
        """Per-fresh-row NIC feasibility of the just-invented target.

        The reference checks every flow against its target's remaining
        NIC, then the outbound sum against the fresh host's NIC -- a
        conjunction, so evaluation order does not matter. The fresh
        column is new, so no flow targets it and the outbound sum is the
        row total.
        """
        mode = nic[0]
        t_nic = self.t_nic
        imag_gate = self.imag_nic + 1e-9
        if mode == "none":
            return np.full(len(fresh_rows), 0.0 <= imag_gate, dtype=bool)
        if mode == "one":
            _, c0, b0 = nic
            g0 = t_nic[fresh_rows, c0[fresh_rows]]
            return (b0 <= g0 + 1e-9) & (b0 <= imag_gate)
        if mode == "two":
            _, c0, b0, c1, b1, coll, s, eff0, _excl0 = nic
            g0 = t_nic[fresh_rows, c0[fresh_rows]]
            g1 = t_nic[fresh_rows, c1[fresh_rows]]
            ok = eff0[fresh_rows] <= g0 + 1e-9
            split = ~coll[fresh_rows]
            ok &= ~split | (b1 <= g1 + 1e-9)
            return ok & (s <= imag_gate)
        if mode == "three":
            (
                _,
                c0,
                c1,
                c2,
                val0,
                val1,
                b2,
                _excl0,
                _excl1,
                _excl2,
                exists1,
                exists2,
                totals,
            ) = nic
            g0 = t_nic[fresh_rows, c0[fresh_rows]]
            g1 = t_nic[fresh_rows, c1[fresh_rows]]
            g2 = t_nic[fresh_rows, c2[fresh_rows]]
            ok = val0[fresh_rows] <= g0 + 1e-9
            ok &= ~exists1[fresh_rows] | (val1[fresh_rows] <= g1 + 1e-9)
            ok &= ~exists2[fresh_rows] | (b2 <= g2 + 1e-9)
            return ok & (totals[fresh_rows] <= imag_gate)
        _, per_cand, totals = nic
        ok_list = []
        for row in fresh_rows:
            c = int(row)
            ok = True
            for col, bw in per_cand[c].items():
                if bw <= 0:
                    continue
                if bw > float(t_nic[c, col]) + 1e-9:
                    ok = False
                    break
            if ok:
                ok = float(totals[c]) <= imag_gate
            ok_list.append(ok)
        return np.array(ok_list, dtype=bool)

    def _best_existing(
        self,
        est_node: Any,
        is_vm: bool,
        vcpus: float,
        name: str,
        zones: Any,
        linked: Any,
        nic: Optional[Tuple[Any, ...]],
    ) -> Any:
        """Per-row best existing target (column), -1 where none is feasible.

        Equivalent to the reference's single-pass scan: the feasible
        linked target with the highest linked bandwidth (strict ``>``,
        so first-in-order wins ties -- numpy's first-max argmax), else
        the first feasible unlinked target.
        """
        mask = self.col_space < self.t_count[:, None]
        if is_vm:
            mask &= (vcpus <= self.t_cpu) & (est_node.mem_gb <= self.t_mem)
        else:
            mask &= (est_node.size_gb <= self.t_disk).any(axis=2)
        if zones:
            self._apply_diversity(mask, name, zones)
        if self.track_nic:
            assert nic is not None
            self._apply_nic(mask, nic)
        linked_pos = linked > 0.0
        linked_masked = np.where(mask & linked_pos, linked, -np.inf)
        best_col = linked_masked.argmax(1)
        best_ok = linked_masked[self.arange_c, best_col] > 0.0
        if best_ok.all():
            return best_col
        unlinked = mask & ~linked_pos
        first_unlinked = unlinked.argmax(1)
        unlinked_ok = unlinked[self.arange_c, first_unlinked]
        return np.where(
            best_ok,
            best_col,
            np.where(unlinked_ok, first_unlinked, -1),
        ).astype(np.int64)

    def _ids_grid(self, level: int) -> Any:
        """``unit_ids[level]`` gathered over ``t_host`` (static per batch:
        fresh imaginary columns never write ``t_host``)."""
        grid = self._ids_grids.get(level)
        if grid is None:
            grid = self.arrays.unit_ids[level][np.maximum(self.t_host, 0)]
            self._ids_grids[level] = grid
        return grid

    def _apply_diversity(self, mask: Any, name: str, zones: Any) -> None:
        """Mask out targets violating a diversity zone of ``name``.

        Real targets are checked against really-placed members (including
        the simulated candidate) via unit ids; a member approximately
        located on the same target rules that target out; imaginary
        targets are otherwise optimistically considered separable.

        Member checks AND into the mask, so the really-placed members'
        contribution is batch-static and cached as one precomputed
        matrix; only members located during this batch stay dynamic.
        """
        cached = self._zone_cache.get(name)
        if cached is None:
            cached = self._build_zone_cache(name, zones)
            self._zone_cache[name] = cached
        static_mask, dynamic = cached
        if static_mask is not None:
            mask &= static_mask
        if not dynamic:
            return
        t_host = self.t_host
        if self._t_host_imag is None:
            self._t_host_imag = t_host < 0
        imag = self._t_host_imag
        for level, ids, member in dynamic:
            approx = self.loc_col.get(member)
            if approx is None:
                continue
            mask[self.arange_c, approx] = False
            member_real = t_host[self.arange_c, approx]
            applicable = member_real >= 0
            separated = (
                self._ids_grid(level)
                != ids[np.maximum(member_real, 0)][:, None]
            )
            mask &= ~applicable[:, None] | imag | separated

    def _build_zone_cache(
        self, name: str, zones: Any
    ) -> Tuple[Any, List[Tuple[int, Any, str]]]:
        """Split ``name``'s zone-member checks into static and dynamic."""
        t_host = self.t_host
        if self._t_host_imag is None:
            self._t_host_imag = t_host < 0
        imag = self._t_host_imag
        static_mask: Optional[Any] = None
        dynamic: List[Tuple[int, Any, str]] = []
        for zone in zones:
            level = int(zone.level)
            ids = self.arrays.unit_ids[level]
            for member in zone.members:
                if member == name:
                    continue
                if member == self.node_name:
                    member_ids: Any = ids[self.cand_host_arr][:, None]
                else:
                    assigned = self.partial.assignments.get(member)
                    if assigned is None:
                        dynamic.append((level, ids, member))
                        continue
                    member_ids = ids[assigned.host]
                term = imag | (self._ids_grid(level) != member_ids)
                static_mask = term if static_mask is None else (
                    static_mask & term
                )
        return (static_mask, dynamic)

    def _apply_nic(self, mask: Any, nic: Tuple[Any, ...]) -> None:
        """Mask out targets whose NICs cannot carry the node's flows.

        For a target ``t``: every flow toward a *different* target must
        fit that target's NIC, and the outbound sum (all flows except
        those to ``t`` itself) must fit ``t``'s NIC. With at most two
        positive flows every exclusion sum has at most one addend, so the
        whole check vectorizes exactly; the generic shape keeps the
        reference's ordered scalar sums.
        """
        t_nic = self.t_nic
        arange_c = self.arange_c
        mode = nic[0]
        if mode == "none":
            mask &= 0.0 <= t_nic + 1e-9
            return
        if mode == "one":
            _, c0, b0 = nic
            g0 = t_nic[arange_c, c0]
            nic_mask = b0 <= t_nic + 1e-9
            nic_mask[b0 > g0 + 1e-9] = False
            # choosing the flow's own target: exclusion sum is empty
            nic_mask[arange_c, c0] = 0.0 <= g0 + 1e-9
            mask &= nic_mask
            return
        if mode == "two":
            _, c0, b0, c1, b1, coll, s, eff0, excl0 = nic
            g0 = t_nic[arange_c, c0]
            g1 = t_nic[arange_c, c1]
            nic_mask = s <= t_nic + 1e-9
            # a row collapses to one flow of s when both land on c0
            bad0 = eff0 > g0 + 1e-9
            bad1 = ~coll & (b1 > g1 + 1e-9)
            nic_mask[bad0 | bad1] = False
            # per-target overrides: picking c0 excludes the c0 flow from
            # the outbound sum (leaving b1, or nothing when collapsed)
            # but still requires the *other* flow to fit its target
            set0 = coll | ~bad1
            nic_mask[arange_c[set0], c0[set0]] = (excl0 <= g0 + 1e-9)[set0]
            set1 = ~coll & ~bad0
            nic_mask[arange_c[set1], c1[set1]] = b0 <= g1[set1] + 1e-9
            mask &= nic_mask
            return
        if mode == "three":
            (
                _,
                c0,
                c1,
                c2,
                val0,
                val1,
                b2,
                excl0,
                excl1,
                excl2,
                exists1,
                exists2,
                totals3,
            ) = nic
            g0 = t_nic[arange_c, c0]
            g1 = t_nic[arange_c, c1]
            g2 = t_nic[arange_c, c2]
            bad0 = val0 > g0 + 1e-9
            bad1 = exists1 & (val1 > g1 + 1e-9)
            bad2 = exists2 & (b2 > g2 + 1e-9)
            nbad = bad0.astype(np.int64) + bad1 + bad2
            nic_mask = totals3[:, None] <= t_nic + 1e-9
            nic_mask[nbad >= 1] = False
            # an item's column gets its ordered exclusion-sum check when
            # the row is clean, or when this item is the row's only
            # misfit (the reference's single-bad rescue)
            zero = nbad == 0
            one = nbad == 1
            set0 = zero | (bad0 & one)
            nic_mask[arange_c[set0], c0[set0]] = (excl0 <= g0 + 1e-9)[set0]
            set1 = exists1 & (zero | (bad1 & one))
            nic_mask[arange_c[set1], c1[set1]] = (excl1 <= g1 + 1e-9)[set1]
            set2 = exists2 & (zero | (bad2 & one))
            nic_mask[arange_c[set2], c2[set2]] = (excl2 <= g2 + 1e-9)[set2]
            mask &= nic_mask
            return
        _, per_cand, totals = nic
        nic_mask = totals[:, None] <= t_nic + 1e-9
        for c in range(self.num_cand):
            items = [(col, bw) for col, bw in per_cand[c].items() if bw > 0]
            if not items:
                continue
            bad = [
                col for col, bw in items if bw > float(t_nic[c, col]) + 1e-9
            ]
            if bad:
                row = np.zeros(self.num_targets, dtype=bool)
                if len(bad) == 1:
                    col0 = bad[0]
                    excl = 0.0
                    for col, bw in items:
                        if col != col0:
                            excl += bw
                    row[col0] = excl <= float(t_nic[c, col0]) + 1e-9
                nic_mask[c] = row
            else:
                for col0, _bw in items:
                    excl = 0.0
                    for col, bw in items:
                        if col != col0:
                            excl += bw
                    nic_mask[c, col0] = excl <= float(t_nic[c, col0]) + 1e-9
        mask &= nic_mask

    def _consume(
        self,
        est_node: Any,
        is_vm: bool,
        vcpus: float,
        chosen: Any,
        nic: Optional[Tuple[Any, ...]],
    ) -> None:
        """Debit the chosen target's capacities in every non-stranded row."""
        active = chosen >= 0
        if active.all():
            active_rows = self.arange_c
            cols = chosen
        else:
            active_rows = active.nonzero()[0]
            if not len(active_rows):
                return
            cols = chosen[active_rows]
        if is_vm:
            self.t_cpu[active_rows, cols] -= vcpus
            self.t_mem[active_rows, cols] -= est_node.mem_gb
        else:
            on_imag = self.t_host[active_rows, cols] < 0
            imag_rows = active_rows[on_imag]
            if len(imag_rows):
                # imaginary hosts consume unconditionally (the reference
                # has no fit gate on the imaginary branch)
                self.t_disk[imag_rows, chosen[imag_rows], 0] -= (
                    est_node.size_gb
                )
            real_rows = active_rows[~on_imag]
            if len(real_rows):
                real_cols = chosen[real_rows]
                disk_rows = self.t_disk[real_rows, real_cols]
                fits = est_node.size_gb <= disk_rows
                # worst fit: emptiest fitting disk, first-max on ties
                pick = np.argmax(np.where(fits, disk_rows, -np.inf), axis=1)
                has_fit = fits.any(axis=1)
                rr = real_rows[has_fit]
                self.t_disk[rr, real_cols[has_fit], pick[has_fit]] -= (
                    est_node.size_gb
                )
        if self.track_nic:
            assert nic is not None
            self._consume_nic(chosen, nic)

    def _consume_nic(self, chosen: Any, nic: Tuple[Any, ...]) -> None:
        """Debit NIC capacity for flows not absorbed by the chosen target.

        The reference debits each flow's target NIC, then the chosen
        target's NIC by the outbound sum. In the vector modes all debits
        hit distinct slots per row, so the scatter order is immaterial;
        the outbound where-sum reproduces the reference's left-to-right
        scalar accumulation exactly (``0.0 + b0`` is exact).
        """
        mode = nic[0]
        if mode == "none":
            return
        t_nic = self.t_nic
        if mode == "one":
            _, c0, b0 = nic
            rows = np.nonzero((chosen >= 0) & (c0 != chosen))[0]
            if len(rows):
                t_nic[rows, c0[rows]] -= b0
                t_nic[rows, chosen[rows]] -= b0
            return
        if mode == "two":
            _, c0, b0, c1, b1, coll, s, _eff0, _excl0 = nic
            active = chosen >= 0
            rows = (active & coll & (c0 != chosen)).nonzero()[0]
            if len(rows):
                # collapsed rows carry one flow of b0 + b1
                t_nic[rows, c0[rows]] -= s
                t_nic[rows, chosen[rows]] -= s
            split = active & ~coll
            m0 = split & (c0 != chosen)
            m1 = split & (c1 != chosen)
            rows0 = m0.nonzero()[0]
            if len(rows0):
                t_nic[rows0, c0[rows0]] -= b0
            rows1 = m1.nonzero()[0]
            if len(rows1):
                t_nic[rows1, c1[rows1]] -= b1
            outbound = np.where(m0, b0, 0.0) + np.where(m1, b1, 0.0)
            rows_out = (outbound > 0).nonzero()[0]
            if len(rows_out):
                t_nic[rows_out, chosen[rows_out]] -= outbound[rows_out]
            return
        if mode == "three":
            (
                _,
                c0,
                c1,
                c2,
                val0,
                val1,
                b2,
                _excl0,
                _excl1,
                _excl2,
                exists1,
                exists2,
                _totals,
            ) = nic
            active = chosen >= 0
            m0 = active & (c0 != chosen)
            m1 = active & exists1 & (c1 != chosen)
            m2 = active & exists2 & (c2 != chosen)
            rows0 = m0.nonzero()[0]
            if len(rows0):
                t_nic[rows0, c0[rows0]] -= val0[rows0]
            rows1 = m1.nonzero()[0]
            if len(rows1):
                t_nic[rows1, c1[rows1]] -= val1[rows1]
            rows2 = m2.nonzero()[0]
            if len(rows2):
                t_nic[rows2, c2[rows2]] -= b2
            # left-to-right outbound accumulation in item order; absent
            # terms add an exact 0.0
            outbound = (
                np.where(m0, val0, 0.0)
                + np.where(m1, val1, 0.0)
                + np.where(m2, b2, 0.0)
            )
            rows_out = (outbound > 0).nonzero()[0]
            if len(rows_out):
                t_nic[rows_out, chosen[rows_out]] -= outbound[rows_out]
            return
        _, per_cand, _totals = nic
        for c in (chosen >= 0).nonzero()[0]:
            target_col = int(chosen[c])
            outbound = 0.0
            for col, bw in per_cand[c].items():
                if col == target_col or bw <= 0:
                    continue
                outbound += bw
                t_nic[c, col] -= bw
            if outbound > 0:
                t_nic[c, target_col] -= outbound

    # ------------------------------------------------------------------

    def _resolve(self, endpoint: str) -> Tuple[str, Any]:
        """Location of a link endpoint: ("const", host), ("arr", eids),
        or ("skip", None).

        Real hosts encode as their host index; imaginary targets as
        ``-(column + 2)`` (row-locally unique, never colliding with real
        indices). An already-assigned endpoint resolves to a single
        constant host; "skip" means the endpoint is beyond the
        truncation horizon -- its links contribute zero.
        """
        if endpoint == self.node_name:
            return ("arr", self.cand_host_arr)
        assigned = self.partial.assignments.get(endpoint)
        if assigned is not None:
            return ("const", assigned.host)
        if self.head is not None and endpoint not in self.head:
            return ("skip", None)
        cols = self.loc_col.get(endpoint)
        if cols is None:
            return ("skip", None)
        located = self.t_host[self.arange_c, cols]
        return ("arr", np.where(located >= 0, located, -(cols + 2)))

    def _bandwidth_total(self) -> Any:
        """Optimistic reserved bandwidth of all not-yet-reserved links.

        All surviving links are evaluated as one ``(L, C)`` term matrix;
        the per-candidate total is ``np.cumsum`` over the link axis,
        whose accumulation is strictly left-to-right -- the same float
        additions in the same order as the reference's per-link loop
        (``np.sum`` would reduce pairwise and drift). Terms the
        reference skips contribute exactly 0.0, which is
        addition-neutral.
        """
        num_cand = self.num_cand
        resolved: Dict[str, Tuple[str, Any]] = {}
        rows_a: List[Any] = []
        rows_b: List[Any] = []
        bws: List[float] = []
        fds: List[int] = []
        assignments = self.assignments
        node_name = self.node_name
        for a, b, bw, fd in self.plan.links:
            a_known = a == node_name or a in assignments
            b_known = b == node_name or b in assignments
            if a_known and b_known:
                continue  # already reserved in the simulated partial
            ra = resolved.get(a)
            if ra is None:
                ra = self._resolve(a)
                resolved[a] = ra
            rb = resolved.get(b)
            if rb is None:
                rb = self._resolve(b)
                resolved[b] = rb
            if ra[0] == "skip" or rb[0] == "skip":
                continue  # beyond the truncation horizon: optimistically 0
            rows_a.append(ra[1])
            rows_b.append(rb[1])
            bws.append(bw)
            fds.append(fd)
        if not rows_a:
            return np.zeros(num_cand)
        num_links = len(rows_a)
        eid_a = np.empty((num_links, num_cand), dtype=np.int64)
        eid_b = np.empty((num_links, num_cand), dtype=np.int64)
        for i in range(num_links):
            eid_a[i] = rows_a[i]
            eid_b[i] = rows_b[i]
        bw_col = np.array(bws)[:, None]
        fd_arr = np.array(fds, dtype=np.int64)
        mh = self.min_hops_arr
        if self.optimistic:
            forced_col = np.where(
                fd_arr > 0, np.array(bws) * mh[fd_arr], 0.0
            )[:, None]
        else:
            forced_col = (np.array(bws) * mh[np.maximum(fd_arr, 1)])[:, None]
        colocated = eid_a == eid_b
        both_real = (eid_a >= 0) & (eid_b >= 0)
        hops = self.arrays.pair_hops(
            np.maximum(eid_a, 0), np.maximum(eid_b, 0)
        )
        term = np.where(
            colocated, 0.0, np.where(both_real, bw_col * hops, forced_col)
        )
        if num_links == 1:
            return term[0] + 0.0
        return np.cumsum(term, axis=0)[-1]


def _forced_distance(topology: "ApplicationTopology", a: str, b: str) -> int:
    """Minimum separation distance implied by shared diversity zones."""
    forced = 0
    for zone in topology.zones_of(a):
        if b in zone.members:
            forced = max(forced, int(zone.level) + 1)
    return forced
