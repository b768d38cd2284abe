"""Network path resolution and bandwidth tallying.

The structural path computation lives on :class:`repro.datacenter.model.Cloud`
(it is pure topology); this module adds the pieces the placement algorithms
need on top of it:

* :class:`PathResolver` -- a memoizing facade over ``Cloud.path`` /
  ``Cloud.distance``; path lookups are hot inside the search loops.
* :func:`tally_flows` -- aggregate the per-link bandwidth demand of a set of
  flows, correctly summing flows that share links.
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterable, List, Tuple

from repro.datacenter.model import Cloud, Level


class PathResolver:
    """Memoizing path / distance / hop-count lookups over a cloud.

    The cache key is the unordered host pair, since paths are symmetric.
    For the scales in the paper (hundreds of placed nodes) the cache stays
    small: only pairs that the search actually inspects are stored.

    One resolver can (and should) be shared by everything operating on the
    same cloud -- candidate generation, the lower-bound estimator, the
    scheduler, and placement validation all hit the same pairs, so a shared
    cache turns repeated structural work into dict lookups. Use
    :meth:`for_cloud` to get the per-cloud shared instance.
    """

    #: per-cloud shared resolvers; weak keys so dropping a cloud drops its
    #: caches with it
    _shared: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def __init__(self, cloud: Cloud) -> None:
        self.cloud = cloud
        self._paths: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self._distances: Dict[Tuple[int, int], int] = {}
        self._hops: Dict[Tuple[int, int], int] = {}

    @classmethod
    def for_cloud(cls, cloud: Cloud) -> "PathResolver":
        """The shared memoizing resolver for a cloud (created on demand).

        It reaches its cloud through a weak proxy: the cache is keyed
        weakly by the cloud, and a strong reference from the value would
        keep every cloud ever searched alive.
        """
        resolver = cls._shared.get(cloud)
        if resolver is None:
            resolver = cls._shared[cloud] = cls(weakref.proxy(cloud))
        return resolver

    def path(self, host_a: int, host_b: int) -> Tuple[int, ...]:
        """Links traversed between two hosts (empty if the same host)."""
        key = (host_a, host_b) if host_a <= host_b else (host_b, host_a)
        cached = self._paths.get(key)
        if cached is None:
            cached = self.cloud.path(key[0], key[1])
            self._paths[key] = cached
        return cached

    def distance(self, host_a: int, host_b: int) -> int:
        """Separation distance between two hosts (0..4)."""
        key = (host_a, host_b) if host_a <= host_b else (host_b, host_a)
        cached = self._distances.get(key)
        if cached is None:
            cached = self.cloud.distance(key[0], key[1])
            self._distances[key] = cached
        return cached

    def distance_row(self, host: int) -> List[int]:
        """Distances from one host to every host, as an indexable row.

        Candidate deduplication reads the distance to every placed host
        for every feasible host, and a plain list index beats a per-pair
        function call there. Built from the unit ranges: every host starts
        at the widest distance, then ``host``'s unit at each level, widest
        first, is overwritten with that level -- a few slice fills.
        """
        cloud = self.cloud
        row = [len(Level)] * cloud.num_hosts
        for level in reversed(Level):
            lo, hi = cloud.unit_range(level, host)
            row[lo:hi] = [int(level)] * (hi - lo)
        return row

    def hop_count(self, host_a: int, host_b: int) -> int:
        """Number of links between two hosts (memoized separately from
        :meth:`path` so the hot estimator loop is one dict hit)."""
        key = (host_a, host_b) if host_a <= host_b else (host_b, host_a)
        cached = self._hops.get(key)
        if cached is None:
            cached = len(self.path(key[0], key[1]))
            self._hops[key] = cached
        return cached


def tally_flows(
    resolver: PathResolver,
    flows: Iterable[Tuple[int, int, float]],
) -> Dict[int, float]:
    """Aggregate per-link bandwidth demand of ``(host_a, host_b, mbps)`` flows.

    Flows between the same host pair, or distinct pairs whose paths share
    links (for example two flows leaving the same rack), are summed on the
    shared links -- this is what makes cumulative feasibility checks correct
    when one node has several already-placed neighbors.
    """
    demand: Dict[int, float] = {}
    for host_a, host_b, mbps in flows:
        if mbps <= 0:
            continue
        for link in resolver.path(host_a, host_b):
            demand[link] = demand.get(link, 0.0) + mbps
    return demand


def total_reserved_bandwidth(
    resolver: PathResolver,
    flows: Iterable[Tuple[int, int, float]],
) -> float:
    """Total bandwidth reserved across all links for the given flows.

    This is the paper's ``u_bw``: each flow contributes its bandwidth once
    per link it traverses, so widely separated endpoints cost more.
    """
    return sum(
        mbps * len(resolver.path(host_a, host_b))
        for host_a, host_b, mbps in flows
        if mbps > 0
    )
