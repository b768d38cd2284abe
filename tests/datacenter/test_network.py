"""Tests for path resolution and flow tallying."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core import kernel
from repro.core.scheduler import Ostro
from repro.datacenter.builder import build_datacenter
from repro.datacenter.network import (
    PathResolver,
    tally_flows,
    total_reserved_bandwidth,
)
from tests.conftest import make_three_tier


class TestPathResolver:
    def test_matches_cloud_path(self, podded_cloud):
        resolver = PathResolver(podded_cloud)
        for a, b in [(0, 0), (0, 1), (0, 2), (0, 4), (0, 8), (7, 3)]:
            assert sorted(resolver.path(a, b)) == sorted(podded_cloud.path(a, b))
            assert resolver.distance(a, b) == podded_cloud.distance(a, b)

    def test_caches_symmetrically(self, small_dc):
        resolver = PathResolver(small_dc)
        first = resolver.path(0, 5)
        assert resolver.path(5, 0) is first  # same cached object

    def test_hop_count(self, small_dc):
        resolver = PathResolver(small_dc)
        assert resolver.hop_count(0, 1) == 2
        assert resolver.hop_count(0, 0) == 0


class TestPerCloudCachesDieWithTheirCloud:
    @pytest.mark.parametrize(
        "kernel_name", ["python", "numpy"] if kernel.HAVE_NUMPY else ["python"]
    )
    def test_searched_clouds_are_collected(self, kernel_name):
        """The shared resolver and the kernel's arrays are cached weakly by
        cloud; a cached value referencing its cloud kept every searched
        cloud (and its rows) alive forever."""
        clouds = []
        with kernel.use_kernel(kernel_name):
            for _ in range(3):
                cloud = build_datacenter(num_racks=2, hosts_per_rack=4)
                Ostro(cloud).place(make_three_tier(), "eg")
                clouds.append(weakref.ref(cloud))
                del cloud
        gc.collect()
        assert [ref() for ref in clouds] == [None, None, None]


class TestTallyFlows:
    def test_shared_links_accumulate(self, small_dc):
        resolver = PathResolver(small_dc)
        # two flows out of host 0 share host 0's NIC
        demand = tally_flows(resolver, [(0, 1, 100), (0, 2, 50)])
        nic0 = small_dc.hosts[0].link_index
        assert demand[nic0] == 150

    def test_zero_flows_skipped(self, small_dc):
        resolver = PathResolver(small_dc)
        assert tally_flows(resolver, [(0, 1, 0)]) == {}

    def test_intra_host_flow_no_demand(self, small_dc):
        resolver = PathResolver(small_dc)
        assert tally_flows(resolver, [(3, 3, 1000)]) == {}


class TestTotalReservedBandwidth:
    def test_counts_bandwidth_per_link(self, small_dc):
        resolver = PathResolver(small_dc)
        # same rack: 2 links; cross rack (pod-less): 4 links
        total = total_reserved_bandwidth(
            resolver, [(0, 1, 100), (0, 4, 10)]
        )
        assert total == 100 * 2 + 10 * 4

    def test_empty_flows(self, small_dc):
        resolver = PathResolver(small_dc)
        assert total_reserved_bandwidth(resolver, []) == 0.0
