"""Tests for the static data-center structure."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import kernel
from repro.datacenter.builder import build_datacenter
from repro.datacenter.model import Cloud, DataCenter, Disk, Host, Level, Pod, Rack
from repro.datacenter.network import PathResolver
from repro.errors import DataCenterError


class TestIndexing:
    def test_testbed_counts(self, testbed):
        assert testbed.num_hosts == 16
        assert len(testbed.racks) == 1
        assert len(testbed.disks) == 16
        # one NIC link per host plus one ToR uplink
        assert testbed.num_links == 17

    def test_large_dc_counts(self):
        cloud = build_datacenter(num_racks=150, hosts_per_rack=16)
        assert cloud.num_hosts == 2400
        assert len(cloud.racks) == 150
        assert cloud.num_links == 2400 + 150

    def test_indices_are_dense_and_consistent(self, small_dc):
        for i, host in enumerate(small_dc.hosts):
            assert host.index == i
        for i, disk in enumerate(small_dc.disks):
            assert disk.index == i
            assert disk.host.disks[0] is disk

    def test_host_lookup_by_name(self, small_dc):
        host = small_dc.hosts[5]
        assert small_dc.host_by_name(host.name) is host
        with pytest.raises(DataCenterError):
            small_dc.host_by_name("nope")

    def test_disk_lookup_by_name(self, small_dc):
        disk = small_dc.disks[3]
        assert small_dc.disk_by_name(disk.name) is disk
        with pytest.raises(DataCenterError):
            small_dc.disk_by_name("nope")

    def test_duplicate_host_name_rejected(self):
        hosts = [
            Host(name="h", cpu_cores=4, mem_gb=8),
            Host(name="h", cpu_cores=4, mem_gb=8),
        ]
        rack = Rack(name="r", hosts=hosts)
        with pytest.raises(DataCenterError, match="duplicate host"):
            Cloud([DataCenter(name="d", racks=[rack])])

    def test_duplicate_disk_name_rejected(self):
        hosts = [
            Host(name="h1", cpu_cores=4, mem_gb=8, disks=[Disk("d", 10)]),
            Host(name="h2", cpu_cores=4, mem_gb=8, disks=[Disk("d", 10)]),
        ]
        rack = Rack(name="r", hosts=hosts)
        with pytest.raises(DataCenterError, match="duplicate disk"):
            Cloud([DataCenter(name="d", racks=[rack])])

    def test_empty_cloud_rejected(self):
        with pytest.raises(DataCenterError):
            Cloud([])
        with pytest.raises(DataCenterError):
            Cloud([DataCenter(name="d")])


class TestDistance:
    def test_same_host(self, small_dc):
        assert small_dc.distance(0, 0) == 0

    def test_same_rack(self, small_dc):
        assert small_dc.distance(0, 1) == 1

    def test_different_rack_podless_is_pod_distance(self, small_dc):
        # pod-less DC: each rack is its own implicit pod
        assert small_dc.distance(0, 4) == 3

    def test_podded_hierarchy_distances(self, podded_cloud):
        hosts = podded_cloud.hosts
        # layout: dc1-p1-r1-h1, dc1-p1-r1-h2, dc1-p1-r2-h1, ... 8 per DC
        assert podded_cloud.distance(0, 1) == 1  # same rack
        assert podded_cloud.distance(0, 2) == 2  # same pod, diff rack
        assert podded_cloud.distance(0, 4) == 3  # same DC, diff pod
        assert podded_cloud.distance(0, 8) == 4  # diff DC
        assert hosts[8].rack.datacenter.name == "dc2"

    def test_separated_at_levels(self, podded_cloud):
        assert podded_cloud.separated_at(0, 1, Level.HOST)
        assert not podded_cloud.separated_at(0, 1, Level.RACK)
        assert podded_cloud.separated_at(0, 2, Level.RACK)
        assert not podded_cloud.separated_at(0, 2, Level.POD)
        assert podded_cloud.separated_at(0, 4, Level.POD)
        assert not podded_cloud.separated_at(0, 4, Level.DATACENTER)
        assert podded_cloud.separated_at(0, 8, Level.DATACENTER)

    def test_rack_diversity_in_podless_dc(self, small_dc):
        # different racks in a pod-less DC satisfy rack AND pod diversity
        assert small_dc.separated_at(0, 4, Level.RACK)
        assert small_dc.separated_at(0, 4, Level.POD)


class TestPaths:
    def test_same_host_no_links(self, small_dc):
        assert small_dc.path(2, 2) == ()

    def test_same_rack_two_nic_links(self, small_dc):
        path = small_dc.path(0, 1)
        assert len(path) == 2
        names = [small_dc.link_names[l] for l in path]
        assert all(n.startswith("nic:") for n in names)

    def test_cross_rack_podless_four_links(self, small_dc):
        path = small_dc.path(0, 4)
        assert len(path) == 4
        names = [small_dc.link_names[l] for l in path]
        assert sum(n.startswith("nic:") for n in names) == 2
        assert sum(n.startswith("tor-uplink:") for n in names) == 2

    def test_cross_pod_six_links(self, podded_cloud):
        path = podded_cloud.path(0, 4)
        assert len(path) == 6

    def test_cross_dc_eight_links(self, podded_cloud):
        path = podded_cloud.path(0, 8)
        assert len(path) == 8
        names = [podded_cloud.link_names[l] for l in path]
        assert sum(n.startswith("wan:") for n in names) == 2

    def test_path_is_symmetric(self, podded_cloud):
        assert sorted(podded_cloud.path(0, 5)) == sorted(podded_cloud.path(5, 0))

    def test_hop_count_matches_path(self, podded_cloud):
        for a, b in [(0, 0), (0, 1), (0, 2), (0, 4), (0, 8)]:
            assert podded_cloud.hop_count(a, b) == len(podded_cloud.path(a, b))


class TestHopArithmetic:
    def test_max_hop_count_podless(self, small_dc):
        assert small_dc.max_hop_count() == 4

    def test_max_hop_count_podded_multi_dc(self, podded_cloud):
        assert podded_cloud.max_hop_count() == 8

    def test_min_hops_for_distance_podless(self, small_dc):
        assert small_dc.min_hops_for_distance(0) == 0
        assert small_dc.min_hops_for_distance(1) == 2
        assert small_dc.min_hops_for_distance(3) == 4

    def test_min_hops_for_distance_podded(self, podded_cloud):
        assert podded_cloud.min_hops_for_distance(1) == 2
        assert podded_cloud.min_hops_for_distance(2) == 4
        assert podded_cloud.min_hops_for_distance(3) == 6
        assert podded_cloud.min_hops_for_distance(4) == 8

    def test_min_hops_memo_keeps_answers_and_errors(self, small_dc):
        """Every search asks for distances 1..4; the cloud scans its hosts
        once per distance and must answer the same -- raise included --
        every time after."""
        for _ in range(2):
            assert small_dc.min_hops_for_distance(1) == 2
            assert small_dc.min_hops_for_distance(3) == 4
            with pytest.raises(DataCenterError, match="distance 4"):
                small_dc.min_hops_for_distance(4)  # single data center


class TestLevelParsing:
    def test_parse_all_levels(self):
        assert Level.parse("host") is Level.HOST
        assert Level.parse("RACK") is Level.RACK
        assert Level.parse(" pod ") is Level.POD
        assert Level.parse("datacenter") is Level.DATACENTER

    def test_parse_unknown_raises(self):
        with pytest.raises(DataCenterError):
            Level.parse("zone")


class TestBuilders:
    def test_testbed_host_specs(self, testbed):
        host = testbed.hosts[0]
        assert host.cpu_cores == 16
        assert host.mem_gb == 32
        assert host.total_disk_gb() == 1000.0
        assert host.nic_bw_mbps == 3200.0

    def test_large_dc_link_capacities(self):
        cloud = build_datacenter(num_racks=2, hosts_per_rack=2)
        host = cloud.hosts[0]
        assert cloud.link_capacity_mbps[host.link_index] == 10_000.0
        assert cloud.link_capacity_mbps[host.rack.link_index] == 100_000.0

    def test_build_cloud_structure(self, podded_cloud):
        assert len(podded_cloud.datacenters) == 2
        assert len(podded_cloud.pods) == 4
        assert len(podded_cloud.racks) == 8
        assert podded_cloud.num_hosts == 16


# ---------------------------------------------------------------------------
# the level table against the object graph
# ---------------------------------------------------------------------------

#: hosts per rack; 0 is an empty rack
_RACKS = st.lists(st.integers(0, 3), max_size=3)
#: one data center: (its pods, each a list of racks; its pod-less racks)
_DATACENTERS = st.tuples(st.lists(_RACKS, max_size=2), _RACKS)
_SHAPES = st.lists(_DATACENTERS, min_size=1, max_size=3).filter(
    lambda dcs: any(sum(map(sum, pods)) + sum(racks) for pods, racks in dcs)
)


def _cloud_of(shape):
    names = itertools.count()

    def rack(hosts):
        return Rack(
            name=f"r{next(names)}",
            hosts=[
                Host(
                    name=f"h{next(names)}", cpu_cores=4, mem_gb=8,
                    disks=[Disk(f"d{next(names)}", 100)],
                )
                for _ in range(hosts)
            ],
        )

    return Cloud([
        DataCenter(
            name=f"dc{next(names)}",
            pods=[Pod(name=f"p{next(names)}", racks=[rack(n) for n in pod])
                  for pod in pods],
            racks=[rack(n) for n in racks],
        )
        for pods, racks in shape
    ])


def _walked_distance(a, b):
    """Separation distance from the object graph alone."""
    if a is b:
        return 0
    if a.rack is b.rack:
        return 1
    if a.rack.pod is not None and a.rack.pod is b.rack.pod:
        return 2
    return 3 if a.rack.datacenter is b.rack.datacenter else 4


#: switches in climbing order; a switch of rank r covers distances <= r
_SWITCH_RANK = {"tor": 1, "pod": 2, "root": 3, "wan": 4}


def _walked_chain(host):
    """``(link, switch)`` pairs from ``host``'s NIC up, from the object
    graph alone; a switch is ``(kind, element)``."""
    rack, dc = host.rack, host.rack.datacenter
    chain = [(host.link_index, ("tor", id(rack)))]
    if rack.pod is not None:
        chain.append((rack.link_index, ("pod", id(rack.pod))))
        chain.append((rack.pod.link_index, ("root", id(dc))))
    else:
        chain.append((rack.link_index, ("root", id(dc))))
    if dc.link_index >= 0:
        chain.append((dc.link_index, ("wan", 0)))
    return chain


def _walked_path(a, b):
    """Links up from both hosts to their lowest common switch."""
    if a is b:
        return ()
    chain_a, chain_b = _walked_chain(a), _walked_chain(b)
    reach_b = {switch: k for k, (_, switch) in enumerate(chain_b)}
    for k, (_, switch) in enumerate(chain_a):
        if switch in reach_b:
            return tuple(link for link, _ in chain_a[: k + 1]) + tuple(
                link for link, _ in chain_b[: reach_b[switch] + 1]
            )
    raise AssertionError("no common switch")


def _walked_min_hops(cloud, dist):
    """Twice the fewest links any host climbs to a switch covering
    ``dist``; None when no switch does."""
    steps = [
        next(
            (k + 1 for k, (_, (kind, _)) in enumerate(_walked_chain(host))
             if _SWITCH_RANK[kind] >= dist),
            None,
        )
        for host in cloud.hosts
    ]
    steps = [s for s in steps if s is not None]
    return 2 * min(steps) if steps else None


class TestLevelTableProperty:
    """Every structural answer equals an independent walk over the object
    graph, on cloud shapes no `build_*` function makes."""

    @settings(max_examples=60, deadline=None)
    @given(shape=_SHAPES)
    @example(shape=[([[2, 1]], [1])])  # a DC mixing a pod and a pod-less rack
    @example(shape=[([[2], [1, 1]], []), ([], [1, 3])])  # a pod-less DC
    @example(shape=[([], [1, 1, 1])])  # single-host racks
    def test_table_equals_the_object_graph(self, shape):
        cloud = _cloud_of(shape)
        hosts = cloud.hosts
        resolver = PathResolver.for_cloud(cloud)
        for a in hosts:
            assert cloud.uplink_chain(a.index) == tuple(
                link for link, _ in _walked_chain(a)
            )
            assert resolver.distance_row(a.index) == [
                _walked_distance(a, b) for b in hosts
            ]
            for level in Level:
                lo, hi = cloud.unit_range(level, a.index)
                assert set(range(lo, hi)) == {
                    b.index for b in hosts
                    if _walked_distance(a, b) <= int(level)
                }
            for b in hosts:
                dist = _walked_distance(a, b)
                path = _walked_path(a, b)
                assert cloud.distance(a.index, b.index) == dist
                assert cloud.path(a.index, b.index) == path
                assert cloud.hop_count(a.index, b.index) == len(path)
                for level in Level:
                    assert cloud.separated_at(a.index, b.index, level) == (
                        dist > int(level)
                    )
        assert cloud.max_hop_count() == 2 * max(
            len(_walked_chain(h)) for h in hosts
        )
        assert cloud.min_hops_for_distance(0) == 0
        for dist in range(1, 5):
            expected = _walked_min_hops(cloud, dist)
            if expected is None:
                with pytest.raises(DataCenterError, match=f"distance {dist}"):
                    cloud.min_hops_for_distance(dist)
            else:
                assert cloud.min_hops_for_distance(dist) == expected
        if kernel.HAVE_NUMPY:
            self._assert_kernel_agrees(cloud)

    @staticmethod
    def _assert_kernel_agrees(cloud):
        import numpy as np

        arrays = kernel.CloudArrays.for_cloud(cloud)
        for level in Level:
            assert arrays.unit_ids[level].tolist() == list(cloud.unit_ids[level])
            assert arrays.uplinks[level].tolist() == list(cloud.uplinks[level])
            assert arrays.unit_starts[level].tolist() == list(
                cloud.unit_starts[level]
            )
        everyone = np.arange(cloud.num_hosts)
        for h in range(cloud.num_hosts):
            chain = cloud.uplink_chain(h)
            assert arrays.chain_len[h] == len(chain)
            assert arrays.chain_matrix[h].tolist() == list(chain) + [-1] * (
                arrays.chain_matrix.shape[1] - len(chain)
            )
            hops = [cloud.hop_count(g, h) for g in range(cloud.num_hosts)]
            own, peer = arrays.steps_rows(h)
            assert (own + peer).tolist() == arrays.hops_row(h).tolist() == hops
            assert arrays.pair_hops(everyone, np.full_like(everyone, h)).tolist() == hops
