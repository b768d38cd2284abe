"""Pod shard tests: partitioning, masking, screening, scratch audit."""

from __future__ import annotations

import pytest

from repro.core.scheduler import Ostro
from repro.core.topology import ApplicationTopology
from repro.datacenter.model import Level
from repro.datacenter.state import DataCenterState
from repro.errors import PlacementError
from repro.service.shard import build_shards
from tests.conftest import make_three_tier


class TestBuildShards:
    def test_podded_cloud_one_shard_per_pod(self, podded_cloud):
        shards = build_shards(podded_cloud)
        assert len(shards) == len(podded_cloud.pods) == 4
        covered = sorted(h for s in shards for h in s.hosts)
        assert covered == list(range(podded_cloud.num_hosts))
        assert [s.shard_id for s in shards] == [0, 1, 2, 3]

    def test_podless_dc_one_shard_per_rack(self, small_dc):
        shards = build_shards(small_dc)
        assert len(shards) == 4  # 4 implicit pods = 4 racks
        for shard in shards:
            assert len(shard.hosts) == 4
            assert len(shard.racks) == 1

    def test_partition_is_disjoint(self, podded_cloud):
        shards = build_shards(podded_cloud)
        seen: set = set()
        for shard in shards:
            assert not seen & set(shard.hosts)
            seen.update(shard.hosts)


class TestMasking:
    def test_masked_snapshot_zeroes_foreign_capacity(self, podded_cloud):
        state = DataCenterState(podded_cloud)
        shards = build_shards(podded_cloud)
        shard = shards[0]
        state.place_vm(shard.hosts[0], 1, 1)  # non-trivial units and NIC use
        state.reserve_path(podded_cloud.path(shard.hosts[0], 7), 10.0)
        masked = shard.masked_snapshot(state.snapshot())
        cpu, mem, disk, bw, units = masked
        for h in range(podded_cloud.num_hosts):
            if shard.owns_host(h):
                assert cpu[h] == state.free_cpu[h]
                assert mem[h] == state.free_mem[h]
            else:
                assert cpu[h] == 0.0
                assert mem[h] == 0.0
        for d in range(len(podded_cloud.disks)):
            owned = shard.owns_host(podded_cloud.disks[d].host.index)
            assert disk[d] == (state.free_disk[d] if owned else 0.0)
        # bandwidth and unit counts keep their global values
        assert list(bw) == list(state.free_bw)
        assert list(units) == list(state.host_units)
        # one format: the masked snapshot loads like any other
        scratch = DataCenterState(podded_cloud)
        scratch.restore(masked)
        assert scratch.snapshot() == masked

    def test_search_confined_to_shard(self, podded_cloud):
        state = DataCenterState(podded_cloud)
        shards = build_shards(podded_cloud)
        for shard in shards[:2]:
            result = shard.search(
                state.snapshot(), make_three_tier(), algorithm="eg"
            )
            for assignment in result.placement.assignments.values():
                assert shard.owns_host(assignment.host)

    def test_search_leaves_scratch_state_clean(self, podded_cloud):
        state = DataCenterState(podded_cloud)
        shard = build_shards(podded_cloud)[0]
        shard.search(state.snapshot(), make_three_tier(), algorithm="eg")
        assert shard.scratch_violations() == []

    def test_search_sees_global_occupancy(self, podded_cloud):
        """Capacity used by other tenants (committed globally) must be
        invisible to the shard as free space."""
        state = DataCenterState(podded_cloud)
        ostro = Ostro(podded_cloud, state=state)
        shard = build_shards(podded_cloud)[0]
        # fill the shard's hosts almost completely through the global state
        for h in shard.hosts:
            state.place_vm(h, state.free_cpu[h] - 1, state.free_mem[h] - 1)
        ostro.rebaseline()
        big = ApplicationTopology("big")
        big.add_vm("vm0", 4, 4)
        with pytest.raises(PlacementError):
            shard.search(state.snapshot(), big, algorithm="eg")


class TestScreen:
    def test_pod_zone_is_screened_out(self, podded_cloud):
        state = DataCenterState(podded_cloud)
        shard = build_shards(podded_cloud)[0]
        topo = ApplicationTopology("spread")
        topo.add_vm("a", 1, 1)
        topo.add_vm("b", 1, 1)
        topo.add_zone("wide", Level.POD, ["a", "b"])
        assert shard.screen(topo, state) == "needs_pod_separation"

    def test_rack_zone_wider_than_shard(self, podded_cloud):
        state = DataCenterState(podded_cloud)
        shard = build_shards(podded_cloud)[0]  # 2 racks per pod
        topo = ApplicationTopology("racky")
        for i in range(3):
            topo.add_vm(f"v{i}", 1, 1)
        topo.add_zone("z", Level.RACK, ["v0", "v1", "v2"])
        assert shard.screen(topo, state) == "insufficient_racks"

    def test_host_zone_wider_than_shard(self, podded_cloud):
        state = DataCenterState(podded_cloud)
        shard = build_shards(podded_cloud)[0]  # 4 hosts
        topo = ApplicationTopology("hosty")
        for i in range(5):
            topo.add_vm(f"v{i}", 1, 1)
        topo.add_zone("z", Level.HOST, [f"v{i}" for i in range(5)])
        assert shard.screen(topo, state) == "insufficient_hosts"

    def test_aggregate_capacity_screen(self, podded_cloud):
        state = DataCenterState(podded_cloud)
        shard = build_shards(podded_cloud)[0]
        hog = ApplicationTopology("hog")
        total_cpu = sum(state.free_cpu[h] for h in shard.hosts)
        for i in range(8):
            hog.add_vm(f"v{i}", total_cpu / 4, 1)
        assert shard.screen(hog, state) == "insufficient_capacity"

    def test_widest_vm_screen(self, podded_cloud):
        state = DataCenterState(podded_cloud)
        shard = build_shards(podded_cloud)[0]
        tall = ApplicationTopology("tall")
        widest = max(state.free_cpu[h] for h in shard.hosts)
        tall.add_vm("v0", widest + 1, 1)
        assert shard.screen(tall, state) == "largest_vm_does_not_fit"

    def test_disk_screens(self, podded_cloud):
        state = DataCenterState(podded_cloud)
        shard = build_shards(podded_cloud)[0]
        total_disk = sum(state.free_disk[d] for d in shard.disks)
        fat = ApplicationTopology("fat")
        fat.add_vm("v0", 1, 1)
        fat.add_volume("vol0", total_disk / 2 + 1)
        fat.add_volume("vol1", total_disk / 2 + 1)
        assert shard.screen(fat, state) == "insufficient_disk"
        chunky = ApplicationTopology("chunky")
        chunky.add_vm("v0", 1, 1)
        biggest = max(state.free_disk[d] for d in shard.disks)
        chunky.add_volume("vol", biggest + 1)
        assert shard.screen(chunky, state) == "largest_volume_does_not_fit"

    def test_feasible_topology_passes(self, podded_cloud):
        state = DataCenterState(podded_cloud)
        shard = build_shards(podded_cloud)[0]
        assert shard.screen(make_three_tier(), state) is None


class TestLoad:
    def test_load_reflects_global_occupancy(self, podded_cloud):
        state = DataCenterState(podded_cloud)
        shards = build_shards(podded_cloud)
        assert shards[0].load(state) == pytest.approx(0.0)
        h = shards[0].hosts[0]
        state.place_vm(h, state.free_cpu[h], 1.0)
        assert shards[0].load(state) == pytest.approx(
            podded_cloud.hosts[h].cpu_cores / shards[0].nominal_cpu
        )
        assert shards[1].load(state) == pytest.approx(0.0)
