"""Tests for the mutable availability state."""

from __future__ import annotations

import pytest

from repro import obs
from repro.datacenter.builder import build_datacenter
from repro.datacenter.state import DataCenterState
from repro.errors import CapacityError, DataCenterError


@pytest.fixture
def state(small_dc):
    return DataCenterState(small_dc)


class TestInitialState:
    def test_starts_fully_free(self, state, small_dc):
        assert list(state.free_cpu) == [h.cpu_cores for h in small_dc.hosts]
        assert list(state.free_mem) == [h.mem_gb for h in small_dc.hosts]
        assert list(state.free_disk) == [d.capacity_gb for d in small_dc.disks]
        assert list(state.free_bw) == list(small_dc.link_capacity_mbps)
        assert not any(state.host_units)

    def test_no_active_hosts_initially(self, state):
        assert state.active_host_indices() == []


class TestVMPlacement:
    def test_place_and_unplace_roundtrip(self, state):
        before = state.snapshot()
        state.place_vm(0, 4, 8)
        assert state.free_cpu[0] == 12
        assert state.free_mem[0] == 24
        assert state.host_is_active(0)
        state.unplace_vm(0, 4, 8)
        assert state.snapshot() == before

    def test_overcommit_cpu_rejected(self, state):
        with pytest.raises(CapacityError):
            state.place_vm(0, 17, 1)

    def test_overcommit_mem_rejected(self, state):
        with pytest.raises(CapacityError):
            state.place_vm(0, 1, 33)

    def test_failed_placement_leaves_state_unchanged(self, state):
        before = state.snapshot()
        with pytest.raises(CapacityError):
            state.place_vm(0, 99, 99)
        assert state.snapshot() == before

    def test_exact_fit_allowed(self, state):
        state.place_vm(0, 16, 32)
        assert state.free_cpu[0] == 0

    def test_unbalanced_unplace_detected(self, state):
        state.place_vm(0, 1, 1)
        state.unplace_vm(0, 1, 1)
        with pytest.raises(CapacityError):
            state.unplace_vm(0, 1, 1)

    def test_vm_fits(self, state):
        assert state.vm_fits(0, 16, 32)
        assert not state.vm_fits(0, 16.5, 32)


class TestVolumePlacement:
    def test_place_and_unplace_roundtrip(self, state):
        before = state.snapshot()
        state.place_volume(0, 100)
        assert state.free_disk[0] == 900
        assert state.host_is_active(0)  # volume activates its host
        state.unplace_volume(0, 100)
        assert state.snapshot() == before

    def test_oversize_volume_rejected(self, state):
        with pytest.raises(CapacityError):
            state.place_volume(0, 1001)

    def test_volume_fits(self, state):
        assert state.volume_fits(0, 1000)
        assert not state.volume_fits(0, 1000.5)


class TestBandwidth:
    def test_reserve_release_roundtrip(self, state, small_dc):
        path = small_dc.path(0, 4)
        before = state.snapshot()
        state.reserve_path(path, 500)
        for link in path:
            assert state.free_bw[link] == small_dc.link_capacity_mbps[link] - 500
        state.release_path(path, 500)
        assert state.snapshot() == before

    def test_reserve_is_all_or_nothing(self, state, small_dc):
        path = small_dc.path(0, 4)
        host_link = small_dc.hosts[0].link_index
        # starve the first host NIC
        state.reserve_path((host_link,), small_dc.link_capacity_mbps[host_link])
        before = state.snapshot()
        with pytest.raises(CapacityError):
            state.reserve_path(path, 100)
        assert state.snapshot() == before

    def test_zero_bandwidth_is_noop(self, state, small_dc):
        before = state.snapshot()
        state.reserve_path(small_dc.path(0, 4), 0)
        assert state.snapshot() == before

    def test_path_bandwidth_free(self, state, small_dc):
        path = small_dc.path(0, 4)
        assert state.path_bandwidth_free(path) == min(
            small_dc.link_capacity_mbps[l] for l in path
        )
        assert state.path_bandwidth_free(()) == float("inf")

    def test_can_reserve_cumulative(self, state, small_dc):
        host_link = small_dc.hosts[0].link_index
        cap = small_dc.link_capacity_mbps[host_link]
        assert state.can_reserve({host_link: cap})
        assert not state.can_reserve({host_link: cap + 1})


class TestTransaction:
    def test_success_keeps_the_mutation(self, state):
        with state.transaction():
            state.place_vm(0, 4, 8)
        assert state.free_cpu[0] == 12

    @pytest.mark.parametrize(
        "error", [CapacityError, RuntimeError, KeyboardInterrupt]
    )
    def test_any_exception_restores_bit_exactly(self, state, error):
        state.place_vm(1, 0.1, 0.3)  # values arithmetic undo would smear
        before = state.snapshot()
        with pytest.raises(error):
            with state.transaction():
                state.place_vm(1, 0.2, 0.7)
                state.reserve_path(state.cloud.path(0, 4), 33.3)
                raise error("boom")
        assert state.snapshot() == before

    def test_outer_transaction_restores_over_an_inner_one(self, state):
        before = state.snapshot()
        with pytest.raises(CapacityError):
            with state.transaction():
                state.place_vm(0, 4, 8)
                with state.transaction():
                    state.place_vm(1, 4, 8)  # inner commits ...
                raise CapacityError("outer fails")  # ... outer undoes it
        assert state.snapshot() == before

    def test_down_element_records_are_restored_too(self, state, small_dc):
        """Releases on failed elements are absorbed into their down
        records, which ``snapshot()`` does not carry; rolling the
        releases back must take the absorbed capacity back out."""
        pristine = state.snapshot()
        path = small_dc.path(0, 4)
        state.place_vm(7, 4, 8)
        state.reserve_path(path, 100)
        state.fail_link(path[1])
        state.fail_host(7)
        absorbed_bw = state.effective_free_bw(path[1])
        with pytest.raises(CapacityError):
            with state.transaction():
                state.release_path(path, 100)
                state.unplace_vm(7, 4, 8)
                assert state.effective_free_bw(path[1]) == absorbed_bw + 100
                assert state.effective_free_cpu(7) == 16
                raise CapacityError("the move's target does not fit")
        assert state.effective_free_bw(path[1]) == absorbed_bw
        assert state.effective_free_cpu(7) == 12
        # repair, release for real: nothing was double-counted
        state.restore_link(path[1])
        state.restore_host(7)
        state.release_path(path, 100)
        state.unplace_vm(7, 4, 8)
        assert state.snapshot() == pristine

    def test_a_snapshot_is_a_copy_that_compares_by_value(self, state):
        base = state.snapshot()
        assert not (state.snapshot() != base)
        state.place_vm(0, 1, 1)
        assert state.snapshot() != base
        assert base[0][0] == 16 and base[4][0] == 0  # untouched by the write
        state.restore(base)
        assert state.snapshot() == base
        assert [type(v) for v in (state.free_cpu[0], state.host_units[0])] == [
            float, int
        ]

    def test_restore_refuses_a_snapshot_of_another_shape(self, state):
        """A list-backed ``free_cpu[:] = shorter`` silently resized the
        column; every later index was off by the difference."""
        state.place_vm(0, 4, 8)
        before = state.snapshot()
        foreign = DataCenterState(
            build_datacenter(num_racks=4, hosts_per_rack=3)
        ).snapshot()
        with pytest.raises(DataCenterError, match=r"free_cpu has 12 .* 16"):
            state.restore(foreign)
        # same hosts, one column short: nothing before it was written either
        cpu, mem, disk, bw, units = before
        state.place_vm(1, 4, 8)
        after = state.snapshot()
        with pytest.raises(DataCenterError, match="free_bw"):
            state.restore((cpu, mem, disk, bw[:-1], units))
        assert state.snapshot() == after
        assert len(state.free_bw) == len(bw)

    def test_reports_library_errors_once_when_given_an_app(self, state):
        def fail(app, error):
            with pytest.raises(error):
                with state.transaction(app=app):
                    raise error("boom")

        with obs.use(obs.TelemetryRecorder()) as rec:
            fail("shop", CapacityError)
            fail(None, CapacityError)  # anonymous: restores silently
            fail("shop", RuntimeError)  # not an admission verdict
        (event,) = rec.events.of_type("rollback")
        assert event.fields["app"] == "shop"
        assert rec.registry.get("ostro_rollbacks_total").value() == 1


class TestRestoreSlots:
    def test_overwrites_what_arithmetic_undo_smears(self, state):
        before = state.snapshot()
        saved = [("cpu", 1, state.free_cpu[1]), ("mem", 1, state.free_mem[1]),
                 ("disk", 4, state.free_disk[4]), ("bw", 7, state.free_bw[7])]
        for sign in (1, -1):
            for cpu in (0.1, 2.3)[::sign]:
                (state.place_vm if sign > 0 else state.unplace_vm)(1, cpu, 1)
        assert state.snapshot() != before  # 16 - 0.1 - 2.3 + 2.3 + 0.1 != 16
        state.restore_slots(saved)
        assert state.snapshot() == before

    def test_unknown_kind_is_an_error(self, state):
        with pytest.raises(ValueError, match="units"):
            state.restore_slots([("units", 0, 0)])


class TestClone:
    def test_clone_is_independent(self, state):
        clone = state.clone()
        clone.place_vm(0, 4, 4)
        assert state.free_cpu[0] == 16
        assert clone.free_cpu[0] == 12

    def test_clone_shares_cloud(self, state):
        assert state.clone().cloud is state.cloud


class TestBackgroundLoad:
    def test_consume_background_activates(self, state):
        state.consume_background(0, vcpus=4, mem_gb=4, nic_mbps=1000)
        assert state.free_cpu[0] == 12
        assert state.host_is_active(0)
        nic = state.cloud.hosts[0].link_index
        assert state.free_bw[nic] == state.cloud.link_capacity_mbps[nic] - 1000

    def test_consume_background_without_unit(self, state):
        state.consume_background(0, vcpus=4, mem_gb=4, count_as_unit=False)
        assert not state.host_is_active(0)
