"""Stateful model test of the resource store (one ``DataCenterState``).

Hypothesis drives every public mutator in arbitrary interleavings
against a shadow ledger of the reservations that are live, and checks
after each step what must always hold: the state's own capacity
invariants, conservation against the ledger, and -- when NumPy is
importable -- that the one ``StateView`` still *is* the store. The
rules themselves assert the bit-exact claims: an aborted transaction, a
``restore``, a ``restore_slots`` undo and a fail/restore pair on an
untouched element all land on the snapshot taken before.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core import kernel
from repro.datacenter.builder import build_datacenter
from repro.datacenter.resources import EPSILON
from repro.datacenter.state import DataCenterState
from repro.errors import CapacityError

_CLOUD = build_datacenter(num_racks=2, hosts_per_rack=3)

hosts = st.integers(0, _CLOUD.num_hosts - 1)
disks = st.integers(0, len(_CLOUD.disks) - 1)
links = st.integers(0, _CLOUD.num_links - 1)
picks = st.integers(0, 10_000)
#: sizes arithmetic undo would smear in the last bit
vcpus = st.sampled_from([0.1, 0.6, 1, 2.3, 4.2, 7])
mem_gb = st.sampled_from([0.7, 1, 4.2, 16])
size_gb = st.sampled_from([0.3, 10, 333.3])
mbps = st.sampled_from([0.1, 33.3, 250, 4000])


class _Abort(Exception):
    pass


class StoreMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.cloud = _CLOUD
        self.state = DataCenterState(self.cloud)
        #: live reservations, as the arguments that release them
        self.vms: list = []
        self.volumes: list = []
        self.paths: list = []
        self.view = (
            kernel.StateView.for_state(self.state)
            if kernel.HAVE_NUMPY
            else None
        )

    # -- helpers --------------------------------------------------------

    def _try_place_vm(self, host, cpu, mem):
        try:
            self.state.place_vm(host, cpu, mem)
        except CapacityError:
            return False
        self.vms.append((host, cpu, mem))
        return True

    def _try_reserve(self, a, b, bw):
        path = self.cloud.path(a, b)
        try:
            self.state.reserve_path(path, bw)
        except CapacityError:
            return False
        if path:
            self.paths.append((path, bw))
        return True

    def _down(self):
        state = self.state
        return (
            {
                h: (r.free_vcpus, r.free_mem_gb, dict(r.free_disk_gb), r.nic_failed)
                for h, r in state._down_hosts.items()
            },
            dict(state._down_links),
        )

    # -- reservations ---------------------------------------------------

    @rule(host=hosts, cpu=vcpus, mem=mem_gb)
    def place_vm(self, host, cpu, mem):
        before = self.state.snapshot()
        if not self._try_place_vm(host, cpu, mem):
            assert self.state.snapshot() == before  # refused = untouched

    @precondition(lambda self: self.vms)
    @rule(pick=picks)
    def unplace_vm(self, pick):
        self.state.unplace_vm(*self.vms.pop(pick % len(self.vms)))

    @rule(disk=disks, size=size_gb)
    def place_volume(self, disk, size):
        before = self.state.snapshot()
        try:
            self.state.place_volume(disk, size)
        except CapacityError:
            assert self.state.snapshot() == before
        else:
            self.volumes.append((disk, size))

    @precondition(lambda self: self.volumes)
    @rule(pick=picks)
    def unplace_volume(self, pick):
        self.state.unplace_volume(*self.volumes.pop(pick % len(self.volumes)))

    @rule(a=hosts, b=hosts, bw=mbps)
    def reserve_path(self, a, b, bw):
        before = self.state.snapshot()
        if not self._try_reserve(a, b, bw):
            assert self.state.snapshot() == before  # all-or-nothing

    @precondition(lambda self: self.paths)
    @rule(pick=picks)
    def release_path(self, pick):
        self.state.release_path(*self.paths.pop(pick % len(self.paths)))

    # -- faults ---------------------------------------------------------

    @rule(host=hosts)
    def fail_or_restore_host(self, host):
        if self.state.host_is_down(host):
            self.state.restore_host(host)
        else:
            self.state.fail_host(host)

    @rule(link=links)
    def fail_or_restore_link(self, link):
        state = self.state
        nics = {self.cloud.hosts[h].link_index for h in state.down_hosts()}
        if link in nics:
            return  # a crashed host's NIC comes back with restore_host
        if link in state.down_links():
            state.restore_link(link)
        else:
            state.fail_link(link)

    @rule(host=hosts, link=links)
    def fail_then_restore_is_a_bit_exact_no_op(self, host, link):
        state = self.state
        before, down = state.snapshot(), self._down()
        if not state.host_is_down(host):
            state.fail_host(host)
            assert state.free_cpu[host] == 0.0
            state.restore_host(host)
        if link not in state.down_links():
            state.fail_link(link)
            assert state.free_bw[link] == 0.0
            state.restore_link(link)
        assert state.snapshot() == before
        assert self._down() == down

    # -- transactions and snapshots ---------------------------------------

    @rule(host=hosts, other=hosts, cpu=vcpus, mem=mem_gb, bw=mbps)
    def committed_transaction(self, host, other, cpu, mem, bw):
        with self.state.transaction():
            self._try_place_vm(host, cpu, mem)
            self._try_reserve(host, other, bw)

    @rule(host=hosts, other=hosts, cpu=vcpus, mem=mem_gb, bw=mbps, pick=picks)
    def aborted_transaction(self, host, other, cpu, mem, bw, pick):
        state = self.state
        before, down = state.snapshot(), self._down()
        ledger = (list(self.vms), list(self.volumes), list(self.paths))
        try:
            with state.transaction():
                self._try_place_vm(host, cpu, mem)
                self._try_reserve(host, other, bw)
                if self.vms:  # releases reach the down records too
                    state.unplace_vm(*self.vms.pop(pick % len(self.vms)))
                if self.paths:
                    state.release_path(
                        *self.paths.pop(pick % len(self.paths))
                    )
                if pick % 3 == 0 and not state.host_is_down(other):
                    state.fail_host(other)
                raise _Abort
        except _Abort:
            pass
        self.vms, self.volumes, self.paths = ledger
        assert state.snapshot() == before
        assert self._down() == down

    @rule(
        host=hosts, other=hosts, disk=disks,
        cpu=vcpus, mem=mem_gb, size=size_gb, bw=mbps,
    )
    def snapshot_mutate_restore(self, host, other, disk, cpu, mem, size, bw):
        """Reservations only: releases on down elements go to the down
        records, which a bare snapshot does not carry."""
        state = self.state
        before = state.snapshot()
        for mutate, args in (
            (state.place_vm, (host, cpu, mem)),
            (state.place_volume, (disk, size)),
            (state.reserve_path, (self.cloud.path(host, other), bw)),
        ):
            try:
                mutate(*args)
            except CapacityError:
                pass
        state.restore(before)
        assert state.snapshot() == before

    @rule(
        host=hosts, other=hosts, sizes=st.lists(vcpus, min_size=1, max_size=3),
        mem=mem_gb, bw=mbps,
    )
    def restore_slots_undoes_bit_exactly(self, host, other, sizes, mem, bw):
        """The scratch-undo of ``PartialPlacement``: release LIFO by
        arithmetic (which owns the unit count and smears the last bit),
        then overwrite the slots with the values saved before."""
        state = self.state
        path = self.cloud.path(host, other)
        if state.host_is_down(host) or set(path) & set(state.down_links()):
            return  # arithmetic releases would be absorbed, not undone
        before = state.snapshot()
        saved = [
            ("cpu", host, state.free_cpu[host]),
            ("mem", host, state.free_mem[host]),
            *(("bw", link, state.free_bw[link]) for link in path),
        ]
        undo = []
        for cpu in sizes:
            try:
                state.place_vm(host, cpu, mem)
                undo.append((state.unplace_vm, (host, cpu, mem)))
                state.reserve_path(path, bw)
                undo.append((state.release_path, (path, bw)))
            except CapacityError:
                break
        for release, args in reversed(undo):
            release(*args)
        state.restore_slots(saved)
        assert state.snapshot() == before

    # -- what must hold after every step ----------------------------------

    @invariant()
    def capacity_invariants_hold(self):
        assert self.state.capacity_invariants() == []

    @invariant()
    def the_ledger_is_conserved(self):
        state, cloud = self.state, self.cloud
        used_cpu = [0.0] * cloud.num_hosts
        used_mem = [0.0] * cloud.num_hosts
        units = [0] * cloud.num_hosts
        used_disk = [0.0] * len(cloud.disks)
        used_bw = [0.0] * cloud.num_links
        for host, cpu, mem in self.vms:
            used_cpu[host] += cpu
            used_mem[host] += mem
            units[host] += 1
        for disk, size in self.volumes:
            used_disk[disk] += size
            units[cloud.disks[disk].host.index] += 1
        for path, bw in self.paths:
            for link in path:
                used_bw[link] += bw
        assert list(state.host_units) == units
        for h, host in enumerate(cloud.hosts):
            assert abs(
                state.effective_free_cpu(h) - (host.cpu_cores - used_cpu[h])
            ) < EPSILON
            assert abs(
                state.effective_free_mem(h) - (host.mem_gb - used_mem[h])
            ) < EPSILON
        for d, disk in enumerate(cloud.disks):
            assert abs(
                state.effective_free_disk(d)
                - (disk.capacity_gb - used_disk[d])
            ) < EPSILON
        for k, nominal in enumerate(cloud.link_capacity_mbps):
            assert abs(
                state.effective_free_bw(k) - (nominal - used_bw[k])
            ) < EPSILON

    @invariant()
    def the_view_is_the_store(self):
        if self.view is None:
            return
        state, view = self.state, self.view
        assert kernel.StateView.for_state(state) is view
        assert view.cpu_free.tolist() == list(state.free_cpu)
        assert view.mem_free.tolist() == list(state.free_mem)
        assert view.disk_free.tolist() == list(state.free_disk)
        assert view.bw_free.tolist() == list(state.free_bw)
        assert view.units.tolist() == list(state.host_units)


TestStoreMachine = StoreMachine.TestCase
TestStoreMachine.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
