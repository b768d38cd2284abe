"""End-to-end chaos scenario tests (repro.sim.chaos)."""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.cli import main as cli_main
from repro.datacenter.builder import build_datacenter
from repro.defrag import DefragConfig
from repro.errors import DataCenterError
from repro.faults import FaultEvent, FaultPlan
from repro.sim.chaos import run_chaos
from repro.sim.scenarios import make_fault_plan


@pytest.fixture
def tiny_cloud():
    return build_datacenter(num_racks=2, hosts_per_rack=8)


class TestMakeFaultPlan:
    def test_same_seed_same_plan(self, tiny_cloud):
        a = make_fault_plan(tiny_cloud, seed=5, hosts=3, links=1)
        b = make_fault_plan(tiny_cloud, seed=5, hosts=3, links=1)
        c = make_fault_plan(tiny_cloud, seed=6, hosts=3, links=1)
        assert a.events == b.events
        assert a.events != c.events

    def test_recovery_events_follow_failures(self, tiny_cloud):
        plan = make_fault_plan(
            tiny_cloud, seed=0, hosts=2, links=1, recover_after_steps=2
        )
        downs = [e for e in plan.events if e.kind.endswith("_down")]
        ups = [e for e in plan.events if e.kind.endswith("_up")]
        assert len(downs) == 3 and len(ups) == 3
        by_target = {e.target: e.at_step for e in downs}
        for up in ups:
            assert up.at_step == by_target[up.target] + 2

    def test_victim_counts_validated(self, tiny_cloud):
        with pytest.raises(DataCenterError, match="hosts"):
            make_fault_plan(tiny_cloud, hosts=1000)
        with pytest.raises(DataCenterError, match="uplinks"):
            make_fault_plan(tiny_cloud, links=1000)


class TestRunChaos:
    def test_same_seed_runs_are_bit_identical(self, tiny_cloud):
        def one_run():
            plan = make_fault_plan(
                tiny_cloud,
                seed=2,
                hosts=3,
                links=1,
                api_transient_rate=0.2,
                steps=5,
            )
            return run_chaos(
                plan,
                cloud=build_datacenter(num_racks=2, hosts_per_rack=8),
                apps=5,
                app_vms=8,
                algorithm="eg",
            )

        first, second = one_run(), one_run()
        assert first.fingerprint == second.fingerprint
        # recovery_s is scheduler wall-clock; everything else is exact
        a, b = asdict(first), asdict(second)
        a.pop("recovery_s"), b.pop("recovery_s")
        assert a == b

    def test_chaos_run_leaks_no_capacity(self, tiny_cloud):
        plan = make_fault_plan(
            tiny_cloud,
            seed=0,
            hosts=4,
            links=1,
            api_transient_rate=0.3,
            steps=6,
            recover_after_steps=2,
        )
        report = run_chaos(
            plan, cloud=tiny_cloud, apps=6, app_vms=8, algorithm="eg"
        )
        assert report.invariant_violations == []
        assert report.hosts_failed == 4
        assert report.links_failed == 1
        assert report.apps_requested == 6
        assert 0.0 <= report.availability <= 1.0

    def test_quiet_plan_is_a_plain_deployment(self, tiny_cloud):
        plan = make_fault_plan(tiny_cloud, seed=0)
        report = run_chaos(
            plan, cloud=tiny_cloud, apps=3, app_vms=6, algorithm="eg"
        )
        assert report.apps_deployed == 3
        assert report.availability == 1.0
        assert report.evacuations == 0
        assert report.api_faults == 0
        assert report.degradations == 0
        assert report.invariant_violations == []

    def test_degradation_ladder_engages_under_chaos(self, tiny_cloud):
        plan = make_fault_plan(tiny_cloud, seed=0, hosts=1)
        report = run_chaos(
            plan,
            cloud=tiny_cloud,
            apps=3,
            app_vms=6,
            algorithm="dba*",
            deadline_s=0.0,  # DBA* unusable; every placement degrades
        )
        assert report.degradations >= 3
        assert report.apps_deployed == 3
        assert report.invariant_violations == []

    def test_summary_lines_cover_the_headline_metrics(self, tiny_cloud):
        report = run_chaos(
            make_fault_plan(tiny_cloud, seed=0, hosts=1),
            cloud=tiny_cloud,
            apps=2,
            app_vms=6,
            algorithm="eg",
        )
        text = "\n".join(report.summary_lines())
        for needle in ("availability", "fingerprint", "capacity leaks"):
            assert needle in text


class TestTrailingEvents:
    def test_late_crash_is_evacuated_before_its_repair(self, tiny_cloud):
        """Regression: a crash scheduled after the last arrival must go
        through the same per-step handler as mid-run ones -- evacuated
        and audited *before* the later repair of the same host fires."""
        victim = tiny_cloud.hosts[0].name  # eg packs the apps here
        plan = FaultPlan(
            seed=0,
            events=[
                FaultEvent(at_step=4, kind="host_down", target=victim),
                FaultEvent(at_step=6, kind="host_up", target=victim),
            ],
        )
        report = run_chaos(
            plan, cloud=tiny_cloud, apps=2, app_vms=6, algorithm="eg"
        )
        assert report.apps_deployed == 2
        assert report.hosts_failed == 1
        assert report.evacuations == 1
        assert report.nodes_moved > 0  # the host held tenants when it died
        assert report.invariant_violations == []


class TestChaosDefrag:
    def test_defrag_recovers_fragmentation_leak_free(self):
        from repro.bench import BENCHES

        payload = BENCHES["defrag"].run()
        assert payload["defrag_enabled"]
        assert payload["defrag_passes"] >= 1
        assert payload["frag_recovered"] > 0
        assert payload["invariant_violations"] == 0
        assert BENCHES["defrag"].gates(payload) == []

    def test_disabled_defrag_is_bit_identical_to_none(self, tiny_cloud):
        def one_run(defrag):
            plan = make_fault_plan(
                tiny_cloud, seed=3, hosts=2, steps=4, recover_after_steps=1
            )
            return run_chaos(
                plan,
                cloud=tiny_cloud,
                apps=4,
                app_vms=6,
                algorithm="eg",
                defrag=defrag,
            )

        baseline = one_run(None)
        disabled = one_run(DefragConfig(enabled=False, algorithm="eg"))
        assert disabled.fingerprint == baseline.fingerprint
        assert not disabled.defrag_enabled
        assert not baseline.defrag_enabled


class TestChaosScaling:
    def scaled_run(self, cloud, scaling):
        plan = make_fault_plan(
            cloud, seed=2, hosts=2, links=1, steps=6, recover_after_steps=2
        )
        return run_chaos(
            plan,
            cloud=cloud,
            apps=4,
            app_vms=6,
            algorithm="eg",
            scaling=scaling,
        )

    def test_scaling_under_chaos_is_deterministic_and_clean(
        self, tiny_cloud
    ):
        from repro.scaling import ScalingConfig

        config = ScalingConfig(
            tier_prefix="tier1",
            scale_out_at=0.65,
            scale_in_at=0.45,
            step_fraction=0.5,
            seed=3,
            consolidate=True,
        )
        a = self.scaled_run(tiny_cloud, config)
        b = self.scaled_run(tiny_cloud, config)
        assert a.fingerprint == b.fingerprint
        assert a.scaling_enabled
        assert a.scale_evaluations > 0
        assert a.scale_outs > 0 and a.scale_ins > 0
        assert a.invariant_violations == []

    def test_disabled_scaling_is_bit_identical_to_none(self, tiny_cloud):
        from repro.scaling import ScalingConfig

        baseline = self.scaled_run(tiny_cloud, None)
        disabled = self.scaled_run(
            tiny_cloud, ScalingConfig(enabled=False)
        )
        assert disabled.fingerprint == baseline.fingerprint
        assert not disabled.scaling_enabled
        assert disabled.scale_evaluations == 0


class TestLinkFaultsScalingDefrag:
    @pytest.mark.parametrize("seed", [9, 12])
    def test_run_survives_failed_move(self, seed):
        """A planner move that does not fit while an uplink on the
        node's old path is down: undoing it by re-reserving the old
        flows raised and killed the run (two of the crashing seeds of
        ``benchmarks/ledger/probes/chaos_link_scaling.py``)."""
        from repro.scaling import ScalingConfig

        cloud = build_datacenter(num_racks=2)
        plan = make_fault_plan(
            cloud, seed=seed, hosts=4, links=1, steps=12,
            recover_after_steps=2, api_transient_rate=0.05,
        )
        report = run_chaos(
            plan,
            cloud=cloud,
            apps=12,
            app_vms=10,
            algorithm="eg",
            defrag=DefragConfig(algorithm="eg", max_moves_per_pass=16),
            scaling=ScalingConfig(
                policy="threshold", tier_prefix="tier1", scale_out_at=0.70,
                scale_in_at=0.35, step_fraction=0.34, cooldown_s=3600.0,
                seed=seed, consolidate=True,
            ),
        )
        assert report.invariant_violations == []


class TestChaosCLI:
    def test_experiment_chaos_exits_clean(self, capsys):
        rc = cli_main(
            [
                "experiment",
                "chaos",
                "--dc",
                "dc:2",
                "--apps",
                "3",
                "--app-vms",
                "6",
                "--algorithm",
                "eg",
                "--faults",
                "hosts=2,links=1,api=0.1,recover=2",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "availability" in out
        assert "fingerprint" in out

    def test_defrag_flag_reports_defrag_summary(self, capsys):
        rc = cli_main(
            [
                "experiment",
                "chaos",
                "--dc",
                "dc:2",
                "--apps",
                "6",
                "--app-vms",
                "10",
                "--algorithm",
                "eg",
                "--defrag",
                "--defrag-moves",
                "16",
                "--faults",
                "hosts=3,recover=2",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "defrag" in out

    def test_bad_fault_spec_is_a_clean_error(self, capsys):
        rc = cli_main(
            ["experiment", "chaos", "--faults", "meteors=7", "--dc", "dc:2"]
        )
        assert rc == 1
        assert "fault spec" in capsys.readouterr().err
