"""Recorder facade: null no-ops, enable/disable/use, end-to-end capture."""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.scheduler import Ostro


class TestNullRecorder:
    def test_default_recorder_is_the_shared_null(self):
        assert obs.get_recorder() is obs.NULL
        assert not obs.is_enabled()
        assert not obs.get_recorder().enabled

    def test_every_operation_is_a_noop(self):
        rec = obs.NULL
        rec.inc("ostro_placements_total", algorithm="eg")
        rec.set_gauge("ostro_open_list_size", 3)
        rec.observe("ostro_estimate_seconds", 0.001)
        rec.event("remove", app="a")
        with rec.span("anything", app="a") as span:
            assert span is None


class TestSwitching:
    def test_enable_installs_and_disable_restores(self):
        rec = obs.enable()
        try:
            assert obs.get_recorder() is rec
            assert obs.is_enabled()
        finally:
            obs.disable()
        assert obs.get_recorder() is obs.NULL
        assert not obs.is_enabled()

    def test_use_restores_previous_recorder(self):
        outer = obs.enable()
        try:
            inner = obs.TelemetryRecorder()
            with obs.use(inner) as active:
                assert active is inner
                assert obs.get_recorder() is inner
            assert obs.get_recorder() is outer
        finally:
            obs.disable()

    def test_use_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with obs.use(obs.TelemetryRecorder()):
                raise RuntimeError
        assert obs.get_recorder() is obs.NULL


class TestMetricRouting:
    def test_catalog_metrics_get_help_and_labels(self):
        rec = obs.TelemetryRecorder()
        rec.inc("ostro_placements_total", algorithm="eg")
        metric = rec.registry.get("ostro_placements_total")
        assert metric.kind == "counter"
        assert metric.labelnames == ("algorithm",)
        assert metric.help  # from METRIC_CATALOG

    def test_kind_mismatch_against_catalog_raises(self):
        rec = obs.TelemetryRecorder()
        with pytest.raises(obs.TelemetryError):
            rec.observe("ostro_placements_total", 1.0, algorithm="eg")

    def test_uncataloged_metric_created_from_first_use(self):
        rec = obs.TelemetryRecorder()
        rec.inc("ostro_adhoc_total", kind="x")
        assert rec.registry.get("ostro_adhoc_total").value(kind="x") == 1.0

    def test_span_close_feeds_histogram_and_events(self):
        rec = obs.TelemetryRecorder()
        with rec.span("eg.place", app="shop"):
            pass
        assert rec.registry.get("ostro_span_seconds").count(span="eg.place") == 1
        (event,) = rec.events.of_type("span")
        assert event.fields["name"] == "eg.place"
        assert event.fields["app"] == "shop"


class TestEndToEnd:
    def test_enabled_eg_run_records_everything(self, small_dc, three_tier):
        rec = obs.TelemetryRecorder()
        with obs.use(rec):
            Ostro(small_dc).place(three_tier, algorithm="eg", commit=False)

        assert rec.events.count("placement_started") == 1
        assert rec.events.count("placement_finished") == 1
        assert rec.events.count("node_placed") >= three_tier.size()
        assert rec.events.count("estimate_computed") >= 1

        registry = rec.registry
        assert registry.get("ostro_placements_total").value(algorithm="eg") == 1
        assert registry.get("ostro_candidates_scored_total").value() >= 1
        assert registry.get("ostro_estimate_seconds").count() >= 1
        assert registry.get("ostro_placement_seconds").count(algorithm="eg") == 1

        summary = rec.summary()
        assert "=== ostro telemetry summary ===" in summary
        assert "candidates scored" in summary
        assert "eg.place" in summary  # the trace tree survived

    def test_summary_reports_background_migrations(self):
        """Defrag moves run through the one plan executor, so they count
        under ostro_migration_* and reach the summary's migration line."""
        from repro.defrag import (
            DefragConfig,
            DefragExecutor,
            DefragPlanner,
            DefragStats,
            run_defrag_tick,
        )
        from tests.defrag.conftest import make_fragmented_ostro

        ostro = make_fragmented_ostro()
        cfg = DefragConfig(algorithm="eg", max_moves_per_pass=16)
        stats = DefragStats()
        rec = obs.TelemetryRecorder()
        with obs.use(rec):
            run_defrag_tick(
                ostro, DefragPlanner(cfg), DefragExecutor(ostro, cfg), stats
            )
        steps = stats.moves + stats.bounces
        assert steps > 0
        assert rec.events.count("migration_step") == steps
        assert (
            f"migration: {steps} steps, {stats.moved_gb:.0f} GB moved"
            in rec.summary()
        )

    def test_dba_star_run_records_search_events(self, small_dc, three_tier):
        rec = obs.TelemetryRecorder()
        with obs.use(rec):
            Ostro(small_dc).place(
                three_tier, algorithm="dba*", deadline_s=1.0, commit=False
            )
        assert rec.events.count("path_expanded") >= 1
        assert rec.registry.get("ostro_nodes_expanded_total").value() >= 1
        assert rec.registry.get("ostro_eg_bound_runs_total").value() >= 1

    def test_disabled_run_emits_nothing(self, small_dc, three_tier):
        rec = obs.enable()
        Ostro(small_dc).place(three_tier, algorithm="eg", commit=False)
        recorded = rec.events.count()
        assert recorded > 0
        obs.disable()
        # same placement again: the old recorder must stay frozen and the
        # null recorder must accumulate nothing anywhere
        Ostro(small_dc).place(three_tier, algorithm="eg", commit=False)
        assert rec.events.count() == recorded

    def test_failure_records_and_reraises(self, small_dc):
        from repro.core.topology import ApplicationTopology
        from repro.errors import PlacementError

        impossible = ApplicationTopology("huge")
        impossible.add_vm("big", vcpus=10_000, mem_gb=10_000)
        rec = obs.TelemetryRecorder()
        with obs.use(rec):
            with pytest.raises(PlacementError):
                Ostro(small_dc).place(impossible, algorithm="eg", commit=False)
        (event,) = rec.events.of_type("placement_failed")
        assert event.fields["error"]
        assert (
            rec.registry.get("ostro_placement_failures_total").value(
                algorithm="eg"
            )
            == 1
        )

    def test_sweep_accepts_a_recorder(self):
        from repro.sim.runner import sweep
        from repro.sim.scenarios import multitier_scenario

        rec = obs.TelemetryRecorder()
        rows = sweep(
            multitier_scenario(),
            algorithms=("egc",),
            sizes=(10,),
            recorder=rec,
        )
        assert rows
        assert rec.events.count("placement_finished") >= 1
        assert obs.get_recorder() is obs.NULL  # restored afterwards

    def test_clear_resets_all_three_surfaces(self):
        rec = obs.TelemetryRecorder()
        rec.inc("ostro_commits_total")
        rec.event("remove", app="a")
        with rec.span("x"):
            pass
        rec.clear()
        assert len(rec.registry) == 0
        assert rec.events.count() == 0
        assert rec.tracer.roots == []
