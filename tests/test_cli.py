"""Tests for the command-line interface."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.heat.template import template_from_topology
from tests.conftest import make_three_tier


@pytest.fixture
def template_file(tmp_path):
    template = template_from_topology(make_three_tier())
    path = tmp_path / "stack.json"
    path.write_text(json.dumps(template))
    return str(path)


class TestPlace:
    def test_place_outputs_annotated_template(self, template_file, capsys):
        rc = main(
            [
                "place",
                "--template",
                template_file,
                "--dc",
                "dc:4",
                "--algorithm",
                "eg",
            ]
        )
        assert rc == 0
        out, err = capsys.readouterr()
        annotated = json.loads(out)
        assert any(
            "scheduler_hints" in r.get("properties", {})
            for r in annotated["resources"].values()
        )
        assert "reserved bandwidth" in err

    def test_bad_dc_spec(self, template_file, capsys):
        rc = main(["place", "--template", template_file, "--dc", "moon"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_placement_failure_exits_2_with_diagnostic(self, tmp_path, capsys):
        from repro.core.topology import ApplicationTopology

        impossible = ApplicationTopology("huge")
        impossible.add_vm("big", vcpus=10_000, mem_gb=10_000)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(template_from_topology(impossible)))
        rc = main(["place", "--template", str(path), "--dc", "dc:4"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "placement failed" in err
        assert "Traceback" not in err


class TestVersion:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out

    def test_version_single_source(self):
        """pyproject must defer to repro.__version__ (no drift)."""
        from pathlib import Path

        pyproject = (
            Path(__file__).parent.parent / "pyproject.toml"
        ).read_text()
        assert 'dynamic = ["version"]' in pyproject
        assert "repro.__version__" in pyproject
        assert "\nversion = \"" not in pyproject.split("[tool.setuptools.dynamic]")[0]


class TestTelemetryFlags:
    def test_place_writes_trace_and_metrics(
        self, template_file, tmp_path, capsys
    ):
        from repro import obs

        trace_out = tmp_path / "trace.jsonl"
        metrics_out = tmp_path / "metrics.txt"
        rc = main(
            [
                "place",
                "--template",
                template_file,
                "--dc",
                "dc:4",
                "--algorithm",
                "dba*",
                "--deadline",
                "1.0",
                "--trace-out",
                str(trace_out),
                "--metrics-out",
                str(metrics_out),
            ]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "ostro telemetry summary" in err

        # every line validates against the schema; the search left a trail
        events = obs.EventLog.read_jsonl(
            trace_out.read_text().splitlines()
        )
        types = {e["type"] for e in events}
        assert "estimate_computed" in types
        assert "placement_finished" in types

        metrics = metrics_out.read_text()
        assert "ostro_nodes_expanded_total" in metrics
        assert "ostro_estimate_seconds_bucket" in metrics
        assert 'ostro_placements_total{algorithm="dba*"} 1' in metrics

        # the CLI must restore the no-op recorder afterwards
        assert not obs.is_enabled()

    def test_no_flags_means_no_telemetry(self, template_file, capsys):
        from repro import obs

        rc = main(
            ["place", "--template", template_file, "--dc", "dc:4"]
        )
        assert rc == 0
        assert "telemetry summary" not in capsys.readouterr().err
        assert not obs.is_enabled()

    def test_unwritable_trace_path_is_a_clean_error(
        self, template_file, tmp_path, capsys
    ):
        rc = main(
            [
                "place",
                "--template",
                template_file,
                "--dc",
                "dc:4",
                "--trace-out",
                str(tmp_path / "no" / "such" / "dir" / "t.jsonl"),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "cannot write telemetry" in err
        assert "Traceback" not in err

    def test_sweep_accepts_metrics_out(self, tmp_path, capsys):
        metrics_out = tmp_path / "metrics.txt"
        rc = main(
            [
                "sweep",
                "fig7",
                "--sizes",
                "25",
                "--algorithms",
                "egc",
                "--metrics-out",
                str(metrics_out),
            ]
        )
        assert rc == 0
        assert "ostro_placements_total" in metrics_out.read_text()


class TestExperiments:
    def test_table2(self, capsys):
        rc = main(["experiment", "table2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "EGC" in out and "DBA*" in out
        assert "Bandwidth (Mbps)" in out

    def test_online(self, capsys):
        rc = main(["experiment", "online", "--size", "25"])
        assert rc == 0
        assert "online adaptation" in capsys.readouterr().out


class TestSweep:
    def test_fig7_small(self, capsys):
        rc = main(
            [
                "sweep",
                "fig7",
                "--sizes",
                "25",
                "--algorithms",
                "egc",
                "eg",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "fig7" in out
        assert "EGC" in out


class TestUtil:
    def test_pristine(self, capsys):
        rc = main(["util", "--dc", "dc:2", "--load", "none"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hosts: 0/32 active" in out

    def test_table_iv_load(self, capsys):
        rc = main(["util", "--dc", "dc:2", "--load", "tableiv"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hosts: 24/32 active" in out


class TestSweepChart:
    def test_chart_flag(self, capsys):
        rc = main(
            [
                "sweep",
                "fig7",
                "--sizes",
                "25",
                "--algorithms",
                "egc",
                "--chart",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "o=EGC" in out


class TestReplay:
    def test_replay_prints_comparison(self, capsys):
        rc = main(
            [
                "replay",
                "--dc",
                "dc:2",
                "--arrivals",
                "5",
                "--algorithms",
                "egc",
                "eg",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "replaying 5 tenants" in out
        assert "egc" in out and "eg" in out


class TestTradeoff:
    def test_tradeoff_runs(self, capsys):
        rc = main(
            ["tradeoff", "--size", "25", "--deadlines", "0.2", "0.4"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Fig 6" in out
        assert out.count("\n") >= 4


class TestBench:
    """`repro bench [NAME ...] [--check | --update]` over the bench table."""

    @pytest.fixture
    def fake_table(self, monkeypatch, tmp_path):
        """A two-row table whose runs record the kernel they ran under."""
        from repro import bench
        from repro.core import kernel

        seen = []

        def run(seed=0):
            seen.append(kernel.get_kernel())
            return {"scenario": "fake", "ok": True, "wall_s": 0.1}

        def run_repeated(seed=0, repeats=3):
            return {**run(seed), "repeats": repeats}

        def gates(payload):
            return [] if payload["ok"] else ["ok is false"]

        table = {
            name: bench.Bench(name, fn, gates, lambda p: "fake row", ("wall_s",))
            for name, fn in (("plain", run), ("timed", run_repeated))
        }
        monkeypatch.setattr(bench, "BENCHES", table)
        monkeypatch.setattr(bench, "BASELINE_DIR", str(tmp_path / "committed"))
        return seen

    def usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", *argv])
        assert exc.value.code == 2
        return capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag",
        ["--service", "--defrag", "--elastic", "--parallel-sweep", "--workers"],
    )
    def test_mode_flags_are_gone(self, flag, capsys):
        assert "unrecognized arguments" in self.usage_error([flag], capsys)

    def test_unknown_name_lists_the_valid_ones(self, capsys):
        err = self.usage_error(["defrag", "nosuch"], capsys)
        assert "unknown bench nosuch" in err
        for name in ("multitier", "mesh", "qfs", "parallel_sweep", "service",
                     "defrag", "elastic", "lint_cache"):
            assert name in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["elastic", "--repeats", "9"],
            ["service", "--gap"],
            ["qfs", "defrag", "--gap-time-limit", "5"],
            ["--repeats", "1"],  # no names = all eight
        ],
    )
    def test_flag_that_does_not_apply_is_an_error_not_ignored(
        self, argv, capsys
    ):
        assert "does not apply to bench" in self.usage_error(argv, capsys)

    def test_check_and_update_exclude_each_other(self, capsys):
        err = self.usage_error(["defrag", "--check", "--update"], capsys)
        assert "not allowed with" in err

    def test_gap_payloads_cannot_become_or_face_a_baseline(self, capsys):
        for mode in ("--check", "--update"):
            err = self.usage_error(["mesh", "--gap", mode], capsys)
            assert "--gap payloads are not baselines" in err

    def test_kernel_wraps_every_entry(self, fake_table, tmp_path, capsys):
        rc = main(
            ["bench", "--kernel", "python", "--out-dir", str(tmp_path / "out")]
        )
        assert rc == 0
        assert fake_table == ["python", "python"]
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "BENCH_plain.json",
            "BENCH_timed.json",
        ]

    def test_applicable_flag_reaches_the_run(self, fake_table, tmp_path):
        out = tmp_path / "out"
        rc = main(["bench", "timed", "--repeats", "7", "--out-dir", str(out)])
        assert rc == 0
        assert json.loads((out / "BENCH_timed.json").read_text())["repeats"] == 7

    def test_update_writes_the_baseline_and_check_reads_it(
        self, fake_table, tmp_path, capsys
    ):
        committed = tmp_path / "committed" / "BENCH_plain.json"
        assert main(["bench", "plain", "--check"]) == 1
        assert "plain: missing" in capsys.readouterr().err
        assert main(["bench", "plain", "--update"]) == 0
        assert committed.exists()
        assert main(["bench", "plain", "--check"]) == 0
        doctored = json.loads(committed.read_text())
        doctored["ok"] = "edited"
        doctored["wall_s"] = 99.0  # volatile: free to differ
        committed.write_text(json.dumps(doctored))
        assert main(["bench", "plain", "--check"]) == 1
        err = capsys.readouterr().err
        assert "FAIL: plain/ok: committed 'edited', this run True" in err
        assert "wall_s" not in err

    def test_update_refuses_a_payload_that_fails_its_gates(
        self, fake_table, tmp_path, monkeypatch, capsys
    ):
        from repro import bench

        broken = dataclasses.replace(
            bench.BENCHES["plain"], run=lambda: {"scenario": "fake", "ok": False}
        )
        monkeypatch.setitem(bench.BENCHES, "plain", broken)
        assert main(["bench", "plain", "--update"]) == 1
        assert "FAIL: plain: ok is false" in capsys.readouterr().err
        assert not (tmp_path / "committed").exists()

    def test_check_leaves_the_committed_baselines_untouched(
        self, tmp_path, capsys
    ):
        """The real table end to end: defrag is deterministic in every
        non-volatile field, so --check must pass against the committed
        file -- and write only under --out-dir."""
        import hashlib

        from repro import bench

        def digest():
            return {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in Path(bench.BASELINE_DIR).iterdir()
            }

        before = digest()
        out = tmp_path / "out"
        rc = main(["bench", "defrag", "--check", "--out-dir", str(out)])
        assert rc == 0, capsys.readouterr().err
        assert digest() == before
        assert [p.name for p in out.iterdir()] == ["BENCH_defrag.json"]
