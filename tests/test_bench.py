"""The bench table (`repro.bench.BENCHES`): gates, baseline check, wiring.

Tests run each entry's ``run`` with scaled-down arguments (the CLI never
does: it has one size per bench), so every acceptance predicate is
exercised on every test run, not only in CI's full-size ``bench`` job.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import bench

REPO = Path(__file__).resolve().parents[1]


def _small_case(name, size, expansions):
    return dataclasses.replace(
        bench.REFERENCE_CASES[name],
        size=size,
        algorithms=(
            ("eg", "eg", (), True),
            ("ba*", "ba*", (("max_expansions", expansions),), True),
            ("dba*", "dba*", (("deadline_s", 0.05), ("seed", 0)), False),
        ),
    )


#: scaled-down arguments for each entry's ``run``
SMALL = {
    "multitier": dict(repeats=1, case=_small_case("multitier", 10, 10)),
    "mesh": dict(repeats=1, case=_small_case("mesh", 10, 10)),
    "qfs": dict(repeats=1, case=_small_case("qfs", 4, 20)),
    "parallel_sweep": dict(workers=2, sizes=(10, 20), num_seeds=2),
    "service": dict(arrivals=80, hosts_per_rack=4, mean_interarrival_s=15.0),
    "defrag": dict(),  # 1.4 s at full size; the scenario is the point
    "elastic": dict(
        arrivals=150,
        mean_interarrival_s=60.0,
        mean_lifetime_s=3600.0,
        scale_every_s=600.0,
    ),
    "lint_cache": dict(paths=[str(REPO / "src" / "repro" / "obs")]),
}

def _with_gap(payload):
    """What ``--gap`` adds, without needing SciPy in the test matrix."""
    payload["lower_bound"] = {"score_lower_bound": 1.0}
    for entry in payload["algorithms"]:
        entry.update(score=1.1, optimality_gap=0.1)


def _first_algorithm(**fields):
    return lambda p: p["algorithms"][0].update(fields)


#: per bench: {field a gate reads: edit that must make the gates name it}
DOCTORED = {
    **{
        name: {
            "counted_placement_hash": _first_algorithm(
                counted_placement_hash="0" * 16
            ),
            "optimality_gap": _first_algorithm(optimality_gap=None),
            "score_lower_bound": lambda p: p["lower_bound"].update(
                score_lower_bound=0.0
            ),
        }
        for name in bench.REFERENCE_CASES
    },
    "parallel_sweep": {
        "rows_identical": lambda p: p.update(rows_identical=False),
    },
    "service": {
        "fingerprints_identical": lambda p: p.update(
            fingerprints_identical=False
        ),
        "audit_violations": lambda p: p.update(audit_violations=1),
        "batches.joint": lambda p: p["batches"].update(joint=0),
    },
    "defrag": {
        "leaks": lambda p: p.update(leaks=2),
        "disabled_fingerprint_identical": lambda p: p.update(
            disabled_fingerprint_identical=False
        ),
        "frag_recovered": lambda p: p.update(frag_recovered=0.0),
    },
    "elastic": {
        "leaks": lambda p: p.update(leaks=1),
        "disabled_fingerprint_identical": lambda p: p.update(
            disabled_fingerprint_identical=False
        ),
        "scaled_fingerprints_identical": lambda p: p.update(
            scaled_fingerprints_identical=False
        ),
        "scale_outs + scale_ins": lambda p: p.update(scale_outs=0, scale_ins=0),
    },
    "lint_cache": {
        "cold_s": lambda p: p.update(cold_s=bench.LINT_COLD_BUDGET_S + 1),
        "speedup": lambda p: p.update(speedup=1.0, warm_s=1.0),
        "reports_identical": lambda p: p.update(reports_identical=False),
    },
}

_PAYLOADS = {}


@pytest.fixture
def payload(request):
    """A private copy of the (cached) scaled-down payload of one bench."""
    name = request.param
    if name not in _PAYLOADS:
        _PAYLOADS[name] = bench.BENCHES[name].run(**SMALL[name])
        if name in bench.REFERENCE_CASES:
            _with_gap(_PAYLOADS[name])
    return name, copy.deepcopy(_PAYLOADS[name])


class _Reads(dict):
    """A payload that records which keys a ``gates`` function looks at."""

    def __init__(self, data, log):
        super().__init__(data)
        self.log = log

    def _wrap(self, value):
        if isinstance(value, dict):
            return _Reads(value, self.log)
        if isinstance(value, list):
            return [self._wrap(item) for item in value]
        return value

    def __getitem__(self, key):
        self.log.add(key)
        return self._wrap(super().__getitem__(key))

    def get(self, key, default=None):
        self.log.add(key)
        return self._wrap(super().get(key, default))


ALL = sorted(bench.BENCHES)


class TestGates:
    def test_doctored_table_covers_the_whole_bench_table(self):
        assert sorted(DOCTORED) == sorted(SMALL) == ALL

    @pytest.mark.parametrize("payload", ALL, indirect=True)
    def test_scaled_down_run_passes_its_gates(self, payload):
        name, data = payload
        entry = bench.BENCHES[name]
        assert entry.gates(data) == []
        assert data["scenario"] == name
        assert entry.summary(data)
        json.dumps(data)  # the payload is what lands in BENCH_<name>.json

    @pytest.mark.parametrize("payload", ALL, indirect=True)
    def test_every_field_a_gate_reads_can_fail_it(self, payload):
        name, data = payload
        gates = bench.BENCHES[name].gates
        for field, edit in DOCTORED[name].items():
            doctored = copy.deepcopy(data)
            edit(doctored)
            failures = gates(doctored)
            leaf = field.rpartition(".")[2]
            assert failures and any(leaf in f for f in failures), (
                f"{name}: doctoring {field} did not trip a gate naming it: "
                f"{failures}"
            )

    @pytest.mark.parametrize("payload", ALL, indirect=True)
    def test_no_gate_reads_a_field_without_a_doctored_case(self, payload):
        name, data = payload
        read = set()
        bench.BENCHES[name].gates(_Reads(data, read))
        # containers and row labels are not predicates ...
        read -= {"algorithms", "algorithm", "gated", "lower_bound", "batches"}
        # ... nor is the other side of a doctored comparison
        read -= {"placement_hash", "warm_s"}
        covered = set()
        for field in DOCTORED[name]:
            covered.update(re.findall(r"\w+", field))
        assert read == covered - {"batches"}

    def test_ungated_row_may_place_differently_under_telemetry(self):
        payload = {
            "algorithms": [
                {
                    "algorithm": "dba*",
                    "gated": False,
                    "placement_hash": "a",
                    "counted_placement_hash": "b",
                }
            ]
        }
        assert bench.BENCHES["multitier"].gates(payload) == []


@pytest.mark.parametrize("seed", [1, 2])
def test_defrag_and_elastic_gates_hold_on_other_seeds(seed):
    """CI runs seed 0 at full size; the gates must not depend on it."""
    assert bench.BENCHES["defrag"].gates(bench.defrag_benchmark(seed)) == []
    elastic = bench.elastic_benchmark(seed, **SMALL["elastic"])
    assert bench.BENCHES["elastic"].gates(elastic) == []


class TestCheck:
    """`--check` against a committed-file fixture in ``tmp_path``."""

    entry = bench.BENCHES["multitier"]

    @pytest.fixture
    def committed(self, tmp_path):
        payload = {
            "scenario": "multitier",
            "size": 40,
            "calibration_unit_s": 0.02,
            "algorithms": [
                {
                    "algorithm": "eg",
                    "gated": True,
                    "wall_s": 0.1,
                    "normalized_cost": 5.0,
                    "candidates_scored": 480,
                    "placement_hash": "c5d679c00c30bedb",
                    "registry_counters": {"ostro_estimates_total": 480.0},
                },
                {
                    "algorithm": "dba*",
                    "gated": False,
                    "wall_s": 1.1,
                    "normalized_cost": 50.0,
                    "candidates_scored": 4116,
                    "placement_hash": "a4031dbfeb90468d",
                },
            ],
        }
        bench.write_payload(payload, "multitier", str(tmp_path))
        return payload

    def check(self, payload, tmp_path):
        return bench.check(self.entry, payload, str(tmp_path))

    def test_identical_payload_passes(self, committed, tmp_path):
        assert self.check(committed, tmp_path) == []

    def test_edited_deterministic_field_fails_naming_bench_and_field(
        self, committed, tmp_path
    ):
        committed["algorithms"][0]["placement_hash"] = "0" * 16
        committed["algorithms"][0]["registry_counters"][
            "ostro_estimates_total"
        ] = 481.0
        failures = self.check(committed, tmp_path)
        assert len(failures) == 2
        assert failures[0].startswith("multitier/algorithms.eg.placement_hash:")
        assert failures[1].startswith(
            "multitier/algorithms.eg.registry_counters.ostro_estimates_total:"
        )

    def test_added_or_dropped_field_fails(self, committed, tmp_path):
        committed["new_field"] = 1
        del committed["size"]
        failures = self.check(committed, tmp_path)
        assert [f.split(":")[0] for f in failures] == [
            "multitier/new_field",
            "multitier/size",
        ]

    def test_volatile_fields_and_the_ungated_row_are_free(
        self, committed, tmp_path
    ):
        committed["calibration_unit_s"] = 0.5
        committed["algorithms"][0]["wall_s"] = 9.0
        committed["algorithms"][1].update(
            candidates_scored=1, placement_hash="x", normalized_cost=5000.0
        )
        assert self.check(committed, tmp_path) == []

    @pytest.mark.parametrize(
        "factor, passes", [(0.5, True), (1.24, True), (1.26, False)]
    )
    def test_normalized_cost_tolerance(
        self, committed, tmp_path, factor, passes
    ):
        committed["algorithms"][0]["normalized_cost"] = 5.0 * factor
        failures = self.check(committed, tmp_path)
        assert (failures == []) is passes
        if failures:
            assert failures[0].startswith(
                "multitier/algorithms.eg.normalized_cost:"
            )

    def test_bench_without_a_committed_file_is_missing(
        self, committed, tmp_path
    ):
        failures = bench.check(
            bench.BENCHES["service"], {"scenario": "service"}, str(tmp_path)
        )
        assert len(failures) == 1
        assert failures[0].startswith("service: missing ")

    def test_tuples_compare_equal_to_the_lists_json_stores(self, tmp_path):
        entry = bench.BENCHES["parallel_sweep"]
        bench.write_payload({"sizes": (10, 20)}, entry.name, str(tmp_path))
        assert bench.check(entry, {"sizes": (10, 20)}, str(tmp_path)) == []


class TestWiring:
    def test_table_names_match_ci_matrix_and_committed_files(self):
        workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        matrix = re.search(r"^\s+name: \[([^\]]+)\]$", workflow, re.M)
        assert matrix, "ci.yml has no bench matrix"
        ci_names = [n.strip() for n in matrix.group(1).split(",")]
        committed = sorted(
            p.name[len("BENCH_"):-len(".json")]
            for p in Path(bench.BASELINE_DIR).glob("BENCH_*.json")
        )
        assert sorted(ci_names) == ALL == committed
        assert "repro bench ${{ matrix.name }} --check" in workflow

    def test_benchmarks_perf_holds_only_baselines(self):
        assert [
            p.name
            for p in Path(bench.BASELINE_DIR).iterdir()
            if not re.fullmatch(r"BENCH_\w+\.json", p.name)
        ] == []

    def test_import_keeps_heavy_subsystems_lazy(self):
        """The perf ledger imports repro.bench for two helpers; what that
        import loads is part of its setup_s / peak_rss_mb."""
        lazy = [
            "repro.service",
            "repro.defrag",
            "repro.scaling",
            "repro.lint",
            "repro.core.oracle",
        ]
        code = (
            "import sys, repro.bench; "
            f"print([m for m in {lazy!r} if m in sys.modules])"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        assert out.stdout.strip() == "[]"
