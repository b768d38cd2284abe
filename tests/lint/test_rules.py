"""Per-rule fixture tests for ostrolint.

Each fixture under ``fixtures/`` declares its synthetic module path in a
header comment and marks every line a rule must fire on with
``# expect: OST0xx``. The harness lints the fixture through
:func:`repro.lint.lint_source` and asserts the *exact* set of
``(line, code)`` findings -- so a fixture documents both the true
positives and, implicitly, every construct the rule must stay quiet on.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import List, Optional, Tuple

from repro.lint import lint_source

FIXTURES = Path(__file__).parent / "fixtures"

_MODULE_RE = re.compile(r"#\s*ostrolint-fixture module:\s*(\S+)")
_EXPECT_RE = re.compile(r"#\s*expect:\s*([A-Z0-9]+)")


def load_fixture(name: str) -> Tuple[str, Optional[str], List[Tuple[int, str]]]:
    """Read a fixture: (source, declared module, expected (line, code))."""
    source = (FIXTURES / name).read_text(encoding="utf-8")
    module = None
    expected = []
    for lineno, line in enumerate(source.splitlines(), 1):
        match = _MODULE_RE.search(line)
        if match is not None:
            module = match.group(1)
        for code in _EXPECT_RE.findall(line):
            expected.append((lineno, code))
    return source, module, sorted(expected)


def check_fixture(name: str) -> None:
    source, module, expected = load_fixture(name)
    diagnostics = lint_source(source, path=name, module=module)
    found = sorted((d.line, d.code) for d in diagnostics)
    assert found == expected, (
        f"{name}: expected findings {expected}, got "
        f"{[(d.line, d.code, d.message) for d in diagnostics]}"
    )


class TestOST001UnseededRandom:
    def test_fires_on_global_rng_and_import(self):
        check_fixture("ost001_unseeded_random.py")

    def test_out_of_scope_module_is_clean(self):
        source, _, _ = load_fixture("ost001_unseeded_random.py")
        assert lint_source(source, module="repro.sim.runner") == []

    def test_message_names_the_offender(self):
        source, module, _ = load_fixture("ost001_unseeded_random.py")
        diags = lint_source(source, module=module)
        assert any("random.random()" in d.message for d in diags)
        assert all(d.rule == "unseeded-random" for d in diags)


class TestOST002WallClock:
    def test_fires_outside_allowlist(self):
        check_fixture("ost002_wall_clock.py")

    def test_allowlisted_qualname_and_nested_scope(self):
        # BAStar._run (and scopes nested in it) may read the clock in
        # repro.core.astar; BAStar._helper may not.
        check_fixture("ost002_allowlist.py")

    def test_allowlist_is_per_module(self):
        # the same BAStar._run source outside repro.core.astar fires
        source, _, _ = load_fixture("ost002_allowlist.py")
        diags = lint_source(source, module="repro.core.fixture_other")
        assert len(diags) == 3
        assert {d.code for d in diags} == {"OST002"}


class TestOST003CacheInvalidation:
    def test_mutator_without_hook_call_fires(self):
        check_fixture("ost003_cache_invalidation.py")

    def test_diagnostic_names_class_method_and_attr(self):
        source, module, _ = load_fixture("ost003_cache_invalidation.py")
        (diag,) = lint_source(source, module=module)
        assert "Topology.add_name" in diag.message
        assert "self._names" in diag.message
        assert "_invalidate_caches" in diag.message


class TestOST004ParameterMutation:
    def test_mutations_of_tracked_params_fire(self):
        check_fixture("ost004_parameter_mutation.py")

    def test_only_scoring_pipeline_modules_are_scoped(self):
        source, _, _ = load_fixture("ost004_parameter_mutation.py")
        assert lint_source(source, module="repro.core.scheduler") == []


class TestOST005ResourceWrite:
    def test_writes_outside_owners_fire(self):
        check_fixture("ost005_resource_write.py")

    def test_the_message_says_what_a_rebinding_breaks(self):
        source, module, _ = load_fixture("ost005_resource_write.py")
        diags = lint_source(source, module=module)
        assert len(diags) == 3  # slot write, in-place call, rebinding
        assert all("detaches the array views" in d.message for d in diags)

    def test_owner_modules_may_write(self):
        from repro.lint.rules.confinement import RESOURCE_WRITER_MODULES

        assert RESOURCE_WRITER_MODULES == {"repro.datacenter.state"}
        source, _, _ = load_fixture("ost005_resource_write.py")
        assert lint_source(source, module="repro.datacenter.state") == []

    def test_the_placement_applier_is_not_an_owner(self):
        source, _, _ = load_fixture("ost005_resource_write.py")
        assert lint_source(source, module="repro.core.placement") != []

    def test_the_resource_dataclasses_are_not_an_owner(self):
        source, _, _ = load_fixture("ost005_resource_write.py")
        assert lint_source(source, module="repro.datacenter.resources") != []


class TestOST006NoPrint:
    def test_print_in_library_code_fires(self):
        check_fixture("ost006_print.py")

    def test_cli_and_reporting_are_exempt(self):
        source, _, _ = load_fixture("ost006_print.py")
        assert lint_source(source, module="repro.cli") == []
        assert lint_source(source, module="repro.sim.reporting") == []

    def test_files_outside_repro_are_out_of_scope(self):
        source, _, _ = load_fixture("ost006_print.py")
        assert lint_source(source, module=None, path="examples/x.py") == []


class TestOST007UnitSuffix:
    def test_quantity_names_without_suffix_fire(self):
        check_fixture("ost007_units.py")

    def test_messages_point_at_units_conventions(self):
        source, module, _ = load_fixture("ost007_units.py")
        diags = lint_source(source, module=module)
        assert all("unit" in d.message for d in diags)
        assert {d.rule for d in diags} == {"unit-suffix"}


class TestOST008SilentExcept:
    def test_swallowing_handlers_fire(self):
        check_fixture("ost008_silent_except.py")

    def test_out_of_scope_module_is_clean(self):
        source, _, _ = load_fixture("ost008_silent_except.py")
        assert lint_source(source, module=None, path="examples/x.py") == []

    def test_rule_identity(self):
        source, module, _ = load_fixture("ost008_silent_except.py")
        diags = lint_source(source, module=module)
        assert {d.rule for d in diags} == {"no-silent-except"}


class TestSuppressions:
    def test_inline_disable_silences_exact_codes_only(self):
        check_fixture("suppressed.py")

    def test_directive_in_string_literal_does_not_suppress(self):
        source = (
            "import random\n"
            's = "# ostrolint: disable=OST001"\n'
            "x = random.random()\n"
        )
        diags = lint_source(source, module="repro.core.fixture_str")
        assert [(d.line, d.code) for d in diags] == [(3, "OST001")]
