"""Engine edge cases: decorated/async defs, walrus, match, suppressions."""

from __future__ import annotations

import sys
import textwrap

import pytest

from repro.lint import lint_source


def lint_core(body: str):
    return lint_source(
        textwrap.dedent(body),
        path="src/repro/core/fx.py",
        module="repro.core.fx",
    )


class TestDecoratedAndAsyncDefs:
    def test_violation_inside_decorated_def_is_found(self):
        diags = lint_core(
            """
            import random


            @staticmethod
            def pick():
                return random.random()
            """
        )
        assert [d.code for d in diags] == ["OST001"]

    def test_suppression_inside_decorated_def(self):
        diags = lint_core(
            """
            import random


            @staticmethod
            def pick():
                return random.random()  # ostrolint: disable=OST001
            """
        )
        assert diags == []

    def test_violation_inside_async_def_is_found(self):
        diags = lint_core(
            """
            import random


            async def pick():
                return random.random()
            """
        )
        assert [d.code for d in diags] == ["OST001"]

    def test_suppression_inside_async_def(self):
        diags = lint_core(
            """
            import random


            async def pick():
                return random.random()  # ostrolint: disable=OST001
            """
        )
        assert diags == []


class TestWalrus:
    def test_violation_in_walrus_value_is_found(self):
        diags = lint_core(
            """
            import random


            def pick(threshold):
                if (x := random.random()) > threshold:
                    return x
                return threshold
            """
        )
        assert [d.code for d in diags] == ["OST001"]

    def test_walrus_suppression_applies_to_its_line(self):
        diags = lint_core(
            """
            import random


            def pick(threshold):
                if (x := random.random()) > threshold:  # ostrolint: disable=OST001
                    return x
                return threshold
            """
        )
        assert diags == []


@pytest.mark.skipif(
    sys.version_info < (3, 10), reason="match statements need 3.10+"
)
class TestMatch:
    def test_violation_in_match_arm_is_found(self):
        diags = lint_core(
            """
            import random


            def pick(kind):
                match kind:
                    case "jitter":
                        return random.random()
                    case _:
                        return 0.0
            """
        )
        assert [d.code for d in diags] == ["OST001"]

    def test_suppression_in_match_arm(self):
        diags = lint_core(
            """
            import random


            def pick(kind):
                match kind:
                    case "jitter":
                        return random.random()  # ostrolint: disable=OST001
                    case _:
                        return 0.0
            """
        )
        assert diags == []

    def test_restore_in_match_arm_is_found(self):
        diags = lint_source(
            textwrap.dedent(
                """
                def undo(state, snap, kind):
                    match kind:
                        case "full":
                            state.restore(snap)
                        case _:
                            pass
                """
            ),
            path="src/repro/service/fx.py",
            module="repro.service.fx",
        )
        assert [d.code for d in diags] == ["OST009"]


class TestSuppressionParsing:
    def test_bare_disable_silences_all_codes(self):
        diags = lint_core(
            """
            import random


            def pick():
                return random.random()  # ostrolint: disable
            """
        )
        assert diags == []

    def test_wrong_code_does_not_suppress(self):
        diags = lint_core(
            """
            import random


            def pick():
                return random.random()  # ostrolint: disable=OST006
            """
        )
        assert [d.code for d in diags] == ["OST001"]
