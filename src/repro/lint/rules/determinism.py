"""Determinism rules: OST001 unseeded RNG, OST002 wall-clock reads.

Every placement run must be reproducible from an explicit seed: the
paper's figure comparisons, the replay harness, and the
``repro bench --check`` fingerprint gate all diff placements across runs. A module-level
``random.*`` call draws from interpreter-global state and silently breaks
that; wall-clock reads make search decisions depend on machine speed.
The only legitimate clock sites are the explicitly allowlisted timing
probes (elapsed-time bookkeeping and the DBA* deadline logic, which the
paper defines in terms of wall time).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Iterator, Tuple

from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import Rule, register
from repro.lint.astutils import walk_scoped

if TYPE_CHECKING:  # pragma: no cover
    from repro.lint.engine import FileContext

#: Packages whose behaviour must be reproducible from a seed.
DETERMINISTIC_PACKAGES: Tuple[str, ...] = ("repro.core", "repro.datacenter")

#: ``random`` attributes that are fine: RNG constructors take an explicit
#: seed, so they do not touch interpreter-global state.
SEEDED_RANDOM_FACTORIES = frozenset({"Random", "SystemRandom"})

#: ``time`` module functions that read a clock.
CLOCK_FUNCTIONS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "clock_gettime",
        "clock_gettime_ns",
    }
)

#: ``datetime``/``date`` constructors that read a clock.
DATETIME_CLOCK_METHODS = frozenset({"now", "utcnow", "today"})

#: The documented timing sites: module -> qualnames allowed to read the
#: clock (nested scopes inside an allowed qualname are allowed too).
#: Kept deliberately small; additions belong in docs/STATIC_ANALYSIS.md.
TIMING_ALLOWLIST: Dict[str, FrozenSet[str]] = {
    "repro.core.base": frozenset({"PlacementAlgorithm.place"}),
    "repro.core.greedy": frozenset({"run_greedy_from.ranked_candidates"}),
    "repro.core.astar": frozenset({"BAStar._run"}),
    "repro.core.deadline": frozenset(
        {
            "DBAStar._before_search",
            "DBAStar._out_of_time",
            "DBAStar._allow_bound_rerun",
            "DBAStar._after_expansion",
        }
    ),
}


def _is_allowed_timing_site(module: str, qualname: str) -> bool:
    allowed = TIMING_ALLOWLIST.get(module)
    if not allowed:
        return False
    return any(
        qualname == entry or qualname.startswith(entry + ".")
        for entry in allowed
    )


@register
class UnseededRandomRule(Rule):
    """OST001: no module-level ``random.*`` calls in deterministic code."""

    code = "OST001"
    name = "unseeded-random"
    summary = (
        "repro.core/repro.datacenter must draw randomness from an "
        "explicitly seeded random.Random, never module-level random.*"
    )

    def check(self, ctx: "FileContext") -> Iterator[Diagnostic]:
        if not ctx.in_package(*DETERMINISTIC_PACKAGES):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "random"
                    and func.attr not in SEEDED_RANDOM_FACTORIES
                ):
                    yield self.diagnostic(
                        ctx,
                        node.lineno,
                        node.col_offset + 1,
                        f"call to module-level random.{func.attr}() draws "
                        "from global RNG state; use an explicitly seeded "
                        "random.Random instance",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name not in SEEDED_RANDOM_FACTORIES:
                        yield self.diagnostic(
                            ctx,
                            node.lineno,
                            node.col_offset + 1,
                            f"importing random.{alias.name} invites unseeded "
                            "global-RNG use; import random.Random and seed "
                            "it explicitly",
                        )


@register
class WallClockRule(Rule):
    """OST002: no clock reads outside the documented timing allowlist."""

    code = "OST002"
    name = "wall-clock"
    summary = (
        "repro.core/repro.datacenter may only read clocks at the "
        "documented timing sites (base/greedy/astar/deadline allowlist)"
    )

    def check(self, ctx: "FileContext") -> Iterable[Diagnostic]:
        if not ctx.in_package(*DETERMINISTIC_PACKAGES):
            return
        module = ctx.module or ""
        for node, scope in walk_scoped(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            clock = self._clock_call(node)
            if clock is None:
                continue
            if _is_allowed_timing_site(module, ".".join(scope)):
                continue
            yield self.diagnostic(
                ctx,
                node.lineno,
                node.col_offset + 1,
                f"wall-clock read {clock}() outside the timing allowlist "
                "makes search behaviour machine-dependent; thread elapsed "
                "time in as a parameter or extend the documented allowlist",
            )

    @staticmethod
    def _clock_call(node: ast.Call) -> "str | None":
        func = node.func
        if not isinstance(func, ast.Attribute):
            return None
        if (
            isinstance(func.value, ast.Name)
            and func.value.id == "time"
            and func.attr in CLOCK_FUNCTIONS
        ):
            return f"time.{func.attr}"
        if func.attr in DATETIME_CLOCK_METHODS:
            base = func.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in {
                "datetime",
                "date",
            }:
                return f"{base.id}.{func.attr}"
        return None
