"""Mutation-confinement rules: OST004 and OST005.

The scoring pipeline (candidate enumeration, constraint checks, the
lower-bound estimator) must be observationally pure with respect to the
model objects it is handed: BA*/DBA* score thousands of candidates per
expansion against shared ``Cloud``/``ApplicationTopology``/placement
state, and PR 2's scratch-path scoring relies on every mutation going
through ``PartialPlacement`` so it can be undone bit-exactly (LIFO
saved-slot restore). A stray write from ``heuristic.py`` corrupts state
for every subsequent candidate.

Similarly, the paper's reserved-bandwidth accounting (u_bw) is only
trustworthy if the host free-resource arrays are written from exactly
one place. OST005 pins those writes to the store itself
(``datacenter/state.py``); the placement applier (``core/placement.py``)
goes through its methods like everyone else. The one writer owns the
buffers the array views (``kernel.StateView``) alias: it writes them in
place, while rebinding a column (assigning a new object to
``state.free_cpu``) from anywhere else would silently detach every view.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, FrozenSet, Iterator, List, Set

from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import Rule, register
from repro.lint.astutils import (
    MUTATOR_METHODS,
    all_arguments,
    annotation_names,
    assignment_targets,
    root_name,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.lint.engine import FileContext

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Modules whose functions must treat model parameters as read-only.
READ_ONLY_MODULES = frozenset(
    {
        "repro.core.candidates",
        "repro.core.constraints",
        "repro.core.heuristic",
    }
)

#: Conventional parameter names for shared model objects.
TRACKED_PARAM_NAMES = frozenset(
    {"partial", "topology", "cloud", "state", "placement"}
)

#: Annotation type names that mark a parameter as a shared model object.
TRACKED_TYPE_NAMES = frozenset(
    {
        "PartialPlacement",
        "ApplicationTopology",
        "Cloud",
        "DataCenter",
        "DataCenterState",
        "Placement",
    }
)

#: Host free-resource arrays owned by DataCenterState.
RESOURCE_FIELDS = frozenset(
    {"free_cpu", "free_mem", "free_disk", "free_bw", "host_units"}
)

#: The only module allowed to write (or rebind) the resource arrays.
RESOURCE_WRITER_MODULES = frozenset({"repro.datacenter.state"})


def _tracked_params(func: ast.AST) -> Set[str]:
    tracked: Set[str] = set()
    for arg in all_arguments(func):
        if arg.arg in ("self", "cls"):
            continue
        if arg.arg in TRACKED_PARAM_NAMES:
            tracked.add(arg.arg)
        elif annotation_names(arg.annotation) & TRACKED_TYPE_NAMES:
            tracked.add(arg.arg)
    return tracked


def _outer_functions(tree: ast.AST) -> Iterator[ast.AST]:
    """Module-level functions and class methods (not nested defs)."""
    for node in tree.body:
        if isinstance(node, _FUNCTION_NODES):
            yield node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, _FUNCTION_NODES):
                    yield sub


@register
class ParameterMutationRule(Rule):
    """OST004: scoring-pipeline functions must not mutate model params."""

    code = "OST004"
    name = "parameter-mutation"
    summary = (
        "functions in candidates/constraints/heuristic must not mutate "
        "their Cloud/ApplicationTopology/placement parameters"
    )

    def check(self, ctx: "FileContext") -> Iterator[Diagnostic]:
        if ctx.module not in READ_ONLY_MODULES:
            return
        for func in _outer_functions(ctx.tree):
            yield from self._scan_function(ctx, func, frozenset())

    def _scan_function(
        self, ctx: "FileContext", func: ast.AST, inherited: FrozenSet[str]
    ) -> Iterator[Diagnostic]:
        tracked = frozenset(inherited | _tracked_params(func))
        yield from self._scan_body(ctx, func.body, tracked)

    def _scan_body(
        self, ctx: "FileContext", body: List[ast.stmt], tracked: FrozenSet[str]
    ) -> Iterator[Diagnostic]:
        for stmt in body:
            # closures inherit the enclosing tracked set
            if isinstance(stmt, _FUNCTION_NODES):
                yield from self._scan_function(ctx, stmt, tracked)
                continue
            for node in ast.walk(stmt):
                yield from self._check_node(ctx, node, tracked)

    def _check_node(
        self, ctx: "FileContext", node: ast.AST, tracked: FrozenSet[str]
    ) -> Iterator[Diagnostic]:
        for target in assignment_targets(node):
            # rebinding a local name is fine; writing *into* the object
            # (attribute or subscript store) is the mutation we forbid
            if not isinstance(target, (ast.Attribute, ast.Subscript)):
                continue
            name = root_name(target)
            if name in tracked:
                yield self.diagnostic(
                    ctx,
                    node.lineno,
                    node.col_offset + 1,
                    f"write into shared parameter '{name}' from the scoring "
                    "pipeline; copy it or route the change through "
                    "PartialPlacement",
                )
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATOR_METHODS
        ):
            name = root_name(node.func.value)
            if name in tracked:
                yield self.diagnostic(
                    ctx,
                    node.lineno,
                    node.col_offset + 1,
                    f"in-place call {name}...{node.func.attr}() mutates a "
                    "shared parameter from the scoring pipeline; copy it or "
                    "route the change through PartialPlacement",
                )


@register
class ResourceWriteRule(Rule):
    """OST005: host free-resource arrays only written by their owner."""

    code = "OST005"
    name = "resource-write"
    summary = (
        "host resource fields (free_cpu/free_mem/free_disk/free_bw/"
        "host_units) may only be written or rebound from "
        "datacenter/state.py"
    )

    def check(self, ctx: "FileContext") -> Iterator[Diagnostic]:
        if ctx.module is None or not ctx.in_package("repro"):
            return
        if ctx.module in RESOURCE_WRITER_MODULES:
            return
        for node in ast.walk(ctx.tree):
            for target in assignment_targets(node):
                if isinstance(target, ast.Subscript):
                    target = target.value
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr in RESOURCE_FIELDS
                ):
                    yield self._finding(ctx, node, target.attr)
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATOR_METHODS
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr in RESOURCE_FIELDS
            ):
                yield self._finding(ctx, node, node.func.value.attr)

    def _finding(
        self, ctx: "FileContext", node: ast.AST, field: str
    ) -> Diagnostic:
        return self.diagnostic(
            ctx,
            node.lineno,
            node.col_offset + 1,
            f"write to host resource field '{field}' outside its owner "
            "(datacenter/state.py) breaks reserved-bandwidth accounting; "
            "rebinding it detaches the array views",
        )
