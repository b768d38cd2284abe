"""Transaction-discipline rule: OST009.

Rollback has one mechanism, :meth:`repro.datacenter.state.
DataCenterState.transaction`, which restores on *every* exception by
construction. What is left to enforce is that no second one grows
beside it: only the state itself and two callers that load a snapshot
for a reason other than undoing an exception may call ``.restore(...)``.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.lint.astutils import walk_scoped
from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import Rule, register

if TYPE_CHECKING:  # pragma: no cover
    from repro.lint.engine import FileContext

STATE_MODULE = "repro.datacenter.state"  # owns restore(); exempt

#: (module, qualname) of the other allowed callers: the coordinator's
#: batch rollback and the shards' masked-view load.
RESTORE_CALLERS = {
    ("repro.service.coordinator", "ShardedCoordinator.rollback_to"),
    ("repro.service.shard", "PodShard.sync"),
}


@register
class TransactionDisciplineRule(Rule):
    """OST009: snapshot restores are confined to the transaction primitive."""

    code = "OST009"
    name = "restore-confinement"
    summary = (
        "restore() is called only in datacenter/state.py, ShardedCoordinator"
        ".rollback_to and PodShard.sync; elsewhere use state.transaction()"
    )

    def check(self, ctx: "FileContext") -> Iterator[Diagnostic]:
        if not ctx.in_package("repro") or ctx.module == STATE_MODULE:
            return
        for node, scope in walk_scoped(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "restore"
                and (ctx.module, ".".join(scope)) not in RESTORE_CALLERS
            ):
                yield self.diagnostic(
                    ctx,
                    node.lineno,
                    node.col_offset + 1,
                    "restore() called outside the transaction primitive; "
                    "wrap the mutation in `with state.transaction():`",
                )
