"""Cross-module confinement rule: OST011.

OST005 pins *direct* writes of the host free-resource arrays to the
resource-owner module. That is trivially laundered: a helper in the
owner's module (or anywhere) performs the write, and a foreign module
calls the helper. OST011 lifts the single-writer rule to the call
graph: :meth:`repro.lint.project.ProjectContext.writers` computes the
least fixpoint of "writes the arrays directly or calls an unsanctioned
writer", where *sanctioned* means a public function of the resource-owner
module -- the supported mutation API. A cross-module call whose every
candidate resolves to an unsanctioned writer is the finding; direct
writes stay OST005's report so the two rules never double-fire.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import ProjectRule, register

if TYPE_CHECKING:  # pragma: no cover
    from repro.lint.project import ProjectContext


@register
class CrossModuleWriteRule(ProjectRule):
    """OST011: no laundering resource writes through foreign helpers."""

    code = "OST011"
    name = "cross-module-write"
    summary = (
        "resource-array writes may not be laundered through helpers in "
        "another module; call the owner's public API instead"
    )

    def check_project(
        self, project: "ProjectContext"
    ) -> Iterator[Diagnostic]:
        writers = project.writers()
        for ref in sorted(project.functions):
            fn = project.functions[ref]
            for site in fn.calls:
                candidates = project.resolve(site)
                if not candidates:
                    continue
                if not all(
                    c in writers
                    and not project.is_sanctioned_writer(c)
                    and project.functions[c].module != fn.module
                    for c in candidates
                ):
                    continue
                target = project.functions[candidates[0]]
                yield Diagnostic(
                    path=project.path_of(ref),
                    line=site.line,
                    col=site.col,
                    code=self.code,
                    rule=self.name,
                    message=(
                        f"call to '{site.name}' reaches a resource-array "
                        f"write in {target.module} that is not part of "
                        "the owner's public API; route the mutation "
                        "through datacenter/state.py"
                    ),
                )
