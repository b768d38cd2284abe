"""Kernel-parity rule: OST012.

The numpy kernel is kept bit-identical to the python specification by a
runtime crosscheck -- but the crosscheck only fires on executed inputs.
OST012 catches structural drift statically: for each of the three
:class:`repro.core.scorer.Scorer` methods, the python scorer's method
and the kernel function the numpy scorer delegates to must touch the
same candidate-tuple fields (constructor kwargs plus attribute reads of
the tuple class's declared fields) and emit the same metric/counter
names. A field or counter added to one side and not the other is
exactly the silent divergence the crosscheck would only find at
runtime, on the right input, with crosscheck enabled.

Each side's footprint is its root function plus the transitively-called
*private* helpers of the same module (underscore-prefixed functions and
methods of underscore-prefixed classes), resolved over the project call
graph.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Set, Tuple

from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import ProjectRule, register

if TYPE_CHECKING:  # pragma: no cover
    from repro.lint.project import ProjectContext
    from repro.lint.symbols import FunctionFacts

#: One group per ``Scorer`` method: what ``NumpyScorer`` delegates to,
#: the ``PythonScorer`` method it must match, and the candidate-tuple
#: class whose field footprint is compared ("module:ClassName").
PARITY_GROUPS: Tuple[Dict[str, str], ...] = (
    {
        "group": "candidate-targets",
        "numpy": "repro.core.kernel:candidate_targets_numpy",
        "python": "repro.core.scorer:PythonScorer.candidates",
        "tuple_class": "repro.core.scorer:CandidateBlock",
    },
    {
        "group": "immediate-costs",
        "numpy": "repro.core.kernel:immediate_costs",
        "python": "repro.core.scorer:PythonScorer.immediate_costs",
        "tuple_class": "repro.core.scorer:CandidateBlock",
    },
    {
        "group": "batch-scoring",
        "numpy": "repro.core.kernel:batch_score",
        "python": "repro.core.scorer:PythonScorer.score",
        "tuple_class": "repro.core.scorer:CandidateTarget",
    },
)


def _closure(project: "ProjectContext", root_ref: str) -> List[str]:
    """Root plus transitively-called same-module private helpers.

    Instantiating a same-module private class pulls *all* of that
    class's methods into the closure: a helper like ``_EstimateBatch``
    is driven via ``_EstimateBatch(...).run()``, whose method calls are
    not name-resolvable from the call expression alone.
    """
    root = project.functions[root_ref]
    module_facts = project.modules.get(root.module)
    seen: Set[str] = {root_ref}
    queue: List[str] = [root_ref]

    def enqueue(candidate: str) -> None:
        if candidate in seen or candidate not in project.functions:
            return
        callee = project.functions[candidate]
        if callee.module != root.module:
            return
        if not any(
            part.startswith("_") for part in callee.qualname.split(".")
        ):
            return
        seen.add(candidate)
        queue.append(candidate)

    while queue:
        ref = queue.pop()
        fn = project.functions[ref]
        for site in fn.calls:
            for candidate in project.resolve(site):
                enqueue(candidate)
            if module_facts is None:
                continue
            class_name = site.name.split(".")[-1]
            declared = module_facts.classes.get(class_name)
            if declared is not None and class_name.startswith("_"):
                for method in declared.methods:
                    enqueue(f"{root.module}:{class_name}.{method}")
    return sorted(seen)


def _tuple_fields(
    project: "ProjectContext", tuple_class: str
) -> Tuple[str, Set[str]]:
    """(class name, declared field names) of the candidate tuple."""
    module, _, class_name = tuple_class.partition(":")
    facts = project.modules.get(module)
    if facts is None:
        return class_name, set()
    declared = facts.classes.get(class_name)
    return class_name, set(declared.fields) if declared else set()


def _footprint(
    project: "ProjectContext",
    refs: List[str],
    class_name: str,
    fields: Set[str],
) -> Tuple[Set[str], Set[str]]:
    """(touched tuple fields, metric names) over a side's closure."""
    touched: Set[str] = set()
    metrics: Set[str] = set()
    for ref in refs:
        fn: "FunctionFacts" = project.functions[ref]
        touched.update(set(fn.attr_reads) & fields)
        touched.update(
            set(fn.ctor_kwargs.get(class_name, ())) & fields
        )
        metrics.update(fn.metrics)
    return touched, metrics


@register
class KernelParityRule(ProjectRule):
    """OST012: numpy/python twins must touch identical fields+metrics."""

    code = "OST012"
    name = "kernel-parity"
    summary = (
        "paired numpy/python kernel twins must touch the same "
        "candidate-tuple fields and emit the same metric names"
    )

    #: overridable in fixtures
    groups: Tuple[Dict[str, str], ...] = PARITY_GROUPS

    def check_project(
        self, project: "ProjectContext"
    ) -> Iterator[Diagnostic]:
        for group in self.groups:
            roots = (group["numpy"], group["python"])
            missing = [ref for ref in roots if ref not in project.functions]
            if missing:
                yield from self._unchecked(project, group, missing)
                continue
            numpy_refs = _closure(project, group["numpy"])
            python_refs = _closure(project, group["python"])
            class_name, fields = _tuple_fields(
                project, group["tuple_class"]
            )
            numpy_fp = _footprint(project, numpy_refs, class_name, fields)
            python_fp = _footprint(
                project, python_refs, class_name, fields
            )
            for kind, numpy_set, python_set in (
                ("tuple field", numpy_fp[0], python_fp[0]),
                ("metric", numpy_fp[1], python_fp[1]),
            ):
                yield from self._diff(
                    project, group, kind,
                    missing_on="numpy",
                    missing_ref=group["numpy"],
                    extra=sorted(python_set - numpy_set),
                )
                yield from self._diff(
                    project, group, kind,
                    missing_on="python",
                    missing_ref=group["python"],
                    extra=sorted(numpy_set - python_set),
                )

    def _unchecked(
        self,
        project: "ProjectContext",
        group: Dict[str, str],
        missing: List[str],
    ) -> Iterator[Diagnostic]:
        """A group whose root is gone would otherwise pass vacuously.

        A root whose whole module is outside the analyzed tree is a
        partial lint run and stays silent; a module that is present but
        no longer defines the root means the twin was renamed or deleted
        without repointing ``PARITY_GROUPS``.
        """
        for ref in missing:
            facts = project.modules.get(ref.partition(":")[0])
            if facts is None:
                continue
            yield Diagnostic(
                path=facts.path,
                line=1,
                col=1,
                code=self.code,
                rule=self.name,
                message=(
                    f"kernel parity group '{group['group']}' is unchecked: "
                    f"{ref} does not exist; repoint PARITY_GROUPS at the "
                    "function that replaced it"
                ),
            )

    def _diff(
        self,
        project: "ProjectContext",
        group: Dict[str, str],
        kind: str,
        missing_on: str,
        missing_ref: str,
        extra: List[str],
    ) -> Iterator[Diagnostic]:
        if not extra:
            return
        fn = project.functions[missing_ref]
        other = "python" if missing_on == "numpy" else "numpy"
        yield Diagnostic(
            path=project.path_of(missing_ref),
            line=fn.lineno,
            col=1,
            code=self.code,
            rule=self.name,
            message=(
                f"kernel parity drift in group '{group['group']}': the "
                f"{other} twin touches {kind}(s) {', '.join(extra)} that "
                f"the {missing_on} side ({fn.qualname}) never touches; "
                "the runtime crosscheck cannot see fields it is never "
                "handed"
            ),
        )
