"""In-memory span tracer and the outside-in wrapper installer.

Nothing in ``src/`` knows about this module: timing wrappers are put
around the public callables of each layer from here, at *every* binding
(``from x import f`` copies included), and taken off again afterwards.

A span is ``(label, parent, start, end)``; spans are allocated in entry
order, so a parent's id is always smaller than its children's. A span's
*self time* is its duration minus the durations of its direct children;
on one thread children nest strictly inside their parent, so the self
times of one op's spans partition the op's wall time exactly.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: label of the root span the harness opens around every op
OP_LABEL = "bench:op"

Observer = Callable[["Tracer", Any, tuple, dict], None]


@dataclass(frozen=True)
class Target:
    """One public callable to wrap.

    Attributes:
        layer: ledger layer the callable's time is charged to.
        module: dotted module that defines (or, for an inherited method
            wrapped on a subclass, exposes) the callable.
        qualname: ``func`` or ``Class.method`` inside that module.
        observe: optional hook run after every successful call with
            ``(tracer, result, args, kwargs)``; feeds ``tracer.counters``.
    """

    layer: str
    module: str
    qualname: str
    observe: Optional[Observer] = None

    @property
    def label(self) -> str:
        return f"{self.layer}:{self.qualname}"


class Tracer:
    """Column store of spans plus free-form counters fed by observers."""

    def __init__(self) -> None:
        self.labels: List[str] = [OP_LABEL]
        self.label = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        #: ids of spans that ended by raising
        self.raised: set = set()
        #: ids of the currently open spans; empty outside an op, which
        #: turns every wrapper into a plain pass-through
        self.stack: List[int] = []
        self.counters: Dict[str, float] = defaultdict(float)

    def __len__(self) -> int:
        return len(self.label)

    def label_id(self, label: str) -> int:
        self.labels.append(label)
        return len(self.labels) - 1

    def begin_op(self) -> None:
        """Open the root span of one harness-issued op."""
        assert not self.stack, "ops do not nest"
        self.stack.append(len(self.label))
        self.label.append(0)
        self.parent.append(-1)
        self.end.append(0.0)
        self.start.append(perf_counter())

    def end_op(self) -> float:
        """Close the root span; returns the op's traced wall time."""
        now = perf_counter()
        root = self.stack.pop()
        assert not self.stack, "unbalanced spans inside the op"
        self.end[root] = now
        return now - self.start[root]

    def wrap(
        self, fn: Callable[..., Any], label: str, observe: Optional[Observer]
    ) -> Callable[..., Any]:
        """A timing wrapper around ``fn`` recording into this tracer."""
        label_id = self.label_id(label)
        labels, parents = self.label, self.parent
        starts, ends = self.start, self.end
        stack, raised = self.stack, self.raised
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not stack:
                return fn(*args, **kwargs)
            span = len(labels)
            labels.append(label_id)
            parents.append(stack[-1])
            stack.append(span)
            ends.append(0.0)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised.add(span)
                raise
            finally:
                ends[span] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(tracer, result, args, kwargs)
            return result

        return traced


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------


def self_times(
    parent: Sequence[int], start: Sequence[float], end: Sequence[float]
) -> List[float]:
    """Per-span self time: duration minus direct children's durations."""
    own = [e - s for s, e in zip(start, end)]
    for span, above in enumerate(parent):
        if above >= 0:
            own[above] -= end[span] - start[span]
    return own


@dataclass
class LabelTotals:
    """Aggregate of every span carrying one label."""

    calls: int = 0
    self_s: float = 0.0
    inclusive_s: float = 0.0
    raised: int = 0


def totals_by_label(tracer: Tracer) -> Dict[str, LabelTotals]:
    """Calls, self seconds and inclusive seconds per span label."""
    own = self_times(tracer.parent, tracer.start, tracer.end)
    by_id = [LabelTotals() for _ in tracer.labels]
    for span, label_id in enumerate(tracer.label):
        slot = by_id[label_id]
        slot.calls += 1
        slot.self_s += own[span]
        slot.inclusive_s += tracer.end[span] - tracer.start[span]
    for span in tracer.raised:
        by_id[tracer.label[span]].raised += 1
    merged: Dict[str, LabelTotals] = {}
    for label, slot in zip(tracer.labels, by_id):
        # a callable wrapped on two classes shares one label
        into = merged.setdefault(label, LabelTotals())
        into.calls += slot.calls
        into.self_s += slot.self_s
        into.inclusive_s += slot.inclusive_s
        into.raised += slot.raised
    return merged


def count_children(tracer: Tracer, child_label: str, parent_label: str) -> int:
    """Spans labelled ``child_label`` whose direct parent is ``parent_label``."""
    ids = {i for i, label in enumerate(tracer.labels) if label == child_label}
    above = {i for i, label in enumerate(tracer.labels) if label == parent_label}
    labels, parents = tracer.label, tracer.parent
    return sum(
        1
        for span, label_id in enumerate(labels)
        if label_id in ids
        and parents[span] >= 0
        and labels[parents[span]] in above
    )


def durations_of(tracer: Tracer, label: str) -> List[float]:
    """Inclusive duration of every span carrying ``label``."""
    ids = {i for i, name in enumerate(tracer.labels) if name == label}
    return [
        tracer.end[span] - tracer.start[span]
        for span, label_id in enumerate(tracer.label)
        if label_id in ids
    ]


def write_jsonl(tracer: Tracer, path: str) -> None:
    """Dump every span as one JSON line: id, op, name, parent, start, end."""
    op = -1
    with open(path, "w", encoding="utf-8") as out:
        for span, label_id in enumerate(tracer.label):
            if tracer.parent[span] < 0:
                op += 1
            record = {
                "id": span,
                "op": op,
                "name": tracer.labels[label_id],
                "parent": tracer.parent[span],
                "start": tracer.start[span],
                "end": tracer.end[span],
            }
            if span in tracer.raised:
                record["raised"] = True
            out.write(json.dumps(record) + "\n")


# ----------------------------------------------------------------------
# installer
# ----------------------------------------------------------------------

_MISSING = object()
#: packages whose loaded modules are searched for bindings of a target
PACKAGES = ("repro", "benchmarks.ledger")


class Installer:
    """Puts tracer wrappers around targets at every binding, and back.

    Module-level functions are replaced in the namespace of *every*
    loaded module under :data:`PACKAGES` that holds a reference to them (the
    defining module and each ``from x import f`` site, the harness's own
    included -- that is where the ops are issued from). Methods are
    replaced on their class; ``classmethod``/``staticmethod`` keep their
    kind; an inherited method is shadowed on the named subclass only.
    """

    def __init__(self, tracer: Tracer, targets: Iterable[Target]) -> None:
        self.tracer = tracer
        self.targets = list(targets)
        #: (owner, attribute, value to put back or _MISSING to delete)
        self._undo: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "Installer":
        self.install()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    def install(self) -> None:
        holders = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None
            and any(
                name == package or name.startswith(package + ".")
                for package in PACKAGES
            )
        ]
        try:
            for target in self.targets:
                self._install_one(target, holders)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, previous = self._undo.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def _install_one(self, target: Target, holders: List[Any]) -> None:
        module = sys.modules.get(target.module)
        if module is None:
            raise LookupError(f"{target.module} is not imported")
        owner_path, _, attr = target.qualname.rpartition(".")
        if owner_path:
            cls = getattr(module, owner_path)
            raw = vars(cls).get(attr, _MISSING)
            if isinstance(raw, (classmethod, staticmethod)):
                kind = type(raw)
                wrapped = kind(
                    self.tracer.wrap(raw.__func__, target.label, target.observe)
                )
            else:
                fn = getattr(cls, attr)  # own or inherited plain function
                wrapped = self.tracer.wrap(fn, target.label, target.observe)
            self._set(cls, attr, wrapped)
            return
        fn = getattr(module, attr)
        wrapped = self.tracer.wrap(fn, target.label, target.observe)
        for holder in holders:
            for bound_name, value in list(vars(holder).items()):
                if value is fn:
                    self._set(holder, bound_name, wrapped)
