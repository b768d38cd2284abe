"""Intraprocedural control-flow graphs for the flow-aware lint rules.

One :class:`CFG` per function: nodes are simple statements plus three
synthetic markers (entry, normal exit, exceptional exit), edges are the
ordinary successor relation plus *exception edges*. The graph is the
substrate for the reaching-definitions pass the taint extraction runs
(:mod:`repro.lint.symbols`).

Exception modeling (deliberate precision choices, shared with the docs):

* A statement *may raise* when it contains a call that is not on the
  small never-raises allowlist (:data:`NON_RAISING_CALLS`,
  :data:`NON_RAISING_BUILTINS`), or is a ``raise``/``assert``.
* Escape edges are added for may-raise statements **inside try bodies**
  (an exception there provably crosses a declared handler boundary) and
  for explicit ``raise`` statements anywhere. An unguarded call sequence
  raising out of a function is not modeled -- OST008's
  no-silent-except contract governs where handlers must exist.
* A handler catches everything only when it is bare or names
  ``Exception``/``BaseException``; any narrower handler also propagates
  outward (the "unexpected exception" path).
* ``finally`` bodies are instantiated twice -- once on the normal
  continuation, once on the propagation continuation -- so a binding
  inside a ``finally`` lies on every exceptional path, exactly as at
  runtime.

``while``/``for`` loops get back edges; ``break``/``continue``/``return``
resolve against the enclosing loop/function as usual. ``match``
statements (3.10+) fan out one edge per case plus a fall-through.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.astutils import bound_names

#: Method attributes modeled as never raising: the repro.obs recorder
#: surface (events must not be able to abort a placement) and the
#: exception-free container/str conveniences.
NON_RAISING_CALLS = frozenset(
    {
        "get_recorder",
        "inc",
        "event",
        "observe",
        "snapshot",
        "get",
        "items",
        "keys",
        "values",
        "join",
        "split",
        "strip",
        "lower",
        "upper",
        "startswith",
        "endswith",
        "copy",
    }
)

#: Builtins modeled as never raising for CFG purposes.
NON_RAISING_BUILTINS = frozenset(
    {
        "len",
        "str",
        "repr",
        "bool",
        "sorted",
        "list",
        "dict",
        "set",
        "tuple",
        "frozenset",
        "min",
        "max",
        "sum",
        "abs",
        "round",
        "isinstance",
        "issubclass",
        "range",
        "zip",
        "enumerate",
        "id",
        "type",
        "print",
    }
)

_BROAD_HANDLER_NAMES = frozenset({"Exception", "BaseException"})

_MATCH = getattr(ast, "Match", None)


class CFGNode:
    """One node: a simple statement or a synthetic marker."""

    __slots__ = ("index", "stmt", "kind", "succ")

    def __init__(self, index: int, stmt: Optional[ast.stmt], kind: str):
        self.index = index
        self.stmt = stmt
        #: "stmt" | "entry" | "exit" | "raise_exit"
        self.kind = kind
        self.succ: Set[int] = set()


def statement_may_raise(stmt: ast.stmt) -> bool:
    """True when a statement can raise per the CFG's exception model."""
    if isinstance(stmt, (ast.Raise, ast.Assert)):
        return True
    for node in ast.walk(stmt):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr not in NON_RAISING_CALLS:
                return True
        elif isinstance(func, ast.Name):
            if func.id not in NON_RAISING_BUILTINS:
                return True
        else:
            return True
    return False


def _handler_is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for entry in types:
        name = None
        if isinstance(entry, ast.Name):
            name = entry.id
        elif isinstance(entry, ast.Attribute):
            name = entry.attr
        if name in _BROAD_HANDLER_NAMES:
            return True
    return False


class _Frame:
    """Per-``try`` context while building: where exceptions go."""

    __slots__ = ("handler_entries", "catches_all", "finally_body")

    def __init__(
        self,
        handler_entries: List[int],
        catches_all: bool,
        finally_body: Optional[List[ast.stmt]],
    ):
        self.handler_entries = handler_entries
        self.catches_all = catches_all
        self.finally_body = finally_body


class CFG:
    """Control-flow graph of one function body."""

    def __init__(self) -> None:
        self.nodes: List[CFGNode] = []
        self.entry = self._new(None, "entry")
        self.exit = self._new(None, "exit")
        self.raise_exit = self._new(None, "raise_exit")

    # -- construction ---------------------------------------------------

    @classmethod
    def for_function(cls, func: ast.AST) -> "CFG":
        """Build the CFG of a (sync or async) function definition."""
        cfg = cls()
        builder = _Builder(cfg)
        last = builder.build_block(
            func.body, after=[cfg.entry.index], frames=()
        )
        for idx in last:
            cfg.nodes[idx].succ.add(cfg.exit.index)
        return cfg

    def _new(self, stmt: Optional[ast.stmt], kind: str) -> CFGNode:
        node = CFGNode(len(self.nodes), stmt, kind)
        self.nodes.append(node)
        return node

    # -- queries --------------------------------------------------------

    def statement_nodes(self) -> Iterable[CFGNode]:
        for node in self.nodes:
            if node.kind == "stmt":
                yield node

    def reaching_definitions(self) -> Dict[int, Dict[str, Set[int]]]:
        """Classic forward may-analysis at statement granularity.

        Returns, per node index, the map ``name -> set of node indices``
        whose binding of ``name`` may reach the *entry* of that node.
        Definition sites are statements that bind a local name (see
        :func:`repro.lint.astutils.bound_names`). The function-entry
        node binds every name to the synthetic definition ``-1``
        (parameter / free variable).
        """
        defs_at: Dict[int, Set[str]] = {}
        for node in self.statement_nodes():
            names = bound_names(node.stmt)
            if names:
                defs_at[node.index] = names

        preds: Dict[int, List[int]] = {n.index: [] for n in self.nodes}
        for node in self.nodes:
            for nxt in node.succ:
                preds[nxt].append(node.index)

        in_sets: Dict[int, Dict[str, Set[int]]] = {
            n.index: {} for n in self.nodes
        }
        out_sets: Dict[int, Dict[str, Set[int]]] = {
            n.index: {} for n in self.nodes
        }
        worklist = [n.index for n in self.nodes]
        while worklist:
            idx = worklist.pop()
            merged: Dict[str, Set[int]] = {}
            for pred in preds[idx]:
                for name, sites in out_sets[pred].items():
                    merged.setdefault(name, set()).update(sites)
            in_sets[idx] = merged
            new_out = {name: set(sites) for name, sites in merged.items()}
            for name in defs_at.get(idx, ()):
                new_out[name] = {idx}
            if new_out != out_sets[idx]:
                out_sets[idx] = new_out
                for nxt in self.nodes[idx].succ:
                    worklist.append(nxt)
        return in_sets


class _Builder:
    def __init__(self, cfg: CFG):
        self.cfg = cfg
        self.loop_stack: List[Tuple[List[int], List[int]]] = []
        #: dangling (break-exits, continue-exits) per loop
        self.return_sources: List[int] = []

    # Each build_* method wires ``after`` (the dangling predecessor node
    # indices) to what it builds and returns the new dangling set.

    def build_block(
        self,
        body: Sequence[ast.stmt],
        after: List[int],
        frames: Tuple[_Frame, ...],
    ) -> List[int]:
        current = after
        for stmt in body:
            current = self.build_stmt(stmt, current, frames)
            if not current:
                break  # unreachable continuation
        return current

    def _link(self, after: List[int], node: CFGNode) -> None:
        for idx in after:
            self.cfg.nodes[idx].succ.add(node.index)

    def _exception_targets(
        self, frames: Tuple[_Frame, ...]
    ) -> List[int]:
        """Where an exception raised under ``frames`` can travel.

        Walks the try stack innermost-out: each level's handlers are
        candidates; a broad handler stops the walk. Propagation through
        a level with a ``finally`` is routed through a dedicated
        propagation instance of the finally body (built lazily by
        build_try and recorded in the frame as an entry index list).
        Falls off to the function's exceptional exit.
        """
        targets: List[int] = []
        for frame in reversed(frames):
            targets.extend(frame.handler_entries)
            if frame.catches_all:
                return targets
        targets.append(self.cfg.raise_exit.index)
        return targets

    def build_stmt(
        self,
        stmt: ast.stmt,
        after: List[int],
        frames: Tuple[_Frame, ...],
    ) -> List[int]:
        cfg = self.cfg
        if isinstance(stmt, (ast.If,)):
            cond = cfg._new(stmt, "stmt")
            self._link(after, cond)
            then_exits = self.build_block(stmt.body, [cond.index], frames)
            if stmt.orelse:
                else_exits = self.build_block(
                    stmt.orelse, [cond.index], frames
                )
            else:
                else_exits = [cond.index]
            return then_exits + else_exits
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            head = cfg._new(stmt, "stmt")
            self._link(after, head)
            self.loop_stack.append(([], []))
            body_exits = self.build_block(stmt.body, [head.index], frames)
            breaks, continues = self.loop_stack.pop()
            for idx in body_exits + continues:
                cfg.nodes[idx].succ.add(head.index)
            else_exits = (
                self.build_block(stmt.orelse, [head.index], frames)
                if stmt.orelse
                else [head.index]
            )
            return breaks + else_exits
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            head = cfg._new(stmt, "stmt")
            self._link(after, head)
            self._maybe_escape(head, stmt, frames)
            return self.build_block(stmt.body, [head.index], frames)
        if isinstance(stmt, ast.Try) or isinstance(
            stmt, getattr(ast, "TryStar", ast.Try)
        ):
            return self.build_try(stmt, after, frames)
        if _MATCH is not None and isinstance(stmt, _MATCH):
            head = cfg._new(stmt, "stmt")
            self._link(after, head)
            exits: List[int] = [head.index]  # no case may match
            for case in stmt.cases:
                exits.extend(
                    self.build_block(case.body, [head.index], frames)
                )
            return exits
        if isinstance(stmt, ast.Break):
            node = cfg._new(stmt, "stmt")
            self._link(after, node)
            if self.loop_stack:
                self.loop_stack[-1][0].append(node.index)
            return []
        if isinstance(stmt, ast.Continue):
            node = cfg._new(stmt, "stmt")
            self._link(after, node)
            if self.loop_stack:
                self.loop_stack[-1][1].append(node.index)
            return []
        if isinstance(stmt, ast.Return):
            node = cfg._new(stmt, "stmt")
            self._link(after, node)
            self._maybe_escape(node, stmt, frames)
            node.succ.add(cfg.exit.index)
            return []
        if isinstance(stmt, ast.Raise):
            node = cfg._new(stmt, "stmt")
            self._link(after, node)
            for target in self._exception_targets(frames):
                node.succ.add(target)
            return []
        # simple statement (incl. nested defs, treated as opaque)
        node = cfg._new(stmt, "stmt")
        self._link(after, node)
        self._maybe_escape(node, stmt, frames)
        return [node.index]

    def _maybe_escape(
        self, node: CFGNode, stmt: ast.stmt, frames: Tuple[_Frame, ...]
    ) -> None:
        """Exception edges for a may-raise statement inside a try."""
        if not frames or not statement_may_raise(stmt):
            return
        for target in self._exception_targets(frames):
            node.succ.add(target)

    def build_try(
        self,
        stmt: ast.Try,
        after: List[int],
        frames: Tuple[_Frame, ...],
    ) -> List[int]:
        cfg = self.cfg

        # Propagation instance of the finally body: exceptions that the
        # handlers do not terminate route through it on their way out.
        outer_targets_frames = frames
        if stmt.finalbody:
            prop_entry_marker = cfg._new(stmt, "stmt")
            prop_exits = self.build_block(
                stmt.finalbody, [prop_entry_marker.index], frames
            )
            for target in self._exception_targets(frames):
                for idx in prop_exits:
                    cfg.nodes[idx].succ.add(target)
            escape_entries = [prop_entry_marker.index]
        else:
            escape_entries = self._exception_targets(outer_targets_frames)

        # Handler bodies. Their entry nodes are what the try body's
        # escape edges point at.
        handler_entries: List[int] = []
        handler_exits: List[int] = []
        catches_all = False
        for handler in stmt.handlers:
            entry = cfg._new(handler, "stmt")
            handler_entries.append(entry.index)
            if _handler_is_broad(handler):
                catches_all = True
            # the handler body runs under the *outer* frames (an
            # exception inside a handler propagates past this try),
            # routed through this try's finally on the way out.
            inner_frames = outer_targets_frames
            if stmt.finalbody:
                inner_frames = outer_targets_frames + (
                    _Frame([escape_entries[0]], True, None),
                )
            handler_exits.extend(
                self.build_block(handler.body, [entry.index], inner_frames)
            )

        frame = _Frame(
            handler_entries if stmt.handlers else list(escape_entries),
            catches_all,
            stmt.finalbody or None,
        )
        if not stmt.handlers:
            # try/finally only: escapes go straight to the propagation
            # finally (or outward); mark as catching so the walk stops
            # here -- the propagation instance already chains outward.
            frame = _Frame(list(escape_entries), True, None)
        elif stmt.finalbody and not catches_all:
            # narrow handlers + finally: escapes may bypass the handlers
            # but still run the finally. Route them to the propagation
            # instance and stop the outward walk there.
            frame = _Frame(
                handler_entries + [escape_entries[0]], True, None
            )

        body_exits = self.build_block(
            stmt.body, after, frames + (frame,)
        )
        if stmt.orelse:
            body_exits = self.build_block(stmt.orelse, body_exits, frames)

        normal_exits = body_exits + handler_exits
        if stmt.finalbody:
            # normal-continuation instance of the finally body
            normal_entry = cfg._new(stmt, "stmt")
            for idx in normal_exits:
                cfg.nodes[idx].succ.add(normal_entry.index)
            return self.build_block(
                stmt.finalbody, [normal_entry.index], frames
            )
        return normal_exits
