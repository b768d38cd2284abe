"""CFG builder semantics: exception edges, finally, loops, reachability."""

from __future__ import annotations

import ast

from repro.lint.cfg import CFG


def build(source: str) -> CFG:
    tree = ast.parse(source)
    func = tree.body[0]
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    return CFG.for_function(func)


def reach(cfg: CFG, start: int, blocked=()) -> set:
    """Node indices reachable from ``start`` without entering ``blocked``."""
    seen, stack = set(), [start]
    while stack:
        idx = stack.pop()
        if idx not in seen:
            seen.add(idx)
            stack.extend(n for n in cfg.nodes[idx].succ if n not in blocked)
    return seen


def node_by_line(cfg: CFG, line: int):
    for node in cfg.statement_nodes():
        if node.stmt.lineno == line:
            return node
    raise AssertionError(f"no CFG node at line {line}")


class TestExceptionEdges:
    def test_narrow_handler_also_propagates(self):
        # a may-raise call inside try with a narrow handler reaches BOTH
        # the handler and the exceptional exit
        cfg = build(
            "def f(state):\n"
            "    try:\n"
            "        state.apply()\n"
            "    except ValueError:\n"
            "        handle()\n"
        )
        call = node_by_line(cfg, 3)
        reachable = reach(cfg, call.index)
        assert cfg.raise_exit.index in reachable
        handler_call = node_by_line(cfg, 5)
        assert handler_call.index in reachable

    def test_broad_handler_catches_everything(self):
        cfg = build(
            "def f(state):\n"
            "    try:\n"
            "        state.apply()\n"
            "    except BaseException:\n"
            "        handle()\n"
        )
        call = node_by_line(cfg, 3)
        reachable = reach(cfg, call.index)
        assert cfg.raise_exit.index not in reachable

    def test_statement_outside_try_does_not_escape(self):
        cfg = build(
            "def f(state):\n"
            "    state.apply()\n"
            "    return 1\n"
        )
        call = node_by_line(cfg, 2)
        reachable = reach(cfg, call.index)
        assert cfg.raise_exit.index not in reachable

    def test_explicit_raise_escapes(self):
        cfg = build(
            "def f(x):\n"
            "    if x:\n"
            "        raise ValueError(x)\n"
            "    return x\n"
        )
        entry = node_by_line(cfg, 2)
        reachable = reach(cfg, entry.index)
        assert cfg.raise_exit.index in reachable

    def test_reraise_after_broad_handler_escapes(self):
        cfg = build(
            "def f(state):\n"
            "    try:\n"
            "        state.apply()\n"
            "    except BaseException:\n"
            "        undo()\n"
            "        raise\n"
        )
        call = node_by_line(cfg, 3)
        reachable = reach(cfg, call.index)
        # escapes only THROUGH the handler body
        assert cfg.raise_exit.index in reachable
        undo = node_by_line(cfg, 5)
        blocked = reach(cfg, call.index, blocked={undo.index})
        assert cfg.raise_exit.index not in blocked


class TestFinally:
    def test_finally_runs_on_exceptional_path(self):
        cfg = build(
            "def f(state):\n"
            "    try:\n"
            "        state.apply()\n"
            "    finally:\n"
            "        cleanup()\n"
        )
        call = node_by_line(cfg, 3)
        cleanup_nodes = [
            n for n in cfg.statement_nodes() if n.stmt.lineno == 5
        ]
        # instantiated twice: normal and propagating continuation
        assert len(cleanup_nodes) == 2
        reachable = reach(cfg, call.index)
        assert cfg.raise_exit.index in reachable
        # blocking every finally instance cuts the exceptional exit
        blocked = reach(
            cfg, call.index, blocked={n.index for n in cleanup_nodes}
        )
        assert cfg.raise_exit.index not in blocked


class TestReachability:
    def test_loop_back_edge(self):
        cfg = build(
            "def f(items):\n"
            "    for item in items:\n"
            "        use(item)\n"
            "    return 1\n"
        )
        body = node_by_line(cfg, 3)
        head = node_by_line(cfg, 2)
        reachable = reach(cfg, body.index)
        assert head.index in reachable  # back edge


class TestReachingDefinitions:
    def test_loop_merges_both_definitions(self):
        cfg = build(
            "def f(items):\n"
            "    x = 0\n"
            "    for item in items:\n"
            "        use(x)\n"
            "        x = item\n"
            "    return x\n"
        )
        envs = cfg.reaching_definitions()
        use = node_by_line(cfg, 4)
        first = node_by_line(cfg, 2)
        second = node_by_line(cfg, 5)
        defs = envs[use.index]["x"]
        assert first.index in defs
        assert second.index in defs

    def test_straight_line_kill(self):
        cfg = build(
            "def f():\n"
            "    x = 1\n"
            "    x = 2\n"
            "    use(x)\n"
        )
        envs = cfg.reaching_definitions()
        use = node_by_line(cfg, 4)
        second = node_by_line(cfg, 3)
        assert envs[use.index]["x"] == {second.index}
