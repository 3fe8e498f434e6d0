"""CFG builder: structural invariants, by hand and by property.

The hand-written cases pin the shapes the dataflow rules rely on
(branch joins, loop back-edges, finally inlining, handler edges); the
hypothesis properties generate arbitrary function bodies from a small
statement grammar and assert the invariants every analysis assumes --
entry reaches exit, edges are symmetric, every element lives in
exactly one block, and the worklist reaches a fixpoint.
"""

from __future__ import annotations

import ast

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint.cfg import WithExit, build_cfg, walk_element
from repro.lint.dataflow import ForwardAnalysis, HeldLocks, run_forward


def cfg_of(source: str):
    tree = ast.parse(source)
    func = tree.body[0]
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    return build_cfg(func)


def reachable_exit(cfg) -> bool:
    return cfg.exit in cfg.reachable()


# ---------------------------------------------------------------------
# hand-written shapes


def test_straight_line_is_entry_to_exit():
    cfg = cfg_of("def f():\n    a = 1\n    b = 2\n    return a + b\n")
    assert reachable_exit(cfg)


def test_if_without_else_joins_both_arms():
    cfg = cfg_of(
        "def f(x):\n"
        "    a = 1\n"
        "    if x:\n"
        "        a = 2\n"
        "    return a\n"
    )
    # The return must be reachable both through and around the branch.
    assert reachable_exit(cfg)
    returns = [
        block
        for block in cfg.blocks.values()
        if any(isinstance(el, ast.Return) for el in block.elements)
    ]
    assert len(returns) == 1
    assert len(returns[0].preds) >= 2


def test_while_has_back_edge_and_false_exit():
    cfg = cfg_of("def f(n):\n    while n:\n        n -= 1\n    return n\n")
    assert reachable_exit(cfg)
    header = next(
        block
        for block in cfg.blocks.values()
        if any(isinstance(el, ast.While) for el in block.elements)
    )
    # Loop body flows back into the header.
    assert any(header.id in cfg.blocks[pred].succs for pred in header.preds)


def test_while_true_without_break_never_reaches_exit():
    cfg = cfg_of("def f():\n    while True:\n        pass\n")
    assert not reachable_exit(cfg)


def test_while_true_with_break_reaches_exit():
    cfg = cfg_of("def f():\n    while True:\n        break\n    return 1\n")
    assert reachable_exit(cfg)


def test_raise_without_handler_still_reaches_exit():
    cfg = cfg_of("def f():\n    raise ValueError('x')\n")
    assert reachable_exit(cfg)


def test_handler_reachable_from_try_body():
    cfg = cfg_of(
        "def f(x):\n"
        "    try:\n"
        "        a = x()\n"
        "    except ValueError:\n"
        "        a = None\n"
        "    return a\n"
    )
    assert reachable_exit(cfg)
    handler_blocks = [
        block
        for block in cfg.blocks.values()
        if any(isinstance(el, ast.ExceptHandler) for el in block.elements)
    ]
    assert handler_blocks and all(b.preds for b in handler_blocks)


def test_with_body_is_bracketed_by_header_and_exit_marker():
    cfg = cfg_of(
        "def f(self):\n"
        "    with self.lock:\n"
        "        self.x = 1\n"
        "    return self.x\n"
    )
    elements = [el for block in cfg.blocks.values() for el in block.elements]
    assert any(isinstance(el, ast.With) for el in elements)
    assert any(isinstance(el, WithExit) for el in elements)


def test_finally_runs_on_the_return_path():
    cfg = cfg_of(
        "def f(x):\n"
        "    try:\n"
        "        return x\n"
        "    finally:\n"
        "        cleanup()\n"
    )
    # The finally body is inlined ahead of the return's exit edge, so a
    # path entry -> cleanup -> exit exists.
    assert reachable_exit(cfg)
    cleanup_blocks = [
        block
        for block in cfg.blocks.values()
        if any("cleanup" in ast.dump(el) for el in block.elements
               if isinstance(el, ast.stmt))
    ]
    assert cleanup_blocks
    assert any(
        cfg.exit in block.succs or block.succs for block in cleanup_blocks
    )


def test_walk_element_skips_nested_function_bodies():
    source = (
        "def f():\n"
        "    def inner():\n"
        "        return hidden()\n"
        "    return inner\n"
    )
    tree = ast.parse(source)
    func = tree.body[0]
    names = set()
    for stmt in func.body:
        for node in walk_element(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
    assert "hidden" not in names


# ---------------------------------------------------------------------
# property tests: a small statement grammar


@st.composite
def statements(draw, depth: int = 0):
    simple = st.sampled_from(
        [
            "x = 1",
            "y = x",
            "call()",
            "x += 1",
            "return x",
            "raise ValueError('boom')",
            "pass",
        ]
    )
    if depth >= 2:
        return [draw(simple)]
    body = draw(st.lists(simple, min_size=1, max_size=3))
    shape = draw(
        st.sampled_from(["plain", "if", "ifelse", "while", "for", "try", "with"])
    )
    indent = "    "

    def nest(lines):
        return [indent + line for line in lines]

    inner = draw(statements(depth=depth + 1))
    if shape == "plain":
        return body
    if shape == "if":
        return ["if cond:"] + nest(inner) + body
    if shape == "ifelse":
        other = draw(statements(depth=depth + 1))
        return ["if cond:"] + nest(inner) + ["else:"] + nest(other) + body
    if shape == "while":
        # ``while cond`` (never ``while True``): the loop may be skipped,
        # so the exit stays reachable.
        return ["while cond:"] + nest(inner) + body
    if shape == "for":
        return ["for item in seq:"] + nest(inner) + body
    if shape == "try":
        other = draw(statements(depth=depth + 1))
        return (
            ["try:"]
            + nest(inner)
            + ["except Exception:"]
            + nest(other)
            + ["finally:"]
            + ["    cleanup()"]
            + body
        )
    return ["with ctx:"] + nest(inner) + body


@st.composite
def function_sources(draw):
    lines = draw(statements())
    return "def f(x, cond, seq, ctx, call, cleanup):\n" + "\n".join(
        "    " + line for line in lines
    )


@settings(max_examples=120, deadline=None)
@given(function_sources())
def test_generated_cfgs_connect_entry_to_exit(source):
    cfg = cfg_of(source)
    assert reachable_exit(cfg), source


@settings(max_examples=120, deadline=None)
@given(function_sources())
def test_generated_cfg_edges_are_symmetric(source):
    cfg = cfg_of(source)
    for block in cfg.blocks.values():
        for succ in block.succs:
            assert block.id in cfg.blocks[succ].preds, source
        for pred in block.preds:
            assert block.id in cfg.blocks[pred].succs, source


@settings(max_examples=120, deadline=None)
@given(function_sources())
def test_statements_land_in_exactly_one_block_outside_finally(source):
    # ``finally`` bodies are inlined once per departing jump -- those
    # statements legitimately appear in several blocks.  Everything
    # else must be placed exactly once.
    tree = ast.parse(source)
    in_finally = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Try):
            for stmt in node.finalbody:
                for inner in ast.walk(stmt):
                    in_finally.add(id(inner))
    cfg = build_cfg(tree.body[0])  # same tree as the id() collection
    seen = {}
    for block in cfg.blocks.values():
        for element in block.elements:
            if id(element) in in_finally:
                continue
            assert id(element) not in seen, source
            seen[id(element)] = block.id


@settings(max_examples=120, deadline=None)
@given(function_sources())
def test_dataflow_reaches_fixpoint_on_generated_cfgs(source):
    cfg = cfg_of(source)
    # Termination (no RuntimeError) is the property under test.
    result = run_forward(cfg, HeldLocks())
    for _element, state in result.states():
        assert isinstance(state, frozenset)


@pytest.mark.parametrize("max_passes", [1])
def test_non_converging_analysis_raises(max_passes):
    class Diverging(ForwardAnalysis):
        def transfer(self, state, element):
            # Grows a fresh fact every visit: can never stabilize.
            return state | {("bogus", len(state))}

    cfg = cfg_of("def f(n):\n    while n:\n        n -= 1\n    return n\n")
    with pytest.raises(RuntimeError):
        run_forward(cfg, Diverging(), max_passes=max_passes)
