"""Intraprocedural control-flow graphs over function bodies.

:func:`build_cfg` turns one ``FunctionDef`` into a graph of basic
blocks.  Each block holds a sequence of *elements*: ordinary statements,
the header statements of compound constructs (``if``/``while``/``for``/
``with``/``try`` appear as elements so transfer functions can see their
test/iter/context expressions evaluated at that point), and synthetic
:class:`WithExit` markers emitted where a ``with`` body ends -- the hook
that lets the held-locks analysis release a lock at the exact program
point the runtime does.

Modeling decisions (all biased toward *under*-reporting, matching the
package's "a miss means a missed finding, never a false one" stance):

* Exceptional edges exist only where the source is explicit about them:
  an ``except`` block is reachable from the start and the end of its
  ``try`` body, and a ``raise`` jumps to the innermost enclosing
  handlers (or, with none, to the function exit).  Arbitrary calls are
  not assumed to raise.
* ``finally`` bodies are *inlined* into every path that crosses them --
  the normal fall-through once, and again ahead of each ``return`` /
  ``break`` / ``continue`` / uncaught ``raise`` that jumps out through
  them.  Duplication keeps every path explicit, which is what the
  resource analysis needs.
* ``lock.acquire()`` / ``release()`` calls are ordinary statements; only
  ``with`` acquisitions get enter/exit structure.
* Nested ``def`` / ``class`` / ``lambda`` bodies are opaque: the binding
  is an element, the inner body is never walked (it runs later, if
  ever).

The entry block is empty; the exit block collects every path out of the
function (falling off the end, ``return``, uncaught ``raise``).
"""

from __future__ import annotations

import ast
import itertools
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple, Union

__all__ = ["Block", "CFG", "WithExit", "build_cfg", "walk_element"]


class WithExit:
    """Synthetic element marking the end of one ``with`` body."""

    __slots__ = ("node",)

    def __init__(self, node: Union[ast.With, ast.AsyncWith]) -> None:
        self.node = node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WithExit(line={self.node.lineno})"


#: What a block holds: real statements plus synthetic markers.
Element = Union[ast.stmt, WithExit]


class Block:
    """One basic block: a straight-line element sequence plus edges."""

    __slots__ = ("id", "elements", "succs", "preds")

    def __init__(self, block_id: int) -> None:
        self.id = block_id
        self.elements: List[Element] = []
        self.succs: List[int] = []
        self.preds: List[int] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Block({self.id}, elements={len(self.elements)}, succs={self.succs})"


class CFG:
    """The control-flow graph of one function body."""

    def __init__(self) -> None:
        self.blocks: Dict[int, Block] = {}
        self._ids = itertools.count()
        self.entry = self.new_block().id
        self.exit = self.new_block().id

    def new_block(self) -> Block:
        block = Block(next(self._ids))
        self.blocks[block.id] = block
        return block

    def add_edge(self, src: int, dst: int) -> None:
        src_block, dst_block = self.blocks[src], self.blocks[dst]
        if dst not in src_block.succs:
            src_block.succs.append(dst)
            dst_block.preds.append(src)

    def reachable(self) -> FrozenSet[int]:
        """Block ids reachable from the entry block."""
        seen = {self.entry}
        stack = [self.entry]
        while stack:
            for succ in self.blocks[stack.pop()].succs:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return frozenset(seen)


_OPAQUE = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def walk_element(element: Element) -> Iterator[ast.AST]:
    """Yield the AST nodes an element *evaluates* at its program point.

    Compound headers yield only their header expressions (an ``if``'s
    test, a ``for``'s target and iter, a ``with``'s items); plain
    statements yield their whole subtree.  Nested function/class/lambda
    bodies are never entered -- they execute later, if at all.
    """
    roots: List[ast.AST]
    if isinstance(element, WithExit):
        return
    if isinstance(element, (ast.If, ast.While)):
        roots = [element.test]
    elif isinstance(element, (ast.For, ast.AsyncFor)):
        roots = [element.target, element.iter]
    elif isinstance(element, (ast.With, ast.AsyncWith)):
        roots = [item.context_expr for item in element.items] + [
            item.optional_vars
            for item in element.items
            if item.optional_vars is not None
        ]
    elif isinstance(element, (ast.Try, ast.Match)):
        roots = [element.subject] if isinstance(element, ast.Match) else []
    elif isinstance(element, _OPAQUE):
        return
    else:
        roots = [element]
    stack = list(reversed(roots))
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, _OPAQUE):
                stack.append(child)


class _Builder:
    """Recursive-descent CFG construction with loop/try context stacks."""

    def __init__(self) -> None:
        self.cfg = CFG()
        #: (continue-target block id, break-target block id, finally depth).
        self.loops: List[Tuple[int, int, int]] = []
        #: ``finally`` bodies enclosing the current emission point.
        self.finallies: List[List[ast.stmt]] = []
        #: Handler-entry block ids of enclosing ``try`` bodies.
        self.handlers: List[List[int]] = []

    # ---- plumbing --------------------------------------------------

    def build(self, func: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> CFG:
        entry = self.cfg.blocks[self.cfg.entry]
        end = self._emit_body(func.body, entry)
        if end is not None:
            self.cfg.add_edge(end.id, self.cfg.exit)
        return self.cfg

    def _emit_body(
        self, stmts: List[ast.stmt], block: Optional[Block]
    ) -> Optional[Block]:
        """Emit a statement list; returns the open block, or None if
        every path jumped away."""
        for stmt in stmts:
            if block is None:
                # Dead code after a jump still gets blocks (rules may
                # want to see it) -- just no incoming edges.
                block = self.cfg.new_block()
            block = self._emit_stmt(stmt, block)
        return block

    def _join(self, ends: List[Optional[Block]]) -> Optional[Block]:
        """Merge branch ends into a fresh block.

        Always fresh: an end may be the branching block itself (an
        ``if`` without ``else``), and appending later statements to it
        would misorder them against the branch edges.
        """
        live = [end for end in ends if end is not None]
        if not live:
            return None
        join = self.cfg.new_block()
        for end in live:
            self.cfg.add_edge(end.id, join.id)
        return join

    def _inline_finallies(self, block: Block, upto: int = 0) -> Optional[Block]:
        """Copy pending ``finally`` bodies (innermost first) into the
        current path, down to stack depth ``upto``."""
        for body in reversed(self.finallies[upto:]):
            result = self._emit_body(body, block)
            if result is None:
                return None
            block = result
        return block

    # ---- statements ------------------------------------------------

    def _emit_stmt(self, stmt: ast.stmt, block: Block) -> Optional[Block]:
        if isinstance(stmt, ast.If):
            return self._emit_if(stmt, block)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._emit_loop(stmt, block)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._emit_with(stmt, block)
        if isinstance(stmt, ast.Try):
            return self._emit_try(stmt, block)
        if isinstance(stmt, ast.Match):
            return self._emit_match(stmt, block)
        if isinstance(stmt, ast.Return):
            block.elements.append(stmt)
            tail = self._inline_finallies(block)
            if tail is not None:
                self.cfg.add_edge(tail.id, self.cfg.exit)
            return None
        if isinstance(stmt, ast.Raise):
            block.elements.append(stmt)
            if self.handlers:
                for handler_id in self.handlers[-1]:
                    self.cfg.add_edge(block.id, handler_id)
            else:
                tail = self._inline_finallies(block)
                if tail is not None:
                    self.cfg.add_edge(tail.id, self.cfg.exit)
            return None
        if isinstance(stmt, (ast.Break, ast.Continue)):
            block.elements.append(stmt)
            if self.loops:
                continue_id, break_id, depth = self.loops[-1]
                tail = self._inline_finallies(block, upto=depth)
                if tail is not None:
                    target = (
                        break_id if isinstance(stmt, ast.Break) else continue_id
                    )
                    self.cfg.add_edge(tail.id, target)
            return None
        block.elements.append(stmt)
        return block

    def _emit_if(self, stmt: ast.If, block: Block) -> Optional[Block]:
        block.elements.append(stmt)
        then_entry = self.cfg.new_block()
        self.cfg.add_edge(block.id, then_entry.id)
        then_end = self._emit_body(stmt.body, then_entry)
        if stmt.orelse:
            else_entry = self.cfg.new_block()
            self.cfg.add_edge(block.id, else_entry.id)
            else_end = self._emit_body(stmt.orelse, else_entry)
            return self._join([then_end, else_end])
        return self._join([then_end, block])

    def _emit_loop(
        self, stmt: Union[ast.While, ast.For, ast.AsyncFor], block: Block
    ) -> Optional[Block]:
        header = self.cfg.new_block()
        self.cfg.add_edge(block.id, header.id)
        header.elements.append(stmt)
        after = self.cfg.new_block()
        infinite = (
            isinstance(stmt, ast.While)
            and isinstance(stmt.test, ast.Constant)
            and bool(stmt.test.value)
        )
        body_entry = self.cfg.new_block()
        self.cfg.add_edge(header.id, body_entry.id)
        self.loops.append((header.id, after.id, len(self.finallies)))
        try:
            body_end = self._emit_body(stmt.body, body_entry)
        finally:
            self.loops.pop()
        if body_end is not None:
            self.cfg.add_edge(body_end.id, header.id)
        if not infinite:
            if stmt.orelse:
                else_entry = self.cfg.new_block()
                self.cfg.add_edge(header.id, else_entry.id)
                else_end = self._emit_body(stmt.orelse, else_entry)
                if else_end is not None:
                    self.cfg.add_edge(else_end.id, after.id)
            else:
                self.cfg.add_edge(header.id, after.id)
        return after if after.preds else None

    def _emit_with(
        self, stmt: Union[ast.With, ast.AsyncWith], block: Block
    ) -> Optional[Block]:
        block.elements.append(stmt)
        end = self._emit_body(stmt.body, block)
        if end is None:
            return None
        end.elements.append(WithExit(stmt))
        return end

    def _emit_try(self, stmt: ast.Try, block: Block) -> Optional[Block]:
        body_entry = self.cfg.new_block()
        self.cfg.add_edge(block.id, body_entry.id)
        # Handler entry blocks exist before the body is emitted so that
        # an explicit ``raise`` inside the body can target them.
        handler_entries = [self.cfg.new_block() for _ in stmt.handlers]
        if stmt.finalbody:
            self.finallies.append(stmt.finalbody)
        if handler_entries:
            self.handlers.append([entry.id for entry in handler_entries])
        try:
            body_end = self._emit_body(stmt.body, body_entry)
        finally:
            if handler_entries:
                self.handlers.pop()
        # An exception may surface at the first or the last statement of
        # the body; edges from both bound the states a handler can see.
        for entry in handler_entries:
            self.cfg.add_edge(body_entry.id, entry.id)
            if body_end is not None and body_end is not body_entry:
                self.cfg.add_edge(body_end.id, entry.id)
        handler_ends: List[Optional[Block]] = []
        for handler, entry in zip(stmt.handlers, handler_entries):
            entry.elements.append(handler)
            handler_ends.append(self._emit_body(handler.body, entry))
        normal_end = body_end
        if stmt.orelse and body_end is not None:
            # A fresh block: the handler edges out of ``body_end`` model
            # "exception at the end of the try body", and the else body
            # must stay on the no-exception side of them.
            else_entry = self.cfg.new_block()
            self.cfg.add_edge(body_end.id, else_entry.id)
            normal_end = self._emit_body(stmt.orelse, else_entry)
        if stmt.finalbody:
            self.finallies.pop()
            joined = self._join([normal_end] + handler_ends)
            if joined is None:
                return None
            return self._emit_body(stmt.finalbody, joined)
        return self._join([normal_end] + handler_ends)

    def _emit_match(self, stmt: ast.Match, block: Block) -> Optional[Block]:
        block.elements.append(stmt)
        ends: List[Optional[Block]] = [block]  # no case may match
        for case in stmt.cases:
            case_entry = self.cfg.new_block()
            self.cfg.add_edge(block.id, case_entry.id)
            ends.append(self._emit_body(case.body, case_entry))
        return self._join(ends)


def build_cfg(func: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> CFG:
    """Build the CFG of one function definition's body."""
    return _Builder().build(func)
