"""A worklist dataflow engine over :mod:`repro.lint.cfg` graphs.

:func:`run_forward` iterates any :class:`ForwardAnalysis` to a fixpoint:
block in-states are the join over predecessor out-states, out-states are
the fold of the analysis's ``transfer`` across the block's elements.
States must be immutable values with structural equality (frozensets of
tuples are the convention) -- the engine terminates when no block's
in-state changes, and raises if a buggy analysis fails to converge
within a generous bound.

Two abstract states ship with the engine:

* :class:`HeldLocks` -- which ``with <dotted-path>:`` acquisitions
  enclose each program point, released exactly at the matching
  :class:`~repro.lint.cfg.WithExit` marker;
* :class:`OpenResources` -- handles and tmp files born at calls the
  caller classifies, killed by ``close``/``os.replace``/``unlink``,
  context management, or escape (returned, stored, passed along).

Both join with set union: a fact holds at a point if it holds on
*some* path there, which is the right polarity for "a lock might not be
held" and "a handle might still be open" questions.
"""

from __future__ import annotations

import ast
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from .cfg import CFG, Element, WithExit, walk_element

__all__ = [
    "ForwardAnalysis",
    "DataflowResult",
    "run_forward",
    "HeldLocks",
    "OpenResources",
    "Resource",
    "assigned_names",
    "dotted_path",
]


class ForwardAnalysis:
    """One forward dataflow problem: initial state, join, transfer."""

    def initial(self) -> FrozenSet:
        return frozenset()

    def join(self, states: List[FrozenSet]) -> FrozenSet:
        merged: FrozenSet = frozenset()
        for state in states:
            merged = merged | state
        return merged

    def transfer(self, state: FrozenSet, element: Element) -> FrozenSet:
        raise NotImplementedError


class DataflowResult:
    """Per-block fixpoint states plus per-element replay."""

    def __init__(self, cfg: CFG, analysis: ForwardAnalysis) -> None:
        self.cfg = cfg
        self.analysis = analysis
        self.block_in: Dict[int, FrozenSet] = {}

    def states(self) -> Iterator[Tuple[Element, FrozenSet]]:
        """Yield ``(element, state-before-element)`` for every reachable
        element, replaying transfers inside each block."""
        for block_id in sorted(self.block_in):
            state = self.block_in[block_id]
            for element in self.cfg.blocks[block_id].elements:
                yield element, state
                state = self.analysis.transfer(state, element)

    def at_exit(self) -> FrozenSet:
        return self.block_in.get(self.cfg.exit, self.analysis.initial())


def run_forward(
    cfg: CFG, analysis: ForwardAnalysis, max_passes: int = 1000
) -> DataflowResult:
    """Iterate ``analysis`` over ``cfg`` to a fixpoint (worklist order).

    Only blocks reachable from the entry participate; dead code neither
    contributes states nor appears in the result.  Raises
    ``RuntimeError`` if the analysis fails to converge -- with union
    joins over finite fact sets that can only mean a broken transfer.
    """
    result = DataflowResult(cfg, analysis)
    reachable = cfg.reachable()
    result.block_in[cfg.entry] = analysis.initial()
    out: Dict[int, FrozenSet] = {}
    worklist: List[int] = [cfg.entry]
    passes = 0
    while worklist:
        passes += 1
        if passes > max_passes * max(1, len(cfg.blocks)):
            raise RuntimeError(
                "dataflow failed to converge "
                f"({passes} passes over {len(cfg.blocks)} blocks)"
            )
        block_id = worklist.pop(0)
        block = cfg.blocks[block_id]
        preds = [p for p in block.preds if p in out]
        if block_id == cfg.entry:
            in_state = analysis.initial()
            if preds:  # a loop back-edge into the entry is impossible,
                in_state = analysis.join([in_state] + [out[p] for p in preds])
        else:
            in_state = analysis.join([out[p] for p in preds])
        result.block_in[block_id] = in_state
        state = in_state
        for element in block.elements:
            state = analysis.transfer(state, element)
        if out.get(block_id) != state:
            out[block_id] = state
            for succ in block.succs:
                if succ in reachable and succ not in worklist:
                    worklist.append(succ)
    # Blocks never visited (unreachable) are dropped from the result.
    return result


# ---------------------------------------------------------------------
# shared AST helpers


def dotted_path(node: ast.AST) -> Optional[str]:
    """``self._lock`` -> ``"self._lock"``; None for anything fancier."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def assigned_names(element: Element) -> List[Tuple[str, int]]:
    """Names (re)bound by one element, with the binding line."""
    bound: List[Tuple[str, int]] = []

    def targets_of(target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            bound.append((target.id, target.lineno))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for inner in target.elts:
                targets_of(inner)
        elif isinstance(target, ast.Starred):
            targets_of(target.value)

    if isinstance(element, ast.Assign):
        for target in element.targets:
            targets_of(target)
    elif isinstance(element, (ast.AnnAssign, ast.AugAssign)):
        targets_of(element.target)
    elif isinstance(element, (ast.For, ast.AsyncFor)):
        targets_of(element.target)
    elif isinstance(element, (ast.With, ast.AsyncWith)):
        for item in element.items:
            if item.optional_vars is not None:
                targets_of(item.optional_vars)
    elif isinstance(element, ast.ExceptHandler):
        if element.name:
            bound.append((element.name, element.lineno))
    elif isinstance(element, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        bound.append((element.name, element.lineno))
    elif isinstance(element, (ast.Import, ast.ImportFrom)):
        for alias in element.names:
            local = alias.asname or alias.name.split(".")[0]
            bound.append((local, element.lineno))
    return bound


# ---------------------------------------------------------------------
# bundled analyses


class HeldLocks(ForwardAnalysis):
    """Facts: ``(dotted-path, id(with-statement))`` -- the ``with <path>:``
    whose body encloses this point.

    Only attribute-path context expressions count (``with self._lock:``,
    ``with shard.lock:``); a call result (``with open(p) as f:``) is a
    resource, not a lock.  ``acquire()``/``release()`` calls are not
    modeled -- their extent is not lexical, so a conditional acquire
    cannot be tracked without path sensitivity the rules do not need.
    """

    def held(self, state: FrozenSet) -> FrozenSet[str]:
        return frozenset(path for path, _owner in state)

    def transfer(self, state: FrozenSet, element: Element) -> FrozenSet:
        if isinstance(element, (ast.With, ast.AsyncWith)):
            acquired = []
            for item in element.items:
                path = dotted_path(item.context_expr)
                if path is not None:
                    acquired.append((path, id(element)))
            return state | frozenset(acquired)
        if isinstance(element, WithExit):
            return frozenset(
                (path, owner)
                for path, owner in state
                if owner != id(element.node)
            )
        return state


class Resource(NamedTuple):
    """One live resource: the local it is bound to and where it began."""

    name: str
    line: int
    kind: str  # "handle" or "tmpfile"
    what: str  # human label for the finding message


#: ``classify(call) -> Optional[(kind, label)]`` decides which calls
#: give birth to a tracked resource; name resolution lives with the
#: caller (rules have the import map, the engine does not).
Classifier = Callable[[ast.Call], Optional[Tuple[str, str]]]

#: Method names that retire the receiver as a resource.
_CLOSERS = frozenset({"close", "unlink", "terminate", "shutdown", "release"})

#: ``os.<fn>(target, ...)`` calls that commit or remove their target.
_OS_RETIRERS = frozenset({"replace", "rename", "unlink", "remove"})


class OpenResources(ForwardAnalysis):
    """Facts: :class:`Resource` tuples that may still be live.

    Born at calls the classifier recognizes when bound to a plain local
    (``fh = open(p)``); a call opened as a ``with`` context is managed
    and never tracked.  Retired by ``close()``-style method calls, by
    ``os.replace``/``os.rename``/``os.unlink`` naming the resource (or
    its ``.name``), by ``with fh:`` management, by rebinding -- and by
    any *escape*: returning it, yielding it, storing it in an attribute,
    subscript or other name, or passing it to a call.  Escapes retire
    because ownership moved somewhere this intraprocedural analysis
    cannot see; under-reporting beats a false leak.
    """

    def __init__(self, classify: Classifier) -> None:
        self.classify = classify

    def transfer(self, state: FrozenSet, element: Element) -> FrozenSet:
        if isinstance(element, WithExit):
            return state
        killed: set = set()
        born: List[Resource] = []

        if isinstance(element, ast.Assign) and isinstance(
            element.value, ast.Call
        ):
            classified = self.classify(element.value)
            if classified is not None and len(element.targets) == 1 and (
                isinstance(element.targets[0], ast.Name)
            ):
                kind, what = classified
                name = element.targets[0].id
                killed.add(name)  # rebinding forgets the old one
                born.append(Resource(name, element.lineno, kind, what))

        live_names = {fact.name for fact in state}
        for node in walk_element(element):
            if isinstance(node, ast.Call):
                killed.update(self._call_kills(node, live_names))
            elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                value = node.value
                if value is not None:
                    killed.update(self._names_in(value, live_names))
        killed.update(self._store_escapes(element, live_names))
        for name, _line in assigned_names(element):
            if not born or name != born[0].name:
                killed.add(name)
        if isinstance(element, (ast.With, ast.AsyncWith)):
            for item in element.items:
                if isinstance(item.context_expr, ast.Name):
                    # ``with fh:`` -- context management closes handles,
                    # but a tmp file still needs its commit.
                    killed.update(
                        fact.name
                        for fact in state
                        if fact.name == item.context_expr.id
                        and fact.kind == "handle"
                    )

        if not killed and not born:
            return state
        return frozenset(
            fact for fact in state if fact.name not in killed
        ) | frozenset(born)

    # ---- kill helpers ---------------------------------------------

    @staticmethod
    def _names_in(node: ast.AST, live: set) -> List[str]:
        return [
            inner.id
            for inner in ast.walk(node)
            if isinstance(inner, ast.Name) and inner.id in live
        ]

    def _call_kills(self, call: ast.Call, live: set) -> List[str]:
        kills: List[str] = []
        func = call.func
        if isinstance(func, ast.Attribute):
            receiver = func.value
            if isinstance(receiver, ast.Name) and receiver.id in live:
                # ``fh.write(...)`` keeps it alive; ``fh.close()`` ends it.
                if func.attr in _CLOSERS:
                    kills.append(receiver.id)
                arg_names: List[str] = []
                for arg in call.args:
                    arg_names.extend(self._names_in(arg, live))
                for keyword in call.keywords:
                    arg_names.extend(self._names_in(keyword.value, live))
                return kills + arg_names
            if func.attr in _OS_RETIRERS and call.args:
                target = call.args[0]
                if isinstance(target, ast.Name) and target.id in live:
                    kills.append(target.id)
                elif isinstance(target, ast.Attribute) and isinstance(
                    target.value, ast.Name
                ) and target.value.id in live:
                    # ``os.replace(handle.name, path)`` commits ``handle``.
                    kills.append(target.value.id)
        # Passing a live resource to any call moves ownership.
        for arg in call.args:
            kills.extend(self._names_in(arg, live))
        for keyword in call.keywords:
            kills.extend(self._names_in(keyword.value, live))
        return kills

    @staticmethod
    def _store_escapes(element: Element, live: set) -> List[str]:
        """RHS names stored into attributes/subscripts/other locals."""
        if isinstance(element, ast.Assign):
            value = element.value
        elif isinstance(element, ast.AnnAssign) and element.value is not None:
            value = element.value
        else:
            return []
        if isinstance(value, ast.Call):
            return []  # handled (or born) via the call path
        return OpenResources._names_in(value, live)
