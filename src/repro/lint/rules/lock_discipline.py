"""``lock-discipline``: attributes guarded somewhere, guarded everywhere.

The serve layer's correctness argument is lock discipline: shard
statistics mutate only under ``with shard.lock:``, the snapshot cache
only under ``with self._snapshot_lock:``.  That argument is invisible to
a single-pass matcher -- whether a ``self.attr`` access is guarded
depends on which ``with`` bodies *flow* into it -- so this rule runs the
held-locks dataflow (:class:`repro.lint.dataflow.HeldLocks`) over each
method's CFG, in every class that holds a ``with`` at any depth, and
cross-references accesses across the whole class:

1. collect every attribute access ``R.attr`` (receiver ``R`` a dotted
   path: ``self``, ``shard``, ``self._fleet``) with the set of locks
   held at that program point;
2. an attribute is *disciplined* when some access runs under a lock on
   the same receiver (``with shard.lock:`` guards ``shard.*``) and the
   attribute is written outside ``__init__`` somewhere in the class;
3. every unguarded access (read or write) to a disciplined attribute,
   outside ``__init__``/``__new__``/``__del__``, is a finding -- a
   static race candidate.

Deliberate unguarded reads exist (monotone counters, optimistic
snapshot fast paths); they are exactly the cases that deserve an inline
``# repro: ignore[lock-discipline]`` with the one-line proof of why the
race is benign.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Set, Tuple

from ..cfg import WithExit, build_cfg, walk_element
from ..context import FileContext
from ..dataflow import HeldLocks, dotted_path, run_forward
from ..findings import Finding
from ..registry import Rule, register

__all__ = ["LockDisciplineRule"]

#: Constructors whose result is a synchronization primitive.
_LOCK_TYPES = frozenset({"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"})

#: Methods where unguarded access is construction, not a race.
_CONSTRUCTORS = frozenset({"__init__", "__new__", "__del__", "__post_init__"})


class _Access(NamedTuple):
    receiver: str
    attr: str
    held: FrozenSet[str]
    line: int
    col: int
    method: str
    is_write: bool
    snippet: str


def _methods_of(cls: ast.ClassDef) -> List[ast.FunctionDef]:
    return [
        node
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


@register
class LockDisciplineRule(Rule):
    id = "lock-discipline"
    title = "attributes guarded by a lock in one method, raced in another"
    rationale = (
        "the serve shards, the query cache and the obs metrics are "
        "mutated by concurrent threads; an attribute written under "
        "`with self.lock:` in one method and read or written without "
        "it elsewhere is a data race the tests only catch under "
        "scheduler luck, if ever."
    )
    suggestion = (
        "take the same lock around the unguarded access, or -- for a "
        "deliberately lock-free read of monotone state -- suppress with "
        "# repro: ignore[lock-discipline] and state why the race is "
        "benign."
    )

    def visit_With(self, ctx: FileContext, node: ast.With) -> Iterable[Finding]:
        # ``HeldLocks`` acquires only at ``with`` headers: a class with no
        # ``with`` inside it holds no lock anywhere, so it cannot fire.
        classes = ctx.state.setdefault(self.id, {})
        for scope in ctx.scope:
            if isinstance(scope, ast.ClassDef):
                classes[scope] = None
        return ()

    visit_AsyncWith = visit_With

    def finish_file(self, ctx: FileContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for cls in ctx.state.get(self.id, ()):
            findings.extend(self._check_class(ctx, cls))
        return findings

    # ---- per-class analysis ---------------------------------------

    def _check_class(
        self, ctx: FileContext, cls: ast.ClassDef
    ) -> Iterable[Finding]:
        methods = _methods_of(cls)
        if not methods:
            return ()
        lock_attrs = self._lock_attributes(methods)
        accesses: List[_Access] = []
        for method in methods:
            accesses.extend(self._method_accesses(ctx, method, lock_attrs))
        if not accesses:
            return ()

        written: Set[Tuple[str, str]] = set()
        guarded_by: Dict[Tuple[str, str], Set[str]] = {}
        for access in accesses:
            key = (access.receiver, access.attr)
            if access.is_write and access.method not in _CONSTRUCTORS:
                written.add(key)
            for lock in access.held:
                lock_receiver, _, _lock_name = lock.rpartition(".")
                if lock_receiver == access.receiver:
                    guarded_by.setdefault(key, set()).add(lock)

        disciplined = written & set(guarded_by)
        if not disciplined:
            return ()
        findings: List[Finding] = []
        for access in accesses:
            key = (access.receiver, access.attr)
            if key not in disciplined or access.method in _CONSTRUCTORS:
                continue
            locks = guarded_by[key]
            if any(
                lock.rpartition(".")[0] == access.receiver
                for lock in access.held & frozenset(locks)
            ):
                continue
            verb = "written" if access.is_write else "read"
            lock_list = ", ".join(sorted(locks))
            findings.append(
                Finding(
                    rule=self.id,
                    path=str(ctx.path),
                    line=access.line,
                    col=access.col,
                    message=(
                        f"{access.receiver}.{access.attr} is guarded by "
                        f"`with {lock_list}:` elsewhere in {cls.name} but "
                        f"{verb} without it in {access.method}()"
                    ),
                    context=access.snippet,
                    pkg_path=ctx.pkg_path,
                )
            )
        return findings

    # ---- collection ------------------------------------------------

    @staticmethod
    def _lock_attributes(methods: List[ast.FunctionDef]) -> FrozenSet[str]:
        """Attribute names assigned a Lock()/RLock()/... anywhere."""
        locks: Set[str] = set()
        for method in methods:
            for node in ast.walk(method):
                if not isinstance(node, ast.Assign):
                    continue
                if not isinstance(node.value, ast.Call):
                    continue
                parts = FileContext.dotted(node.value.func)
                if parts is None or parts[-1] not in _LOCK_TYPES:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Attribute):
                        locks.add(target.attr)
        return frozenset(locks)

    def _method_accesses(
        self,
        ctx: FileContext,
        method: ast.FunctionDef,
        lock_attrs: FrozenSet[str],
    ) -> List[_Access]:
        cfg = build_cfg(method)
        analysis = HeldLocks()
        flow = run_forward(cfg, analysis)
        accesses: List[_Access] = []
        for element, state in flow.states():
            if isinstance(element, WithExit):
                continue
            held = analysis.held(state)
            # The lock expressions of a `with` header are acquisitions,
            # not races -- exclude them from the access set.
            acquisitions: Set[int] = set()
            if isinstance(element, (ast.With, ast.AsyncWith)):
                for item in element.items:
                    for inner in ast.walk(item.context_expr):
                        acquisitions.add(id(inner))
            for node in walk_element(element):
                if not isinstance(node, ast.Attribute):
                    continue
                if id(node) in acquisitions:
                    continue
                receiver = dotted_path(node.value)
                if receiver is None or node.attr in lock_attrs:
                    continue
                accesses.append(
                    _Access(
                        receiver=receiver,
                        attr=node.attr,
                        held=held,
                        line=node.lineno,
                        col=node.col_offset,
                        method=method.name,
                        is_write=isinstance(node.ctx, (ast.Store, ast.Del)),
                        snippet=ctx.snippet(node)[:60],
                    )
                )
        return accesses
