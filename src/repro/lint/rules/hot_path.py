"""``hot-path``: keep the columnar hot modules columnar.

The repo's performance story (PR 7/8) is that population construction,
schedule simulation and trace decoding are vectorized end to end --
NumPy kernels over contiguous columns, no per-row Python.  That story
erodes one convenient ``.tolist()`` at a time, so this rule patrols a
registry of *hot modules* (:data:`HOT_MODULES`) for the regressions the
bench gate only catches after they ship:

* ``.tolist()`` -- materializes a Python list per element; hot code
  returns arrays and lets the presentation layer convert;
* ``np.append`` / ``np.concatenate`` / ``np.vstack`` / ``np.hstack`` /
  ``np.insert`` / ``np.delete`` *inside a loop* -- each call copies the
  whole array, turning a linear pass quadratic; preallocate or collect
  then concatenate once;
* ``dtype=object`` -- an object array is a pointer table, one heap
  object per element; use fixed-width or unicode dtypes;
* ``for i in range(len(x)):`` -- the canonical per-row loop; index
  vectorized or iterate the sequence directly.

Modules outside the registry are untouched -- presentation and test
code may be as leisurely as it likes.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Tuple

from ..context import FileContext
from ..findings import Finding
from ..registry import Rule, register

__all__ = ["HotPathRule", "HOT_MODULES"]

#: Module prefixes held to columnar discipline.  A module is hot when it
#: equals an entry or sits beneath it (``repro.core.population`` covers
#: ``repro.core.population.views`` should it ever split).
HOT_MODULES: Tuple[str, ...] = (
    "repro.core.classify",
    "repro.core.population",
    "repro.core.sensitivity",
    "repro.sched.engine",
    "repro.trace.columnar",
)

#: NumPy calls that copy the whole array per invocation.
_GROWTH_CALLS = frozenset(
    {
        "numpy.append",
        "numpy.concatenate",
        "numpy.vstack",
        "numpy.hstack",
        "numpy.insert",
        "numpy.delete",
    }
)

_LOOPS = (ast.For, ast.AsyncFor, ast.While)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def is_hot_module(module: Optional[str]) -> bool:
    if not module:
        return False
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in HOT_MODULES
    )


def _is_range_len(node: ast.For) -> bool:
    """``for ... in range(len(x)):`` (single-argument range only)."""
    call = node.iter
    if not (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == "range"
        and len(call.args) == 1
    ):
        return False
    inner = call.args[0]
    return (
        isinstance(inner, ast.Call)
        and isinstance(inner.func, ast.Name)
        and inner.func.id == "len"
    )


@register
class HotPathRule(Rule):
    id = "hot-path"
    title = "per-row Python in modules the bench gate holds columnar"
    rationale = (
        "population construction, schedule simulation and trace "
        "decoding are the measured hot loops; a .tolist(), an object "
        "dtype or an np.append-in-loop reintroduces per-row Python "
        "(or quadratic copying) that the bench gate only flags after "
        "the regression lands."
    )
    suggestion = (
        "stay in NumPy: preallocate and fill, collect then concatenate "
        "once, index with arrays instead of range(len(...)).  Where a "
        "Python-object boundary is the point (a figure API returning "
        "lists), suppress with # repro: ignore[hot-path] and say so."
    )

    def finish_file(self, ctx: FileContext) -> Iterable[Finding]:
        if not is_hot_module(ctx.module):
            return ()
        findings: List[Finding] = []
        self._walk(ctx, ctx.tree, False, findings)
        return findings

    def _walk(
        self,
        ctx: FileContext,
        node: ast.AST,
        in_loop: bool,
        findings: List[Finding],
    ) -> None:
        for child in ast.iter_child_nodes(node):
            child_in_loop = in_loop or isinstance(
                child, _LOOPS + _COMPREHENSIONS
            )
            if isinstance(child, ast.For) and _is_range_len(child):
                findings.append(
                    self.finding(
                        ctx,
                        child,
                        "per-row `for ... in range(len(...))` loop in a "
                        "hot module; index vectorized or iterate the "
                        "sequence directly",
                    )
                )
            if isinstance(child, ast.Call):
                self._check_call(ctx, child, in_loop, findings)
            self._walk(ctx, child, child_in_loop, findings)

    def _check_call(
        self,
        ctx: FileContext,
        call: ast.Call,
        in_loop: bool,
        findings: List[Finding],
    ) -> None:
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr == "tolist" and not (
            call.args or call.keywords
        ):
            findings.append(
                self.finding(
                    ctx,
                    call,
                    ".tolist() materializes one Python object per "
                    "element in a hot module; return the array and "
                    "convert at the presentation boundary",
                )
            )
        resolved = ctx.resolve(func)
        if resolved in _GROWTH_CALLS and in_loop:
            short = resolved.replace("numpy.", "np.")
            findings.append(
                self.finding(
                    ctx,
                    call,
                    f"{short}() inside a loop copies the whole array "
                    "every iteration (quadratic); collect parts and "
                    "concatenate once, or preallocate",
                )
            )
        for keyword in call.keywords:
            if (
                keyword.arg == "dtype"
                and isinstance(keyword.value, ast.Name)
                and keyword.value.id == "object"
            ):
                findings.append(
                    self.finding(
                        ctx,
                        keyword.value,
                        "dtype=object builds a pointer table with one "
                        "heap object per element; use a fixed-width or "
                        "unicode dtype",
                    )
                )
