"""``import-layering``: the package DAG, machine-enforced.

The enforced order (lower layers never import higher ones)::

    core(0) -> graphs,trace(1) -> optim,inference,sched(2) -> sim(3)
            -> profiling,faults(4) -> runtime(5) -> serve(6)
            -> analysis(7) -> lint(8)

``obs`` is the measurement substrate and is importable from anywhere
(it imports nothing of ``repro`` itself).  Note the order reflects the
*actual* dependency direction of the code: the ``sim`` executor models
mixed precision and XLA fusion through ``optim``, so ``sim`` sits above
layer 2.  ``sched`` and ``sim`` share no edge; ``faults`` drives both.
``trace.columnar`` lives in layer 1 like the rest of ``trace``: the
columnar store depends only on ``core`` (for the feature schema and
``FeatureArrays``) and ``obs``, which is what lets every higher layer
-- ``runtime`` suites, ``serve`` replay, ``analysis`` figures -- load
populations through it without new edges.

Only module-level imports are edges.  A function-scoped import is the
sanctioned cycle-breaking idiom (e.g. ``runtime.executor`` pulling the
experiment registry at call time) and is deliberately exempt: it
defers the dependency until after both modules are importable.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Optional

from ..context import FileContext
from ..findings import Finding
from ..registry import Rule, register

__all__ = ["LayeringRule", "LAYERS", "EXEMPT_TARGETS"]

#: Top-level ``repro`` subpackage -> rank.  Imports must point strictly
#: downward (lower rank), except within the same subpackage.
LAYERS: Dict[str, int] = {
    "core": 0,
    "graphs": 1,
    "trace": 1,
    "optim": 2,
    "inference": 2,
    "sched": 2,
    "sim": 3,
    "profiling": 4,
    "faults": 4,
    "runtime": 5,
    "serve": 6,
    "analysis": 7,
    "lint": 8,
}

#: Subpackages importable from any layer.
EXEMPT_TARGETS = frozenset({"obs"})

_ROOT_PACKAGE = "repro"


def _subpackage(dotted: str) -> Optional[str]:
    """The ``repro`` subpackage a dotted module path belongs to."""
    parts = dotted.split(".")
    if len(parts) < 2 or parts[0] != _ROOT_PACKAGE:
        return None
    return parts[1]


@register
class LayeringRule(Rule):
    id = "import-layering"
    title = "imports against the core->...->analysis package DAG"
    rationale = (
        "the subsystems form a strict DAG so that every layer can be "
        "tested, reasoned about and refactored against the layers below "
        "it only; an upward module-level import couples a foundation to "
        "its consumers and eventually deadlocks imports outright."
    )
    suggestion = (
        "move the shared type down a layer, invert the dependency, or "
        "-- when the inversion is intentional -- defer the import into "
        "the using function (function-scoped imports are exempt)."
    )

    def _check(
        self, ctx: FileContext, node: ast.stmt, target: Optional[str]
    ) -> Iterable[Finding]:
        if target is None or ctx.in_function():
            return ()
        importer = _subpackage(ctx.module)
        imported = _subpackage(target)
        if importer is None or imported is None or importer == imported:
            return ()
        if imported in EXEMPT_TARGETS:
            return ()
        if importer in EXEMPT_TARGETS:
            # obs underpins every layer, so it may depend on nothing.
            return (
                self.finding(
                    ctx,
                    node,
                    f"edge {ctx.module} -> {target}: obs is importable "
                    "from anywhere and must itself import nothing of repro",
                ),
            )
        importer_rank = LAYERS.get(importer)
        imported_rank = LAYERS.get(imported)
        if importer_rank is None or imported_rank is None:
            unknown = importer if importer_rank is None else imported
            return (
                self.finding(
                    ctx,
                    node,
                    f"edge {ctx.module} -> {target}: package "
                    f"{unknown!r} has no layer; add it to "
                    "repro.lint.rules.layering.LAYERS",
                ),
            )
        if imported_rank >= importer_rank:
            return (
                self.finding(
                    ctx,
                    node,
                    f"edge {ctx.module} -> {target} points up the DAG "
                    f"({importer} is layer {importer_rank}, {imported} "
                    f"is layer {imported_rank})",
                ),
            )
        return ()

    def visit_Import(
        self, ctx: FileContext, node: ast.Import
    ) -> Iterable[Finding]:
        findings = []
        for alias in node.names:
            findings.extend(self._check(ctx, node, alias.name))
        return findings

    def visit_ImportFrom(
        self, ctx: FileContext, node: ast.ImportFrom
    ) -> Iterable[Finding]:
        base = ctx.resolve_import_base(node)
        if not base:
            return ()
        findings = list(self._check(ctx, node, base))
        if findings:
            return findings
        # ``from repro import sched`` binds subpackages too; check the
        # joined names when the base alone names no subpackage.  Only
        # names that are known subpackages count -- ``from repro import
        # __version__`` (or any re-exported symbol) is not a layer edge.
        if _subpackage(base) is None and base == _ROOT_PACKAGE:
            for alias in node.names:
                if alias.name in LAYERS or alias.name in EXEMPT_TARGETS:
                    findings.extend(
                        self._check(ctx, node, f"{base}.{alias.name}")
                    )
        return findings
