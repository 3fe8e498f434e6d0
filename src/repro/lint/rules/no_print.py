"""``no-print``: stdout discipline.

Migrated from the retired ``tools/check_no_print.py``.  Everything except the CLIs and the report renderer must go
through :mod:`repro.obs` sinks, so ``-q`` silences it, ``-v`` reveals
it, and ``--log-json`` captures it -- and so the report on stdout stays
byte-identical between warm and cold cache runs.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..context import FileContext
from ..findings import Finding
from ..registry import Rule, register

__all__ = ["NoPrintRule", "ALLOWED"]

#: Package-relative paths allowed to print: the CLIs own stdout, and
#: the report renderer produces user-facing text.
ALLOWED = frozenset(
    {
        "repro/analysis/cli.py",
        "repro/analysis/report.py",
        "repro/lint/cli.py",
    }
)


@register
class NoPrintRule(Rule):
    id = "no-print"
    title = "bare print() outside the CLIs and the report renderer"
    rationale = (
        "stdout is reserved for the rendered report, which must stay "
        "byte-identical between warm- and cold-cache runs; everything "
        "else goes through repro.obs sinks so -q/-v/--log-json govern it."
    )
    suggestion = (
        "route the message through repro.obs (get_obs().info/debug/...), "
        "or, in genuinely user-facing CLI code, add the file to "
        "repro.lint.rules.no_print.ALLOWED."
    )

    def visit_Call(
        self, ctx: FileContext, node: ast.Call
    ) -> Iterable[Finding]:
        if ctx.pkg_path in ALLOWED:
            return ()
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            return (
                self.finding(
                    ctx,
                    node,
                    "bare print() outside the CLI/report renderer -- "
                    "route it through repro.obs sinks instead",
                ),
            )
        return ()

