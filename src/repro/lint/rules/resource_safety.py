"""``resource-safety``: every handle closed, every tmp file committed.

The columnar store's durability contract is a path property: the
``.tmp`` sibling a shard is written through must reach ``os.replace``
(commit) or ``unlink`` (abort) on *every* control-flow path, or a crash
window leaves a torn write behind.  Same shape for plain handles: an
``open()`` / ``mmap.mmap()`` / ``HTTPConnection()`` bound to a local
must reach ``close()`` (or context-manager exit) however the function
leaves.  Single-pass matchers cannot see "on every path"; this rule
runs the open-resources dataflow (:class:`repro.lint.dataflow.OpenResources`)
over the CFG of each function that holds a tracked birth, at any depth,
and flags any resource still live in the exit block's in-state -- i.e.
leaked on at least one path.

Tracked births (all must be bound to a plain local to be tracked):

* ``open(...)``, ``mmap.mmap(...)``, ``http.client.HTTPConnection(...)``,
  ``socket.socket(...)`` -- kind *handle*;
* ``path.with_name(.. ".tmp" ..)`` / ``path.with_suffix(".tmp")`` and
  ``tempfile.NamedTemporaryFile(..., delete=False)`` -- kind *tmpfile*,
  retired only by ``os.replace``/``os.rename``/``unlink`` (closing a
  tmp file does not commit it).

Escapes (returning, yielding, storing into an attribute, passing to a
call) retire a resource: ownership left the function, and a missed leak
is better than a false one.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Tuple

from ..cfg import build_cfg
from ..context import FileContext
from ..dataflow import OpenResources, run_forward
from ..findings import Finding
from ..registry import Rule, register

__all__ = ["ResourceSafetyRule"]

#: Dotted call targets that open a plain handle.
_HANDLE_OPENERS = {
    "open": "open(...)",
    "mmap.mmap": "mmap.mmap(...)",
    "http.client.HTTPConnection": "HTTPConnection(...)",
    "http.client.HTTPSConnection": "HTTPSConnection(...)",
    "socket.socket": "socket.socket(...)",
    "gzip.open": "gzip.open(...)",
    "bz2.open": "bz2.open(...)",
    "lzma.open": "lzma.open(...)",
    "io.open": "io.open(...)",
    "zipfile.ZipFile": "ZipFile(...)",
    "tarfile.open": "tarfile.open(...)",
}

_TMP_MAKERS = frozenset({"with_name", "with_suffix"})


def _string_constants(node: ast.AST) -> Iterable[str]:
    for inner in ast.walk(node):
        if isinstance(inner, ast.Constant) and isinstance(inner.value, str):
            yield inner.value


def _keyword(call: ast.Call, name: str) -> Optional[ast.expr]:
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


@register
class ResourceSafetyRule(Rule):
    id = "resource-safety"
    title = "handles/tmp files that miss close or os.replace on some path"
    rationale = (
        "the columnar store and result cache stay crash-consistent only "
        "because every .tmp write either commits via os.replace or is "
        "unlinked; a path that skips both leaves a torn file the next "
        "reader trusts.  Plain handles leaked on an early return pin "
        "file descriptors and mmaps for the process lifetime."
    )
    suggestion = (
        "use a `with` block, or make every path (including each except "
        "arm) reach close()/os.replace()/unlink().  If ownership really "
        "does transfer, return or store the handle -- the rule already "
        "treats escapes as hand-offs."
    )

    def visit_Assign(self, ctx: FileContext, node: ast.Assign) -> Iterable[Finding]:
        # ``OpenResources`` creates a fact only at ``name = <call>`` with
        # the call classified, so only the functions enclosing such an
        # assignment can leak; the others get no CFG.
        if (
            len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
            and self._classify(ctx, node.value) is not None
        ):
            births = ctx.state.setdefault(self.id, {})
            for scope in ctx.scope:
                if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    births[scope] = None
        return ()

    def finish_file(self, ctx: FileContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for func in ctx.state.get(self.id, ()):
            findings.extend(self._check_function(ctx, func))
        return findings

    def _classify(
        self, ctx: FileContext, call: ast.Call
    ) -> Optional[Tuple[str, str]]:
        """``(kind, label)`` when ``call`` births a tracked resource."""
        resolved = ctx.resolve(call.func)
        if resolved is None and isinstance(call.func, ast.Name):
            resolved = call.func.id  # builtins resolve to themselves
        if resolved in _HANDLE_OPENERS:
            return ("handle", _HANDLE_OPENERS[resolved])
        if resolved == "tempfile.NamedTemporaryFile":
            delete = _keyword(call, "delete")
            if isinstance(delete, ast.Constant) and delete.value is False:
                return ("tmpfile", "NamedTemporaryFile(delete=False)")
            return None  # delete=True cleans up after itself
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in _TMP_MAKERS
            and any(".tmp" in text for text in _string_constants(call))
        ):
            return ("tmpfile", f"{call.func.attr}(... '.tmp')")
        return None

    def _check_function(
        self, ctx: FileContext, func: ast.FunctionDef
    ) -> Iterable[Finding]:
        cfg = build_cfg(func)
        analysis = OpenResources(lambda call: self._classify(ctx, call))
        leaked = run_forward(cfg, analysis).at_exit()
        findings: List[Finding] = []
        for resource in sorted(leaked, key=lambda r: (r.line, r.name)):
            if resource.kind == "tmpfile":
                message = (
                    f"tmp file {resource.name!r} from {resource.what} is "
                    "neither committed via os.replace nor unlinked on "
                    "every path out of this function; a crash window "
                    "leaves a torn write behind"
                )
            else:
                message = (
                    f"{resource.what} bound to {resource.name!r} does not "
                    "reach close() (or a with block) on every path out "
                    "of this function"
                )
            findings.append(
                Finding(
                    rule=self.id,
                    path=str(ctx.path),
                    line=resource.line,
                    col=0,
                    message=message,
                    context=f"{resource.name} = {resource.what}",
                    pkg_path=ctx.pkg_path,
                )
            )
        return findings
