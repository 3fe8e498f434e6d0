"""Per-file analysis context shared by every rule.

:class:`FileContext` bundles the parsed tree with the derived facts
rules keep needing -- the dotted module name, the import alias map, the
module-level bindings, the suppression table -- each computed lazily and
exactly once per file.  It also exposes name-resolution helpers
(:meth:`FileContext.dotted`, :meth:`FileContext.resolve`) that turn an
AST call target into a best-effort absolute dotted name
(``np.random.rand(...)`` -> ``"numpy.random.rand"``), which is the
currency of the determinism call-graph and the layering rule.
"""

from __future__ import annotations

import ast
from collections import deque
from pathlib import Path
from typing import Any, Dict, FrozenSet, List, Optional

from .findings import MAX_CONTEXT, Finding
from .suppressions import is_suppressed, parse_suppressions

__all__ = ["FileContext", "module_name_of", "pkg_path_of"]

#: The fields that hold a node's child statements (or the except
#: handlers and match cases that hold them), in ``_fields`` order.
_STATEMENT_FIELDS = ("body", "handlers", "orelse", "finalbody", "cases")

#: Value-node shapes treated as mutable module-level state.
_MUTABLE_CALLS = frozenset(
    {"dict", "list", "set", "OrderedDict", "defaultdict", "Counter", "deque"}
)


def module_name_of(path: Path) -> str:
    """Dotted module name, derived from the ``__init__.py`` chain.

    ``src/repro/core/units.py`` -> ``repro.core.units``; a package's
    ``__init__.py`` maps to the package itself.  A file outside any
    package is just its stem.
    """
    path = path.resolve()
    parts: List[str] = [] if path.name == "__init__.py" else [path.stem]
    directory = path.parent
    while (directory / "__init__.py").exists():
        parts.append(directory.name)
        parent = directory.parent
        if parent == directory:
            break
        directory = parent
    return ".".join(reversed(parts))


def pkg_path_of(module: str, is_package: bool) -> str:
    """The stable package-relative path for ``module``.

    ``repro.core.units`` -> ``repro/core/units.py``;
    ``repro.core`` (a package) -> ``repro/core/__init__.py``.
    """
    base = module.replace(".", "/")
    return f"{base}/__init__.py" if is_package else f"{base}.py"


class FileContext:
    """Everything the rules need to know about one source file."""

    def __init__(
        self,
        path: Path,
        source: str,
        tree: ast.Module,
        module: Optional[str] = None,
    ) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.is_package = path.name == "__init__.py"
        self.module = module if module is not None else module_name_of(path)
        self.pkg_path = pkg_path_of(self.module, self.is_package)
        #: Enclosing function/class nodes, maintained by the walker.
        self.scope: List[ast.AST] = []
        #: Per-rule scratch space for single-pass collectors.
        self.state: Dict[str, Any] = {}
        self._suppressions: Optional[Dict[int, FrozenSet[str]]] = None
        self._line_aliases: Optional[Dict[int, List[int]]] = None
        self._imports: Optional[Dict[str, str]] = None
        self._module_defs: Optional[FrozenSet[str]] = None
        self._mutable_globals: Optional[Dict[str, int]] = None

    # ---- scope ----------------------------------------------------

    def in_function(self) -> bool:
        """Whether the walker is currently inside a def/lambda."""
        return any(
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            for node in self.scope
        )

    def qualname(self) -> str:
        """Dotted name of the enclosing scope (``module.Class.method``)."""
        names = [
            node.name
            for node in self.scope
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]
        return ".".join([self.module] + names) if names else self.module

    # ---- suppressions ---------------------------------------------

    @property
    def suppressions(self) -> Dict[int, FrozenSet[str]]:
        if self._suppressions is None:
            self._suppressions = parse_suppressions(self.source)
        return self._suppressions

    @property
    def line_aliases(self) -> Dict[int, List[int]]:
        """Finding line -> other lines whose markers also cover it.

        A decorated ``def``/``class`` reports findings at the ``def``
        line, but the statement *starts* at its first decorator -- an
        ignore comment on any decorator line covers the definition.
        """
        if self._line_aliases is None:
            self._scan_statements()
        return self._line_aliases

    def suppressed(self, rule_id: str, line: int) -> bool:
        if is_suppressed(self.suppressions, rule_id, line):
            return True
        return any(
            is_suppressed(self.suppressions, rule_id, alias)
            for alias in self.line_aliases.get(line, ())
        )

    # ---- imports & bindings ---------------------------------------

    @property
    def imports(self) -> Dict[str, str]:
        """Local alias -> absolute dotted target, for module-level imports.

        ``import numpy as np`` -> ``{"np": "numpy"}``;
        ``from ..core.units import GB`` (in ``repro.trace.calibration``)
        -> ``{"GB": "repro.core.units.GB"}``.
        """
        if self._imports is None:
            self._scan_statements()
        return self._imports

    def _scan_statements(self) -> None:
        """Fill :attr:`imports` and :attr:`line_aliases` in one walk.

        Imports and decorated definitions are statements, so a
        breadth-first walk over statement bodies alone finds them all.
        It meets them in the order ``ast.walk`` does, so a name imported
        twice maps to the same (last) target.
        """
        mapping: Dict[str, str] = {}
        aliases: Dict[int, List[int]] = {}
        todo = deque([self.tree])
        while todo:
            node = todo.popleft()
            for name in _STATEMENT_FIELDS:
                todo.extend(getattr(node, name, ()))
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else local
                    mapping[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = self.resolve_import_base(node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    mapping[local] = f"{base}.{alias.name}" if base else alias.name
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and node.decorator_list:
                aliases[node.lineno] = [
                    decorator.lineno for decorator in node.decorator_list
                ]
        self._imports = mapping
        self._line_aliases = aliases

    def resolve_import_base(self, node: ast.ImportFrom) -> Optional[str]:
        """Absolute dotted package a ``from ... import`` pulls from."""
        if node.level == 0:
            return node.module or ""
        parts = self.module.split(".") if self.module else []
        if not self.is_package:
            parts = parts[:-1]
        parts = parts[: len(parts) - (node.level - 1)] if node.level > 1 else parts
        if node.level - 1 > 0 and not parts:
            return None
        base = ".".join(parts)
        if node.module:
            base = f"{base}.{node.module}" if base else node.module
        return base

    @property
    def module_defs(self) -> FrozenSet[str]:
        """Names of functions/classes defined at module top level."""
        if self._module_defs is None:
            self._module_defs = frozenset(
                node.name
                for node in self.tree.body
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                )
            )
        return self._module_defs

    @property
    def mutable_globals(self) -> Dict[str, int]:
        """Module-level names bound to mutable literals -> binding line."""
        if self._mutable_globals is None:
            bindings: Dict[str, int] = {}
            for node in self.tree.body:
                targets: List[ast.expr] = []
                value: Optional[ast.expr] = None
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                if value is None or not _is_mutable_value(value):
                    continue
                for target in targets:
                    if isinstance(target, ast.Name):
                        bindings[target.id] = node.lineno
            self._mutable_globals = bindings
        return self._mutable_globals

    # ---- name resolution ------------------------------------------

    @staticmethod
    def dotted(node: ast.expr) -> Optional[List[str]]:
        """Flatten a ``Name``/``Attribute`` chain to its parts, or None."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        return parts

    def resolve(self, node: ast.expr) -> Optional[str]:
        """Best-effort absolute dotted name of an expression.

        Resolves the head through the import alias map; a bare name
        defined at module top level resolves to ``module.name``.
        Returns ``None`` when the target is not statically nameable
        (calls on call results, subscripts, locals...).
        """
        parts = self.dotted(node)
        if parts is None:
            return None
        head = parts[0]
        resolved_head = self.imports.get(head)
        if resolved_head is not None:
            return ".".join([resolved_head] + parts[1:])
        if head in self.module_defs:
            return ".".join([self.module, head] + parts[1:]) if self.module else None
        return None

    # ---- findings -------------------------------------------------

    def snippet(self, node: ast.AST) -> str:
        """The offending source, unparsed and truncated."""
        try:
            text = ast.unparse(node)
        # repro: ignore[exception-contract] cosmetic fallback: a snippet
        # that fails to unparse must not fail the lint run itself
        except Exception:
            text = ""
        return text[:MAX_CONTEXT]

    def finding(
        self,
        rule_id: str,
        node: ast.AST,
        message: str,
        *,
        context: Optional[str] = None,
    ) -> Finding:
        return Finding(
            rule=rule_id,
            path=str(self.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            context=self.snippet(node) if context is None else context,
            pkg_path=self.pkg_path,
        )


def _is_mutable_value(value: ast.expr) -> bool:
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        parts = FileContext.dotted(value.func)
        return parts is not None and parts[-1] in _MUTABLE_CALLS
    return False
