"""The rule registry: one place every analysis is declared.

A rule is a class deriving from :class:`Rule` and decorated with
:func:`register`.  Rules hook into the engine three ways, all optional:

* ``visit_<NodeType>(ctx, node)`` -- called from the engine's *single*
  AST pass for every matching node; yields findings.  One walk serves
  every rule: the dispatch table is built once per file from the
  registered rules' method names.
* ``finish_file(ctx)`` -- called after the walk; yields findings that
  need whole-file context.
* ``summarize(ctx)`` / ``check_project(summaries)`` -- the project
  phase.  ``summarize`` returns a per-file summary after the walk;
  ``check_project`` runs once over all summaries and yields cross-file
  findings (call-graph reachability, for example).

Rules must be stateless across files: per-file scratch belongs in
``ctx.state[rule_id]``, never on ``self``.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Type

from .context import FileContext
from .findings import Finding

__all__ = ["Rule", "register", "all_rules"]


class Rule:
    """Base class for lint rules; subclass, set the metadata, register."""

    #: Kebab-case identifier used in output, suppressions and baselines.
    id: str = ""
    #: One-line summary shown by ``--list-rules``.
    title: str = ""
    #: Why the rule exists -- rendered into the docs catalog.
    rationale: str = ""
    #: How to fix or legitimately suppress a finding.
    suggestion: str = ""

    def finding(
        self,
        ctx: FileContext,
        node: ast.AST,
        message: str,
        *,
        context: Optional[str] = None,
    ) -> Finding:
        return ctx.finding(self.id, node, message, context=context)

    # ---- optional hooks (see module docstring) --------------------

    def finish_file(self, ctx: FileContext) -> Iterable[Finding]:
        return ()

    def summarize(self, ctx: FileContext) -> Optional[Any]:
        return None

    def check_project(self, summaries: List[Any]) -> Iterable[Finding]:
        return ()


#: id -> rule class.  Populated at import time by :func:`register`;
#: read-only afterwards.
_RULES: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the registry."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} must set a non-empty id")
    if cls.id in _RULES:
        raise ValueError(f"duplicate rule id {cls.id!r}")
    if not cls.rationale or not cls.suggestion:
        raise ValueError(f"rule {cls.id!r} must document rationale and suggestion")
    _RULES[cls.id] = cls  # repro: ignore[fork-safety] import-time registration only
    return cls


def all_rules() -> Dict[str, Type[Rule]]:
    """The full registry (importing the bundled rules on first use)."""
    from . import rules  # noqa: F401  -- registers the built-in rules

    return dict(_RULES)


def instantiate(
    only: Optional[Iterable[str]] = None,
) -> List[Rule]:
    """Fresh rule instances, optionally restricted to ``only`` ids."""
    registry = all_rules()
    if only is None:
        selected = list(registry)
    else:
        selected = list(only)
        unknown = [rule_id for rule_id in selected if rule_id not in registry]
        if unknown:
            raise KeyError(
                f"unknown rules: {', '.join(unknown)}; "
                f"known: {', '.join(sorted(registry))}"
            )
    return [registry[rule_id]() for rule_id in selected]


def dispatch_table(
    rules: Iterable[Rule],
) -> Dict[str, List[Tuple[Rule, Any]]]:
    """Node-type-name -> [(rule, bound visit method)] for one pass."""
    table: Dict[str, List[Tuple[Rule, Any]]] = {}
    for rule in rules:
        for name in dir(type(rule)):
            if not name.startswith("visit_"):
                continue
            node_type = name[len("visit_"):]
            table.setdefault(node_type, []).append((rule, getattr(rule, name)))
    return table


def iter_findings(result: Optional[Iterable[Finding]]) -> Iterator[Finding]:
    """Normalize a hook's return value (None or iterable of findings)."""
    if result is None:
        return iter(())
    return iter(result)
