"""The analysis driver: files in, filtered findings out.

Execution is two-phase, in one process:

1. **Per-file** (:func:`_lint_file`): parse, run the single dispatch
   pass (:func:`repro.lint.visitor.run_pass`), apply inline
   suppressions, and collect each project rule's summary.
2. **Project** (:func:`_check_project`): rules with ``check_project``
   consume the gathered summaries and yield cross-file findings -- the
   determinism call graph lives here.

:func:`lint_paths` and :func:`lint_source` run exactly these two
functions.  Baseline filtering applies last, to per-file and project
findings alike.  The engine reports through :mod:`repro.obs` (one
``lint.finding`` event per finding, counters for the totals), so a
``--log-json`` run captures lint traffic in the same event stream as
everything else.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..obs import DEBUG, get_obs
from .baseline import Baseline, BaselineEntry
from .context import FileContext
from .findings import Finding, finding_sort_key
from .registry import Rule, all_rules, instantiate, iter_findings
from .visitor import run_pass

__all__ = ["LintResult", "lint_paths", "lint_source", "assert_clean"]


@dataclass
class LintResult:
    """Everything one engine run produced."""

    findings: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    files: int = 0
    rule_ids: List[str] = field(default_factory=list)
    #: Baseline entries of the rules that ran which matched nothing.
    unused_baseline: List[BaselineEntry] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def skipped_rules(self) -> Set[str]:
        """Registered rules this run left out (``--rules``)."""
        return all_rules().keys() - set(self.rule_ids)


def _lint_file(
    path: Path,
    rules: Sequence[Rule],
    summaries: Dict[str, List[Any]],
    *,
    source: Optional[str] = None,
    module: Optional[str] = None,
) -> Tuple[List[Finding], int]:
    """Per-file phase for one file: ``(unsuppressed findings, suppressed count)``.

    Reads ``path`` unless ``source`` is given, and appends each rule's
    summary to ``summaries[rule.id]``.  A file that cannot be read or
    parsed yields one ``parse-error`` finding.
    """
    try:
        if source is None:
            source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (SyntaxError, ValueError, UnicodeDecodeError, OSError) as exc:
        finding = Finding(
            rule="parse-error",
            path=str(path),
            line=getattr(exc, "lineno", None) or 1,
            col=getattr(exc, "offset", None) or 0,
            message=f"file does not parse: {exc}",
        )
        return [finding], 0
    ctx = FileContext(path, source, tree, module=module)
    findings: List[Finding] = []
    suppressed = 0
    for finding in run_pass(ctx, rules):
        if ctx.suppressed(finding.rule, finding.line):
            suppressed += 1
        else:
            findings.append(finding)
    for rule in rules:
        summary = rule.summarize(ctx)
        if summary is not None:
            summaries.setdefault(rule.id, []).append(summary)
    return findings, suppressed


def _check_project(
    rules: Sequence[Rule], summaries: Dict[str, List[Any]]
) -> List[Finding]:
    """Project phase: every ``check_project`` hook over its summaries."""
    findings: List[Finding] = []
    for rule in rules:
        if type(rule).check_project is not Rule.check_project:
            findings.extend(
                iter_findings(rule.check_project(summaries.get(rule.id, [])))
            )
    return findings


def iter_python_files(paths: Iterable[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated file list."""
    seen: Dict[Path, None] = {}
    for item in paths:
        path = Path(item)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                seen.setdefault(candidate, None)
        elif path.suffix == ".py" or path.is_file():
            seen.setdefault(path, None)
    return list(seen)


def lint_paths(
    paths: Iterable[Union[str, Path]],
    *,
    rules: Optional[Sequence[str]] = None,
    baseline: Optional[Baseline] = None,
) -> LintResult:
    """Run the engine over files and directories.

    Args:
        paths: Files and/or directories (recursed for ``*.py``).
        rules: Rule ids to run; defaults to every registered rule.
        baseline: Grandfathered findings to subtract.  Entries of
            registered rules that did not run are never reported as
            unused: nothing looked for their findings.

    Returns:
        A :class:`LintResult`; ``result.ok`` is the pass/fail verdict.
    """
    rule_instances = instantiate(rules)
    rule_ids = [rule.id for rule in rule_instances]
    files = iter_python_files(paths)

    obs = get_obs()
    all_findings: List[Finding] = []
    suppressed = 0
    summaries: Dict[str, List[Any]] = {}
    with obs.trace("lint.files", files=len(files)):
        for path in files:
            findings, file_suppressed = _lint_file(path, rule_instances, summaries)
            all_findings.extend(findings)
            suppressed += file_suppressed
    with obs.trace("lint.project"):
        all_findings.extend(_check_project(rule_instances, summaries))

    result = LintResult(suppressed=suppressed, files=len(files), rule_ids=rule_ids)
    for finding in sorted(all_findings, key=finding_sort_key):
        if baseline is not None and baseline.match(finding):
            result.baselined.append(finding)
        else:
            result.findings.append(finding)
    if baseline is not None:
        result.unused_baseline = baseline.unused(skipped=result.skipped_rules)

    obs.metrics.counter("lint.findings").inc(len(result.findings))
    obs.metrics.counter("lint.baselined").inc(len(result.baselined))
    obs.metrics.counter("lint.suppressed").inc(suppressed)
    # Debug level: the CLI already owns the user-facing rendering; the
    # JSON-lines sink records every event regardless of level.
    for finding in result.findings:
        obs.event("lint.finding", level=DEBUG, **_event_fields(finding))
    return result


def _event_fields(finding: Finding) -> Dict[str, Any]:
    fields = finding.to_event()
    for reserved in ("ts", "kind", "level"):
        fields.pop(reserved, None)
    return fields


def lint_source(
    source: str,
    *,
    filename: str = "<string>",
    module: Optional[str] = None,
    rules: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint one in-memory source string (both phases).

    The unit-test workhorse: inline fixtures run through exactly the
    engine code paths, with ``module`` overriding the dotted module
    name (so layering fixtures can claim to be ``repro.core.x``).
    """
    rule_instances = instantiate(rules)
    summaries: Dict[str, List[Any]] = {}
    findings, _suppressed = _lint_file(
        Path(filename), rule_instances, summaries, source=source, module=module
    )
    findings.extend(_check_project(rule_instances, summaries))
    return sorted(findings, key=finding_sort_key)


def assert_clean(
    paths: Iterable[Union[str, Path]],
    *,
    rules: Optional[Sequence[str]] = None,
    baseline: Optional[Baseline] = None,
) -> LintResult:
    """The pytest bridge: raise ``AssertionError`` listing any findings."""
    result = lint_paths(paths, rules=rules, baseline=baseline)
    if not result.ok:
        rendered = "\n".join(f.render() for f in result.findings)
        raise AssertionError(
            f"repro.lint found {len(result.findings)} problem(s):\n{rendered}"
        )
    return result
