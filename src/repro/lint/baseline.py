"""The committed baseline: grandfathered findings with justifications.

The baseline file is JSON so diffs review well::

    {
      "version": 1,
      "entries": [
        {
          "rule": "fork-safety",
          "path": "repro/obs/core.py",
          "context": "global _OBS",
          "reason": "process-local singleton by design; workers inherit it"
        }
      ]
    }

Entries match findings by ``(rule, pkg_path, context)`` -- no line
numbers, so unrelated edits do not churn the file.  One entry matches
every finding with that key (e.g. the same ``global _OBS`` statement in
two functions).  ``python -m repro.lint --write-baseline`` regenerates
the file from the current findings; the one-line ``reason`` is then
filled in by hand and reviewed like code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Dict, Iterable, List, Tuple, Union

from .findings import Finding

__all__ = ["BaselineEntry", "Baseline", "write_baseline"]

_PLACEHOLDER_REASON = "grandfathered; justify or fix"


@dataclass(frozen=True)
class BaselineEntry:
    rule: str
    path: str
    context: str
    reason: str

    def key(self) -> Tuple[str, str, str]:
        return (self.rule, self.path, self.context)


class Baseline:
    """An in-memory baseline, loaded once per run."""

    def __init__(self, entries: Iterable[BaselineEntry] = ()) -> None:
        self.entries: List[BaselineEntry] = list(entries)
        self._by_key: Dict[Tuple[str, str, str], BaselineEntry] = {
            entry.key(): entry for entry in self.entries
        }
        self._matched: set = set()

    @classmethod
    def load(cls, path: Union[str, Path], *, strict: bool = True) -> "Baseline":
        """Parse a baseline file.

        Strict loading (the default, what the CLI and the pytest bridge
        use) refuses entries without a non-empty ``reason``: a baseline
        entry is a reviewed exemption, and an exemption nobody can
        justify is just a muted finding.  ``strict=False`` is for
        ``--write-baseline`` itself, which must read a half-annotated
        file to preserve the reasons that do exist.
        """
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        version = payload.get("version")
        if version != 1:
            raise ValueError(f"unsupported baseline version: {version!r}")
        entries = [
            BaselineEntry(
                rule=entry["rule"],
                path=entry["path"],
                context=entry.get("context", ""),
                reason=entry.get("reason", ""),
            )
            for entry in payload.get("entries", [])
        ]
        if strict:
            unjustified = [e for e in entries if not e.reason.strip()]
            if unjustified:
                listed = ", ".join(
                    f"{e.rule} @ {e.path}" for e in unjustified[:5]
                )
                raise ValueError(
                    f"{len(unjustified)} baseline entr"
                    f"{'y' if len(unjustified) == 1 else 'ies'} without a "
                    f"reason ({listed}); every exemption needs its one-line "
                    "justification"
                )
        return cls(entries)

    def write(self, path: Union[str, Path]) -> int:
        """Serialize this baseline back to ``path`` (sorted, stable)."""
        ordered = sorted(self.entries, key=lambda e: e.key())
        payload = {
            "version": 1,
            "entries": [
                {
                    "rule": entry.rule,
                    "path": entry.path,
                    "context": entry.context,
                    "reason": entry.reason,
                }
                for entry in ordered
            ],
        }
        Path(path).write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
        return len(ordered)

    def match(self, finding: Finding) -> bool:
        """Whether ``finding`` is grandfathered (marks the entry used)."""
        key = finding.key()
        if key in self._by_key:
            self._matched.add(key)
            return True
        return False

    def unused(self, skipped: Collection[str] = ()) -> List[BaselineEntry]:
        """Entries that matched nothing -- stale, candidates for removal.

        Entries of the rules in ``skipped`` (registered rules the run
        left out) are never stale: nothing looked for their findings.
        """
        return [
            e
            for e in self.entries
            if e.key() not in self._matched and e.rule not in skipped
        ]


def write_baseline(
    findings: Iterable[Finding],
    path: Union[str, Path],
    *,
    skipped: Collection[str] = (),
) -> int:
    """Write ``findings`` as a fresh baseline; returns the entry count.

    Duplicate keys collapse to one entry.  Existing reasons at ``path``
    are preserved for entries that survive the regeneration, and
    existing entries of the rules in ``skipped`` (registered rules the
    run left out) are kept as they are.
    """
    path = Path(path)
    previous: List[BaselineEntry] = []
    if path.exists():
        try:
            previous = Baseline.load(path, strict=False).entries
        except (ValueError, KeyError, json.JSONDecodeError):
            pass
    reasons = {entry.key(): entry.reason for entry in previous}
    entries: Dict[Tuple[str, str, str], BaselineEntry] = {
        entry.key(): entry for entry in previous if entry.rule in skipped
    }
    for finding in findings:
        key = finding.key()
        entries[key] = BaselineEntry(
            rule=finding.rule,
            path=finding.pkg_path or finding.path,
            context=finding.context,
            reason=reasons.get(key) or _PLACEHOLDER_REASON,
        )
    return Baseline(entries.values()).write(path)
