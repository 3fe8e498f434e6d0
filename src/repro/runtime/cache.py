"""On-disk, content-addressed cache of experiment results.

Each entry is one JSON file named by its configuration fingerprint
(:mod:`repro.runtime.fingerprint`).  Because the fingerprint covers the
trace config, hardware model and package version, a hit is valid by
construction -- there is no expiry logic.  Corrupt or truncated files
are treated as misses and overwritten on the next store, and a store
that the disk refuses (full, read-only, failing) is skipped with a
warning: the cache can lose an entry, never a result.

Values are normalized to native Python types before storage so a warm
(cache-served) result renders byte-identically to the cold run that
produced it: JSON round-trips floats exactly via their shortest repr,
and the executor applies the same normalization to cold results.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..analysis.result import ExperimentResult
from ..obs import DEBUG, WARNING, get_obs

__all__ = [
    "CACHE_DIR_ENV_VAR",
    "CACHE_FORMAT",
    "ResultCache",
    "default_cache_dir",
    "normalize_value",
    "normalize_result",
]

#: Environment override for the cache root (CLI ``--cache-dir`` wins).
CACHE_DIR_ENV_VAR = "PAI_REPRO_CACHE_DIR"

#: Bumped whenever the entry layout changes; old entries become misses.
CACHE_FORMAT = 1

#: Write temporaries older than this are orphans of a dead process and
#: safe to sweep; younger ones may be another writer's in-flight entry.
STALE_TMP_AGE_S = 3600.0


def default_cache_dir() -> Path:
    """``$PAI_REPRO_CACHE_DIR`` or ``~/.cache/pai-repro``."""
    override = os.environ.get(CACHE_DIR_ENV_VAR)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "pai-repro"


def normalize_value(value: Any) -> Any:
    """Coerce one cell to a JSON-native type, preserving its rendering.

    NumPy scalars leak out of vectorized experiments; ``np.bool_`` is not
    a ``bool`` subclass and would render ``True`` instead of ``yes``, and
    ``np.int64`` is not JSON-serializable at all.  Anything else
    non-native falls back to ``str``, which is exactly how the table
    renderer would have displayed it.
    """
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        # Covers np.float64 (a float subclass); plain int/float/str pass
        # through untouched.
        if type(value) in (int, float, str):
            return value
        if isinstance(value, float):
            return float(value)
        if isinstance(value, int):
            return int(value)
        return str(value)
    if hasattr(value, "item"):  # numpy scalar, incl. np.bool_ / np.int64
        return normalize_value(value.item())
    return str(value)


def normalize_result(result: ExperimentResult) -> ExperimentResult:
    """A copy of ``result`` with all row values JSON-native."""
    return ExperimentResult(
        experiment=result.experiment,
        title=result.title,
        rows=[
            {str(key): normalize_value(value) for key, value in row.items()}
            for row in result.rows
        ],
        notes=[str(note) for note in result.notes],
    )


class ResultCache:
    """Content-addressed store of :class:`ExperimentResult` entries."""

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()

    def path_for(self, key: str) -> Path:
        """The entry file for one fingerprint."""
        return self.root / f"{key}.json"

    def load(self, key: str) -> Optional[ExperimentResult]:
        """The cached result for ``key``, or ``None`` on any miss.

        Corrupt, truncated or foreign files are misses, never errors.
        """
        path = self.path_for(key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            get_obs().event("cache.load", level=DEBUG, key=key, outcome="miss")
            return None
        try:
            payload = json.loads(text)
        except ValueError:
            self._corrupt(key, "not JSON")
            return None
        if not isinstance(payload, dict):
            self._corrupt(key, "not an object")
            return None
        if payload.get("format") != CACHE_FORMAT:
            get_obs().event(
                "cache.load", level=DEBUG, key=key, outcome="stale-format"
            )
            return None
        if payload.get("fingerprint") != key:
            self._corrupt(key, "fingerprint mismatch")
            return None
        try:
            result = ExperimentResult(
                experiment=payload["experiment"],
                title=payload["title"],
                rows=[dict(row) for row in payload["rows"]],
                notes=[str(note) for note in payload["notes"]],
            )
        except (KeyError, TypeError, ValueError):
            self._corrupt(key, "missing or malformed fields")
            return None
        get_obs().event("cache.load", level=DEBUG, key=key, outcome="hit")
        return result

    def _corrupt(self, key: str, reason: str) -> None:
        """Report a corrupt entry (treated as a miss, never an error)."""
        obs = get_obs()
        obs.metrics.counter("cache.corrupt").inc()
        obs.event("cache.corrupt", level=WARNING, key=key, reason=reason)

    def store(self, key: str, result: ExperimentResult) -> Optional[Path]:
        """Write one entry atomically; returns the entry path.

        An ``OSError`` on the way (a full disk, a failing ``rename``)
        leaves no entry and no temporary behind, emits a
        ``cache.store_failed`` warning and returns ``None``.
        """
        result = normalize_result(result)
        payload: Dict[str, Any] = {
            "format": CACHE_FORMAT,
            "fingerprint": key,
            "experiment": result.experiment,
            "title": result.title,
            "rows": result.rows,
            "notes": result.notes,
        }
        path = self.path_for(key)
        tmp: Optional[str] = None
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            with tempfile.NamedTemporaryFile(
                mode="w",
                encoding="utf-8",
                dir=str(self.root),
                suffix=".tmp",
                delete=False,
            ) as handle:
                tmp = handle.name
                json.dump(payload, handle, indent=1)
            os.replace(tmp, path)
            tmp = None
        except OSError as error:
            get_obs().event(
                "cache.store_failed", level=WARNING, key=key, error=str(error)
            )
            return None
        finally:
            if tmp is not None:  # never renamed into place
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
        get_obs().event(
            "cache.store",
            level=DEBUG,
            key=key,
            bytes=path.stat().st_size,
        )
        # A process killed between temp-file creation and the atomic
        # rename above leaves a ``*.tmp`` orphan behind; opportunistic
        # sweeping on every store keeps them from accumulating forever.
        self.sweep_tmp(max_age_s=STALE_TMP_AGE_S)
        return path

    def discard(self, key: str) -> bool:
        """Delete one entry if present; True when a file was removed.

        Lets a long-lived writer (the serve query layer) evict entries
        it has superseded instead of accumulating one file per
        generation forever.  Races with concurrent writers are benign:
        a missing file is simply False.
        """
        try:
            self.path_for(key).unlink()
        except OSError:
            return False
        get_obs().event("cache.discard", level=DEBUG, key=key)
        return True

    def sweep_tmp(self, max_age_s: float = 0.0) -> int:
        """Delete orphaned ``*.tmp`` write temporaries; returns the count.

        ``max_age_s`` spares temporaries younger than that many seconds
        (a concurrent writer's in-flight entry); ``0`` sweeps them all.
        """
        if not self.root.is_dir():
            return 0
        now = time.time()
        removed = 0
        for tmp in self.root.glob("*.tmp"):
            try:
                if max_age_s > 0 and now - tmp.stat().st_mtime < max_age_s:
                    continue
                tmp.unlink()
                removed += 1
            except OSError:
                pass
        if removed:
            obs = get_obs()
            obs.metrics.counter("cache.tmp_swept").inc(removed)
            obs.event("cache.tmp_swept", level=DEBUG, count=removed)
        return removed

    def clear(self) -> int:
        """Delete every entry and write temporary; returns the number removed."""
        if not self.root.is_dir():
            return 0
        removed = self.sweep_tmp(max_age_s=0.0)
        for entry in self.root.glob("*.json"):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed
