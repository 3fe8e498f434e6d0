"""Event sinks: where structured telemetry goes.

Every event is one flat dict (see :mod:`repro.obs.core` for the
schema).  Sinks are deliberately tiny -- ``emit`` one event, ``close``
when the run ends -- so new destinations (a socket, a metrics gateway)
are one class away.

The JSON-lines sink opens its file in append mode and writes each event
as a single line-buffered ``write`` call, so events appended by forked
worker processes sharing the file descriptor land as whole lines.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, TextIO, Union

__all__ = [
    "DEBUG",
    "INFO",
    "WARNING",
    "ERROR",
    "LEVEL_NAMES",
    "level_of",
    "Sink",
    "StderrSink",
    "JsonLinesSink",
    "MemorySink",
]

DEBUG = 10
INFO = 20
WARNING = 30
ERROR = 40

LEVEL_NAMES: Dict[int, str] = {
    DEBUG: "debug",
    INFO: "info",
    WARNING: "warning",
    ERROR: "error",
}

_NAME_LEVELS = {name: level for level, name in LEVEL_NAMES.items()}


def level_of(event: Dict[str, Any]) -> int:
    """Numeric level of an event (events carry the level *name*)."""
    return _NAME_LEVELS.get(event.get("level", "info"), INFO)


class Sink:
    """Interface: receive events, release resources at the end."""

    def emit(self, event: Dict[str, Any]) -> None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        pass


def _format_human(event: Dict[str, Any]) -> str:
    """One human-readable line: ``kind`` first, then ``key=value`` pairs."""
    kind = event.get("kind", "event")
    parts = [str(kind)]
    skip = {"ts", "kind", "level"}
    if kind == "span":
        name = event.get("name", "?")
        wall = event.get("wall_s", 0.0)
        indent = "  " * int(event.get("depth", 0) or 0)
        parts = [f"{indent}span {name} [{wall * 1e3:.1f}ms]"]
        skip |= {"name", "wall_s", "depth"}
    elif kind == "log":
        parts = [str(event.get("message", ""))]
        skip.add("message")
    for key, value in event.items():
        if key in skip:
            continue
        if isinstance(value, float):
            value = f"{value:.6g}"
        parts.append(f"{key}={value}")
    return " ".join(parts)


class StderrSink(Sink):
    """Human-readable log lines on stderr, filtered by level."""

    def __init__(
        self, min_level: int = INFO, stream: Optional[TextIO] = None
    ) -> None:
        self.min_level = min_level
        self._stream = stream

    @property
    def stream(self) -> TextIO:
        # Resolved per write so pytest's capture and CLI redirection work.
        return self._stream if self._stream is not None else sys.stderr

    def emit(self, event: Dict[str, Any]) -> None:
        if level_of(event) < self.min_level:
            return
        level = event.get("level", "info")
        prefix = "" if level == "info" else f"{str(level).upper()} "
        try:
            self.stream.write(f"[pai-repro] {prefix}{_format_human(event)}\n")
        except (OSError, ValueError):  # closed/broken stderr: drop, never raise
            pass


class JsonLinesSink(Sink):
    """Machine-readable event log: one JSON object per line, appended."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle: Optional[io.TextIOBase] = None

    def _ensure_open(self) -> io.TextIOBase:
        if self._handle is None or self._handle.closed:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # Line buffering: each event is flushed as one whole line, so
            # forked workers appending concurrently cannot shear a line.
            self._handle = open(
                self.path, "a", buffering=1, encoding="utf-8"
            )
        return self._handle

    def emit(self, event: Dict[str, Any]) -> None:
        line = json.dumps(event, sort_keys=True, default=str)
        try:
            self._ensure_open().write(line + "\n")
        except OSError:  # disk full / unwritable path: telemetry never kills a run
            pass

    def close(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self._handle.close()


class MemorySink(Sink):
    """Keeps every event in a list (for tests and programmatic use)."""

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []

    def emit(self, event: Dict[str, Any]) -> None:
        self.events.append(event)
