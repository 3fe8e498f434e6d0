"""The observability context: events, spans and the process-wide instance.

Event schema (one flat JSON object per event):

========  =====================================================
field     meaning
========  =====================================================
``ts``    Unix timestamp (seconds, float) the event was emitted.
``kind``  Event type: ``span``, ``log``, ``summary``, or a
          dotted domain name (``cache.hit``, ``pool.broken``,
          ``sched.done``, ``trace.calibration``, ...).
``level`` ``debug`` / ``info`` / ``warning`` / ``error``.
========  =====================================================

``span`` events additionally carry ``name``, ``status`` (``ok`` /
``error``), ``wall_s``, ``cpu_s`` (when measured in-process), ``depth``
(nesting level) and the span's keyword attributes.  ``summary`` events
carry the full :meth:`~repro.obs.metrics.MetricRegistry.snapshot` under
``metrics``.

The module-level instance returned by :func:`get_obs` starts with a
single warnings-only stderr sink, so library use is silent; the CLI
upgrades it through :func:`configure` (``-v`` / ``-q`` /
``--log-json``).  Everything is fork-inheritance friendly: worker
processes keep emitting into the same JSON-lines file.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from .metrics import MetricRegistry, render_summary_table
from .sinks import (
    DEBUG,
    ERROR,
    INFO,
    LEVEL_NAMES,
    WARNING,
    JsonLinesSink,
    Sink,
    StderrSink,
)

__all__ = [
    "Observability",
    "configure",
    "get_obs",
    "reset_obs",
]


class _SpanStack(threading.local):
    def __init__(self) -> None:
        self.depth = 0


class Observability:
    """One metrics registry plus a fan-out of event sinks."""

    def __init__(self, sinks: Optional[List[Sink]] = None) -> None:
        self.metrics = MetricRegistry()
        self.sinks: List[Sink] = list(sinks) if sinks is not None else []
        self._spans = _SpanStack()

    # ---- sinks -----------------------------------------------------

    def add_sink(self, sink: Sink) -> Sink:
        self.sinks.append(sink)
        return sink

    def close(self) -> None:
        """Close every sink (flushes the JSON-lines event log)."""
        for sink in self.sinks:
            try:
                sink.close()
            # repro: ignore[exception-contract] last-resort swallow by
            # design: a dying sink must not mask the run's result, and
            # reporting through obs here would re-enter the dying sink
            except Exception:
                pass

    # ---- events ----------------------------------------------------

    def event(self, kind: str, *, level: int = INFO, **fields: Any) -> None:
        """Emit one structured event to every sink."""
        if not self.sinks:
            return
        payload: Dict[str, Any] = {
            "ts": time.time(),
            "kind": kind,
            "level": LEVEL_NAMES.get(level, "info"),
        }
        payload.update(fields)
        for sink in self.sinks:
            sink.emit(payload)

    def log(self, level: int, message: str, **fields: Any) -> None:
        self.event("log", level=level, message=message, **fields)

    def debug(self, message: str, **fields: Any) -> None:
        self.log(DEBUG, message, **fields)

    def info(self, message: str, **fields: Any) -> None:
        self.log(INFO, message, **fields)

    def error(self, message: str, **fields: Any) -> None:
        self.log(ERROR, message, **fields)

    # ---- spans -----------------------------------------------------

    def span_event(
        self,
        name: str,
        *,
        wall_s: float,
        cpu_s: Optional[float] = None,
        status: str = "ok",
        level: int = DEBUG,
        depth: Optional[int] = None,
        **attrs: Any,
    ) -> None:
        """Record one finished span: a timer observation plus an event.

        Used both by :meth:`trace` and directly by the suite executor,
        which measures experiment durations inside worker processes and
        reports them from the parent.
        """
        self.metrics.timer(f"span.{name}").observe(wall_s)
        fields: Dict[str, Any] = {
            "name": name,
            "status": status,
            "wall_s": wall_s,
            "depth": self._spans.depth if depth is None else depth,
        }
        if cpu_s is not None:
            fields["cpu_s"] = cpu_s
        fields.update(attrs)
        self.event("span", level=level, **fields)

    @contextmanager
    def trace(
        self, name: str, *, level: int = DEBUG, **attrs: Any
    ) -> Iterator[None]:
        """Span-style tracing: times a block (wall + CPU), nests."""
        depth = self._spans.depth
        self._spans.depth = depth + 1
        wall_start = time.perf_counter()
        cpu_start = time.process_time()
        status = "ok"
        try:
            yield
        except BaseException:
            status = "error"
            raise
        finally:
            self._spans.depth = depth
            self.span_event(
                name,
                wall_s=time.perf_counter() - wall_start,
                cpu_s=time.process_time() - cpu_start,
                status=status,
                level=level,
                depth=depth,
                **attrs,
            )

    # ---- summary ---------------------------------------------------

    def summary_table(self) -> str:
        """The human-readable end-of-run metric table."""
        return render_summary_table(self.metrics)

    def emit_summary(self) -> None:
        """Emit the ``summary`` event carrying the full metric snapshot.

        Debug level on stderr (the human-readable summary table covers
        that audience); the JSON-lines sink records every event
        regardless of level, so the snapshot always lands in the log.
        """
        self.event("summary", level=DEBUG, metrics=self.metrics.snapshot())


_LOCK = threading.Lock()
_OBS: Optional[Observability] = None


def get_obs() -> Observability:
    """The process-wide observability context (created on first use)."""
    global _OBS
    with _LOCK:
        if _OBS is None:
            _OBS = Observability(sinks=[StderrSink(min_level=WARNING)])
        return _OBS


def configure(
    *,
    verbose: bool = False,
    quiet: bool = False,
    json_path: Optional[Union[str, Path]] = None,
) -> Observability:
    """(Re)configure the process-wide context; the CLI's entry point.

    ``verbose`` lowers the stderr threshold to debug, ``quiet`` raises
    it to errors only, and ``json_path`` adds a JSON-lines event log.
    """
    if verbose and quiet:
        raise ValueError("pass at most one of verbose/quiet")
    obs = get_obs()
    obs.close()
    level = DEBUG if verbose else ERROR if quiet else INFO
    obs.sinks = [StderrSink(min_level=level)]
    if json_path is not None:
        obs.add_sink(JsonLinesSink(json_path))
    return obs


def reset_obs() -> None:
    """Close and drop the process-wide context (test hook)."""
    global _OBS
    with _LOCK:
        if _OBS is not None:
            _OBS.close()
        _OBS = None
