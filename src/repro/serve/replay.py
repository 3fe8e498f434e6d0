"""Trace replay: jobs arrive over (simulated) time, not all at once.

The batch path materializes a whole trace and analyzes it once; a
resident service sees jobs the way PAI does -- as a stream ordered by
submission time.  :class:`TraceReplayer` turns any iterable of
:class:`~repro.trace.schema.JobRecord` (a generator, or
:func:`repro.trace.serialization.iter_trace` streaming from disk) into
that stream: records are grouped by ``submit_day``, chopped into
bounded batches, and delivered to a sink on a simulated clock.

``seconds_per_day`` maps one simulated trace day to wall-clock seconds
(a speedup knob: the paper's 51-day window replays in ~5 s at 0.1);
``0`` replays as fast as the sink can ingest.  The clock and sleep
functions are injectable so tests replay deterministically without
sleeping.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from ..obs import get_obs
from ..trace.schema import JobRecord, iter_day_groups

__all__ = ["ReplayBatch", "TraceReplayer"]


@dataclass(frozen=True)
class ReplayBatch:
    """One delivered slice of the stream: jobs sharing a submit day."""

    jobs: Sequence[JobRecord]
    day: int
    sequence: int

    def __len__(self) -> int:
        return len(self.jobs)


class TraceReplayer:
    """Replay a time-ordered job stream into a sink, batch by batch."""

    def __init__(
        self,
        jobs: Iterable[JobRecord],
        batch_size: int = 500,
        seconds_per_day: float = 0.0,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if seconds_per_day < 0:
            raise ValueError("seconds_per_day must be non-negative")
        self._jobs = jobs
        self.batch_size = int(batch_size)
        self.seconds_per_day = float(seconds_per_day)
        self._clock = clock
        self._sleep = sleep
        self._stop = threading.Event()
        self.delivered = 0

    def stop(self) -> None:
        """Ask a running replay to finish after the current batch."""
        self._stop.set()

    def _batches(self) -> Iterator[ReplayBatch]:
        """Day-grouped, size-bounded batches, in stream order.

        Each submission day's run of jobs
        (:func:`repro.trace.schema.iter_day_groups`) is chopped into
        ``batch_size`` chunks.
        """
        sequence = 0
        for day, group in iter_day_groups(self._jobs):
            for start in range(0, len(group), self.batch_size):
                yield ReplayBatch(
                    tuple(group[start : start + self.batch_size]),
                    day,
                    sequence,
                )
                sequence += 1

    def replay(self, sink: Callable[[Sequence[JobRecord]], object]) -> int:
        """Deliver the stream into ``sink``; returns jobs delivered.

        Runs synchronously -- callers wanting live ingestion alongside a
        serving thread run this in its own thread.  Honors :meth:`stop`
        between batches, so shutdown never tears a batch in half.
        """
        obs = get_obs()
        start = self._clock()
        first_day: Optional[int] = None
        for batch in self._batches():
            if self._stop.is_set():
                break
            if first_day is None:
                first_day = batch.day
            if self.seconds_per_day > 0:
                due = start + (batch.day - first_day) * self.seconds_per_day
                delay = due - self._clock()
                if delay > 0:
                    self._sleep(delay)
            if self._stop.is_set():
                break
            with obs.trace(
                "serve.replay.batch",
                jobs=len(batch),
                day=batch.day,
                sequence=batch.sequence,
            ):
                sink(batch.jobs)
            self.delivered += len(batch)
            obs.metrics.counter("serve.replay.jobs").inc(len(batch))
        obs.event(
            "serve.replay.done",
            jobs=self.delivered,
            stopped=self._stop.is_set(),
            wall_s=self._clock() - start,
        )
        return self.delivered
