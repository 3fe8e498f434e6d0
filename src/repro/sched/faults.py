"""Fault-injection hooks for the gang-scheduling engine.

The engine is failure-free by construction; production fleets are not.
:class:`SchedFaults` is the narrow waist between a fault *plan* (owned
by :mod:`repro.faults`, a higher layer) and the engine's event loop:
a frozen set of timed disruptions seeded into the event heap before
the replay starts.

Two fault surfaces map onto the operational behavior GPU-datacenter
studies report as dominant:

* **worker crashes** -- at a given hour one running job's worker dies
  (OOM, hardware fault); the job fails, releases its GPUs, and
  re-queues after a retry backoff, with the retry counted on its
  outcome;
* **preemption storms** -- a burst of evictions (quota enforcement, an
  urgent tenant) that preempts several running jobs per tick over a
  window, regardless of what the policy would have chosen.

Both surfaces emit *symptoms* only (``sched.job_failed`` /
``sched.preempted`` obs events, retry counters); nothing in the
telemetry names the injected cause.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["CrashSpec", "SchedFaults", "StormSpec"]


def _require_finite(spec: object, *fields: str) -> None:
    """Reject NaN and infinite hours: every NaN comparison is false, so
    they would slip past the range checks and stall the event heap."""
    for name in fields:
        if not math.isfinite(getattr(spec, name)):
            raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class CrashSpec:
    """One worker death.

    Attributes:
        hour: When the worker dies.  If nothing is running at that
            instant the crash fires at the next event timestamp with a
            running victim (a dead machine kills the next job placed on
            it); it is dropped if the replay ends first.
        job_id: Preferred victim.  ``None`` (or a job that is not
            running at crash time) selects the running job with the
            lowest id, which is deterministic.
        backoff_hours: Retry backoff before the failed job re-queues.
    """

    hour: float
    job_id: Optional[int] = None
    backoff_hours: float = 2.0

    def __post_init__(self) -> None:
        _require_finite(self, "hour", "backoff_hours")
        if self.hour < 0:
            raise ValueError("hour must be non-negative")
        if self.backoff_hours <= 0:
            raise ValueError("backoff_hours must be positive")


@dataclass(frozen=True)
class StormSpec:
    """One preemption storm: periodic eviction waves.

    Attributes:
        start_hour: First wave.
        ticks: Number of waves.
        interval_hours: Hours between waves.
        victims_per_tick: Running jobs evicted per wave (lowest ids
            first, deterministically).
    """

    start_hour: float
    ticks: int = 3
    interval_hours: float = 1.0
    victims_per_tick: int = 2

    def __post_init__(self) -> None:
        _require_finite(self, "start_hour", "interval_hours")
        if self.start_hour < 0:
            raise ValueError("start_hour must be non-negative")
        if self.ticks < 1:
            raise ValueError("ticks must be at least 1")
        if self.interval_hours <= 0:
            raise ValueError("interval_hours must be positive")
        if self.victims_per_tick < 1:
            raise ValueError("victims_per_tick must be at least 1")

    def tick_hours(self) -> Tuple[float, ...]:
        """The timestamps of every wave."""
        return tuple(
            self.start_hour + i * self.interval_hours
            for i in range(self.ticks)
        )


@dataclass(frozen=True)
class SchedFaults:
    """Every disruption injected into one engine run."""

    crashes: Tuple[CrashSpec, ...] = ()
    storms: Tuple[StormSpec, ...] = ()

    @property
    def is_healthy(self) -> bool:
        """Whether this record injects nothing at all."""
        return not self.crashes and not self.storms
