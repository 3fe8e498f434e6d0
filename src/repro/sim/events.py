"""The activity record shared across the testbed simulator.

The training-step simulator (:mod:`repro.sim.executor`) books every
kernel execution and transfer on a device or channel as a
:class:`TimelineRecord`; the measurement and profiling layers read
them back.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TimelineRecord"]


@dataclass(frozen=True)
class TimelineRecord:
    """One completed activity on a device or channel.

    These records are the raw material of the profiling pipeline
    (:mod:`repro.profiling.runmeta`): what ran where, when, and how much
    data/compute it involved.
    """

    name: str
    resource: str
    start: float
    end: float
    category: str  # "compute", "memory", "input", "weight", "overhead"
    volume: float = 0.0

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("end must not precede start")

    @property
    def duration(self) -> float:
        return self.end - self.start
