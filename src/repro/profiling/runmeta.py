"""RunMetadata-style runtime traces (Fig. 4, "Runtime Profiling").

TensorFlow's ``tf.RunMetadata`` records device placement, kernel launch
and execution times and tensor attributes; the paper's characterization
framework consumes that trace plus job-level metadata (how many workers
a job uses).  This module provides the equivalent records over our
simulator's timelines, so the same feature-extraction pipeline can run
on simulated steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.architectures import Architecture
from ..sim.events import TimelineRecord
from ..sim.measurement import StepMeasurement

__all__ = ["OpTraceEntry", "JobMetadata", "RunMetadata"]


@dataclass(frozen=True)
class OpTraceEntry:
    """One profiled activity: a kernel execution or a transfer."""

    op_name: str
    device: str
    start_us: float
    end_us: float
    category: str
    volume: float

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us

    @staticmethod
    def from_record(record: TimelineRecord) -> "OpTraceEntry":
        return OpTraceEntry(
            op_name=record.name,
            device=record.resource,
            start_us=record.start * 1e6,
            end_us=record.end * 1e6,
            category=record.category,
            volume=record.volume,
        )


@dataclass(frozen=True)
class JobMetadata:
    """Job-level resource allocation (the "Job Meta Info" of Fig. 4).

    Run metadata describes a single computation node; job metadata
    supplies the rest: how many workers/PS nodes the job uses and the
    system architecture.
    """

    job_name: str
    architecture: Architecture
    num_workers: int
    num_parameter_servers: int = 0
    gpus_per_worker: int = 1
    batch_size: int = 1

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        if self.num_parameter_servers < 0:
            raise ValueError("num_parameter_servers must be non-negative")

    @property
    def num_cnodes(self) -> int:
        """Computation nodes = model replicas = worker GPUs."""
        return self.num_workers * self.gpus_per_worker


class RunMetadata:
    """The profiled trace of one training step."""

    def __init__(self, entries: List[OpTraceEntry]) -> None:
        self._entries = sorted(entries, key=lambda e: (e.start_us, e.op_name))

    @staticmethod
    def from_measurement(measurement: StepMeasurement) -> "RunMetadata":
        return RunMetadata(
            [OpTraceEntry.from_record(r) for r in measurement.records]
        )

    @property
    def entries(self) -> Tuple[OpTraceEntry, ...]:
        return tuple(self._entries)

    def entries_of(self, category: str) -> List[OpTraceEntry]:
        return [e for e in self._entries if e.category == category]

    def total_volume(self, category: str) -> float:
        """Summed volume (FLOPs or bytes) of one activity category."""
        return sum(e.volume for e in self.entries_of(category))

    def busy_time_us(self, category: str) -> float:
        return sum(e.duration_us for e in self.entries_of(category))

    def summary(self) -> Dict[str, float]:
        categories = sorted({e.category for e in self._entries})
        return {
            category: self.busy_time_us(category) for category in categories
        }
