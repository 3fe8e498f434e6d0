"""Per-job outcomes and fleet telemetry of one scheduling run.

A :class:`JobOutcome` records when one job waited, ran (possibly in
several segments, if preempted) and finished; a
:class:`ScheduleOutcome` aggregates a whole run into the operational
quantities a platform team watches -- queueing delay, job completion
time, slowdown, utilization -- plus a :class:`FleetTelemetry` time
series sampled at every scheduling event: busy GPUs, free-pool
fragmentation, queue depth, and an energy proxy integrated from active
GPU-hours.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..core.architectures import Architecture
from ..trace.schema import JobRecord
from .fleet import Placement

__all__ = [
    "ExecutionSegment",
    "FleetTelemetry",
    "JobOutcome",
    "ScheduleOutcome",
    "TelemetrySample",
]

#: Board power of one PAI-era accelerator (V100 SXM2), for the
#: telemetry energy proxy.
DEFAULT_GPU_WATTS = 300.0


def _percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return ordered[rank]


@dataclass(frozen=True)
class ExecutionSegment:
    """One uninterrupted run of a job on a fixed placement."""

    start_hour: float
    end_hour: float
    placement: Placement

    @property
    def duration_hours(self) -> float:
        """Wall-clock length of the segment."""
        return self.end_hour - self.start_hour

    @property
    def gpu_hours(self) -> float:
        """GPU-hours the segment consumed."""
        return self.duration_hours * self.placement.total_gpus


@dataclass(frozen=True)
class JobOutcome:
    """One scheduled job: arrival, run segments, and derived metrics."""

    job: JobRecord
    arrival_hour: float
    service_hours: float
    segments: Tuple[ExecutionSegment, ...]
    #: Failure/requeue cycles (injected worker crashes); preemption
    #: resumes are counted separately via :attr:`preemptions`.
    retries: int = 0

    @property
    def first_start_hour(self) -> float:
        """When the job first got GPUs."""
        return self.segments[0].start_hour

    @property
    def end_hour(self) -> float:
        """When the job's last segment finished."""
        return self.segments[-1].end_hour

    @property
    def queueing_delay_hours(self) -> float:
        """Hours between submission and first start."""
        return self.first_start_hour - self.arrival_hour

    @property
    def completion_time_hours(self) -> float:
        """Job completion time (JCT): submission to finish."""
        return self.end_hour - self.arrival_hour

    @property
    def slowdown(self) -> float:
        """JCT over pure service time (>= 1 for work-conserving runs)."""
        if self.service_hours <= 0:
            return 1.0
        return self.completion_time_hours / self.service_hours

    @property
    def preemptions(self) -> int:
        """How many times the job was evicted and later resumed.

        Failure/requeue cycles split segments too but are accounted in
        :attr:`retries`, not here.
        """
        return max(0, len(self.segments) - 1 - self.retries)

    @property
    def executed_hours(self) -> float:
        """Wall-clock hours actually spent running (sum of segments)."""
        return sum(segment.duration_hours for segment in self.segments)

    @property
    def gpu_hours(self) -> float:
        """GPU-hours consumed across all segments."""
        return sum(segment.gpu_hours for segment in self.segments)


@dataclass(frozen=True)
class TelemetrySample:
    """Fleet state at one scheduling event."""

    hour: float
    busy_gpus: int
    free_gpus: int
    running_jobs: int
    queue_depth: int
    fragmentation: float


@dataclass(frozen=True)
class FleetTelemetry:
    """Event-sampled fleet time series plus integrated GPU activity."""

    samples: Tuple[TelemetrySample, ...]
    total_gpus: int
    active_gpu_hours: float

    @property
    def peak_queue_depth(self) -> int:
        """Deepest the pending queue ever got."""
        if not self.samples:
            return 0
        return max(sample.queue_depth for sample in self.samples)

    @property
    def peak_fragmentation(self) -> float:
        """Worst free-pool fragmentation observed."""
        if not self.samples:
            return 0.0
        return max(sample.fragmentation for sample in self.samples)

    @property
    def span_hours(self) -> float:
        """Hours between the first and last sample."""
        if len(self.samples) < 2:
            return 0.0
        return self.samples[-1].hour - self.samples[0].hour

    def average_utilization(self) -> float:
        """Time-weighted busy-GPU share over the sampled span."""
        span = self.span_hours
        if span <= 0:
            return 0.0
        return self.active_gpu_hours / (self.total_gpus * span)

    def energy_kwh(self, gpu_watts: float = DEFAULT_GPU_WATTS) -> float:
        """Energy proxy: active GPU-hours times per-GPU board power."""
        if gpu_watts < 0:
            raise ValueError("gpu_watts must be non-negative")
        return self.active_gpu_hours * gpu_watts / 1000.0


@dataclass
class ScheduleOutcome:
    """Everything one scheduling run produced."""

    policy: str
    outcomes: List[JobOutcome]
    total_gpus: int
    rejected: List[JobRecord] = field(default_factory=list)
    telemetry: FleetTelemetry = None

    @property
    def makespan_hours(self) -> float:
        """When the last job finished."""
        if not self.outcomes:
            return 0.0
        return max(outcome.end_hour for outcome in self.outcomes)

    @property
    def mean_queueing_delay_hours(self) -> float:
        """Average hours jobs waited before first start."""
        if not self.outcomes:
            return 0.0
        total = sum(o.queueing_delay_hours for o in self.outcomes)
        return total / len(self.outcomes)

    @property
    def p90_queueing_delay_hours(self) -> float:
        """90th-percentile queueing delay."""
        if not self.outcomes:
            return 0.0
        return _percentile([o.queueing_delay_hours for o in self.outcomes], 0.9)

    @property
    def mean_completion_time_hours(self) -> float:
        """Average job completion time."""
        if not self.outcomes:
            return 0.0
        total = sum(o.completion_time_hours for o in self.outcomes)
        return total / len(self.outcomes)

    @property
    def mean_slowdown(self) -> float:
        """Average JCT / service-time ratio."""
        if not self.outcomes:
            return 0.0
        return sum(o.slowdown for o in self.outcomes) / len(self.outcomes)

    def mean_bounded_slowdown(self, threshold_hours: float = 1.0) -> float:
        """Average bounded slowdown: JCT over max(service, threshold).

        The standard scheduling metric -- raw slowdown explodes for
        seconds-long jobs that wait hours, so service times are floored
        at ``threshold_hours``.
        """
        if threshold_hours <= 0:
            raise ValueError("threshold_hours must be positive")
        if not self.outcomes:
            return 0.0
        total = sum(
            max(
                o.completion_time_hours
                / max(o.service_hours, threshold_hours),
                1.0,
            )
            for o in self.outcomes
        )
        return total / len(self.outcomes)

    @property
    def total_preemptions(self) -> int:
        """Evictions across all jobs."""
        return sum(o.preemptions for o in self.outcomes)

    @property
    def total_retries(self) -> int:
        """Failure/requeue cycles across all jobs."""
        return sum(o.retries for o in self.outcomes)

    def gpu_hours_by_type(self) -> Dict[Architecture, float]:
        """GPU-hours consumed per Table II workload type."""
        by_type: Dict[Architecture, float] = {}
        for outcome in self.outcomes:
            arch = outcome.job.workload_type
            by_type[arch] = by_type.get(arch, 0.0) + outcome.gpu_hours
        return by_type

    def distributed_resource_share(self) -> float:
        """GPU-hour share of distributed (non-1w1g) jobs.

        Sec. II-A2: "More than 85% computation resources on our cluster
        are used by distributed training workloads."
        """
        by_type = self.gpu_hours_by_type()
        total = sum(by_type.values())
        if total == 0:
            return 0.0
        single = by_type.get(Architecture.SINGLE, 0.0)
        return 1.0 - single / total

    def utilization(self) -> float:
        """GPU-hours used over GPU-hours available until the makespan."""
        span = self.makespan_hours
        if span == 0:
            return 0.0
        used = sum(o.gpu_hours for o in self.outcomes)
        return used / (self.total_gpus * span)
