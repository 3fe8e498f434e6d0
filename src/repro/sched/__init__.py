"""Cluster-scale gang scheduling with pluggable policies.

The paper characterizes jobs one at a time; this subsystem adds the
cluster dimension as a first-class simulator.  A calibrated trace of
:class:`~repro.trace.schema.JobRecord` arrivals is replayed against a
:class:`Fleet` of 8-GPU servers by a discrete-event engine
(:func:`run_schedule`) under a pluggable :class:`Policy`:

* :class:`FifoPolicy` -- strict arrival order with head-of-line
  blocking;
* :class:`SjfPolicy` -- shortest *model-predicted* job first, where
  predictions couple the analytical step-time model with a per-job
  step budget (:class:`ModelRuntimePredictor`);
* :class:`BackfillPolicy` -- EASY backfill behind a head reservation;
* :class:`PriorityPolicy` -- priority order with work-conserving
  preemption.

Placement is architecture shaped (local gangs on one server, PS/Worker
spread one per server, packed cluster architectures fill greedily), so
fragmentation matters and is tracked in the per-event
:class:`FleetTelemetry` alongside utilization, queue depth and an
energy proxy.  :mod:`repro.sched.whatif` closes the loop with
Sec. III-C: it projects the trace's PS/Worker jobs to AllReduce-Local
and measures whether fleet-wide queueing delay shrinks.
"""

from .engine import run_schedule
from .faults import CrashSpec, SchedFaults, StormSpec
from .fleet import Fleet, Placement
from .outcomes import (
    ExecutionSegment,
    FleetTelemetry,
    JobOutcome,
    ScheduleOutcome,
    TelemetrySample,
)
from .policies import (
    BackfillPolicy,
    FifoPolicy,
    PendingJob,
    Policy,
    PriorityPolicy,
    RunningJob,
    SchedulingContext,
    SchedulingDecision,
    SjfPolicy,
    default_priority,
)
from .predictor import ModelRuntimePredictor, sample_durations
from .whatif import WhatIfReport, project_trace, run_projection_what_if

__all__ = [
    "BackfillPolicy",
    "CrashSpec",
    "ExecutionSegment",
    "FifoPolicy",
    "Fleet",
    "FleetTelemetry",
    "JobOutcome",
    "ModelRuntimePredictor",
    "PendingJob",
    "Placement",
    "Policy",
    "PriorityPolicy",
    "RunningJob",
    "SchedFaults",
    "ScheduleOutcome",
    "SchedulingContext",
    "SchedulingDecision",
    "SjfPolicy",
    "StormSpec",
    "TelemetrySample",
    "WhatIfReport",
    "default_priority",
    "project_trace",
    "run_projection_what_if",
    "run_schedule",
    "sample_durations",
]
