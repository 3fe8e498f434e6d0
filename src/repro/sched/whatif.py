"""Fleet-level what-if studies coupling scheduling with projection.

Section III-C's projection asks how one PS/Worker job would fare as
AllReduce; this module asks the *fleet-wide* question: if the cluster
re-deployed its projectable PS/Worker jobs as AllReduce-Local (smaller
gangs, faster steps), would cluster-wide queueing delay shrink?  The
coupling is:

1. each PS/Worker job whose model fits one GPU and whose projected
   throughput improves is rewritten via
   :func:`repro.core.projection.project_to_allreduce_local`;
2. both the original and the projected trace are scheduled onto
   identical fleets under the same policy, with durations from one
   default :class:`~repro.sched.predictor.ModelRuntimePredictor` -- the
   per-job step *budget* is deterministic per job id, so a projected
   job keeps its training work but runs each step at the projected
   speed on fewer GPUs;
3. the two :class:`~repro.sched.outcomes.ScheduleOutcome` runs are
   compared on queueing delay, JCT and GPU-hours.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..core.architectures import Architecture
from ..core.hardware import pai_default_hardware
from ..core.population import FeatureArrays, batch_projection_speedups
from ..core.projection import project_to_allreduce_local
from ..trace.schema import JobRecord
from .engine import run_schedule
from .fleet import Fleet
from .outcomes import ScheduleOutcome
from .policies import FifoPolicy, Policy
from .predictor import ModelRuntimePredictor

__all__ = ["WhatIfReport", "project_trace", "run_projection_what_if"]


@dataclass(frozen=True)
class WhatIfReport:
    """Fleet outcomes before and after the AllReduce projection."""

    baseline: ScheduleOutcome
    projected: ScheduleOutcome
    considered_jobs: int
    projected_jobs: int

    @property
    def queueing_delay_reduction(self) -> float:
        """Relative drop in mean queueing delay (positive = better)."""
        base = self.baseline.mean_queueing_delay_hours
        if base <= 0:
            return 0.0
        return 1.0 - self.projected.mean_queueing_delay_hours / base

    @property
    def completion_time_reduction(self) -> float:
        """Relative drop in mean job completion time."""
        base = self.baseline.mean_completion_time_hours
        if base <= 0:
            return 0.0
        return 1.0 - self.projected.mean_completion_time_hours / base

    @property
    def gpu_hours_saved(self) -> float:
        """GPU-hours the projected deployment frees up."""
        base = sum(o.gpu_hours for o in self.baseline.outcomes)
        projected = sum(o.gpu_hours for o in self.projected.outcomes)
        return base - projected


def project_trace(jobs: Iterable[JobRecord]) -> Tuple[List[JobRecord], int, int]:
    """Rewrite every profitably projectable PS/Worker job.

    A job is rewritten when its model fits one GPU's memory *and* the
    analytical model predicts a throughput win (Fig. 9's criteria),
    both under the Table I hardware.  The speedups come from one batch
    evaluation over the PS/Worker jobs whose model fits.

    Returns:
        The rewritten trace, the number of PS/Worker jobs considered,
        and the number actually projected.
    """
    hardware = pai_default_hardware()
    rewritten = list(jobs)
    ps_rows = [
        index
        for index, job in enumerate(rewritten)
        if job.workload_type is Architecture.PS_WORKER
    ]
    if not ps_rows:
        return rewritten, 0, 0
    population = FeatureArrays.from_workloads(
        rewritten[index].features for index in ps_rows
    )
    fits = np.flatnonzero(
        population.dense_weight_bytes + population.embedding_weight_bytes
        <= hardware.gpu.memory_capacity
    )
    speedups = batch_projection_speedups(
        population.take(fits), Architecture.ALLREDUCE_LOCAL, hardware
    )
    winners = fits[speedups.throughput_speedup > 1.0].tolist()
    for row in winners:
        job = rewritten[ps_rows[row]]
        rewritten[ps_rows[row]] = replace(
            job, features=project_to_allreduce_local(job.features)
        )
    return rewritten, len(ps_rows), len(winners)


def run_projection_what_if(
    jobs: Iterable[JobRecord],
    num_servers: int,
    gpus_per_server: int = 8,
    policy: Optional[Policy] = None,
) -> WhatIfReport:
    """Schedule a trace before and after the AllReduce projection."""
    if policy is None:
        policy = FifoPolicy()
    predictor = ModelRuntimePredictor()
    trace = list(jobs)
    rewritten, considered, projected = project_trace(trace)
    baseline = run_schedule(
        trace,
        Fleet(num_servers, gpus_per_server),
        policy,
        predictor=predictor,
    )
    after = run_schedule(
        rewritten,
        Fleet(num_servers, gpus_per_server),
        policy,
        predictor=predictor,
    )
    return WhatIfReport(
        baseline=baseline,
        projected=after,
        considered_jobs=considered,
        projected_jobs=projected,
    )
