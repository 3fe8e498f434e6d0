"""Model-predicted job runtimes for the scheduler.

The trace stores no durations, so the scheduler needs a runtime
estimate per job.  Two sources are provided:

* :func:`sample_durations` -- the log-normal draw every production
  cluster study reports, deterministic per ``(seed, job_id)``.  This is
  :func:`~repro.sched.engine.run_schedule`'s default.
* :class:`ModelRuntimePredictor` -- couples the analytical performance
  model (:func:`repro.core.timemodel.estimate_step_time`) with a
  deterministic per-job step *count*: duration = predicted step time
  (a function of the job's workload features and the cluster hardware)
  times the number of training steps.  Two jobs with the same step
  budget but different architectures then get different predicted
  runtimes -- which is what makes shortest-job-first and what-if
  projections (:mod:`repro.sched.whatif`) meaningful.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from ..core.efficiency import PAPER_DEFAULT_EFFICIENCY, EfficiencyModel
from ..core.features import WorkloadFeatures
from ..core.hardware import HardwareConfig, pai_default_hardware
from ..core.population import FeatureArrays, batch_step_times
from ..core.timemodel import PAPER_MODEL_OPTIONS, ModelOptions, estimate_step_time
from ..trace.schema import JobRecord

__all__ = ["ModelRuntimePredictor", "sample_durations"]

_SECONDS_PER_HOUR = 3600.0


def sample_durations(
    jobs: Iterable[JobRecord],
    median_hours: float = 2.0,
    sigma: float = 1.2,
    seed: int = 7,
) -> Dict[int, float]:
    """Deterministic per-job log-normal runtimes, keyed by job id."""
    if not 0 < median_hours < math.inf:
        raise ValueError("median_hours must be positive and finite")
    if not 0 <= sigma < math.inf:
        raise ValueError("sigma must be non-negative and finite")
    durations = {}
    for job in jobs:
        rng = np.random.default_rng((seed, job.job_id))
        durations[job.job_id] = float(
            rng.lognormal(mean=math.log(median_hours), sigma=sigma)
        )
    return durations


class ModelRuntimePredictor:
    """Predict job durations as step time x sampled step count.

    The per-step time comes from the paper's analytical model under the
    given hardware/efficiency assumptions; the step count is drawn
    log-normal per ``(seed, job_id)`` so that re-deploying the *same*
    job under a different architecture (a what-if projection) keeps its
    training-step budget while changing its speed.
    """

    def __init__(
        self,
        hardware: Optional[HardwareConfig] = None,
        efficiency: EfficiencyModel = PAPER_DEFAULT_EFFICIENCY,
        options: ModelOptions = PAPER_MODEL_OPTIONS,
        median_steps: float = 20000.0,
        sigma: float = 1.1,
        seed: int = 7,
        max_hours: Optional[float] = 168.0,
    ) -> None:
        if not 0 < median_steps < math.inf:
            raise ValueError("median_steps must be positive and finite")
        if not 0 <= sigma < math.inf:
            raise ValueError("sigma must be non-negative and finite")
        if max_hours is not None and not 0 < max_hours < math.inf:
            raise ValueError("max_hours must be positive and finite")
        self.hardware = hardware if hardware is not None else pai_default_hardware()
        self.efficiency = efficiency
        self.options = options
        self.median_steps = median_steps
        self.sigma = sigma
        self.seed = seed
        self.max_hours = max_hours
        self._step_time_cache: Dict[WorkloadFeatures, float] = {}

    def step_time_seconds(self, features: WorkloadFeatures) -> float:
        """Predicted per-step time of one job, in seconds."""
        cached = self._step_time_cache.get(features)
        if cached is None:
            cached = estimate_step_time(
                features, self.hardware, self.efficiency, self.options
            )
            self._step_time_cache[features] = cached
        return cached

    def num_steps(self, job_id: int) -> float:
        """The job's training-step budget (deterministic per job id)."""
        rng = np.random.default_rng((self.seed, job_id))
        return float(rng.lognormal(mean=math.log(self.median_steps), sigma=self.sigma))

    def duration_hours(self, job: JobRecord) -> float:
        """Predicted wall-clock duration of one job, in hours.

        Clamped to ``max_hours`` when set: production clusters bound
        job lifetimes (checkpoints plus kill policies), and the
        log-normal tail would otherwise let one straggler dominate the
        fleet makespan.
        """
        seconds = self.step_time_seconds(job.features) * self.num_steps(job.job_id)
        hours = seconds / _SECONDS_PER_HOUR
        if self.max_hours is not None:
            hours = min(hours, self.max_hours)
        return hours

    def durations(self, jobs: Iterable[JobRecord]) -> Dict[int, float]:
        """Predicted durations for a whole trace, keyed by job id."""
        return self.batch_duration_hours(list(jobs))

    def batch_duration_hours(self, jobs: Sequence[JobRecord]) -> Dict[int, float]:
        """Predicted durations for one batch, via the vectorized model.

        Step times come from :func:`repro.core.population.batch_step_times`
        over the batch's feature columns -- one array-program evaluation
        instead of one :func:`~repro.core.timemodel.estimate_step_time`
        call per job.  The arithmetic downstream of the step time (step
        count draw, unit conversion, ``max_hours`` clamp) is written
        exactly as in :meth:`duration_hours`, and the vectorized model
        itself is pinned bit-identical to the scalar one, so this
        returns the same floats as the per-job path, which stays the
        single-job API and the reference the tests compare against.
        """
        jobs = list(jobs)
        if not jobs:
            return {}
        arrays = FeatureArrays.from_workloads([job.features for job in jobs])
        step_times = batch_step_times(
            arrays, self.hardware, self.efficiency, self.options
        )
        durations: Dict[int, float] = {}
        for index, job in enumerate(jobs):
            seconds = float(step_times[index]) * self.num_steps(job.job_id)
            hours = seconds / _SECONDS_PER_HOUR
            if self.max_hours is not None:
                hours = min(hours, self.max_hours)
            durations[job.job_id] = hours
        return durations
