"""The per-job runtime predictor, kept as the tests' oracle.

:meth:`repro.sched.ModelRuntimePredictor.batch_duration_hours` predicts
a whole batch at once: step times from the vectorized model and step
budgets from one seeding pass.  These functions predict one job the
direct way -- :func:`~repro.core.timemodel.estimate_step_time` and a
``default_rng((seed, job_id))`` per job -- under the paper's
configuration, as the predictor is, and the tests require the batch
path to return the same floats.
"""

import math

import numpy as np

from repro.core.efficiency import PAPER_DEFAULT_EFFICIENCY
from repro.core.hardware import pai_default_hardware
from repro.core.timemodel import PAPER_MODEL_OPTIONS, estimate_step_time

_SECONDS_PER_HOUR = 3600.0


def step_time_seconds(features) -> float:
    """Predicted per-step time of one job, in seconds."""
    return estimate_step_time(
        features,
        pai_default_hardware(),
        PAPER_DEFAULT_EFFICIENCY,
        PAPER_MODEL_OPTIONS,
    )


def num_steps(predictor, job_id: int) -> float:
    """The job's training-step budget (deterministic per job id)."""
    rng = np.random.default_rng((predictor.seed, job_id))
    return float(
        rng.lognormal(mean=math.log(predictor.median_steps), sigma=predictor.sigma)
    )


def duration_hours(predictor, job) -> float:
    """Predicted wall-clock duration of one job, in hours, clamped to
    the predictor's ``max_hours`` when set."""
    seconds = step_time_seconds(job.features) * num_steps(
        predictor, job.job_id
    )
    hours = seconds / _SECONDS_PER_HOUR
    if predictor.max_hours is not None:
        hours = min(hours, predictor.max_hours)
    return hours
