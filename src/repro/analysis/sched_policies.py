"""Extension study: scheduling-policy comparison on the trace.

The paper characterizes workloads; this experiment asks what its
calibrated trace implies for the *scheduler*.  A stressed slice of the
synthetic trace (the arrival window compressed 4x to create
contention) is replayed through :mod:`repro.sched` under all four
policies -- FIFO, shortest-predicted-job-first, EASY backfill, and
priority-with-preemption -- with per-job runtimes predicted by the
analytical step-time model.  The headline: knowing predicted runtimes
(SJF, backfill) collapses mean queueing delay relative to FIFO, which
is exactly why the paper's performance model is operationally useful.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Tuple

from ..sched import (
    BackfillPolicy,
    FifoPolicy,
    Fleet,
    ModelRuntimePredictor,
    PriorityPolicy,
    ScheduleOutcome,
    SjfPolicy,
    run_schedule,
)
from .context import default_trace
from .result import ExperimentResult

__all__ = ["run", "run_policies"]

#: Trace slice and fleet geometry: small enough to regenerate in
#: seconds, loaded enough (4x-compressed arrivals) that policy choice
#: matters.
TRACE_JOBS = 1200
ARRIVAL_COMPRESSION = 4
NUM_SERVERS = 24


def _stressed_trace(jobs: tuple) -> List:
    """Compress the 50-day arrival window to stress the fleet."""
    return [
        replace(job, submit_day=job.submit_day // ARRIVAL_COMPRESSION)
        for job in jobs
    ]


def run_policies(jobs: tuple = None) -> List[Tuple[str, ScheduleOutcome]]:
    """Schedule the stressed trace under every policy."""
    if jobs is None:
        jobs = default_trace(TRACE_JOBS)
    trace = _stressed_trace(jobs)
    durations = ModelRuntimePredictor().durations(trace)
    results = []
    for policy in (FifoPolicy(), SjfPolicy(), BackfillPolicy(), PriorityPolicy()):
        outcome = run_schedule(
            trace, Fleet(NUM_SERVERS), policy, durations=durations
        )
        results.append((policy.name, outcome))
    return results


def run(jobs: tuple = None) -> ExperimentResult:
    """Compare the four policies on the stressed calibrated trace."""
    results = run_policies(jobs)
    rows = []
    for name, outcome in results:
        telemetry = outcome.telemetry
        rows.append(
            {
                "policy": name,
                "jobs": len(outcome.outcomes),
                "rejected": len(outcome.rejected),
                "mean_wait_h": outcome.mean_queueing_delay_hours,
                "p90_wait_h": outcome.p90_queueing_delay_hours,
                "mean_jct_h": outcome.mean_completion_time_hours,
                "bounded_slowdown": outcome.mean_bounded_slowdown(),
                "utilization": outcome.utilization(),
                "peak_queue": telemetry.peak_queue_depth,
                "preemptions": outcome.total_preemptions,
                "energy_mwh": telemetry.energy_kwh() / 1000.0,
            }
        )
    by_name = {name: outcome for name, outcome in results}
    fifo = by_name["fifo"].mean_queueing_delay_hours
    sjf = by_name["sjf"].mean_queueing_delay_hours
    backfill = by_name["backfill"].mean_queueing_delay_hours
    notes = [
        f"{TRACE_JOBS}-job trace slice, arrivals compressed "
        f"{ARRIVAL_COMPRESSION}x onto {NUM_SERVERS} 8-GPU servers",
        "runtimes predicted by the analytical step-time model "
        "(log-normal step budget per job)",
        f"model-predicted SJF cuts mean queueing delay "
        f"{fifo / max(sjf, 1e-9):.1f}x vs FIFO; EASY backfill "
        f"{fifo / max(backfill, 1e-9):.1f}x",
        "priority policy favors wide gangs via work-conserving "
        f"preemption ({by_name['priority'].total_preemptions} evictions)",
    ]
    return ExperimentResult(
        experiment="sched_policies",
        title="Scheduling policies on the calibrated trace",
        rows=rows,
        notes=notes,
    )
