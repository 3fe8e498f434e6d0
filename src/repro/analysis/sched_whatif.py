"""Extension study: fleet-wide effect of the AllReduce projection.

Section III-C projects individual PS/Worker jobs onto AllReduce and
reports per-job speedups (Fig. 9).  This experiment closes the loop at
the cluster level: every profitably projectable PS/Worker job in a
stressed trace slice is re-deployed as AllReduce-Local (faster steps,
at most 8 GPUs on one server), and both deployments are scheduled onto
identical fleets under FIFO.  Because each job keeps its training-step
budget, any change in queueing delay, completion time or GPU-hours is
attributable to the architecture shift alone.
"""

from __future__ import annotations

from .context import default_trace
from .result import ExperimentResult
from ..sched import WhatIfReport, run_projection_what_if
from .sched_policies import NUM_SERVERS, TRACE_JOBS, _stressed_trace

__all__ = ["run", "run_what_if"]


def run_what_if(jobs: tuple = None) -> WhatIfReport:
    """The projection what-if on the stressed trace slice."""
    if jobs is None:
        jobs = default_trace(TRACE_JOBS)
    return run_projection_what_if(_stressed_trace(jobs), num_servers=NUM_SERVERS)


def run(jobs: tuple = None) -> ExperimentResult:
    """Schedule the trace before and after the PS->AllReduce shift."""
    report = run_what_if(jobs)
    rows = []
    for scenario, outcome in (
        ("PS/Worker as-is", report.baseline),
        ("projected to AllReduce-Local", report.projected),
    ):
        rows.append(
            {
                "scenario": scenario,
                "jobs": len(outcome.outcomes),
                "rejected": len(outcome.rejected),
                "mean_wait_h": outcome.mean_queueing_delay_hours,
                "p90_wait_h": outcome.p90_queueing_delay_hours,
                "mean_jct_h": outcome.mean_completion_time_hours,
                "utilization": outcome.utilization(),
                "gpu_hours": sum(o.gpu_hours for o in outcome.outcomes),
                "energy_mwh": outcome.telemetry.energy_kwh() / 1000.0,
            }
        )
    notes = [
        f"projected {report.projected_jobs} of {report.considered_jobs} "
        "PS/Worker jobs (model fits one GPU and throughput improves)",
        f"fleet-wide mean queueing delay drops "
        f"{100.0 * report.queueing_delay_reduction:.1f}%; "
        f"{report.gpu_hours_saved:.0f} GPU-hours freed",
        "same per-job step budgets in both runs: deltas are due to the "
        "architecture shift alone",
    ]
    return ExperimentResult(
        experiment="sched_whatif",
        title="Fleet what-if: projecting PS/Worker to AllReduce-Local",
        rows=rows,
        notes=notes,
    )
