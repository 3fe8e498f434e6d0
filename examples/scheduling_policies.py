"""Cluster scheduling with pluggable policies and model-predicted
runtimes (the repro.sched subsystem).

Replays a stressed slice of the calibrated trace through a fleet of
8-GPU servers under four disciplines -- FIFO, shortest-predicted-job
first, EASY backfill, priority-with-preemption -- then runs the fleet
what-if: re-deploy the profitable PS/Worker jobs as AllReduce-Local
and see whether cluster-wide queueing delay shrinks.

Run with::

    python examples/scheduling_policies.py
"""

from dataclasses import replace

from repro.analysis.context import default_trace
from repro.sched import (
    BackfillPolicy,
    FifoPolicy,
    Fleet,
    ModelRuntimePredictor,
    PriorityPolicy,
    SjfPolicy,
    run_projection_what_if,
    run_schedule,
)


def main() -> None:
    # A 600-job slice with arrivals compressed 4x: enough contention
    # that the policy choice matters.
    jobs = [
        replace(job, submit_day=job.submit_day // 4)
        for job in default_trace(600)
    ]

    # Runtimes are model predictions: analytical step time x a per-job
    # step budget, deterministic per job id.
    durations = ModelRuntimePredictor().durations(jobs)

    print("policy     mean wait   p90 wait   utilization   preemptions")
    for policy in (
        FifoPolicy(),
        SjfPolicy(),
        BackfillPolicy(),
        PriorityPolicy(),
    ):
        outcome = run_schedule(
            jobs, Fleet(num_servers=16), policy, durations=durations
        )
        print(
            f"{outcome.policy:<9}  {outcome.mean_queueing_delay_hours:7.2f} h"
            f"  {outcome.p90_queueing_delay_hours:7.2f} h"
            f"  {outcome.utilization():10.2f}"
            f"  {outcome.total_preemptions:10d}"
        )

    # Telemetry rides along on every run: utilization, fragmentation,
    # queue depth and an energy proxy from active GPU-hours.
    fifo = run_schedule(
        jobs, Fleet(num_servers=16), FifoPolicy(), durations=durations
    )
    telemetry = fifo.telemetry
    print(
        f"\nFIFO telemetry: peak queue {telemetry.peak_queue_depth}, "
        f"peak fragmentation {telemetry.peak_fragmentation:.2f}, "
        f"{telemetry.active_gpu_hours:.0f} active GPU-hours "
        f"(~{telemetry.energy_kwh() / 1000:.1f} MWh)"
    )

    # The Sec. III-C projection, fleet-wide: would re-deploying the
    # PS/Worker jobs as AllReduce-Local shrink queueing delay?
    report = run_projection_what_if(jobs, num_servers=16)
    print(
        f"\nwhat-if: projected {report.projected_jobs} of "
        f"{report.considered_jobs} PS/Worker jobs to AllReduce-Local"
    )
    print(
        f"mean queueing delay "
        f"{report.baseline.mean_queueing_delay_hours:.2f} h -> "
        f"{report.projected.mean_queueing_delay_hours:.2f} h "
        f"({100 * report.queueing_delay_reduction:+.1f}% better), "
        f"{report.gpu_hours_saved:.0f} GPU-hours freed"
    )


if __name__ == "__main__":
    main()
