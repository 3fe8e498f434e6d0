"""Cluster occupancy: schedule the trace onto a GPU fleet.

Replays the synthetic trace on a 512-server fleet under FIFO,
reproduces the Sec. II-A2 claim that distributed training consumes
more than 85% of compute resources, and renders a per-step timeline of
one simulated job for good measure.

Run with::

    python examples/cluster_occupancy.py
"""

from repro.core import Architecture, TABLE_VI_EFFICIENCIES, testbed_v100_hardware
from repro.graphs import Deployment, build_resnet50
from repro.sched import FifoPolicy, Fleet, run_schedule
from repro.sim import render_timeline, simulate_step
from repro.trace import generate_trace


def main() -> None:
    jobs = generate_trace(num_jobs=3000)
    # PS jobs wider than the 512 servers can never be placed one worker
    # per server; the engine rejects them.
    outcome = run_schedule(
        jobs, Fleet(512, 8), FifoPolicy(), collect_telemetry=False
    )

    print(
        f"scheduled {len(outcome.outcomes)} jobs on "
        f"{outcome.total_gpus} GPUs "
        f"({len(outcome.rejected)} rejected as oversized)"
    )
    print(f"makespan: {outcome.makespan_hours / 24:.1f} days")
    print(f"average queueing delay: {outcome.mean_queueing_delay_hours:.2f} h")
    print(f"cluster utilization: {outcome.utilization():.1%}")
    print(
        f"distributed-training resource share: "
        f"{outcome.distributed_resource_share():.1%} (paper: >85%)"
    )

    print("\nGPU-hours by workload type:")
    by_type = outcome.gpu_hours_by_type()
    total = sum(by_type.values())
    for arch, hours in sorted(by_type.items(), key=lambda kv: -kv[1]):
        print(f"  {str(arch):18s} {hours:12.0f} GPU-h  ({hours / total:.1%})")

    print("\none simulated ResNet50 step on the testbed (timeline view):")
    measurement = simulate_step(
        build_resnet50(),
        Deployment(Architecture.ALLREDUCE_LOCAL, 4),
        testbed_v100_hardware(),
        TABLE_VI_EFFICIENCIES["ResNet50"],
    )
    print(render_timeline(measurement, width=64, max_resources=7))


if __name__ == "__main__":
    main()
