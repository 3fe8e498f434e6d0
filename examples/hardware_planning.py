"""Hardware planning with the analytical model (Sec. III-C2 / Fig. 11).

Answers the provisioning questions the paper poses: what do faster
networks, faster GPUs or faster memory buy for each class of workload
-- and how the answer flips once PS/Worker jobs move to AllReduce-Local.

Run with::

    python examples/hardware_planning.py
"""

from repro.core import Architecture, pai_default_hardware, sweep_all_resources
from repro.core.projection import project_to_allreduce_local
from repro.trace import features_of_type, generate_trace


def show_panel(title, population, hardware) -> None:
    print(f"\n{title} ({len(population)} jobs)")
    series_by_resource = sweep_all_resources(population, hardware)
    for resource, series in series_by_resource.items():
        points = "  ".join(
            f"{p.normalized_value:4.2g}x->{p.average_speedup:5.3f}"
            for p in series.points
        )
        print(f"  {resource:10s} {points}   (per-unit {series.sensitivity:.3f})")
    winner = max(series_by_resource.values(), key=lambda s: s.sensitivity)
    print(f"  => invest in: {winner.resource}")


def main() -> None:
    hardware = pai_default_hardware()
    jobs = tuple(generate_trace(num_jobs=8000))

    show_panel(
        "1w1g workloads",
        features_of_type(jobs, Architecture.SINGLE)[:2000],
        hardware,
    )
    show_panel(
        "1wng workloads",
        features_of_type(jobs, Architecture.LOCAL_CENTRALIZED),
        hardware,
    )
    ps = features_of_type(jobs, Architecture.PS_WORKER)[:2000]
    show_panel("PS/Worker workloads", ps, hardware)
    show_panel(
        "the same jobs, ported to AllReduce-Local",
        [project_to_allreduce_local(f) for f in ps],
        hardware,
    )
    print(
        "\nNote the bottleneck shift: the PS population wants Ethernet, "
        "but once ported to NVLink-backed AllReduce it wants GPU memory "
        "bandwidth (Fig. 11c vs 11d)."
    )

    # Bonus: is a fabric upgrade ever a substitute for porting?
    from repro.core import crossover_distribution

    results = crossover_distribution(ps[:300], hardware)
    always = sum(1 for r in results if r.always_better)
    print(
        f"\nfabric-vs-port crossover over {len(results)} PS jobs: "
        f"{always} prefer the NVLink port at ANY Ethernet speed; the "
        f"rest have a finite break-even bandwidth."
    )


if __name__ == "__main__":
    main()
