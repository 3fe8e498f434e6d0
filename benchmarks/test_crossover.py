"""Extension study: break-even Ethernet bandwidth per PS job."""

from repro.core import Architecture, crossover_distribution
from repro.trace import features_of_type


def test_crossover_distribution(benchmark, jobs, hardware):
    population = features_of_type(jobs, Architecture.PS_WORKER)[:300]
    results = benchmark.pedantic(
        crossover_distribution, args=(population, hardware), rounds=1,
        iterations=1,
    )
    always = sum(1 for r in results if r.always_better)
    finite = [r for r in results if r.has_crossover]
    print(
        f"\ncrossover regimes over {len(results)} PS jobs: "
        f"{always} prefer NVLink at ANY fabric speed, "
        f"{len(finite)} have a finite break-even"
    )
    if finite:
        values = sorted(r.value * 8 / 1e9 for r in finite)  # Gbps
        print(
            f"break-even fabric speeds: p50 {values[len(values)//2]:.0f} "
            f"Gbps, p90 {values[int(0.9 * len(values))]:.0f} Gbps"
        )
    # The paper's porting recommendation is robust: a majority of jobs
    # prefer NVLink regardless of Ethernet investments.
    assert always > len(results) / 2
