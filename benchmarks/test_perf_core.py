"""Performance of the library itself: the analytical model must stay
cheap enough for 10^4-job collective analyses."""

from repro.core import batch_breakdowns, estimate_breakdown
from repro.trace import generate_trace


def test_perf_single_estimate(benchmark, jobs, hardware):
    features = jobs[0].features
    breakdown = benchmark(estimate_breakdown, features, hardware)
    assert breakdown.total > 0


def test_perf_population_analysis(benchmark, jobs, hardware):
    population = [job.features for job in jobs[:2000]]
    analyzed = benchmark(batch_breakdowns, population, hardware)
    assert len(analyzed) == 2000


def test_perf_trace_generation(benchmark):
    jobs = benchmark.pedantic(
        generate_trace, kwargs={"num_jobs": 2000, "seed": 3}, rounds=3
    )
    assert len(jobs) == 2000
