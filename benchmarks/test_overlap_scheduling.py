"""Ablation: wait-free gradient-push overlap scheduling (Sec. V-B)."""

from repro.core import Architecture, estimate_step_time
from repro.optim import OverlapSchedule, overlapped_step_time
from repro.trace import features_of_type


def test_overlap_scheduling(benchmark, jobs, hardware):
    population = features_of_type(jobs, Architecture.PS_WORKER)[:800]

    def total_overlapped():
        schedule = OverlapSchedule(overlap_fraction=0.9, tail_fraction=0.1)
        return sum(
            overlapped_step_time(f, hardware, schedule) for f in population
        )

    overlapped = benchmark(total_overlapped)
    baseline = sum(estimate_step_time(f, hardware) for f in population)
    print(
        f"\noverlap scheduling: {baseline:.1f}s (non-overlap) -> "
        f"{overlapped:.1f}s (wait-free push), {baseline / overlapped:.2f}x"
    )
    # Comm-heavy population: the scheduler helps, but cannot beat the
    # ideal-overlap bound of ~3x.
    assert 1.02 < baseline / overlapped < 3.0
